import sys
from itertools import product

import pytest

import philab as pl
from philab import cover, delta
from philab.delta import ALL, DeltaFamily, cached_delta_type

from conftest import reference_finitely_satisfiable


def literal_pairs(c, t, zs, s):
    return [(c, t)] + list(zip(zs, s))


class TestDeltaEval:
    def test_arity_zero_is_sign_occurrence(self, s1):
        fam = DeltaFamily(0)
        assert pl.delta_eval(s1, fam, 0, (), 1, ())
        assert pl.delta_eval(s1, fam, 0, (), 0, ())
        constant = pl.BipartiteStructure(((1,), (1,)), frozenset(), frozenset({0}))
        assert not pl.delta_eval(constant, DeltaFamily(0), 0, (), 0, ())

    def test_s1_readoff(self, s1):
        assert pl.delta_eval(s1, DeltaFamily(1), 0, (1,), 1, (1,))  # row 11

    def test_chain_scan(self, s2):
        # an element >= 1 and >= 4 exists (the top one), despite the trap
        assert pl.delta_eval(s2, DeltaFamily(1), 0, (3,), 0, (0,))

    def test_arity_mismatch(self, s1):
        with pytest.raises(pl.ArityMismatchError):
            pl.delta_eval(s1, DeltaFamily(2), 0, (1,), 1, (1,))

    @pytest.mark.parametrize("arity", [1.5, -1, "1", None])
    def test_arity_must_be_an_int_at_least_0(self, arity):
        with pytest.raises(ValueError, match="arity must be an int >= 0"):
            DeltaFamily(arity)

    def test_a_bool_arity_is_stored_as_its_int(self, s1):
        family = DeltaFamily(True)
        assert type(family.arity) is int and family == DeltaFamily(1)
        assert pl.delta_equal(s1, family, 0, 1, [0, 1]) == pl.delta_equal(
            s1, DeltaFamily(1), 0, 1, [0, 1])

    def test_matches_consistency_of_literals(self, corpus):
        # cross-module identity on non-contradictory literal sets
        for _, s in corpus[:3]:
            fam = DeltaFamily(1)
            for c in range(s.n):
                for z in range(s.n):
                    for t, sign in product((0, 1), repeat=2):
                        try:
                            p = pl.PhiType(literal_pairs(c, t, (z,), (sign,)))
                        except pl.LiteralClashError:
                            continue
                        assert pl.delta_eval(s, fam, c, (z,), t, (sign,)) == (
                            s.is_consistent(p)
                        )


class TestDeltaType:
    def test_table_size_formula(self, s1):
        # |D|^n * 2^(n+1) entries
        dt = pl.delta_type(s1, DeltaFamily(1), 0, [1])
        assert len(dt.table) == 1 * 2 * 2
        dt2 = pl.delta_type(s1, DeltaFamily(1), 0, [0, 1])
        assert len(dt2.table) == 2 * 2 * 2

    def test_empty_domain_positive_arity(self, s1):
        dt = pl.delta_type(s1, DeltaFamily(2), 0, [])
        assert dt.table == {}

    def test_arity_zero_two_entries(self, s1):
        dt = pl.delta_type(s1, DeltaFamily(0), 1, [])
        assert len(dt.table) == 2

    def test_resource_guard(self, s1, monkeypatch):
        monkeypatch.setattr(delta, "DEFAULT_TABLE_LIMIT", 3)
        with pytest.raises(pl.ResourceLimitError):
            pl.delta_type(s1, DeltaFamily(1), 0, [0, 1])

    def test_cached_identical(self, s1):
        fam = DeltaFamily(1)
        a = cached_delta_type(s1, fam, 0, (0, 1))
        b = cached_delta_type(s1, fam, 0, (1, 0))
        assert a is b  # domain canonicalization shares the entry

    def test_cached_table_cannot_be_changed_through_a_returned_value(self):
        s, fam = pl.gen_linear_order(4, [0, 2]), DeltaFamily(1)
        t = cached_delta_type(s, fam, 1, [0, 2])
        with pytest.raises(AttributeError):
            t.table.clear()
        with pytest.raises(TypeError):
            t.table[next(iter(t.table))] = False
        with pytest.raises(AttributeError):
            t.table = {}
        again = cached_delta_type(s, fam, 1, [0, 2])
        assert len(again.table) == 8
        assert vars(again) == vars(pl.delta_type(s, fam, 1, [0, 2]))
        assert list(again.table) == list(pl.delta_type(s, fam, 1, [0, 2]).table)


class TestDeltaEqual:
    def test_identity(self, s1):
        assert pl.delta_equal(s1, DeltaFamily(1), 0, 0, [0, 1])

    def test_duplicate_columns_always_equal(self):
        rows = ((0, 0), (1, 1), (1, 1), (0, 0))
        s = pl.BipartiteStructure(rows, frozenset(), frozenset(range(2)))
        for arity in (0, 1, 2):
            assert pl.delta_equal(s, DeltaFamily(arity), 0, 1, [0, 1])

    def test_s1_arity_zero_equal(self, s1):
        assert pl.delta_equal(s1, DeltaFamily(0), 0, 1, [])

    def test_disagreement_matches_tables(self, s2):
        assert not pl.delta_equal(s2, DeltaFamily(1), 0, 3, range(4))
        t0 = pl.delta_type(s2, DeltaFamily(1), 0, range(4))
        t3 = pl.delta_type(s2, DeltaFamily(1), 3, range(4))
        assert t0.table != t3.table

    def test_guard_counts_signature_entries(self, s1, monkeypatch):
        # arity 2 over two columns: 32 table entries, 8 signature entries;
        # column 0's signature is memoized by the second call, so the third
        # call's guard sees only column 1's
        fam = DeltaFamily(2)
        monkeypatch.setattr(delta, "DEFAULT_TABLE_LIMIT", 10)
        with pytest.raises(pl.ResourceLimitError):
            pl.delta_type(s1, fam, 0, [0, 1])
        assert pl.delta_equal(s1, fam, 0, 0, [0, 1])
        monkeypatch.setattr(delta, "DEFAULT_TABLE_LIMIT", 7)
        with pytest.raises(pl.ResourceLimitError):
            pl.delta_equal(s1, fam, 0, 1, [0, 1])

    def test_empty_domain_positive_arity_all_equal(self):
        # columns 0 and 1 differ in which signs occur, yet over the empty
        # domain every table is empty
        s = pl.BipartiteStructure(((1, 0), (1, 1)), frozenset(), frozenset({0, 1}))
        assert not pl.delta_equal(s, DeltaFamily(0), 0, 1, [])
        for arity in (1, 2, 3):
            assert pl.delta_equal(s, DeltaFamily(arity), 0, 1, [])

    def test_parity_separated_only_at_full_arity(self):
        # every z-pattern twice; column 3 is the parity of the pattern, column
        # 4 is 1 on one copy and 0 on the other: both subjects' rows meet
        # every sign pair on two z's, but only column 4 meets every triple
        rows = tuple((*zs, sum(zs) % 2, copy)
                     for copy in (0, 1) for zs in product((0, 1), repeat=3))
        s = pl.BipartiteStructure(rows, frozenset(), frozenset(range(5)))
        for arity, equal in ((2, True), (3, False), (4, False)):
            fam = DeltaFamily(arity)
            assert pl.delta_equal(s, fam, 3, 4, range(3)) == equal
            tables = [pl.delta_type(s, fam, c, range(3)).table for c in (3, 4)]
            assert (tables[0] == tables[1]) == equal

    def test_equivalence_relation(self, corpus):
        for _, s in corpus[:2]:
            fam = DeltaFamily(1)
            dom = s.base_members()
            params = range(s.n)
            eq = {
                (c0, c1): bool(pl.delta_equal(s, fam, c0, c1, dom))
                for c0 in params
                for c1 in params
            }
            for c0 in params:
                assert eq[(c0, c0)]
                for c1 in params:
                    assert eq[(c0, c1)] == eq[(c1, c0)]
                    for c2 in params:
                        if eq[(c0, c1)] and eq[(c1, c2)]:
                            assert eq[(c0, c2)]

    def test_monotone_refinement(self, corpus):
        # equality over a domain restricts to equality over subdomains
        for _, s in corpus[:3]:
            fam = DeltaFamily(1)
            big = tuple(range(min(s.n, 4)))
            small = big[:2]
            for c0 in range(s.n):
                for c1 in range(s.n):
                    if pl.delta_equal(s, fam, c0, c1, big):
                        assert pl.delta_equal(s, fam, c0, c1, small)


class TestFinitelySatisfiable:
    def test_base_member_trivially_satisfiable(self, s2):
        fam = DeltaFamily(1)
        base = s2.base_members()
        for k in (1, 2, ALL):
            assert pl.finitely_satisfiable_in(s2, fam, 0, base, base, k)

    def test_empty_base_false(self, s1):
        fam = DeltaFamily(1)
        assert not pl.finitely_satisfiable_in(s1, fam, 0, [0, 1], [], ALL)
        assert not pl.finitely_satisfiable_in(s1, fam, 0, [0, 1], [], 1)

    def test_k_one_and_all_separate(self):
        # frozen from a randomized search: every single entry of column 4's
        # table is matched by some base column, but no base column matches
        # the whole table
        rows = (
            (1, 0, 0, 0, 0),
            (0, 1, 1, 0, 1),
            (0, 0, 1, 1, 1),
            (1, 1, 1, 0, 0),
        )
        s = pl.BipartiteStructure(rows, frozenset(range(4)), frozenset(range(5)))
        fam = DeltaFamily(1)
        base = range(4)
        assert pl.finitely_satisfiable_in(s, fam, 4, range(5), base, 1)
        assert not pl.finitely_satisfiable_in(s, fam, 4, range(5), base, ALL)

    def test_all_implies_every_finite_k(self, corpus):
        for _, s in corpus[:2]:
            fam = DeltaFamily(1)
            base = s.base_members()
            if not base:
                continue
            for c in range(s.n):
                if pl.finitely_satisfiable_in(s, fam, c, base, base, ALL):
                    for k in (1, 2, 3):
                        assert pl.finitely_satisfiable_in(s, fam, c, base, base, k)

    def test_closed_packs_are_not_read_from_the_signature_memo(self, corpus):
        # at arity 2 over two or more parameters a closed pack holds entries
        # a signature lacks; with every signature over the base memoized
        # first, finite k must still read the closed packs
        fam = DeltaFamily(2)
        for _, s in corpus[:40]:
            base = s.base_members()
            for c, b in product(range(s.n), base):
                pl.delta_equal(s, fam, c, b, base)
            for c, k in product(range(s.n), (1, 2)):
                assert pl.finitely_satisfiable_in(s, fam, c, base, base, k) == (
                    reference_finitely_satisfiable(s, fam, c, base, base, k))

    def test_cover_search_guard(self):
        # Rows: all-zero; R_j = {b_j} + {d_i : i != j}; Z_j = {b_j}; the
        # subject c is 1 on R_0, R_1 and Z_0.  Base b_j's table over the d's
        # differs from c's only at (d_j, t=1, s=1), so the disagreement sets
        # are disjoint singletons: every k < n holds, and deciding k = n - 1
        # must try every smaller entry subset, past the cover search limit.
        n = 17
        b, d, c = range(n), range(n, 2 * n), 2 * n

        def row(ones):
            return tuple(int(col in ones) for col in range(2 * n + 1))

        rows = [row(set())]
        rows += [row({b[j], *(d[i] for i in b if i != j), *([c] if j < 2 else [])})
                 for j in b]
        rows += [row({b[j], *([c] if j == 0 else [])}) for j in b]
        s = pl.BipartiteStructure(tuple(rows), frozenset(b), frozenset(range(c + 1)))
        dt = pl.delta_type(s, DeltaFamily(1), c, d)
        for j in b:
            other = pl.delta_type(s, DeltaFamily(1), j, d)
            assert [e for e in dt.table if dt.table[e] != other.table[e]] == [
                ((d[j],), 1, (1,))
            ]
        assert pl.finitely_satisfiable_in(s, DeltaFamily(1), c, d, b, 3)
        assert not pl.finitely_satisfiable_in(s, DeltaFamily(1), c, d, b, n)
        with pytest.raises(pl.ResourceLimitError):
            pl.finitely_satisfiable_in(s, DeltaFamily(1), c, d, b, n - 1)

    @pytest.mark.parametrize("seed, subject", [(3, 54), (1, 43)])
    def test_dominated_masks_pruned_past_the_cover_limit(self, seed, subject, monkeypatch):
        # over B at the dimension, the unpruned disagreement sets exhaust the
        # default cover limit at k = 2; with every set contained in another
        # dropped, the search answers as the unlimited reference: False for
        # the first subject, True (no cover at all) for the second
        s = pl.gen_random_bounded(seed, 200, 60)
        family = DeltaFamily(pl.independence_dimension(s).id_value)
        base = s.base_members()
        with pytest.raises(pl.ResourceLimitError):
            reference_finitely_satisfiable(s, family, subject, base, base, 2)
        with monkeypatch.context() as unlimited:
            unlimited.setattr(cover, "DEFAULT_COVER_LIMIT", sys.maxsize)
            expected = reference_finitely_satisfiable(s, family, subject, base, base, 2)
        assert pl.finitely_satisfiable_in(s, family, subject, base, base, 2) == expected

    def test_bad_k_rejected(self, s1):
        # k is read first: an empty base once answered False for any k
        for k, base in product((0, -3, 1.5, "2", None), ([], [0], [0, 1])):
            with pytest.raises(ValueError, match=r"^k must be >= 1 or ALL$"):
                pl.finitely_satisfiable_in(s1, DeltaFamily(1), 0, [0, 1], base, k)


ENTRY_POINTS = {
    "delta_type": lambda s, f, bad: pl.delta_type(s, f, 0, bad),
    "cached_delta_type": lambda s, f, bad: cached_delta_type(s, f, 0, bad),
    "delta_equal": lambda s, f, bad: pl.delta_equal(s, f, 0, 1, bad),
    "finitely_satisfiable_in domain":
        lambda s, f, bad: pl.finitely_satisfiable_in(s, f, 0, bad, [1]),
    "finitely_satisfiable_in base":
        lambda s, f, bad: pl.finitely_satisfiable_in(s, f, 0, [1], bad),
}


class TestParameterChecks:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad, name", [
        pytest.param([0, "a"], "'a'", id="str"),
        pytest.param([0, None], "None", id="none"),
        pytest.param([[0]], r"\[0\]", id="list"),
    ])
    def test_non_int_and_unhashable_parameters_are_unknown(self, s1, entry, bad, name):
        # a list that cannot be sorted or hashed is checked before the sort
        with pytest.raises(pl.UnknownParameterError, match=f"^unknown parameter {name}$"):
            ENTRY_POINTS[entry](s1, DeltaFamily(1), bad)
