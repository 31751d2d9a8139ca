import ast
from itertools import product
from pathlib import Path

import pytest

import philab as pl
from philab.goodconfig import GoodConfiguration
from philab import oracle
from philab.oracle import oracle_finitely_satisfiable

from conftest import (
    reference_oracle_all_good_configs,
    reference_oracle_all_good_configs_naive,
    reference_oracle_finitely_satisfiable,
    reference_oracle_vc,
    reference_oracle_vc_unpruned,
    reference_same_delta_type,
)


class TestOracleVc:
    def test_s1(self, s1):
        assert pl.oracle_vc(s1) == 2

    def test_chain(self, s2):
        assert pl.oracle_vc(s2) == 1

    def test_shattered(self):
        assert pl.oracle_vc(pl.gen_shattered(3)) == 3

    def test_guard(self):
        s = pl.gen_linear_order(11, [0])
        with pytest.raises(pl.ResourceLimitError):
            pl.oracle_vc(s)

    @pytest.mark.parametrize("rows", [
        ((0, 1, 1), (0, 1, 1), (1, 0, 1), (0, 1, 1), (1, 0, 1)),
        ((True, 1.0, 0), (0.0, False, 1), (1, True, 1), (0, 0, 0.0)),
        ((), (), ()),
        ((1, 0, 1, 1),) * 4,
        *(pl.gen_shattered(k).truth for k in range(6)),
        *(pl.gen_shattered(k).truth * 2 for k in range(6)),
        *(tuple(row + (1,) for row in pl.gen_shattered(k).truth) for k in range(6)),
    ], ids=["repeated", "bool-float", "n0", "constant",
            *(f"shattered:{k}{variant}" for variant in ("", "-rows-twice", "-constant-column")
              for k in range(6))])
    def test_matches_row_scans(self, rows):
        # shattered:k has exactly 2^k distinct rows, the edge of the
        # pigeonhole skip; repeated rows must not count, and a constant
        # column adds a (k+1)-set that the skip passes over
        s = pl.BipartiteStructure(rows, frozenset(), frozenset())
        assert pl.oracle_vc(s) == reference_oracle_vc(s) == reference_oracle_vc_unpruned(s)


class TestOracleMinIsolating:
    def test_eqrel_growth(self):
        for n, expected in ((1, 2), (2, 3), (3, 4)):
            s = pl.gen_eqrel(pl.EqRelSpec([n + 1, 1], [n, 1]))
            p = pl.eqrel_target_type(s, 0)
            assert pl.oracle_min_isolating(s, p) == expected

    def test_shattered_full_size(self):
        for k in (2, 3):
            s = pl.gen_shattered(k)
            for a in range(s.m):
                p = s.full_trace(a)
                assert pl.oracle_min_isolating(s, p) == k

    def test_empty_type(self, s1):
        assert pl.oracle_min_isolating(s1, pl.EMPTY_TYPE) == 0

    def test_guard(self, s1):
        wide = pl.gen_linear_order(15, range(15))
        p = wide.trace(7, range(15))
        with pytest.raises(pl.ResourceLimitError):
            pl.oracle_min_isolating(wide, p)


class TestOracleGoodConfigs:
    def test_contains_empty(self, s1):
        assert () in pl.oracle_all_good_configs(s1, pl.EMPTY_TYPE, 2)

    def test_outputs_pass_subject_checker(self, corpus):
        for _, s in corpus[:8]:
            if len(s.theta_set) > 10:
                continue
            for pairs in pl.oracle_all_good_configs(s, pl.EMPTY_TYPE, 2):
                assert pl.is_good_configuration(
                    s, GoodConfiguration(pairs, pl.EMPTY_TYPE)
                )

    def test_max_size_at_most_dimension(self, corpus):
        for _, s in corpus[:10]:
            if len(s.theta_set) > 10:
                continue
            dim = pl.oracle_vc(s) if s.n <= 10 else None
            if dim is None:
                continue
            configs = pl.oracle_all_good_configs(s, pl.EMPTY_TYPE, min(3, dim + 1))
            assert max(len(c) for c in configs) <= dim

    def test_lexicographic_order(self):
        s = pl.gen_random_bounded(11, 12, 4, pl.generators.INTERVALS)
        configs = pl.oracle_all_good_configs(s, pl.EMPTY_TYPE, 2)
        assert configs == sorted(configs)

    def test_pruned_equals_naive(self):
        # the prefix-pruned enumeration is validated against plain
        # generate-and-test on tiny instances
        for seed in range(6):
            s = pl.gen_random_bounded(seed, 8, 4, pl.generators.INTERVALS)
            shrunk = pl.BipartiteStructure(
                s.truth, s.base_set & {0, 1}, frozenset(range(4))
            )
            fast = pl.oracle_all_good_configs(shrunk, pl.EMPTY_TYPE, 2)
            slow = reference_oracle_all_good_configs_naive(shrunk, pl.EMPTY_TYPE, 2)
            assert fast == slow

    @pytest.mark.parametrize("seed", [19, 54, 91])
    def test_matches_row_scans_with_two_pairs(self, seed):
        # the only structures of the default corpus with two-pair configurations
        s = pl.gen_random_bounded(seed, 20, 6, pl.generators.UNIONS)
        arity = pl.oracle_vc(s)
        empty = pl.oracle_all_good_configs(s, pl.EMPTY_TYPE, 3)
        assert max(len(c) for c in empty) == 2
        assert empty == reference_oracle_all_good_configs(s, pl.EMPTY_TYPE, 3, arity)
        p = s.type_space(s.base_members())[0]
        assert pl.oracle_all_good_configs(s, p, 3) == reference_oracle_all_good_configs(
            s, p, 3, arity
        )

    @pytest.mark.parametrize("max_k", [-1, 0])
    def test_no_pairs_below_length_one(self, s1, max_k):
        assert pl.oracle_all_good_configs(s1, pl.EMPTY_TYPE, max_k) == [()]

    @pytest.mark.parametrize("max_k", [0, 2])
    def test_unrealized_type_has_none(self, s2, max_k):
        # on the chain, column 0 true forces column 1 true
        assert pl.oracle_all_good_configs(s2, pl.PhiType({0: 1, 1: 0}), max_k) == []

    def test_guards(self, s1):
        with pytest.raises(pl.ResourceLimitError):
            pl.oracle_all_good_configs(s1, pl.EMPTY_TYPE, 4)
        wide = pl.gen_linear_order(11, [0])
        with pytest.raises(pl.ResourceLimitError):
            pl.oracle_all_good_configs(wide, pl.EMPTY_TYPE, 2)


class TestOracleFinitelySatisfiable:
    def test_guards(self, s1):
        small = pl.delta_type(s1, pl.DeltaFamily(1), 0, [0, 1])  # 8 entries
        assert oracle_finitely_satisfiable(s1, small.table, [0, 1], 4)
        with pytest.raises(pl.ResourceLimitError):
            oracle_finitely_satisfiable(s1, small.table, [0, 1], 5)
        large = pl.delta_type(s1, pl.DeltaFamily(2), 0, [0, 1])  # 32 entries
        with pytest.raises(pl.ResourceLimitError):
            oracle_finitely_satisfiable(s1, large.table, [0, 1], 1)

    def test_k_below_one(self, s1):
        small = pl.delta_type(s1, pl.DeltaFamily(1), 0, [0, 1])
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            oracle_finitely_satisfiable(s1, small.table, [0, 1], 0)


class TestOracleRealizedPatterns:
    # delta patterns come from zipped raw columns; arity 0 has no z-columns
    # to zip, and the matrix may hold any 0/1-valued entries

    @staticmethod
    def columns(s):
        return tuple(zip(*s.truth))

    def test_same_delta_type_at_arity_zero(self):
        # columns 0 and 1 are constant, 2 and 3 take both signs
        rows = ((0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1))
        s = pl.BipartiteStructure(rows, frozenset({2}), frozenset(range(4)))
        expected = {(0, 1): False, (0, 2): False, (1, 2): False, (2, 3): True}
        for (c0, c1), same in expected.items():
            for domain in ((), (2,), (0, 3)):
                memo: dict = {}
                assert oracle._same_delta_type(self.columns(s), 0, c0, c1, domain, memo) is same
                assert reference_same_delta_type(s, 0, c0, c1, domain, {}) is same
        assert oracle._realized(self.columns(s), 0, (), {}) == {(0, ())}
        assert oracle._realized(self.columns(s), 3, (), {}) == {(0, ()), (1, ())}

    def test_finitely_satisfiable_at_arity_zero(self):
        rows = ((0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1))
        s = pl.BipartiteStructure(rows, frozenset({2}), frozenset(range(4)))
        family = pl.DeltaFamily(0)
        verdicts = []
        for c, base in product(range(4), ([0], [1], [2], [0, 1], [1, 3])):
            table = pl.delta_type(s, family, c, [2]).table
            assert set(table) == {((), 0, ()), ((), 1, ())}
            for k in (1, 2):
                verdict = oracle_finitely_satisfiable(s, table, base, k)
                assert verdict == reference_oracle_finitely_satisfiable(s, table, base, k)
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_mixed_entry_types_match_row_scans(self):
        # True and 1.0 stand for 1, False and 0.0 for 0
        ints = (
            (0, 0, 1, 1, 0), (0, 1, 0, 1, 0), (0, 1, 0, 0, 1),
            (0, 1, 0, 0, 1), (1, 1, 1, 0, 0), (0, 0, 1, 0, 1),
        )
        spelled = {0: (0, False, 0.0), 1: (1, True, 1.0)}
        mixed = tuple(
            tuple(spelled[v][(a + b) % 3] for b, v in enumerate(row))
            for a, row in enumerate(ints)
        )
        assert {type(v) for row in mixed for v in row} == {int, bool, float}
        s = pl.BipartiteStructure(mixed, frozenset({0}), frozenset(range(5)))
        plain = pl.BipartiteStructure(ints, frozenset({0}), frozenset(range(5)))
        columns = self.columns(s)
        for arity in range(3):
            for c, zs in product(range(5), product(range(5), repeat=arity)):
                per_row = frozenset((row[c], tuple(row[z] for z in zs)) for row in s.truth)
                assert oracle._realized(columns, c, zs, {}) == per_row
        sizes = set()
        for p in (pl.EMPTY_TYPE, pl.PhiType({0: 0}), pl.PhiType({0: 1})):
            for arity in range(3):
                configs = pl.oracle_all_good_configs(s, p, 3, arity)
                assert configs == reference_oracle_all_good_configs(plain, p, 3, arity)
                sizes.update(map(len, configs))
        assert sizes == {0, 1, 2, 3}
        verdicts = set()
        for c, base, k in product(range(5), ([0], [1, 2], [0, 3, 4]), (1, 2, 3)):
            table = pl.delta_type(plain, pl.DeltaFamily(1), c, [0, 1]).table
            verdict = oracle_finitely_satisfiable(s, table, base, k)
            assert verdict == reference_oracle_finitely_satisfiable(plain, table, base, k)
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestOracleUnknownParameters:
    # an unknown parameter is the subject's error, never a negative index
    # into a row or a bare IndexError

    @pytest.mark.parametrize("b", [-1, 3, 5])
    def test_min_isolating(self, b):
        s = pl.gen_shattered(3)
        p = pl.PhiType({b: 1})
        with pytest.raises(pl.UnknownParameterError, match=f"^unknown parameter {b}$"):
            pl.find_isolating_subtype(s, p)
        with pytest.raises(pl.UnknownParameterError, match=f"^unknown parameter {b}$"):
            pl.oracle_min_isolating(s, p)

    @pytest.mark.parametrize("b", [-1, 3, 5])
    def test_good_configs(self, b):
        s = pl.gen_shattered(3)
        with pytest.raises(pl.UnknownParameterError, match=f"^unknown parameter {b}$"):
            pl.oracle_all_good_configs(s, pl.PhiType({b: 0}), 1)
        with pytest.raises(pl.UnknownParameterError, match=f"^unknown parameter {b}$"):
            reference_oracle_all_good_configs_naive(s, pl.PhiType({b: 0}), 1)

    @pytest.mark.parametrize("b", [-1, 3, 5])
    def test_finitely_satisfiable_base(self, b):
        s = pl.gen_shattered(3)
        table = pl.delta_type(s, pl.DeltaFamily(1), 0, [0, 1]).table
        with pytest.raises(pl.UnknownParameterError, match=f"^unknown parameter {b}$"):
            oracle_finitely_satisfiable(s, table, [0, b], 1)

    def test_finitely_satisfiable_table(self):
        s = pl.gen_shattered(3)
        with pytest.raises(pl.UnknownParameterError, match="^unknown parameter -1$"):
            oracle_finitely_satisfiable(s, {((-1,), 1, (1,)): True}, [0], 1)


def test_oracle_imports_only_errors_and_structure():
    # the oracle re-derives everything itself: no code shared with the
    # subject modules beyond the error classes and the structure type
    tree = ast.parse(Path(oracle.__file__).read_text())
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("philab"), node.module
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("philab") for alias in node.names)
    assert relative == {"errors", "structure"}
