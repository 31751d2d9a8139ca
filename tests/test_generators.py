from itertools import product

import pytest

import philab as pl
from philab.generators import INTERVALS, UNIONS

from conftest import (
    reference_gen_eqrel,
    reference_gen_linear_order,
    reference_gen_random_bounded,
    reference_gen_shattered,
    same_structure,
)


def eqrel_specs():
    # every spec with 1-3 classes and picks 0-3, class sizes picks + 1, as
    # the CLI's eqrel:P1,P2,... builds them, within the size guard
    for classes in (1, 2, 3):
        for picks in product(range(4), repeat=classes):
            if sum(picks) + classes <= 10:
                yield [p + 1 for p in picks], list(picks)


class TestEqRel:
    def test_matrix_matches_direct_evaluator(self):
        spec = pl.EqRelSpec([2, 2], [1, 1])
        s = pl.gen_eqrel(spec)
        total = s.meta["model_size"]
        class_of = s.meta["class_of"]
        for x in range(total):
            for y, z, w in product(range(total), repeat=3):
                idx = (y * total + z) * total + w
                expected = (x == y) if z == w else (class_of[x] == class_of[y])
                assert s.truth[x][idx] == int(expected)

    def test_column_kinds(self):
        s = pl.gen_eqrel(pl.EqRelSpec([2], [1]))
        total = 2
        for y, z, w in product(range(total), repeat=3):
            idx = (y * total + z) * total + w
            col = tuple(s.truth[x][idx] for x in range(total))
            if z == w:
                assert col == tuple(int(x == y) for x in range(total))
            else:
                assert col == (1, 1)  # single class: equivalence is constant

    def test_base_and_theta_layout(self):
        s = pl.gen_eqrel(pl.EqRelSpec([2, 1], [1, 1]))
        meta = s.meta
        for b in meta["picked"]:
            assert meta["eq_param"][b] in s.base_set
            assert meta["e_param"][b] in s.base_set
        assert s.base_set < s.theta_set
        fresh = [x for x in range(meta["model_size"]) if x not in meta["picked"]]
        for f in fresh:
            assert meta["eq_param"][f] in s.theta_set

    def test_picks_are_each_class_first_members_and_theta_every_element(self):
        s = pl.gen_eqrel(pl.EqRelSpec([3, 2, 1], [2, 0, 1]))
        meta = s.meta
        assert meta["picked"] == (0, 1, 5)
        coding = {x: {meta["eq_param"][x], meta["e_param"][x]} for x in range(6)}
        assert s.base_set == set().union(*(coding[x] for x in meta["picked"]))
        assert s.theta_set == set().union(*coding.values())

    def test_target_trace(self):
        # non-picked class member: equality literal 0, equivalence literal 1
        s = pl.gen_eqrel(pl.EqRelSpec([2], [1]))
        p = pl.eqrel_target_type(s, 0)
        eq_param = s.meta["eq_param"][0]
        e_param = s.meta["e_param"][0]
        assert p.literals[eq_param] == 0
        assert p.literals[e_param] == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            pl.EqRelSpec([2], [3])
        with pytest.raises(ValueError):
            pl.EqRelSpec([1, 1], [1, 1])  # no class keeps a free member
        with pytest.raises(ValueError):
            pl.EqRelSpec([], [])

    def test_size_guard(self):
        with pytest.raises(pl.ResourceLimitError):
            pl.gen_eqrel(pl.EqRelSpec([11], [1]))

    def test_triple_provenance(self):
        s = pl.gen_eqrel(pl.EqRelSpec([2], [1]))
        assert pl.eqrel_triple_of(s, s.meta["eq_param"][1]) == (1, 0, 0)
        assert pl.eqrel_triple_of(s, s.meta["e_param"][1]) == (1, 0, 1)

    @pytest.mark.parametrize("sizes, picks", list(eqrel_specs()))
    def test_columns_match_the_row_construction(self, sizes, picks):
        spec = pl.EqRelSpec(sizes, picks)
        assert same_structure(pl.gen_eqrel(spec), reference_gen_eqrel(spec))

    def test_spec_reads_sizes_and_picks_as_indices(self):
        spec = pl.EqRelSpec([True, 2], [0, True])
        assert spec.class_sizes == (1, 2) and spec.b_picks == (0, 1)
        assert [type(v) for v in spec.class_sizes + spec.b_picks] == [int] * 4
        assert pl.gen_eqrel(spec).meta["picked"] == (1,)

    @pytest.mark.parametrize("sizes, picks, message", [
        ([2, 2], [1], "class_sizes and b_picks must have equal length"),
        ([2, 0], [1, 0], "class sizes must be >= 1"),
        # a float pick once passed, and gen_eqrel then picked both members
        ([2], [1.5], "class sizes and picks must be ints"),
        ([2.5], [1], "class sizes and picks must be ints"),
        (["2"], [1], "class sizes and picks must be ints"),
        ([2], [None], "class sizes and picks must be ints"),
    ])
    def test_spec_errors(self, sizes, picks, message):
        with pytest.raises(ValueError) as raised:
            pl.EqRelSpec(sizes, picks)
        assert type(raised.value) is ValueError and str(raised.value) == message

    def test_provenance_of_a_non_eqrel_structure_is_refused(self):
        s = pl.gen_linear_order(3)
        for ask in (lambda: pl.eqrel_triple_of(s, 0), lambda: pl.eqrel_target_element(s, 0)):
            with pytest.raises(ValueError) as raised:
                ask()
            assert type(raised.value) is ValueError
            assert str(raised.value) == "not an eqrel structure"

    def test_a_class_of_picks_has_no_target(self):
        s = pl.gen_eqrel(pl.EqRelSpec([1, 2], [1, 1]))
        with pytest.raises(ValueError) as raised:
            pl.eqrel_target_element(s, 0)
        assert type(raised.value) is ValueError
        assert str(raised.value) == "class 0 has no non-picked member"
        assert pl.eqrel_target_element(s, 1) == 2


class TestLinearOrder:
    def test_matrix(self):
        s = pl.gen_linear_order(5, [1, 2, 3, 4])
        for a in range(5):
            for b in range(5):
                assert s.truth[a][b] == int(a < b)

    def test_dimension_one(self):
        assert pl.independence_dimension(pl.gen_linear_order(5, [1])).id_value == 1

    def test_pairs_never_shattered(self):
        s = pl.gen_linear_order(6, [])
        for small in range(6):
            for large in range(small + 1, 6):
                # needing x < small while x >= large is impossible
                assert not s.is_consistent(pl.PhiType({small: 1, large: 0}))

    @pytest.mark.parametrize("fill", [True, False])
    @pytest.mark.parametrize("points, base", [
        (1, []), (1, [0]), (2, [1]), (7, [0, 3, 6]), (12, [0, 4, 8]), (64, range(0, 64, 5)),
        (1024, [0, 511, 1023]),
    ])
    def test_columns_match_the_row_construction(self, points, base, fill):
        s = pl.gen_linear_order(points, base, fill)
        ref = reference_gen_linear_order(points, base, fill)
        assert same_structure(s, ref)

    @pytest.mark.parametrize("points, base, message", [
        (0, [], "points must be >= 1"),
        (5, [1, 5], "base index 5 out of range"),
        (5, [-1], "base index -1 out of range"),
    ])
    def test_input_errors(self, points, base, message):
        with pytest.raises(ValueError) as raised:
            pl.gen_linear_order(points, base)
        assert type(raised.value) is ValueError and str(raised.value) == message

    def test_nofill_theta(self):
        s = pl.gen_linear_order(6, [2, 4], fill_gaps=False)
        assert s.theta_set == {2, 4}
        filled = pl.gen_linear_order(6, [2, 4], fill_gaps=True)
        assert filled.theta_set == set(range(6))


class TestShattered:
    def test_k2_is_s1(self, s1):
        s = pl.gen_shattered(2)
        assert s.truth == s1.truth
        assert s.base_set == s1.base_set

    def test_dimension_equals_k(self):
        for k in range(4):
            assert pl.independence_dimension(pl.gen_shattered(k)).id_value == k

    def test_type_space_full(self):
        for k in (2, 3):
            s = pl.gen_shattered(k)
            assert len(s.type_space(range(k))) == 2**k

    def test_guard(self):
        with pytest.raises(pl.ResourceLimitError):
            pl.gen_shattered(6)

    def test_negative_k_is_refused(self):
        with pytest.raises(ValueError) as raised:
            pl.gen_shattered(-1)
        assert type(raised.value) is ValueError and str(raised.value) == "k must be >= 0"

    @pytest.mark.parametrize("k", range(6))
    def test_columns_match_the_row_construction(self, k):
        assert same_structure(pl.gen_shattered(k), reference_gen_shattered(k))


class TestRandomBounded:
    def test_deterministic(self):
        a = pl.gen_random_bounded(7, 20, 6, INTERVALS)
        b = pl.gen_random_bounded(7, 20, 6, INTERVALS)
        assert a.truth == b.truth and a.base_set == b.base_set

    def test_families_decorrelated(self):
        a = pl.gen_random_bounded(7, 20, 6, INTERVALS)
        b = pl.gen_random_bounded(7, 20, 6, UNIONS)
        assert a.truth != b.truth

    def test_intervals_dimension_bounded(self):
        for seed in range(25):
            s = pl.gen_random_bounded(seed, 20, 6, INTERVALS)
            assert pl.independence_dimension(s).id_value <= 2

    def test_unions_dimension_bounded(self):
        for seed in range(25):
            s = pl.gen_random_bounded(seed, 20, 6, UNIONS)
            assert pl.independence_dimension(s).id_value <= 4

    def test_columns_are_intervals(self):
        s = pl.gen_random_bounded(3, 15, 5, INTERVALS)
        for b in range(s.n):
            hits = [x for x in range(s.m) if s.truth[x][b]]
            assert hits == list(range(min(hits), max(hits) + 1))

    def test_bad_family(self):
        with pytest.raises(ValueError):
            pl.gen_random_bounded(0, 5, 5, "squares")

    @pytest.mark.parametrize("x_size, y_size, message", [
        (0, 5, "x_size must be in 1..4096"),
        (4097, 5, "x_size must be in 1..4096"),
        (5, -1, "y_size must be in 0..512"),
        (5, 513, "y_size must be in 0..512"),
    ])
    def test_size_errors(self, x_size, y_size, message):
        with pytest.raises(ValueError) as raised:
            pl.gen_random_bounded(0, x_size, y_size)
        assert type(raised.value) is ValueError and str(raised.value) == message

    @pytest.mark.parametrize("family", [INTERVALS, UNIONS])
    @pytest.mark.parametrize("x_size, y_size", [
        (1, 0), (1, 1), (1, 5), (3, 0), (20, 6), (50, 12), (200, 24), (4096, 16),
    ])
    def test_columns_first_matches_sets(self, family, x_size, y_size):
        # same draws in the same order, and every derived value is the row
        # route's; every entry stays the int 0 or 1, which `gen -o` writes
        # digit by digit; at 4096x16, where each reference build is slow, the
        # first 25 seeds, as test_parse_matches_the_row_parser reads
        for seed in range(25 if x_size == 4096 else 200):
            s = pl.gen_random_bounded(seed, x_size, y_size, family)
            ref = reference_gen_random_bounded(seed, x_size, y_size, family)
            assert len(s.truth) == x_size
            assert same_structure(s, ref), (seed, x_size, y_size, family)
