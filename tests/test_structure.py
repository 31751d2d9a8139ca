import pytest
from hypothesis import given, settings, strategies as st

import philab as pl
from philab.structure import serialize_structure

from conftest import S1_TEXT


class TestParsing:
    def test_s1_fields(self, s1):
        assert s1.m == 4 and s1.n == 2
        assert s1.base_set == {0, 1}
        assert s1.theta_set == {0, 1}
        assert s1.truth == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_round_trip_byte_identical(self, s1):
        assert serialize_structure(s1) == S1_TEXT

    def test_serialize_is_idempotent(self):
        text = "# phi-structure v1\nX 2\nY 3\nB 2 0\nTHETA 0 1 2\nMATRIX\n010\n101\n"
        once = serialize_structure(pl.parse_structure(text))
        twice = serialize_structure(pl.parse_structure(once))
        assert once == twice
        assert "THETA ALL" in once  # full theta canonicalizes

    def test_theta_all_default(self):
        s = pl.parse_structure("# phi-structure v1\nX 1\nY 2\nB\nTHETA ALL\nMATRIX\n01\n")
        assert s.theta_set == {0, 1}
        assert s.base_set == frozenset()

    @pytest.mark.parametrize(
        "mutation, lineno, fragment",
        [
            ("# phi-structure v2", 1, "header"),
            ("X 0", 2, ">= 1"),
            ("X two", 2, "count"),
            ("B 5", 4, "out of range"),
            ("THETA 9", 5, "out of range"),
        ],
    )
    def test_parse_errors_name_lines(self, mutation, lineno, fragment):
        lines = S1_TEXT.splitlines()
        lines[lineno - 1] = mutation
        with pytest.raises(pl.StructureParseError) as exc:
            pl.parse_structure("\n".join(lines))
        assert f"line {lineno}" in str(exc.value)
        assert fragment in str(exc.value)

    def test_invalid_matrix_character(self):
        bad = S1_TEXT.replace("01\n", "02\n")
        with pytest.raises(pl.StructureParseError) as exc:
            pl.parse_structure(bad)
        assert "invalid matrix character" in str(exc.value)
        assert "line 8" in str(exc.value)

    def test_row_length_mismatch(self):
        bad = S1_TEXT.replace("01\n", "010\n")
        with pytest.raises(pl.StructureParseError) as exc:
            pl.parse_structure(bad)
        assert "length" in str(exc.value)

    def test_b_not_in_theta(self):
        bad = S1_TEXT.replace("THETA ALL", "THETA 0")
        with pytest.raises(pl.StructureParseError) as exc:
            pl.parse_structure(bad)
        assert "line 5" in str(exc.value)


class TestPhiType:
    def test_clash_rejected_at_construction(self):
        with pytest.raises(pl.LiteralClashError):
            pl.PhiType([(0, 1), (0, 0)])

    def test_duplicate_same_sign_collapses(self):
        assert pl.PhiType([(0, 1), (0, 1)]) == pl.PhiType({0: 1})

    def test_sorted_and_hashable(self):
        p = pl.PhiType([(3, 0), (1, 1)])
        assert p.items == ((1, 1), (3, 0))
        assert hash(p) == hash(pl.PhiType({1: 1, 3: 0}))

    def test_union_clash(self):
        with pytest.raises(pl.LiteralClashError):
            pl.PhiType({0: 1}).union(pl.PhiType({0: 0}))


class TestCoreOps:
    def test_trace_readoff(self, s1):
        assert s1.trace(3, [0, 1]) == pl.PhiType({0: 1, 1: 1})
        assert s1.trace(0, []) == pl.EMPTY_TYPE
        assert s1.trace(1, [1]) == pl.PhiType({1: 1})

    def test_trace_unknown_inputs(self, s1):
        with pytest.raises(pl.UnknownElementError):
            s1.trace(7, [0])
        with pytest.raises(pl.UnknownParameterError):
            s1.trace(0, [9])

    def test_realizers(self, s1):
        assert s1.realizers(pl.PhiType({0: 1, 1: 1})) == (3,)
        assert s1.realizers(pl.EMPTY_TYPE) == (0, 1, 2, 3)

    def test_is_consistent(self, s1):
        assert s1.is_consistent(pl.PhiType({0: 0, 1: 1}))
        assert s1.is_consistent(pl.EMPTY_TYPE)
        constant = pl.BipartiteStructure(((1,), (1,)), frozenset(), frozenset())
        assert not constant.is_consistent(pl.PhiType({0: 0}))

    def test_type_space_sizes(self, s1, s2):
        assert len(s1.type_space([0, 1])) == 4
        assert s1.type_space([]) == (pl.EMPTY_TYPE,)
        # chain rows give the five monotone traces, one per threshold
        space = s2.type_space(range(4))
        assert len(space) == 5
        signs = [tuple(s for _, s in t.items) for t in space]
        assert signs == [
            (1, 1, 1, 1),
            (0, 1, 1, 1),
            (0, 0, 1, 1),
            (0, 0, 0, 1),
            (0, 0, 0, 0),
        ]

    def test_entails(self, s1, s2):
        assert s2.entails(pl.PhiType({0: 1}), s2.trace(0, range(4)))
        assert not s1.entails(pl.PhiType({0: 1}), pl.PhiType({0: 1, 1: 1}))
        p = s1.trace(2, [0, 1])
        assert s1.entails(p, p)

    def test_entails_is_preorder(self, corpus):
        for _, s in corpus[:3]:
            types = s.type_space(s.base_members())
            for p in types:
                assert s.entails(p, p)
            for p in types:
                for q in types:
                    for r in types:
                        if s.entails(p, q) and s.entails(q, r):
                            assert s.entails(p, r)

    def test_literal_containment_monotonicity(self, s2):
        p0 = s2.trace(2, [0, 1])
        p1 = s2.trace(2, [0, 1, 2, 3])
        assert p0.is_subtype_of(p1)
        assert set(s2.realizers(p1)) <= set(s2.realizers(p0))

    def test_traces_always_consistent(self, corpus):
        for _, s in corpus[:5]:
            for a in range(s.m):
                assert s.is_consistent(s.trace(a, s.base_members()))

    def test_x_nonempty_enforced(self):
        with pytest.raises(ValueError):
            pl.BipartiteStructure((), frozenset(), frozenset())

    def test_empty_y_degenerate(self):
        s = pl.BipartiteStructure(((),), frozenset(), frozenset())
        assert s.n == 0
        assert pl.independence_dimension(s).id_value == 0

    def test_memo_leaves_equality_hash_and_repr(self, s1):
        fresh = pl.parse_structure(S1_TEXT)
        assert pl.vc.cached_dimension(s1) == 2
        assert s1._memo and not fresh._memo
        assert s1 == fresh and hash(s1) == hash(fresh) and repr(s1) == repr(fresh)


def masks_by_cell(truth, base_set, theta_set):
    """Reference construction: checks and column masks as one cell at a time."""
    if not truth:
        raise ValueError("X must be nonempty")
    width = len(truth[0])
    for i, row in enumerate(truth):
        if len(row) != width:
            raise ValueError(f"row {i} has length {len(row)}, expected {width}")
        if any(v not in (0, 1) for v in row):
            raise ValueError(f"row {i} contains non-boolean entries")
    if not base_set <= theta_set:
        raise ValueError("base_set must be contained in theta_set")
    if theta_set and not theta_set <= set(range(width)):
        raise ValueError("theta_set contains unknown parameters")
    masks = []
    for b in range(width):
        m = 0
        for i in range(len(truth)):
            if truth[i][b]:
                m |= 1 << i
        masks.append(m)
    return tuple(masks), (1 << len(truth)) - 1, width


class EqualsZero:
    """Unhashable, equal to 0 and truthy: accepted, and sets its bit."""

    __hash__ = None

    def __eq__(self, other):
        return other == 0


ENTRIES = [0, 1, True, False, 0.0, 1.0, 2, -1, 0.5, None, "1", float("nan"), [0],
           EqualsZero()]


@st.composite
def matrices(draw):
    """Mostly well-formed 0/1 matrices, with a ragged row, an odd entry, an
    empty matrix or a base or theta out of range mixed in."""
    m, width = draw(st.integers(0, 9)), draw(st.integers(0, 6))
    rows = []
    for _ in range(m):
        length = width if draw(st.integers(0, 7)) else draw(st.integers(0, 7))
        cells = st.integers(0, 1) if draw(st.integers(0, 3)) else st.sampled_from(ENTRIES)
        row = draw(st.lists(cells, min_size=length, max_size=length))
        rows.append(tuple(row) if draw(st.booleans()) else row)
    theta = draw(st.frozensets(st.integers(0, width if width else 1), max_size=width + 1))
    base = draw(st.frozensets(st.sampled_from(sorted(theta | {0})), max_size=3))
    return tuple(rows), base, theta


@given(case=matrices())
@settings(max_examples=200, deadline=None)
def test_column_masks_match_the_cell_by_cell_construction(case):
    truth, base, theta = case
    try:
        expected = masks_by_cell(truth, base, theta)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            pl.BipartiteStructure(truth, base, theta)
        assert str(raised.value) == str(exc)
        return
    s = pl.BipartiteStructure(truth, base, theta)
    assert (s._column_masks, s._full_mask, s.n) == expected
