import pytest
from hypothesis import given, settings, strategies as st

import philab as pl
from philab.goodconfig import GoodConfiguration
from philab.oracle import oracle_all_good_configs, oracle_vc
from philab.structure import serialize_structure

from conftest import (
    S1_TEXT,
    EqualsZero,
    TruthyZero,
    reference_gen_random_bounded,
    reference_parse_structure,
    same_structure,
)


def transpose(rows):
    """A 0/1 matrix as byte columns, one bytes object per parameter."""
    return [bytes(column) for column in zip(*rows)]


#: the two constructors, each given rows
CONSTRUCTORS = {
    "rows": pl.BipartiteStructure,
    "columns": lambda rows, base, theta: pl.BipartiteStructure.from_columns(
        len(rows), transpose(rows), base, theta),
}

#: a 2x3 matrix whose every column is known to B and theta tests
THREE_COLUMNS = ((0, 1, 1), (1, 1, 0))


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

    def test_parameters_are_plain_ints(self):
        for p in (pl.PhiType({True: 1}), pl.PhiType([(True, 1), (1, 1)])):
            assert p.items == ((1, 1),) and repr(p) == "PhiType({1↦1})"
            assert [type(param) for param in p.domain] == [int]
        with pytest.raises(TypeError):
            pl.PhiType({1.0: 1})

    @pytest.mark.parametrize("sign", [1.7, 0.4, 1.0, "1"])
    def test_a_non_int_sign_is_refused(self, sign):
        with pytest.raises(TypeError):
            pl.PhiType({0: sign})

    @pytest.mark.parametrize("sign", [2, -1])
    def test_a_sign_other_than_0_or_1_is_refused(self, sign):
        with pytest.raises(ValueError, match="sign must be 0 or 1"):
            pl.PhiType({0: sign})

    def test_signs_are_plain_ints(self):
        for p in (pl.PhiType({0: True, 1: False}), pl.PhiType([(0, True), (1, 0)])):
            assert p.items == ((0, 1), (1, 0)) and repr(p) == "PhiType({0↦1, 1↦0})"
            assert [type(sign) for _, sign in p.items] == [int, int]


class TestParameterSets:
    """B and theta are checked and frozen at construction."""

    def test_sets_are_frozen_at_construction(self):
        base, theta = {0}, {0, 1}
        s = pl.BipartiteStructure(((0, 1), (1, 1)), base, theta)
        twin = pl.BipartiteStructure(((0, 1), (1, 1)), frozenset({0}), frozenset({0, 1}))
        assert s == twin and hash(s) == hash(twin)
        assert type(s.base_set) is type(s.theta_set) is frozenset
        base.add(1)
        theta.add(5)
        assert s.base_members() == (0,) and s.theta_members() == (0, 1)
        assert s == twin

    @pytest.mark.parametrize("base, theta", [
        ({0.0}, {0.0, 1.0}),
        ({0.0}, {0, 1}),
        (set(), {1.0}),
        (set(), {"0"}),
        (set(), {-1}),
        (set(), {2}),
    ])
    def test_a_non_int_or_unknown_member_is_refused(self, base, theta):
        with pytest.raises(ValueError, match="contains unknown parameters"):
            pl.BipartiteStructure(((0, 1), (1, 1)), base, theta)

    def test_bool_members_are_stored_as_ints(self):
        s = pl.BipartiteStructure(((0, 1), (1, 1)), frozenset({True}), {False, True})
        assert s.base_set == {1} and s.theta_set == {0, 1}
        members = (*s.base_set, *s.theta_set, *s.base_members(), *s.theta_members())
        assert {type(b) for b in members} == {int}
        assert pl.isolated_extension(s, s.trace(0, s.base_members())).budget_ok
        for p in s.type_space(s.base_members()) + s.type_space([1, True, 0]):
            assert {type(param) for param in p.domain} == {int}

    def test_plain_frozensets_are_kept_as_given(self):
        base, theta = frozenset({0}), frozenset({0, 1})
        s = pl.BipartiteStructure(((0, 1), (1, 1)), base, theta)
        assert s.base_set is base and s.theta_set is theta

    @pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS)
    @pytest.mark.parametrize("base, theta", [
        (frozenset({0}), range(3)),
        ([0, 2], [0, 1, 2]),
        ((), [2, 0]),
    ])
    def test_b_and_theta_of_any_iterable_type_are_compared_as_sets(self, make, base, theta):
        # a frozenset against a range raised TypeError, and [0, 2] <= [0, 1, 2]
        # is False between lists
        s = make(THREE_COLUMNS, base, theta)
        assert s.base_set == frozenset(base) and s.theta_set == frozenset(theta)
        assert type(s.base_set) is type(s.theta_set) is frozenset

    @pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS)
    def test_iterators_are_read_once(self, make):
        # the member test once used up an iterator, leaving the set empty
        s = make(THREE_COLUMNS, (b for b in [0, 2]), iter(range(3)))
        assert s.base_set == {0, 2} and s.theta_set == {0, 1, 2}

    @pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS)
    @pytest.mark.parametrize("base, theta", [
        ([0], [1]),
        ({0}, {1, 2}),
        (frozenset({0, 2}), range(2)),
        ((1,), ()),
    ])
    def test_b_outside_theta_is_named_as_such(self, make, base, theta):
        # [0] <= [1] is True between lists, so the subset test once let
        # this pass and failed later, if at all
        with pytest.raises(ValueError, match="^base_set must be contained in theta_set$"):
            make(THREE_COLUMNS, base, theta)

    @pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS)
    @pytest.mark.parametrize("base, theta, name", [
        (5, {0, 1}, "base_set"),
        (None, {0, 1}, "base_set"),
        ({0}, 5, "theta_set"),
        ({0}, None, "theta_set"),
    ])
    def test_a_non_iterable_set_is_named(self, make, base, theta, name):
        # tuple(5) once escaped as a bare TypeError
        with pytest.raises(ValueError, match=f"^{name} is not an iterable of parameters$"):
            make(THREE_COLUMNS, base, theta)

    @pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS)
    @pytest.mark.parametrize("base", [{0.5}, {"a"}])
    def test_a_non_int_b_member_is_named_before_b_outside_theta(self, make, base):
        # members are tested as ints before B is compared with theta, so a
        # non-int B outside theta is refused as unknown, not as outside theta
        with pytest.raises(ValueError, match="^base_set contains unknown parameters$"):
            make(THREE_COLUMNS, base, {0})


class TestFromColumns:
    """from_columns checks what the row constructor checks, with its
    exception type, and derives the same values."""

    def test_equals_the_row_constructor(self):
        rows = ((0, 1, 1), (1, 1, 0), (0, 0, 1))
        meta = {"family": "test"}
        s = pl.BipartiteStructure.from_columns(
            3, [b"\x00\x01\x00", bytearray(b"\x01\x01\x00"), memoryview(b"\x01\x00\x01")],
            {1}, [0, 1], meta)
        assert same_structure(s, pl.BipartiteStructure(rows, frozenset({1}), {0, 1}, meta))
        assert s.truth == rows and s.meta is meta and s.m == 3 and s.n == 3
        assert not hasattr(s, "_columns")

    def test_unequal_column_lengths(self):
        with pytest.raises(ValueError, match="^column 1 has length 2, expected 3$"):
            pl.BipartiteStructure.from_columns(3, [b"\x00" * 3, b"\x00" * 2], (), ())
        with pytest.raises(ValueError, match="^column 0 has length 4, expected 3$"):
            pl.BipartiteStructure.from_columns(3, [b"\x00" * 4], (), ())

    @pytest.mark.parametrize("column", [b"\x00\x02", b"\x01\xff", b"01", b"\x01 "])
    def test_a_byte_other_than_0_or_1(self, column):
        columns = [b"\x00\x01", column]
        with pytest.raises(ValueError, match="^column 1 contains non-boolean entries$"):
            pl.BipartiteStructure.from_columns(2, columns, (), ())

    @pytest.mark.parametrize("columns", [[], [b""]])
    def test_no_elements(self, columns):
        with pytest.raises(ValueError, match="^X must be nonempty$"):
            pl.BipartiteStructure.from_columns(0, columns, (), ())

    @pytest.mark.parametrize("m", [2.0, "2", None])
    def test_a_non_int_element_count(self, m):
        with pytest.raises(ValueError, match="^m must be an int"):
            pl.BipartiteStructure.from_columns(m, [b"\x00\x01"], (), ())

    @pytest.mark.parametrize("columns", [["01"], [2], [[0, 1]], 5, [None]])
    def test_a_column_that_is_not_bytes_like(self, columns):
        # bytes(2) would be two zero bytes, a column the caller never wrote
        with pytest.raises(ValueError, match="^columns must be bytes-like objects$"):
            pl.BipartiteStructure.from_columns(2, columns, (), ())

    @pytest.mark.parametrize("m", [1, 3])
    def test_no_columns(self, m):
        s = pl.BipartiteStructure.from_columns(m, [], (), ())
        assert s.truth == ((),) * m and s.m == m and s.n == 0
        assert same_structure(s, pl.BipartiteStructure(((),) * m, frozenset(), frozenset()))
        assert pl.independence_dimension(s).id_value == 0

    @pytest.mark.parametrize("base, theta", [
        ({0.0}, {0.0, 1.0}),
        ({0.0}, {0, 1}),
        (set(), {1.0}),
        (set(), {"0"}),
        (set(), {-1}),
        (set(), {2}),
        ({2}, {0, 1, 2}),
    ])
    def test_a_non_int_or_unknown_member(self, base, theta):
        with pytest.raises(ValueError, match="contains unknown parameters"):
            pl.BipartiteStructure.from_columns(2, [b"\x00\x01", b"\x01\x01"], base, theta)

    def test_bool_members_are_stored_as_ints(self):
        s = pl.BipartiteStructure.from_columns(
            2, [b"\x00\x01", b"\x01\x01"], frozenset({True}), {False, True})
        assert s.base_set == {1} and s.theta_set == {0, 1}
        assert {type(b) for b in (*s.base_set, *s.theta_set)} == {int}

    def test_a_caller_bytearray_edited_afterwards(self):
        columns = [bytearray(b"\x00\x01\x01"), bytearray(b"\x01\x01\x00")]
        s = pl.BipartiteStructure.from_columns(3, columns, {0}, {0, 1})

        def answers():
            return (s.truth, s._column_masks, s.type_space([0, 1]),
                    s.trace(0, [0, 1]), oracle_vc(s), serialize_structure(s))

        before = answers()
        columns[0][0] = 1
        columns[1][:] = b"\x00\x00\x00"
        columns.append(bytearray(3))
        assert answers() == before
        assert s == pl.BipartiteStructure(((0, 1), (1, 1), (1, 0)), {0}, {0, 1})


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

    @pytest.mark.parametrize("column", [0, 1])
    def test_unknown_parameter_raises_whatever_the_data(self, column):
        # literal 0=1 has no realizer when column 0 is all zeros; the
        # unknown parameter 99 must raise all the same
        s = pl.BipartiteStructure(((column,), (column,)), frozenset(), frozenset())
        p = pl.PhiType({0: 1, 99: 1})
        asks = [
            lambda: s.is_consistent(p),
            lambda: s.literals_mask([(0, 1), (99, 1)]),
            lambda: pl.find_isolating_subtype(s, p),
        ]
        for ask in asks:
            with pytest.raises(pl.UnknownParameterError, match="^unknown parameter 99$"):
                ask()

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

    def test_bool_and_float_entries_read_as_int_signs(self):
        s = pl.BipartiteStructure(((True, 0.0), (0, 1)), frozenset(), frozenset())
        expected = pl.PhiType({0: 1, 1: 0})
        for p in (s.type_space([0, 1])[0], s.trace(0, [0, 1]), s.full_trace(0)):
            assert p == expected and p.items == ((0, 1), (1, 0))
            assert [type(sign) for _, sign in p.items] == [int, int]

    def test_bool_entries_are_stored_as_ints(self):
        s = pl.BipartiteStructure(((True, False), (False, True)), frozenset(), frozenset())
        ints = pl.BipartiteStructure(((1, 0), (0, 1)), frozenset(), frozenset())
        assert s.truth == ints.truth == ((1, 0), (0, 1))
        assert [type(v) for row in s.truth for v in row] == [int] * 4
        assert s == ints and hash(s) == hash(ints)
        assert serialize_structure(s) == serialize_structure(ints)

    @pytest.mark.parametrize("truth", [((True, 0.0), (0, 1)), ((True, False), (0, True))])
    def test_odd_entries_serialize_as_0_and_1(self, truth):
        s = pl.BipartiteStructure(truth, frozenset(), frozenset())
        text = serialize_structure(s)
        assert text.endswith("MATRIX\n10\n01\n")
        assert pl.parse_structure(text) == s

    def test_a_truthy_zero_differs_from_its_zero_twin(self):
        def make(v):
            return pl.BipartiteStructure(((v, 0), (0, 1)), frozenset(), frozenset({0, 1}))

        odd, zero, one = make(TruthyZero()), make(0), make(1)
        assert odd != zero and hash(odd) != hash(zero)
        assert odd == one and hash(odd) == hash(one)
        assert odd.type_space([0]) == one.type_space([0]) != zero.type_space([0])

    def test_list_rows_are_copied_at_construction(self):
        rows = [[0, 1], [1, 1], [1, 0]]
        s = pl.BipartiteStructure(rows, frozenset({0}), frozenset({0, 1}))
        assert s.truth == ((0, 1), (1, 1), (1, 0)) and type(s.truth[0]) is tuple
        assert hash(s) == hash(pl.BipartiteStructure(s.truth, s.base_set, s.theta_set))

        def answers():
            return (s.truth, s.type_space([0, 1]), s.trace(0, [0, 1]), oracle_vc(s),
                    oracle_all_good_configs(s, 1, oracle_vc(s)), serialize_structure(s))

        before = answers()
        rows[0][0] = 1
        rows[1][:] = [0, 0]
        rows.append([0, 0])
        assert answers() == before

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

    def test_type_space_builds_only_the_literal_columns_it_reads(self):
        # a table of literals for every column doubled the time of a one-shot
        # type space on a 4096x512 structure
        s = pl.gen_random_bounded(1, 400, 100, pl.generators.UNIONS)
        s.type_space((0, 1))
        s.type_space([5, True])  # True is parameter 1, already built
        table = s._memo["literal_columns"]
        assert [b for b, column in enumerate(table) if column is not None] == [0, 1, 5]
        # one literal per distinct row: 190 of the 400 rows
        assert len(s._distinct_rows()) == 190
        assert len(table[0]) == len(table[1]) == 190


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


ENTRIES = [0, 1, True, False, 0.0, 1.0, 2, -1, 0.5, None, "1", float("nan"), [0],
           EqualsZero()]


#: two small matrices whose rows 0 and 1 differ only at the entry passed,
#: an odd one read as 1; the same matrix with the int 1 there is the
#: reference.  Keyed on raw rows, the two rows merge or the key raises
#: TypeError
ODD_MATRICES = {
    "two-rows": lambda v: pl.BipartiteStructure(((0, 1), (v, 1)), {0}, {0, 1}),
    "three-rows": lambda v: pl.BipartiteStructure(
        ((0, 0, 1), [v, 0, 1], (1, 1, 1)), frozenset(), frozenset({0, 1, 2})),
}


@pytest.mark.parametrize("make", ODD_MATRICES.values(), ids=ODD_MATRICES)
@pytest.mark.parametrize("odd", [TruthyZero, EqualsZero])
class TestOddEntries:
    """Every answer is the one for the literal 0/1 matrix."""

    def test_truth(self, odd, make):
        s, ref = make(odd()), make(1)
        assert s == ref and s.truth == ref.truth
        assert [type(v) for row in s.truth for v in row] == [int] * (s.m * s.n)

    def test_type_space(self, odd, make):
        s, ref = make(odd()), make(1)
        assert s._distinct_rows() == tuple(range(s.m))
        for params in ((0, 1), [1, 0, True]):
            space = s.type_space(params)
            assert space == ref.type_space(params)
            assert space[:2] == (pl.PhiType({0: 0, 1: ref.truth[0][1]}),
                                 pl.PhiType({0: 1, 1: ref.truth[0][1]}))

    def test_psi_disjunction(self, odd, make):
        s = make(odd())
        config = GoodConfiguration((), pl.EMPTY_TYPE)
        disjuncts = pl.psi_disjunction(s, config)
        assert disjuncts == pl.psi_disjunction(make(1), config)
        assert set().union(*map(s.realizers, disjuncts)) == set(range(s.m))

    def test_oracle_vc(self, odd, make):
        s = make(odd())
        assert oracle_vc(s) == pl.independence_dimension(s).id_value == 1

    def test_oracle_all_good_configs(self, odd, make):
        s = make(odd())
        configs = oracle_all_good_configs(s, 2, oracle_vc(s))
        assert configs == oracle_all_good_configs(make(1), 2, oracle_vc(make(1)))
        if s.n == 3:
            # merged rows lose a pattern and let ((1, 0), (1, 0)) through
            assert configs == [(), ((0, 2),), ((1, 0),), ((1, 2),)]


@st.composite
def matrices(draw):
    """Mostly well-formed 0/1 matrices, with a ragged row, an odd entry, an
    empty matrix or a base or theta out of range mixed in; every row is a
    tuple in half the matrices."""
    m, width = draw(st.integers(0, 9)), draw(st.integers(0, 6))
    as_tuple = st.just(True) if draw(st.booleans()) else st.booleans()
    rows = []
    for _ in range(m):
        length = width if draw(st.integers(0, 7)) else draw(st.integers(0, 7))
        cells = st.integers(0, 1) if draw(st.integers(0, 3)) else st.sampled_from(ENTRIES)
        row = draw(st.lists(cells, min_size=length, max_size=length))
        rows.append(tuple(row) if draw(as_tuple) else row)
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


def test_literal_pairs_checks_every_parameter_first(s1):
    # a repeated 0 is no error; 99 is named before any mask is returned
    with pytest.raises(pl.UnknownParameterError, match="unknown parameter 99"):
        s1._literal_pairs([0, 0, 99])
    with pytest.raises(pl.UnknownParameterError):
        s1._literal_pairs([1.0])
    # a bool is an int, so True reads column 1, as literal_mask does
    assert s1._literal_pairs([True, 0]) == [
        (s1.literal_mask(1, 0), s1.literal_mask(1, 1)),
        (s1.literal_mask(0, 0), s1.literal_mask(0, 1)),
    ]


@st.composite
def column_matrices(draw):
    """A 0/1 matrix of one to nine rows, with B and theta that may name a
    parameter out of range or put B outside theta."""
    m, width = draw(st.integers(1, 9)), draw(st.integers(0, 6))
    rows = tuple(tuple(draw(st.lists(st.integers(0, 1), min_size=width, max_size=width)))
                 for _ in range(m))
    theta = draw(st.frozensets(st.integers(0, width), max_size=width + 1))
    base = draw(st.frozensets(st.sampled_from(sorted(theta | {0})), max_size=3))
    return rows, base, theta


@given(case=column_matrices())
@settings(max_examples=200, deadline=None)
def test_from_columns_matches_the_row_constructor(case):
    rows, base, theta = case
    try:
        expected = pl.BipartiteStructure(rows, base, theta)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            pl.BipartiteStructure.from_columns(len(rows), transpose(rows), base, theta)
        assert str(raised.value) == str(exc)
        return
    s = pl.BipartiteStructure.from_columns(len(rows), transpose(rows), list(base), list(theta))
    assert same_structure(s, expected)


@pytest.mark.parametrize("family", [pl.generators.INTERVALS, pl.generators.UNIONS])
@pytest.mark.parametrize("x_size, y_size",
                         [(1, 0), (1, 1), (20, 6), (50, 12), (200, 24), (4096, 16)])
def test_parse_matches_the_row_parser(family, x_size, y_size):
    # the character-by-character reference takes 16 ms a file at 4096x16
    for seed in range(25 if x_size == 4096 else 200):
        text = serialize_structure(
            reference_gen_random_bounded(seed, x_size, y_size, family))
        assert same_structure(pl.parse_structure(text), reference_parse_structure(text))


@pytest.mark.parametrize("fill", [True, False])
def test_parse_matches_the_row_parser_on_linear_orders(fill):
    for points in (1, 2, 7, 64, 300):
        text = serialize_structure(pl.gen_linear_order(points, range(0, points, 3), fill))
        assert same_structure(pl.parse_structure(text), reference_parse_structure(text))


@st.composite
def broken_files(draw):
    """A structure file with at most one matrix fault: a short or long row,
    a character other than 0 or 1, a missing row, trailing content, or
    trailing blanks that are no fault."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    rows = ["".join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
            for _ in range(m)]
    i = draw(st.integers(0, m - 1))
    fault = draw(st.sampled_from(
        ["none", "short", "long", "char", "missing", "trailing", "blanks"]))
    if fault == "short" and n:
        rows[i] = rows[i][:-1]
    elif fault == "long":
        rows[i] += draw(st.sampled_from("01 2"))
    elif fault == "char" and n:
        j = draw(st.integers(0, n - 1))
        rows[i] = rows[i][:j] + draw(st.sampled_from("2x \t")) + rows[i][j + 1:]
    elif fault == "missing":
        del rows[i]
    elif fault == "trailing":
        rows += [""] * draw(st.integers(0, 2)) + [draw(st.sampled_from(["0", "1", "x", " 01"]))]
    elif fault == "blanks":
        rows[i] += " "
        rows.append("  ")
    head = ["# phi-structure v1", f"X {m}", f"Y {n}", "B", "THETA ALL", "MATRIX"]
    return "\n".join(head + rows) + draw(st.sampled_from(["\n", ""]))


@given(text=broken_files())
@settings(max_examples=300, deadline=None)
def test_parse_errors_match_the_row_parser(text):
    try:
        expected = reference_parse_structure(text)
    except pl.StructureParseError as exc:
        with pytest.raises(pl.StructureParseError) as raised:
            pl.parse_structure(text)
        assert (str(raised.value), raised.value.line) == (str(exc), exc.line)
        return
    assert same_structure(pl.parse_structure(text), expected)
