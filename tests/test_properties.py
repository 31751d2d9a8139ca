"""Property tests over randomized small structures."""

import copy
import dataclasses
import pickle
import random
import sys
from itertools import combinations, permutations, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import philab as pl
from philab import cover, suites, vc
from philab.delta import ALL, DeltaFamily, _pack_literals, cached_delta_type
from philab.goodconfig import GoodConfiguration, _check_clause_iii, extend_type
from philab.isolation import q_harness
from philab.oracle import (
    oracle_all_good_configs,
    oracle_finitely_satisfiable,
    oracle_min_isolating,
    oracle_vc,
)

from conftest import (
    EqualsZero,
    TruthyZero,
    reference_check_q_realizer,
    reference_clauses_hold,
    reference_finitely_satisfiable,
    reference_independence_dimension,
    reference_matrix_columns,
    reference_oracle_all_good_configs,
    reference_oracle_finitely_satisfiable,
    reference_oracle_min_isolating,
    reference_oracle_vc,
    reference_oracle_vc_unpruned,
    reference_pack_literals,
    reference_q_harness,
    row_bits,
)


@st.composite
def structures(draw, max_m=8, max_n=5, min_n=0):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(min_n, max_n))
    rows = tuple(
        tuple(draw(st.integers(0, 1)) for _ in range(n)) for _ in range(m)
    )
    theta = frozenset(
        b for b in range(n) if draw(st.booleans())
    )
    base = frozenset(b for b in theta if draw(st.booleans()))
    return pl.BipartiteStructure(rows, base, theta)


@st.composite
def structure_with_type(draw):
    s = draw(structures())
    a = draw(st.integers(0, s.m - 1))
    domain = [b for b in range(s.n) if draw(st.booleans())]
    return s, s.trace(a, domain)


@given(structure_with_type())
def test_traces_consistent(case):
    s, p = case
    assert s.is_consistent(p)


@given(structure_with_type())
def test_entails_reflexive_and_monotone(case):
    s, p = case
    assert s.entails(p, p)
    for size in range(len(p) + 1):
        for sub in combinations(p.items, size):
            q = pl.PhiType(sub)
            assert set(s.realizers(p)) <= set(s.realizers(q))


@given(structures())
@settings(max_examples=60)
def test_type_count_identity(s):
    for size in range(min(s.n, 4) + 1):
        for domain in combinations(range(s.n), size):
            full = len(s.type_space(domain)) == 2 ** len(domain)
            assert pl.is_phi_independent(s, domain) == full


@given(structures())
@settings(max_examples=60)
def test_independence_monotone(s):
    report = pl.independence_dimension(s)
    for size in range(report.id_value + 1):
        for sub in combinations(report.witness, size):
            assert pl.is_phi_independent(s, sub)


# -- sign-pattern references for the cell-splitting independence test ------


def reference_is_phi_independent(s, params):
    # every sign pattern over params, each folded into a realizer mask
    cols = []
    for b in params:
        s.check_parameter(b)
        cols.append(s.literal_mask(b, 1))
    full = (1 << s.m) - 1
    for signs in product((1, 0), repeat=len(cols)):
        mask = full
        for col, sign in zip(cols, signs):
            mask &= col if sign else col ^ full
        if not mask:
            return False
    return True


def reference_dimension(s, cap):
    # layered search testing every candidate from scratch
    layer, best, size = [()], (), 0
    while size < cap:
        nxt = [c + (j,) for c in layer for j in range(c[-1] + 1 if c else 0, s.n)
               if reference_is_phi_independent(s, c + (j,))]
        if not nxt:
            return pl.IndependenceReport(size, best, False)
        layer, size, best = nxt, size + 1, nxt[0]
    capped = any(reference_is_phi_independent(s, c + (j,))
                 for c in layer for j in range(c[-1] + 1 if c else 0, s.n))
    return pl.IndependenceReport(size, best, capped)


def reference_type_space(s, params):
    out = []
    for a in range(s.m):
        t = s.trace(a, params)
        if t not in out:
            out.append(t)
    return tuple(out)


@given(structures(max_m=16, max_n=6), st.data())
@settings(max_examples=80, deadline=None)
def test_dimension_matches_sign_pattern_search(s, data):
    # the same matrix with its rows permuted has the same answers, but its
    # change counts, and so the change and node bounds, differ
    order = data.draw(st.permutations(range(s.m)))
    permuted = pl.BipartiteStructure(tuple(s.truth[i] for i in order), s.base_set, s.theta_set)
    for cap in range(s.n + 2):
        report = pl.independence_dimension(s, cap)
        assert report == reference_dimension(s, cap)
        assert report == reference_independence_dimension(s, cap)[0]
        assert pl.independence_dimension(permuted, cap) == report
    full = reference_dimension(s, s.n)
    assert pl.independence_dimension(s) == full
    # the change bound is sound in either row order: no independent set is larger
    assert min(vc._change_counts(s)[2], vc._change_counts(permuted)[2]) >= full.id_value


@st.composite
def shattered_with_redundant_columns(draw, max_n=10):
    """2^d rows over d shattered columns, d in 2..4, widened to at most
    max_n columns by copies, complements and constants of the columns so
    far, and now and then a random column; every column is inserted at a
    drawn position, and a few rows may be repeated."""
    d = draw(st.integers(2, 4))
    m = 1 << d
    cols = [tuple(r >> i & 1 for r in range(m)) for i in range(d)]
    for _ in range(draw(st.integers(0, max_n - d))):
        kind = draw(st.sampled_from(["copy", "complement", "constant", "random"]))
        if kind == "random":
            col = tuple(draw(st.integers(0, 1)) for _ in range(m))
        elif kind == "constant":
            col = (draw(st.integers(0, 1)),) * m
        else:
            col = cols[draw(st.integers(0, len(cols) - 1))]
            if kind == "complement":
                col = tuple(1 - v for v in col)
        cols.insert(draw(st.integers(0, len(cols))), col)
    rows = list(zip(*cols))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, m - 1), max_size=3))]
    return pl.BipartiteStructure(tuple(rows), frozenset(), frozenset())


@given(shattered_with_redundant_columns())
@settings(max_examples=60, deadline=None)
def test_dimension_on_wide_structures_matches_sign_pattern_search(s):
    # copied, complemented and constant columns split no cell of some
    # independent set, so they drop out of its children's candidates
    for cap in range(s.n + 2):
        report = pl.independence_dimension(s, cap)
        assert report == reference_dimension(s, cap)
        assert report == reference_independence_dimension(s, cap)[0]
    assert vc._change_counts(s)[2] >= reference_dimension(s, s.n).id_value


@given(structures(min_n=1, max_n=5), st.data())
@settings(max_examples=80, deadline=None)
def test_independence_matches_sign_patterns(s, data):
    # empty, unsorted and repeated parameter tuples
    params = data.draw(st.lists(st.integers(0, s.n - 1), max_size=6))
    assert pl.is_phi_independent(s, params) == reference_is_phi_independent(s, params)
    # an unknown index raises even behind a dependent prefix
    bad = params + [data.draw(st.sampled_from([s.n, 99, -1]))]
    for decide in (pl.is_phi_independent, reference_is_phi_independent):
        with pytest.raises(pl.UnknownParameterError):
            decide(s, bad)


@given(structures(min_n=1, max_n=5), st.data())
@settings(max_examples=80, deadline=None)
def test_type_space_is_a_row_trace_scan(s, data):
    params = data.draw(st.lists(st.integers(0, s.n - 1), max_size=6))
    assert s.type_space(params) == reference_type_space(s, params)
    assert s.type_space(iter(params)) == reference_type_space(s, params)


# -- the matrix check against the row-by-row loop ----------------------------


@st.composite
def odd_matrices(draw, max_m=8, max_n=5):
    """0/1 matrices of ints, with a wrong row length and entries 2, -1, 0.5,
    1.0, True and None put in at random rows now and then; every row is a
    tuple in half the matrices, and each row is a tuple or a list at random
    in the rest."""
    m, n = draw(st.integers(1, max_m)), draw(st.integers(0, max_n))
    as_tuple = st.just(True) if draw(st.booleans()) else st.booleans()
    rows = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, m - 1))]
        if not row or draw(st.integers(0, 4)) == 0:
            if not row or draw(st.booleans()):
                row.append(0)
            else:
                row.pop()
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from([2, -1, 0.5, 1.0, True, None]))
    return tuple(tuple(row) if draw(as_tuple) else row for row in rows)


@given(odd_matrices())
@settings(max_examples=300, deadline=None)
def test_matrix_check_matches_the_row_loop(truth):
    try:
        expected = reference_matrix_columns(truth)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            pl.BipartiteStructure(truth, frozenset(), frozenset())
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    s = pl.BipartiteStructure(truth, frozenset(), frozenset())
    assert (s._columns, s._column_masks) == expected


# -- type_space and trace against the public PhiType constructor ------------


@st.composite
def mixed_structures(draw, max_m=8, max_n=5):
    """A matrix of 0/1 entries drawn as ints, bools and floats."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(0, max_n))
    entry = st.sampled_from([0, 1, False, True, 0.0, 1.0])
    rows = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(m))
    return pl.BipartiteStructure(rows, frozenset(), frozenset())


def parameter_lists(n):
    # sorted, unsorted, repeated and empty lists of known parameters, and
    # now and then an unknown or non-int one (True is parameter 1 when n > 1)
    known = st.integers(0, n - 1) if n else st.nothing()
    unknown = st.sampled_from([n, 99, -1, 1.0, -1.0, "0", None, True])
    return st.lists(st.one_of(known, known, known, unknown), max_size=6)


def checked_reference_trace(s, a, params):
    # literals read off the raw matrix, through the public constructor
    s.check_element(a)
    pairs = []
    for b in params:
        s.check_parameter(b)
        pairs.append((b, s.truth[a][b]))
    return pl.PhiType(pairs)


def checked_reference_type_space(s, params):
    params = tuple(params)
    for b in params:
        s.check_parameter(b)
    rows = dict.fromkeys(tuple(row[b] for b in params) for row in s.truth)
    return tuple(pl.PhiType(zip(params, values)) for values in rows)


def outcome(call):
    try:
        result = call()
    except pl.PhilabError as exc:
        return type(exc), str(exc)
    # repr tells the parameter True from 1 and the sign 1.0 from 1; == does not
    return "ok", repr(result)


def checked_reference_domain(s, params):
    # each parameter checked in the order given, and only then sorted
    params = tuple(params)
    for b in params:
        s.check_parameter(b)
    return tuple(sorted(set(params)))


def checked_reference_delta_calls(s, c, c1, params, base):
    # the delta entry points as calls on lists checked, subject first, and
    # sorted by checked_reference_domain
    family = DeltaFamily(1)

    def checked(*subjects, lists=(params,)):
        for b in subjects:
            s.check_parameter(b)
        return [checked_reference_domain(s, entries) for entries in lists]

    return {
        "delta_type": lambda: vars(pl.delta_type(s, family, c, *checked(c))),
        "cached_delta_type": lambda: vars(cached_delta_type(s, family, c, *checked(c))),
        "delta_equal": lambda: pl.delta_equal(s, family, c, c1, *checked(c, c1)),
        "finitely_satisfiable_in": lambda: pl.finitely_satisfiable_in(
            s, family, c, *checked(c, lists=(params, base))),
    }


def delta_calls(s, c, c1, params, base):
    family = DeltaFamily(1)
    return {
        "delta_type": lambda: vars(pl.delta_type(s, family, c, params)),
        "cached_delta_type": lambda: vars(cached_delta_type(s, family, c, params)),
        "delta_equal": lambda: pl.delta_equal(s, family, c, c1, params),
        "finitely_satisfiable_in":
            lambda: pl.finitely_satisfiable_in(s, family, c, params, base),
    }


def assert_int_signs(types):
    for t in types:
        assert all(type(sign) is int for _, sign in t.items), t.items


@given(mixed_structures(), st.data())
@settings(max_examples=150, deadline=None)
def test_type_space_and_trace_match_the_public_constructor(s, data):
    drawn = data.draw(parameter_lists(s.n))
    a = data.draw(st.integers(-1, s.m))
    # the drawn list, reversed, with its first entry repeated, and behind a
    # True that may equal a drawn 1: unsorted and repeated lists must give
    # what the public constructor makes of them
    for params in (drawn, drawn[::-1], drawn + drawn[:1], [True, *drawn]):
        space = outcome(lambda: s.type_space(params))
        assert space == outcome(lambda: checked_reference_type_space(s, params))
        if space[0] == "ok":
            assert_int_signs(s.type_space(params))
        trace = outcome(lambda: s.trace(a, params))
        assert trace == outcome(lambda: checked_reference_trace(s, a, params))
        if trace[0] == "ok":
            assert_int_signs([s.trace(a, params)])
        # the delta entry points check their lists as type_space does:
        # every parameter first, then the sort
        base = data.draw(parameter_lists(s.n))
        c, c1 = data.draw(st.integers(-1, s.n)), data.draw(st.integers(-1, s.n))
        got = delta_calls(s, c, c1, params, base)
        expected = checked_reference_delta_calls(s, c, c1, params, base)
        for name, call in got.items():
            assert outcome(call) == outcome(expected[name]), name
    if 0 <= a < s.m:
        full = s.full_trace(a)
        assert full == checked_reference_trace(s, a, range(s.n))
        assert_int_signs([full])
        # certificates pick a sorted subsequence of the full trace
        subtype = pl.find_isolating_subtype(s, full).subtype
        assert subtype.items == pl.PhiType(subtype.items).items
        assert set(subtype.items) <= set(full.items)


@pytest.mark.parametrize("params", [[8, 0], [9, 1, 8], [8, 0, 8], [11, 3, True, 8]])
def test_unsorted_lists_over_wide_structures_match_the_public_constructor(params):
    # a set of small ints iterates in sorted order only while no two collide
    # in its table: {8, 0} iterates as 8, 0, so these lists need the sort
    s = pl.gen_random_bounded(3, 20, 12, pl.generators.UNIONS)
    for a in range(s.m):
        assert outcome(lambda: s.trace(a, params)) == outcome(
            lambda: checked_reference_trace(s, a, params))
    assert outcome(lambda: s.type_space(params)) == outcome(
        lambda: checked_reference_type_space(s, params))
    base = params[::-1] + [2]
    got = delta_calls(s, 0, 8, params, base)
    expected = checked_reference_delta_calls(s, 0, 8, params, base)
    for name, call in got.items():
        assert outcome(call) == outcome(expected[name]), name


def checked_reference_literal_pairs(s, params):
    # each parameter checked in the order given, then its two literal masks
    params = tuple(params)
    for b in params:
        s.check_parameter(b)
    return [(s.literal_mask(b, 0), s.literal_mask(b, 1)) for b in params]


@given(mixed_structures(), st.data())
@settings(max_examples=150, deadline=None)
def test_literal_pairs_match_checked_literal_masks(s, data):
    params = data.draw(parameter_lists(s.n))
    assert outcome(lambda: s._literal_pairs(params)) == outcome(
        lambda: checked_reference_literal_pairs(s, params))


@given(mixed_structures(), st.data())
@settings(max_examples=60, deadline=None)
def test_type_space_types_behave_as_constructed_ones(s, data):
    # type_space builds its types without the constructor; they must still
    # be frozen, equal and hash equal to constructed ones, and round-trip
    params = data.draw(st.lists(st.integers(0, s.n - 1), max_size=6) if s.n
                       else st.just([]))
    for t in s.type_space(params):
        built = pl.PhiType(t.literals)
        assert t == built and hash(t) == hash(built) and repr(t) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.items = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.extra = 1
        assert not hasattr(t, "__dict__")
        for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert clone == t and hash(clone) == hash(t) and repr(clone) == repr(t)


def type_space_arguments(n):
    # (kind, entries): strictly increasing tuples, ranges, generators, and
    # lists that are unsorted, repeated, or hold True, False or an unknown
    known = st.integers(0, n - 1) if n else st.nothing()
    increasing = st.sets(known, max_size=6).map(sorted) if n else st.just([])
    flags = st.lists(st.one_of(known, st.sampled_from([True, False])), max_size=6)
    return st.one_of(
        st.tuples(st.just("tuple"), increasing),
        st.tuples(st.just("range"), st.lists(st.integers(0, n), min_size=2, max_size=2)),
        st.tuples(st.just("generator"), parameter_lists(n)),
        st.tuples(st.just("list"), st.one_of(parameter_lists(n), flags)),
    )


MAKE_ARGUMENT = {
    "tuple": tuple,
    "range": lambda ends: range(*ends),
    "generator": lambda entries: (b for b in entries),
    "list": list,
}


def assert_type_spaces_match_fresh_scans(s, calls):
    # each argument is made twice, so a generator is not shared
    for kind, entries in calls:
        make = MAKE_ARGUMENT[kind]
        assert outcome(lambda: s.type_space(make(entries))) == outcome(
            lambda: checked_reference_type_space(s, make(entries)))


@given(mixed_structures(), st.data())
@settings(max_examples=150, deadline=None)
def test_type_space_memo_leaks_nothing_into_later_calls(s, data):
    # one structure for every call: a literal column memoized by one call
    # must not give a later call a stale sign or an earlier call's True
    calls = data.draw(st.lists(type_space_arguments(s.n), min_size=1, max_size=8))
    assert_type_spaces_match_fresh_scans(s, calls)


@pytest.mark.parametrize("first, second", [([True, 2], [1, 2]), ([1, 2], [True, 2])])
def test_type_space_keeps_true_and_one_apart_across_calls(first, second):
    s = pl.BipartiteStructure(((0, True, 1.0), (1, False, 0.0), (True, 1, 0)),
                              frozenset(), frozenset())
    assert_type_spaces_match_fresh_scans(s, [("list", first), ("list", second)])


# -- distinct rows against row scans over all m rows ------------------------


#: entries read as 1 and as 0 other than the ints themselves
ODD_ONES = (True, 1.0, TruthyZero(), EqualsZero())
ODD_ZEROS = (False, 0.0)


@st.composite
def pooled_matrices(draw, max_m=12, max_n=5):
    """(rows, base, theta), the rows drawn from a pool of at most four, so
    repeats are common; now and then an entry is written as an odd 0 or 1
    (a truthy entry equal to 0 among them, hashable or not) and a row is a
    list."""
    n = draw(st.integers(0, max_n))
    pool = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, max_m))):
        row = list(draw(st.sampled_from(pool)))
        for b in range(n):
            if draw(st.integers(0, 4)) == 0:
                row[b] = draw(st.sampled_from(ODD_ONES if row[b] else ODD_ZEROS))
        rows.append(row if draw(st.booleans()) else tuple(row))
    theta = frozenset(b for b in range(n) if draw(st.booleans()))
    base = frozenset(b for b in theta if draw(st.booleans()))
    return tuple(rows), base, theta


def pooled_structures(**sizes):
    return pooled_matrices(**sizes).map(lambda case: pl.BipartiteStructure(*case))


def accepted_structures():
    """(raw rows, structure) for every matrix of odd_matrices (over an empty
    base and theta) and pooled_matrices that the constructor accepts."""
    def build(case):
        try:
            return case[0], pl.BipartiteStructure(*case)
        except ValueError:
            return None

    cases = st.one_of(odd_matrices().map(lambda rows: (rows, frozenset(), frozenset())),
                      pooled_matrices())
    return cases.map(build).filter(bool)


@given(accepted_structures())
@settings(max_examples=300, deadline=None)
def test_truth_holds_tuples_of_0_1_ints(case):
    rows, s = case
    assert type(s.truth) is tuple and s.truth == tuple(map(row_bits, rows))
    for row in s.truth:
        assert type(row) is tuple and len(row) == s.n
        assert all(isinstance(v, int) and v in (0, 1) for v in row)


@given(accepted_structures())
@settings(max_examples=300, deadline=None)
def test_serialize_round_trips_every_accepted_matrix(case):
    _, s = case
    back = pl.parse_structure(pl.serialize_structure(s))
    assert back == s and back._column_masks == s._column_masks


@given(pooled_structures())
@settings(max_examples=50, deadline=None)
def test_a_defining_counterexample_parses_back_to_its_structure(s):
    # every embed_trace call fails, so each distinct base trace gives a
    # counterexample carrying the structure's text
    failing = mock.patch.object(suites, "embed_trace", side_effect=pl.InvariantError("forced"))
    with failing:
        report = suites.defining_suite([("pooled", s)])
    assert not report["ok"] and report["counterexamples"]
    for counterexample in report["counterexamples"]:
        assert pl.parse_structure(counterexample["structure"]) == s


def scanned_first_rows(s, columns=None):
    # the first index of each distinct 0/1 row, or of each of its
    # projections onto columns, over all m rows
    firsts = {}
    for a, row in enumerate(s.truth):
        bits = row_bits(row)
        firsts.setdefault(bits if columns is None else tuple(bits[b] for b in columns), a)
    return tuple(firsts.values())


def scanned_type_space(s, params):
    # every row's literals on the checked params, in first-seen order
    params = tuple(params)
    for b in params:
        s.check_parameter(b)
    rows = dict.fromkeys(tuple(row_bits(row)[b] for b in params) for row in s.truth)
    return tuple(pl.PhiType(zip(params, values)) for values in rows)


def scanned_psi_disjunction(s, config):
    # one gamma per distinct 0/1 row among the realizers, then the cover
    p_c = extend_type(config.base_type, config)
    reps = {}
    for a in s.realizers(p_c):
        reps.setdefault(row_bits(s.truth[a]), a)
    gammas = [pl.gamma_certificate(s, a, config) for a in reps.values()]
    masks = [s.type_mask(g) for g in gammas]
    chosen, _ = cover.least_or_greedy_cover(masks, s.type_mask(p_c))
    return tuple(gammas[i] for i in chosen)


@given(pooled_structures(), st.data())
@settings(max_examples=150, deadline=None)
def test_distinct_rows_and_type_spaces_match_row_scans(s, data):
    assert s._distinct_rows() == scanned_first_rows(s)
    known = st.sampled_from(range(s.n)) if s.n else st.nothing()
    plain = st.sets(known, max_size=5).map(sorted) if s.n else st.just([])
    # unsorted, repeated or holding True: the route that reads every row
    other = st.lists(st.one_of(known, st.just(True)), max_size=5) if s.n > 1 else plain
    for params in (data.draw(plain), data.draw(other), range(s.n)):
        assert outcome(lambda: s.type_space(params)) == outcome(
            lambda: scanned_type_space(s, params))


@given(pooled_structures(max_m=10, max_n=4), st.data())
@settings(max_examples=60, deadline=None)
def test_defining_and_psi_match_references_over_distinct_rows(s, data):
    base = s.base_members()
    with mock.patch.object(suites, "embed_trace", wraps=suites.embed_trace) as embed:
        report = suites.defining_suite([("pooled", s)])
    assert report == {"suite": "defining", "rows_checked": s.m, "ok": True,
                      "counterexamples": []}
    # embed_trace runs once per base trace, on the first row that has it
    assert tuple(call.args[1] for call in embed.call_args_list) == scanned_first_rows(s, base)
    a = data.draw(st.integers(0, s.m - 1))
    p = s.trace(a, [b for b in base if data.draw(st.booleans())])
    for config in (GoodConfiguration((), p), pl.build_maximal(s, p, "greedy", 1)):
        assert pl.psi_disjunction(s, config) == scanned_psi_disjunction(s, config)


@given(structures(max_n=4), st.integers(0, 2))
@settings(max_examples=40)
def test_delta_equal_is_equivalence(s, arity):
    fam = DeltaFamily(arity)
    dom = s.base_members()
    params = range(s.n)
    for c0 in params:
        assert pl.delta_equal(s, fam, c0, c0, dom)
        for c1 in params:
            forward = bool(pl.delta_equal(s, fam, c0, c1, dom))
            assert forward == bool(pl.delta_equal(s, fam, c1, c0, dom))
            if forward:
                for c2 in params:
                    if pl.delta_equal(s, fam, c1, c2, dom):
                        assert pl.delta_equal(s, fam, c0, c2, dom)


@given(structures(max_n=4))
@settings(max_examples=40)
def test_delta_monotone_refinement(s):
    fam = DeltaFamily(1)
    big = tuple(range(s.n))
    small = big[: max(s.n - 1, 0)]
    for c0 in range(s.n):
        for c1 in range(s.n):
            if pl.delta_equal(s, fam, c0, c1, big):
                assert pl.delta_equal(s, fam, c0, c1, small)


def all_domains(s):
    return [d for size in range(s.n + 1) for d in combinations(range(s.n), size)]


@given(structures(max_n=4), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_delta_equal_is_table_equality(s, arity):
    # signature equality against the full tables, on every domain (empty too)
    fam = DeltaFamily(arity)
    for dom in all_domains(s):
        tables = [pl.delta_type(s, fam, c, dom).table for c in range(s.n)]
        for c0 in range(s.n):
            for c1 in range(s.n):
                expected = tables[c0] == tables[c1]
                assert pl.delta_equal(s, fam, c0, c1, dom) == expected


@given(structures(min_n=1, max_n=4), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_delta_type_entries_are_delta_eval(s, arity):
    # the packed table, read back, against the one-entry reference on every
    # domain (empty too), in canonical key order
    fam = DeltaFamily(arity)
    for dom in all_domains(s):
        keys = [
            (zs, t, signs)
            for zs in product(dom, repeat=arity)
            for t in (0, 1)
            for signs in product((0, 1), repeat=arity)
        ]
        for c in range(s.n):
            table = pl.delta_type(s, fam, c, dom).table
            assert list(table) == keys
            for (zs, t, signs), value in table.items():
                assert value == pl.delta_eval(s, fam, c, zs, t, signs)


@given(structures(min_n=1, max_n=4), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_fin_sat_all_is_a_table_scan(s, arity, data):
    fam = DeltaFamily(arity)
    base = data.draw(st.lists(st.sampled_from(range(s.n)), min_size=1, unique=True))
    for dom in all_domains(s):
        tables = [pl.delta_type(s, fam, c, dom).table for c in range(s.n)]
        for c, table in enumerate(tables):
            expected = any(tables[b] == table for b in base)
            for k in (ALL, len(base), len(base) + 1):
                assert pl.finitely_satisfiable_in(s, fam, c, dom, base, k) == expected


@given(structures(max_n=4))
@settings(max_examples=30)
def test_fin_sat_all_implies_finite_k(s):
    fam = DeltaFamily(1)
    base = s.base_members()
    if not base:
        return
    for c in range(s.n):
        if pl.finitely_satisfiable_in(s, fam, c, base, base, ALL):
            assert pl.finitely_satisfiable_in(s, fam, c, base, base, 1)
            assert pl.finitely_satisfiable_in(s, fam, c, base, base, 2)


@st.composite
def small_delta_tables(draw):
    """A structure, a family, a base, and every subject's delta table of at
    most 12 entries over one domain."""
    s = draw(structures(min_n=2))
    arity = draw(st.integers(0, 2))
    columns = st.sampled_from(range(s.n))
    domain = draw(st.lists(columns, max_size=(5, 3, 1)[arity], unique=True))
    base = draw(st.lists(columns, min_size=1, max_size=4, unique=True))
    family = DeltaFamily(arity)
    return s, family, base, [pl.delta_type(s, family, c, domain) for c in range(s.n)]


@given(small_delta_tables())
@settings(deadline=None)
def test_fin_sat_matches_oracle(case):
    s, family, base, tables = case
    for dt in tables:
        for k in (1, 2, 3):
            expected = oracle_finitely_satisfiable(s, dt.table, base, k)
            got = pl.finitely_satisfiable_in(s, family, dt.subject, dt.domain, base, k)
            assert got == expected


@given(small_delta_tables())
@settings(deadline=None)
def test_fin_sat_at_base_size_is_all(case):
    # a minimum cover never needs more entries than there are base parameters
    s, family, base, tables = case
    for dt in tables:
        expected = pl.finitely_satisfiable_in(s, family, dt.subject, dt.domain, base, ALL)
        for k in range(len(base), 5):
            assert oracle_finitely_satisfiable(s, dt.table, base, k) == expected


# -- dict-table references for finite satisfiability and the extension scan --


@st.composite
def structures_with_copies(draw, max_m=8, max_n=5):
    """structures() whose columns may repeat one another."""
    s = draw(structures(max_m=max_m, max_n=max_n))
    source = [draw(st.integers(0, b)) for b in range(s.n)]
    rows = tuple(tuple(row[source[b]] for b in range(s.n)) for row in s.truth)
    return pl.BipartiteStructure(rows, s.base_set, s.theta_set)


@given(structures_with_copies(max_n=5), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_fin_sat_matches_dict_table_reference(s, arity, data):
    # empty domains and bases included
    family = DeltaFamily(arity)
    columns = st.lists(st.sampled_from(range(s.n)), unique=True) if s.n else st.just([])
    domain = data.draw(columns)[:(5, 5, 5, 4)[arity]]
    base = data.draw(columns)
    for c in range(s.n):
        for k in (1, 2, 3, 4, ALL):
            with mock.patch.object(cover, "DEFAULT_COVER_LIMIT", sys.maxsize):
                expected = reference_finitely_satisfiable(s, family, c, domain, base, k)
            assert pl.finitely_satisfiable_in(s, family, c, domain, base, k) == expected


def reference_find_extension_pair(s, config, k_sat, family):
    # the full lexicographic scan with (iv) on dict tables
    p_c_mask = s.type_mask(extend_type(config.base_type, config.pairs))
    base = s.base_set
    domain = tuple(sorted(base | set(config.components)))
    for d0 in s.theta_members():
        mask0 = p_c_mask & s.literal_mask(d0, 0)
        if not mask0:
            continue
        for d1 in s.theta_members():
            if d1 == d0 or not mask0 & s.literal_mask(d1, 1):
                continue
            if not pl.delta_equal(s, family, d0, d1, domain):
                continue
            if not reference_finitely_satisfiable(s, family, d0, domain, base, k_sat):
                break
            if pl.is_good_configuration(s, config.extended((d0, d1)), family=family):
                return (d0, d1)
    return None


@given(structures_with_copies(max_m=6, max_n=5), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_extension_pair_matches_full_scan(s, arity, data):
    # from a base trace and a configuration grown at k = 1; at arity >= 1 no
    # step exists at k = ALL or k >= |B|
    family = DeltaFamily(arity)
    a = data.draw(st.integers(0, s.m - 1))
    p = s.trace(a, [b for b in s.base_members() if data.draw(st.booleans())])
    config = GoodConfiguration((), p)
    for _ in range(data.draw(st.integers(0, 2))):
        pair = reference_find_extension_pair(s, config, 1, family)
        if pair is None:
            break
        config = config.extended(pair)
    size = len(s.base_set)
    for k_sat in (ALL, size, size + 1, 1, 2):
        if k_sat == 0:  # |B| = 0 is no strength
            with pytest.raises(ValueError, match=r"^k must be >= 1 or ALL$"):
                pl.find_extension_pair(s, config, k_sat, family)
            continue
        expected = reference_find_extension_pair(s, config, k_sat, family)
        if arity and (k_sat is ALL or k_sat >= size):
            assert expected is None
        assert pl.find_extension_pair(s, config, k_sat, family) == expected


def test_arity_zero_still_steps(s1):
    # at arity 0 a table only records which signs occur, so any two
    # non-constant columns pass (iii) and (iv)
    family = DeltaFamily(0)
    config = GoodConfiguration((), pl.EMPTY_TYPE)
    for k_sat in (ALL, 1, 2):
        assert reference_find_extension_pair(s1, config, k_sat, family) == (0, 1)
        assert pl.find_extension_pair(s1, config, k_sat, family) == (0, 1)


@given(structures(max_m=6, max_n=4))
@settings(max_examples=30, deadline=None)
def test_bound_and_prefix_closure(s):
    dim = pl.independence_dimension(s).id_value
    configs = pl.oracle_all_good_configs(s, pl.EMPTY_TYPE, min(2, dim + 1))
    for pairs in configs:
        assert len(pairs) <= dim
        for cut in range(len(pairs)):
            assert pairs[:cut] in configs


@given(structures(max_m=6, max_n=4), st.sampled_from([1, 2, ALL]))
@settings(max_examples=30, deadline=None)
def test_extension_soundness(s, k_sat):
    config = GoodConfiguration((), pl.EMPTY_TYPE)
    pair = pl.find_extension_pair(s, config, k_sat)
    if pair is not None:
        assert pl.is_good_configuration(s, config.extended(pair))


@given(structure_with_type())
@settings(max_examples=60, deadline=None)
def test_certificate_sound_and_minimal(case):
    s, p = case
    cert = pl.find_isolating_subtype(s, p)
    assert cert.subtype.is_subtype_of(p)
    assert s.entails(cert.subtype, p)
    # independent re-check through the oracle's row sets
    assert pl.oracle_min_isolating(s, p) == cert.size


@given(structures(max_m=8, max_n=5))
@settings(max_examples=40, deadline=None)
def test_shattered_domain_lower_bound(s):
    # on an independent domain, nothing short of the whole type isolates
    report = pl.independence_dimension(s)
    witness = report.witness
    if not witness:
        return
    for a in range(s.m):
        p = s.trace(a, witness)
        cert = pl.find_isolating_subtype(s, p)
        assert cert.subtype == p


@given(structures(max_m=6, max_n=4))
@settings(max_examples=25, deadline=None)
def test_pipeline_budget(s):
    p = s.trace(0, s.base_members())
    result = pl.isolated_extension(s, p)
    assert result.two_k <= result.two_id
    assert result.added_params <= result.two_id
    formula = pl.phi_defining_formula(s, result.certificate)
    for b, sign in result.extension.items:
        assert formula.holds(b) == bool(sign)


@given(structures(max_m=6, max_n=4))
@settings(max_examples=25, deadline=None)
def test_embed_trace_rows(s):
    for a in range(s.m):
        formula, _ = pl.embed_trace(s, a)
        for b in s.base_members():
            assert formula.holds(b) == bool(s.truth[a][b])


# -- the oracle against its row-scan reference ----------------------------


@st.composite
def uniform_structures(draw, max_m=12, max_n=6):
    """Uniform random bits, theta and base from a drawn seed: unlike
    structures(), whose draws lean towards zeros, these often have
    non-empty good configurations at arity >= 1."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    m, n = rnd.randint(1, max_m), rnd.randint(0, max_n)
    rows = tuple(tuple(rnd.randint(0, 1) for _ in range(n)) for _ in range(m))
    theta = frozenset(b for b in range(n) if rnd.random() < 0.7)
    base = frozenset(b for b in theta if rnd.random() < 0.5)
    return pl.BipartiteStructure(rows, base, theta)


# m <= 12, n <= 6, with n = 0, empty base and theta, and repeated columns
oracle_structures = st.one_of(structures_with_copies(max_m=12, max_n=6), uniform_structures())


@st.composite
def oracle_types(draw, s):
    """The empty type, a row's trace, or any sign assignment over columns
    of s, realized or not."""
    domain = draw(st.lists(st.sampled_from(range(s.n)), unique=True)) if s.n else []
    kind = draw(st.sampled_from(("empty", "trace", "any")))
    if kind == "empty":
        return pl.EMPTY_TYPE
    if kind == "trace":
        return s.trace(draw(st.integers(0, s.m - 1)), domain)
    return pl.PhiType({b: draw(st.integers(0, 1)) for b in domain})


@given(oracle_structures)
@settings(max_examples=150, deadline=None)
def test_oracle_vc_matches_row_scans(s):
    assert oracle_vc(s) == reference_oracle_vc(s)


def with_repeated_rows(s, count):
    """s with its first `count` rows appended once more."""
    return pl.BipartiteStructure(s.truth + s.truth[:count], s.base_set, s.theta_set)


@given(oracle_structures, st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_oracle_vc_matches_the_unpruned_loop(s, repeats):
    s = with_repeated_rows(s, repeats)
    assert oracle_vc(s) == reference_oracle_vc_unpruned(s)


@given(oracle_structures, st.data())
@settings(max_examples=150, deadline=None)
def test_oracle_min_isolating_matches_row_scans(s, data):
    p = data.draw(oracle_types(s))
    assert oracle_min_isolating(s, p) == reference_oracle_min_isolating(s, p)


@given(oracle_structures, st.data())
@settings(max_examples=100, deadline=None)
def test_oracle_good_configs_match_row_scans(s, data):
    # at max_k = 3, the oracle's limit; shorter lists are prefixes of these
    p = data.draw(oracle_types(s))
    for arity in range(4):
        expected = reference_oracle_all_good_configs(s, p, 3, arity)
        assert oracle_all_good_configs(s, p, 3, arity) == expected


@given(oracle_structures, st.integers(0, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_oracle_good_configs_closed_under_sub_lists(s, arity, data):
    # the premise the enumeration prunes by: every sub-list of a good
    # configuration, with one position dropped or reordered, is good too
    p = data.draw(oracle_types(s))
    configs = oracle_all_good_configs(s, p, 3, arity)
    found = set(configs)
    memo: dict = {}
    for pairs in configs:
        dropped = {pairs[:i] + pairs[i + 1:] for i in range(len(pairs))}
        for sub in dropped | set(permutations(pairs)):
            assert reference_clauses_hold(s, sub, p, arity, memo)
            assert sub in found


@given(oracle_structures, st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_oracle_fin_sat_matches_row_scans(s, arity, data):
    # up to 12 entries of a subject's table; at arity >= 2 some zs repeat a
    # column, list columns out of order, or contain c itself
    columns = st.lists(st.sampled_from(range(s.n)), unique=True) if s.n else st.just([])
    domain = data.draw(columns)[:3]
    base = data.draw(columns)
    family = DeltaFamily(arity)
    tables = [{}]
    for c in range(s.n):
        full = pl.delta_type(s, family, c, domain).table
        entries = st.lists(st.sampled_from(list(full)), max_size=12, unique=True)
        keys = data.draw(entries if full else st.just([]))
        tables.append({key: full[key] for key in keys})
    for table in tables:
        for k in (1, 2, 3, 4):
            expected = reference_oracle_finitely_satisfiable(s, table, base, k)
            assert oracle_finitely_satisfiable(s, table, base, k) == expected


@given(oracle_structures, st.data())
@settings(max_examples=50, deadline=None)
def test_oracle_keeps_nothing_on_the_structure(s, data):
    # row sets and columns are rebuilt per call: a per-structure copy of
    # them would stay alive as long as the structure does
    p = data.draw(oracle_types(s))
    table = pl.delta_type(s, DeltaFamily(1), 0, [0]).table if s.n else {}
    before = set(vars(s))
    oracle_vc(s)
    oracle_min_isolating(s, p)
    oracle_all_good_configs(s, p, 2)
    oracle_finitely_satisfiable(s, table, range(s.n), 1)
    assert set(vars(s)) == before



def signed_pairs(s, a, avoid=()):
    """Pairs (c0, c1) from theta outside avoid on which row a reads 0 and 1,
    or None."""
    theta = [c for c in s.theta_members() if c not in avoid]
    zeros = [c for c in theta if not s.truth[a][c]]
    ones = [c for c in theta if s.truth[a][c]]
    if not zeros or not ones:
        return None
    return st.tuples(st.sampled_from(zeros), st.sampled_from(ones))


@given(uniform_structures(max_m=8, max_n=5), st.integers(0, 2), st.data())
@settings(max_examples=300, deadline=None)
def test_q_realizer_checks_the_base_type_once(s, arity, data):
    # a non-empty base type realized by row a and pairs signed as a's row, so
    # the generating tuple realizes its own q-type; candidates signed as some
    # row off the type's domain realize their own literals and clash with no
    # literal of the type, but not always realize it; theta tuples can clash
    assume(s.n)
    a = data.draw(st.integers(0, s.m - 1))
    domain = data.draw(st.lists(st.sampled_from(range(s.n)), min_size=1, unique=True))
    p = s.trace(a, domain)
    pair = signed_pairs(s, a)
    pairs = data.draw(st.lists(pair, min_size=1, max_size=2)) if pair is not None else []
    q = pl.q_type(s, GoodConfiguration(tuple(pairs), p), family=DeltaFamily(arity))
    candidates = [q.generating]
    for b in data.draw(st.lists(st.integers(0, s.m - 1), max_size=8)):
        pair = signed_pairs(s, b, p.domain)
        if pair is not None:
            row_pairs = st.lists(pair, min_size=len(pairs), max_size=len(pairs))
            candidates.append(sum(data.draw(row_pairs), ()))
    theta = s.theta_members()
    if theta:
        tuples = st.tuples(*[st.sampled_from(theta)] * q.component_count)
        candidates += data.draw(st.lists(tuples, max_size=4))
    for candidate in candidates:
        expected = reference_check_q_realizer(s, q, candidate)
        assert pl.check_q_realizer(s, q, candidate) == expected


@st.composite
def harness_structures(draw):
    """Structures of independence dimension d in 0..3: d free columns whose
    2^d sign patterns all occur, plus copies, complements and constant
    columns, which can never join an independent set; columns shuffled."""
    d = draw(st.integers(0, 3))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    free = list(product((0, 1), repeat=d))
    free += [rnd.choice(free) for _ in range(rnd.randint(0, 3))]
    columns = [[row[b] for row in free] for b in range(d)]
    for _ in range(rnd.randint(1, 5 - d)):
        source = rnd.randrange(-1, d)  # -1: a constant column
        flip = rnd.randint(0, 1)
        columns.append([(row[source] if source >= 0 else 0) ^ flip for row in free])
    rnd.shuffle(columns)
    theta = frozenset(b for b in range(len(columns)) if rnd.random() < 0.8)
    base = frozenset(b for b in theta if rnd.random() < 0.5)
    s = pl.BipartiteStructure(tuple(zip(*columns)), base, theta)
    assert pl.vc.cached_dimension(s) == d
    return s


@given(st.one_of(harness_structures(), uniform_structures(max_m=8, max_n=5)),
       st.sampled_from((2, 1, 0)), st.data())
@settings(max_examples=400, deadline=None)
def test_q_harness_matches_the_product_loop(s, pair_count, data):
    # K pairs signed as row a, over an empty base type or a's trace; theta
    # holds the base, so components can equal base members
    a = data.draw(st.integers(0, s.m - 1))
    domain = data.draw(st.lists(st.sampled_from(range(s.n)), max_size=3, unique=True)
                       if s.n else st.just([]))
    p = s.trace(a, domain)
    pair = signed_pairs(s, a)
    assume(pair is not None or not pair_count)
    pairs = data.draw(st.lists(pair, min_size=pair_count, max_size=pair_count)
                      if pair_count else st.just([]))
    config = GoodConfiguration(tuple(pairs), p)
    assert q_harness(s, config) == reference_q_harness(s, config)


# -- the delta packer and the checker's clause-(iii) entry against the code
# they replace -----------------------------------------------------------


@given(structures_with_copies(max_m=8, max_n=5), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_pack_literals_matches_the_string_packer(s, arity, data):
    # z-tuples of any length up to the arity, () included, repeating
    # columns or naming the subject, as a list or a one-shot iterator
    assume(s.n)
    s = with_repeated_rows(s, data.draw(st.integers(0, s.m)))
    params = tuple(range(s.n))
    lits = dict(zip(params, s._literal_pairs(params)))
    c = data.draw(st.sampled_from(params))
    ztuple = st.lists(st.sampled_from(params), max_size=arity).map(tuple)
    ztuples = data.draw(st.lists(ztuple, max_size=6))
    expected = reference_pack_literals(lits, c, ztuples)
    assert _pack_literals(lits, c, ztuples) == expected
    assert _pack_literals(lits, c, iter(ztuples)) == expected


@pytest.mark.parametrize("ztuples", [[], [()], [(), ()], [(0,), (1,)], [(1, 0), (0, 0)]])
def test_pack_literals_edges(s1, ztuples):
    # no z-tuple packs to 0; an arity-0 z-tuple packs c's two sign bits
    lits = dict(zip((0, 1), s1._literal_pairs((0, 1))))
    for c in (0, 1):
        assert _pack_literals(lits, c, ztuples) == reference_pack_literals(lits, c, ztuples)
    assert (_pack_literals(lits, 0, ztuples) == 0) == (ztuples == [])


@given(uniform_structures(max_m=10, max_n=6), st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_clause_iii_entry_matches_the_checker(s, arity, data):
    # random pair lists over theta that pass clause (ii), each pair drawn
    # from those that keep a realizer; the verdicts must agree, witness
    # included
    family = DeltaFamily(arity)
    theta = s.theta_members()
    a = data.draw(st.integers(0, s.m - 1))
    p = s.trace(a, [b for b in s.base_members() if data.draw(st.booleans())])
    pairs = ()
    mask = s.type_mask(p)
    for _ in range(data.draw(st.integers(1, 3))):
        masks = {(c0, c1): mask & s.literal_mask(c0, 0) & s.literal_mask(c1, 1)
                 for c0 in theta for c1 in theta}
        passing = sorted(pair for pair, below in masks.items() if below)
        if not passing:
            break
        pair = data.draw(st.sampled_from(passing))
        pairs, mask = pairs + (pair,), masks[pair]
    expected = pl.is_good_configuration(s, GoodConfiguration(pairs, p), family)
    assert expected.clause != "i" and expected.clause != "ii"
    assert _check_clause_iii(s, family, pairs) == expected
