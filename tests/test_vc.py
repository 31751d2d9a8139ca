import tracemalloc
from itertools import combinations

import pytest

import philab as pl
from philab import vc
from philab.cli import parse_generator_spec

from conftest import reference_independence_dimension


def test_s1_by_construction(s1):
    report = pl.independence_dimension(s1)
    assert report.id_value == 2
    assert report.witness == (0, 1)
    assert not report.capped


def test_chain_dimension(s2):
    # derived by full enumeration: nested thresholds never shatter a pair
    assert pl.independence_dimension(s2).id_value == 1
    assert not pl.is_phi_independent(s2, [0, 1])


def test_empty_set_independent(s2):
    assert pl.is_phi_independent(s2, [])


def test_unknown_parameter_raises_before_any_split(s1):
    # the repeated 0 alone would make the second split fail and return False
    with pytest.raises(pl.UnknownParameterError, match="unknown parameter 99"):
        pl.is_phi_independent(s1, [0, 0, 99])


def test_single_row_dimension_zero():
    s = pl.BipartiteStructure(((0, 1, 0),), frozenset(), frozenset(range(3)))
    assert pl.independence_dimension(s).id_value == 0


def test_shattered_pair(s1):
    assert pl.is_phi_independent(s1, [0, 1])


def test_cap_and_capped_flag():
    s = pl.gen_shattered(3)
    capped = pl.independence_dimension(s, cap=2)
    assert capped.id_value == 2
    assert capped.capped
    assert len(capped.witness) == 2
    full = pl.independence_dimension(s)
    assert full.id_value == 3 and not full.capped


def test_witness_is_lex_least():
    # columns: constant 0, then two shattered ones; {1, 2} is the least pair
    rows = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))
    s = pl.BipartiteStructure(rows, frozenset(), frozenset(range(3)))
    assert pl.independence_dimension(s).witness == (1, 2)


def test_monotone_subsets(corpus):
    # any subset of an independent set is independent
    for _, s in corpus[:4]:
        report = pl.independence_dimension(s)
        witness = report.witness
        for size in range(len(witness) + 1):
            for sub in combinations(witness, size):
                assert pl.is_phi_independent(s, sub)


def test_adding_rows_never_decreases():
    rows = ((0, 1), (1, 0))
    small = pl.BipartiteStructure(rows, frozenset(), frozenset(range(2)))
    grown = pl.BipartiteStructure(rows + ((1, 1),), frozenset(), frozenset(range(2)))
    assert (
        pl.independence_dimension(grown).id_value
        >= pl.independence_dimension(small).id_value
    )


def test_adding_columns_never_decreases():
    s = pl.gen_random_bounded(5, 12, 4, pl.generators.INTERVALS)
    wider = pl.BipartiteStructure(
        tuple(row + (1,) for row in s.truth), frozenset(), frozenset(range(5))
    )
    assert (
        pl.independence_dimension(wider).id_value
        >= pl.independence_dimension(s).id_value
    )


def test_invariant_matches_oracle(corpus):
    for _, s in corpus:
        if s.n <= 8:
            assert pl.independence_dimension(s).id_value == pl.oracle_vc(s)


def test_negative_cap_rejected(s1):
    with pytest.raises(ValueError):
        pl.independence_dimension(s1, cap=-1)


def test_non_int_cap_rejected():
    # a float cap would let the search report an id above it, not capped
    s = pl.gen_shattered(3)
    for cap in (1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="cap must be an int"):
            pl.independence_dimension(s, cap=cap)
    # an int-like cap (a bool is an int) is read as its int value
    assert pl.independence_dimension(s, cap=True) == pl.independence_dimension(s, cap=1)


def test_pigeonhole_boundary():
    # k columns can be independent over 2^k rows, never over 2^k - 1
    for k in range(5):
        s = pl.gen_shattered(k)
        assert pl.is_phi_independent(s, range(k))
        if k:
            short = pl.BipartiteStructure(s.truth[1:], frozenset(), frozenset())
            assert not pl.is_phi_independent(short, range(k))
            assert pl.is_phi_independent(short, range(k - 1))


def test_unknown_parameter_behind_the_pigeonhole_bound_raises(s1):
    # five parameters over four rows are dependent by counting alone, but
    # every parameter is still checked first
    for bad in (99, -1, "0", 1.0, None):
        with pytest.raises(pl.UnknownParameterError):
            pl.is_phi_independent(s1, [0, 1, 0, 1, bad])


def test_node_guard_raises(monkeypatch):
    # shattered:4 tries 4 + 3 + 2 + 1 = 10 (set, column) pairs down the path
    # {0} < {0,1} < {0,1,2} < {0,1,2,3}; once that 4-set is found, no other
    # branch can reach size 5, so none is entered
    monkeypatch.setattr(vc, "DIMENSION_NODE_LIMIT", 9)
    with pytest.raises(pl.ResourceLimitError):
        pl.independence_dimension(pl.gen_shattered(4))
    monkeypatch.setattr(vc, "DIMENSION_NODE_LIMIT", 10)
    assert pl.independence_dimension(pl.gen_shattered(4)).id_value == 4


def test_search_keeps_only_the_current_path():
    s = pl.gen_random_bounded(1, 400, 100, pl.generators.UNIONS)
    tracemalloc.start()
    try:
        report = pl.independence_dimension(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.id_value == 4
    assert peak < 1 << 20


# -- the search against the column-major reference with no change bound -----

#: perfbench/workloads.py's COLD_RUNGS: (points, columns, |B| range, core
#: instances, instances from generator seed 1000 on at workload seed 0)
COLD_RUNGS = (
    (50, 12, (4, 4), 22, 8),
    (100, 16, (5, 5), 9, 3),
    (200, 24, (6, 7), 3, 1),
)


def assert_matches_reference(s):
    for cap in range(s.n + 2):
        assert pl.independence_dimension(s, cap) == reference_independence_dimension(s, cap)[0]


def test_search_matches_reference_on_corpus(corpus):
    for _, s in corpus:
        assert_matches_reference(s)


def test_search_matches_reference_on_the_cold_instances():
    # every structure in a rung's |B| range up to the last one the benchmark
    # keeps, which it keeps at dimension 3
    kept = 0
    for x, y, (lo, hi), core, share in COLD_RUNGS:
        for g, count in ((0, core), (1000, share)):
            found = 0
            while found < count:
                s = pl.gen_random_bounded(g, x, y, pl.generators.UNIONS)
                if lo <= len(s.base_set) <= hi:
                    assert_matches_reference(s)
                    found += reference_independence_dimension(s)[0].id_value == 3
                g += 1
            kept += found
    assert kept == 46


@pytest.mark.parametrize("spec", [f"shattered:{k}" for k in range(6)]
                         + [f"linear:{n}" for n in range(1, 21)])
def test_search_matches_reference_on_shattered_and_linear(spec):
    assert_matches_reference(parse_generator_spec(spec))


def own_node_count(monkeypatch, s, most):
    """The least DIMENSION_NODE_LIMIT at which the search on s passes, found
    by bisection below `most`, a limit at which it passes."""
    lo, hi = 0, most
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(vc, "DIMENSION_NODE_LIMIT", mid)
        try:
            pl.independence_dimension(s)
            hi = mid
        except pl.ResourceLimitError:
            lo = mid + 1
    return lo


@pytest.mark.parametrize(
    "spec", ["random:intervals:32:20:6", "random:unions2:6:50:12", "random:unions2:22:200:24"])
def test_node_guard_trips_where_the_reference_does(monkeypatch, spec):
    # the change bound is above the dimension here, so it ends no search
    # early; the node bound never enters a node the reference does not, and
    # on the unions2 instances it skips some the reference enters
    s = parse_generator_spec(spec)
    report, tried = reference_independence_dimension(s)
    assert vc._change_counts(s)[2] > report.id_value
    monkeypatch.setattr(vc, "DIMENSION_NODE_LIMIT", tried)
    assert pl.independence_dimension(s) == report
    count = own_node_count(monkeypatch, s, tried)
    monkeypatch.setattr(vc, "DIMENSION_NODE_LIMIT", count)
    assert pl.independence_dimension(s) == report
    monkeypatch.setattr(vc, "DIMENSION_NODE_LIMIT", count - 1)
    with pytest.raises(pl.ResourceLimitError):
        pl.independence_dimension(s)
    assert count <= tried
    if spec.startswith("random:unions2"):
        assert count < tried


@pytest.mark.parametrize("spec, expected", [
    ("random:unions2:0:800:48", (3, (0, 1, 42))),
    ("random:unions2:1:800:48", (3, (0, 1, 12))),
    ("random:unions2:2:800:48", (3, (1, 3, 39))),
    ("random:unions2:1:1600:96", (4, (32, 39, 67, 72))),
])
def test_node_bound_keeps_the_answers_at_scale(spec, expected):
    # the answers the search gave before the node bound, at --cap full; the
    # change bound is 4 on each, so the node bound does the pruning
    s = parse_generator_spec(spec)
    assert vc._change_counts(s)[2] == 4
    assert pl.independence_dimension(s, s.n) == pl.IndependenceReport(*expected, False)


# -- the change bound --------------------------------------------------------


def test_change_bound_is_tight_on_linear_and_shattered():
    for n in range(4, 21):
        s = parse_generator_spec(f"linear:{n}")
        assert vc._change_counts(s)[2] == pl.independence_dimension(s).id_value == 1
        # read bottom up, every column ends on a 1, which is no change
        flipped = pl.BipartiteStructure(s.truth[::-1], s.base_set, s.theta_set)
        assert vc._change_counts(flipped)[2] == 1
    for k in range(1, 6):
        s = pl.gen_shattered(k)
        assert vc._change_counts(s)[2] == pl.independence_dimension(s).id_value == k


def test_change_bound_certifies_the_random_families(corpus):
    # an interval column changes at most twice and a union of two at most
    # four times: 2^k <= 1 + 2k holds up to k = 2, and 2^k <= 1 + 4k up to 4
    limit = {pl.generators.INTERVALS: 2, pl.generators.UNIONS: 4}
    cases = [(name.split(":")[0], s) for name, s in corpus if name.split(":")[0] in limit]
    for x, y in ((800, 48), (1600, 96), (4096, 256)):
        for family in limit:
            cases.append((family, pl.gen_random_bounded(1, x, y, family)))
    assert len(cases) == 206
    for family, s in cases:
        assert vc._change_counts(s)[2] <= limit[family]
