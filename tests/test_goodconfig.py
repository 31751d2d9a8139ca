import json
from itertools import product

import pytest

import philab as pl
from philab import goodconfig
from philab.cli import parse_generator_spec
from philab.delta import ALL, DeltaFamily
from philab.goodconfig import GoodConfiguration, config_certificate
from philab.oracle import oracle_configs_realized

from conftest import (
    EMPTY_BASE_SPECS,
    WIDE_DIFFERENTIAL_SPECS,
    reference_build_maximal_exhaustive,
    reference_clause_iii_witness,
    reference_clauses_hold,
)


def empty_config(p=pl.EMPTY_TYPE):
    return GoodConfiguration((), p)


class TestExtendType:
    def test_size_zero_unchanged(self, s2):
        p = s2.trace(0, [0, 1])
        assert pl.extend_type(p, ()) == p

    def test_pair_literals_added(self, gap_chain):
        p = gap_chain.trace(6, gap_chain.base_members())
        extended = pl.extend_type(p, [(5, 6)])
        assert extended.literals[5] == 0
        assert extended.literals[6] == 1
        assert p.is_subtype_of(extended)

    def test_clash_rejected(self, s2):
        p = pl.PhiType({2: 1})
        with pytest.raises(pl.LiteralClashError):
            pl.extend_type(p, [(2, 3)])  # pair forces 2 -> 0 against p

    def test_diagonal_pair_rejected(self, s2):
        with pytest.raises(pl.LiteralClashError):
            pl.extend_type(pl.EMPTY_TYPE, [(1, 1)])


class TestChecker:
    def test_empty_candidate_good(self, s1):
        assert pl.is_good_configuration(s1, empty_config())

    def test_empty_candidate_inconsistent_type(self):
        constant = pl.BipartiteStructure(((1,), (1,)), frozenset(), frozenset({0}))
        check = pl.is_good_configuration(constant, empty_config(pl.PhiType({0: 0})))
        assert not check and check.clause == "ii"

    def test_theta_violation(self):
        s = pl.gen_linear_order(6, [2, 4], fill_gaps=False)  # theta = base
        check = pl.is_good_configuration(s, GoodConfiguration(((1, 3),), pl.EMPTY_TYPE))
        assert not check and check.clause == "i" and check.witness == (0, 0)

    def test_clause_ii_violation(self, s1):
        # pair (0, 1) forces 0 -> 0 against p = {0 -> 1}
        check = pl.is_good_configuration(s1, GoodConfiguration(((0, 1),), pl.PhiType({0: 1})))
        assert not check and check.clause == "ii"

    def test_diagonal_pair_fails_clause_ii(self):
        # (d, d) asks d for both signs, so no element realizes the pair
        s = pl.gen_linear_order(12, [0, 4, 8])
        for d in s.theta_members():
            check = pl.is_good_configuration(s, GoodConfiguration(((d, d),), pl.EMPTY_TYPE))
            assert not check and check.clause == "ii" and check.witness is None

    def test_identical_columns_never_form_a_pair(self):
        # both signs of one column content are contradictory, so a pair of
        # content duplicates always fails the consistency clause
        rows = ((0, 0), (1, 1))
        s = pl.BipartiteStructure(rows, frozenset(), frozenset(range(2)))
        config = GoodConfiguration(((0, 1),), pl.EMPTY_TYPE)
        check = pl.is_good_configuration(s, config, DeltaFamily(1))
        assert not check and check.clause == "ii"

    def test_distinct_twins_over_empty_base(self):
        # distinct contents, empty base: clause (iii) domains are empty, so
        # any consistent pair passes
        rows = ((0, 1), (1, 0), (0, 0), (1, 1))
        s = pl.BipartiteStructure(rows, frozenset(), frozenset(range(2)))
        config = GoodConfiguration(((0, 1),), pl.EMPTY_TYPE)
        check = pl.is_good_configuration(s, config, DeltaFamily(1))
        assert check.ok

    def test_clause_iii_violation(self):
        # chain: thresholds 1 and 3 are separated over base {0, 2}
        s = pl.gen_linear_order(5, [0, 2])
        config = GoodConfiguration(((1, 3),), pl.EMPTY_TYPE)
        check = pl.is_good_configuration(s, config, DeltaFamily(1))
        assert not check and check.clause == "iii"
        j, signs = check.witness
        assert j == 0 and len(signs) == 1

    def test_resource_guard(self, s1, monkeypatch):
        monkeypatch.setattr(goodconfig, "DEFAULT_CHECK_LIMIT", 8)
        config = GoodConfiguration(((0, 1),) * 20, pl.EMPTY_TYPE)
        with pytest.raises(pl.ResourceLimitError):
            pl.is_good_configuration(s1, config)

    def test_resource_guard_reports_the_tested_count(self, s1, monkeypatch):
        # the empty configuration still makes one (vacuous) comparison
        monkeypatch.setattr(goodconfig, "DEFAULT_CHECK_LIMIT", 0)
        with pytest.raises(pl.ResourceLimitError, match="needs 1 comparisons"):
            pl.is_good_configuration(s1, empty_config())

    def test_clause_iii_compares_each_domain_once(self, monkeypatch):
        # s and s with s[j] flipped give pair j one domain, so a passing
        # list of k pairs costs half the 2^k * k comparisons the guard counts
        s = parse_generator_spec("random:unions2:19:20:6")
        compared = []
        real = goodconfig.delta_equal_over

        def counting(struct, family, c0, c1, domain):
            compared.append(domain)
            return real(struct, family, c0, c1, domain)

        monkeypatch.setattr(goodconfig, "delta_equal_over", counting)
        for pairs in (((0, 1),), ((0, 1), (2, 3)), ((0, 1), (2, 3), (4, 5))):
            assert pl.oracle_all_good_configs(s, 3, 0).count(pairs) == 1
            compared.clear()
            assert goodconfig._check_clause_iii(s, DeltaFamily(0), pairs)
            k = len(pairs)
            assert len(compared) == 2**k * k // 2 == len(set(compared))

    def test_clause_iii_entry_keeps_the_guard(self, s1, monkeypatch):
        # the searches' entry reads the same limit, before any comparison
        monkeypatch.setattr(goodconfig, "DEFAULT_CHECK_LIMIT", 8)
        with pytest.raises(pl.ResourceLimitError, match="needs 24 comparisons"):
            goodconfig._check_clause_iii(s1, DeltaFamily(2), ((0, 1),) * 3)
        pairs = ((0, 1),) * 2
        expected = pl.is_good_configuration(s1, GoodConfiguration(pairs, pl.EMPTY_TYPE),
                                            DeltaFamily(2))
        assert goodconfig._check_clause_iii(s1, DeltaFamily(2), pairs) == expected


class TestExtensionPair:
    def test_no_pair_at_full_strength(self, gap_chain):
        # at k=ALL the satisfiability clause forces content duplication,
        # which the consistency clause then rejects
        p = gap_chain.trace(6, gap_chain.base_members())
        assert pl.find_extension_pair(gap_chain, GoodConfiguration((), p), ALL) is None

    def test_straddling_pair_at_k_one(self, gap_chain):
        p = gap_chain.trace(6, gap_chain.base_members())
        config = GoodConfiguration((), p)
        pair = pl.find_extension_pair(gap_chain, config, 1)
        assert pair == (5, 6)
        d0, d1 = pair
        realizers = set(gap_chain.realizers(p))
        assert any(x >= d0 and x < d1 for x in realizers)
        assert pl.is_good_configuration(gap_chain, config.extended(pair), family=None)

    def test_returned_pair_always_checker_sound(self, corpus):
        for _, s in corpus[:6]:
            p = pl.PhiType()
            config = GoodConfiguration((), p)
            pair = pl.find_extension_pair(s, config, 1)
            if pair is not None:
                assert pl.is_good_configuration(s, config.extended(pair))

    def test_configuration_clashing_with_its_type_rejected(self, s1):
        # the pair gives parameter 0 sign 0, the type gives it sign 1
        config = GoodConfiguration(((0, 1),), pl.PhiType({0: 1}))
        with pytest.raises(pl.PreconditionError,
                           match="^configuration clashes with its type$"):
            pl.find_extension_pair(s1, config, 1)

    def test_empty_theta_effect(self):
        s = pl.gen_linear_order(4, [], fill_gaps=False)
        assert pl.find_extension_pair(s, empty_config(), ALL) is None

    def test_theta_equals_base_with_signs_all_decided(self):
        # theta = base and the type already pins every base sign the wrong
        # way for a pair: the scan space is effectively empty
        s = pl.gen_linear_order(5, range(5), fill_gaps=False)
        p = s.trace(4, s.base_members())  # all-zero trace
        config = GoodConfiguration((), p)
        for k_sat in (1, ALL):
            assert pl.find_extension_pair(s, config, k_sat) is None

    def test_component_outside_theta_fails_clause_i(self):
        # the 8x8 grid: column (i, t) holds x_i < t for t = 1..6, B the cuts
        # 3 and 6, theta every column but 3; the configuration's pair (3, 4)
        # leaves theta, so no pair extends it, though (9, 10) passes the
        # other clauses
        cols = [(i, t) for i in range(2) for t in range(1, 7)]
        rows = tuple(tuple(int(x[i] < t) for i, t in cols)
                     for x in product(range(8), repeat=2))
        s = pl.BipartiteStructure(rows, frozenset({2, 5, 8, 11}),
                                  frozenset(range(len(cols))) - {3})
        p = pl.PhiType({2: 0, 5: 1, 8: 0, 11: 1})
        config = GoodConfiguration(((3, 4),), p)
        assert pl.find_extension_pair(s, config, 1) is None
        assert pl.is_good_configuration(s, config.extended((9, 10))).clause == "i"


class TestBuildMaximal:
    def test_greedy_deterministic(self, gap_chain):
        p = gap_chain.trace(6, gap_chain.base_members())
        a = pl.build_maximal(gap_chain, p, "greedy", 1)
        b = pl.build_maximal(gap_chain, p, "greedy", 1)
        assert a == b
        assert a.size == 1 and a.pairs == ((5, 6),)

    def test_no_extension_after_maximal(self, gap_chain):
        p = gap_chain.trace(6, gap_chain.base_members())
        config = pl.build_maximal(gap_chain, p, "greedy", 1)
        assert pl.find_extension_pair(gap_chain, config, 1) is None

    def test_inconsistent_type_rejected(self):
        constant = pl.BipartiteStructure(((1,), (1,)), frozenset({0}), frozenset({0}))
        with pytest.raises(pl.PreconditionError):
            pl.build_maximal(constant, pl.PhiType({0: 0}))

    def test_domain_outside_base_rejected(self, s2):
        s = pl.gen_linear_order(5, [1])
        with pytest.raises(pl.PreconditionError):
            pl.build_maximal(s, pl.PhiType({3: 1}))

    def test_exhaustive_matches_oracle_max(self, corpus):
        for _, s in corpus[:8]:
            if len(s.theta_set) > 10:
                continue
            dim = pl.independence_dimension(s).id_value
            subject = pl.build_maximal(s, pl.PhiType(), "exhaustive").size
            oracle = max(
                len(c)
                for c in pl.oracle_all_good_configs(s, min(3, dim + 1), pl.oracle_vc(s))
            )
            assert subject == oracle

    def test_greedy_at_finite_k_is_in_the_oracle_enumeration(self, corpus):
        # every configuration the greedy search builds at k = 1, 2, 3, for
        # the empty type and each base trace of the 20x6 random corpus, is a
        # good list the oracle enumerates; a few take a step, so it bites
        checks = steps = 0
        for name, s in corpus[:200]:
            assert name.split(":")[0] in (pl.generators.INTERVALS, pl.generators.UNIONS)
            for p in (pl.EMPTY_TYPE, *s.type_space(s.base_members())):
                for k in (1, 2, 3):
                    config = pl.build_maximal(s, p, "greedy", k)
                    good = oracle_configs_realized(
                        s, p, pl.oracle_all_good_configs(s, max(config.size, 1), pl.oracle_vc(s)))
                    assert config.pairs in good, (name, p, k)
                    checks += 1
                    steps += config.size > 0
        assert (checks, steps) == (3570, 12)

    def test_exhaustive_guard(self):
        s = pl.gen_linear_order(13, [0])
        with pytest.raises(pl.ResourceLimitError):
            pl.build_maximal(s, pl.PhiType(), "exhaustive")

    def test_unknown_strategy(self, s1):
        with pytest.raises(ValueError):
            pl.build_maximal(s1, pl.PhiType(), "magic")

    @pytest.mark.parametrize("k_sat", [0, -3, 1.5])
    @pytest.mark.parametrize(
        "spec",
        # the scan never reaches (iv) on the first two, which once returned
        # an empty configuration for any k_sat
        ["random:intervals:0:20:6", "shattered:2",
         "random:intervals:37:20:6", "linear:12:b=0,4,8"],
    )
    def test_bad_k_sat_rejected_before_the_scan(self, spec, k_sat):
        s = parse_generator_spec(spec)
        with pytest.raises(ValueError, match=r"^k must be >= 1 or ALL$"):
            pl.build_maximal(s, pl.EMPTY_TYPE, "greedy", k_sat)
        with pytest.raises(ValueError, match=r"^k must be >= 1 or ALL$"):
            pl.find_extension_pair(s, empty_config(), k_sat)


def _outcome(search, s, p, k_sat=ALL):
    """The pairs a search returns, or the type and message of its error."""
    try:
        return search(s, p, k_sat).pairs
    except pl.PhilabError as exc:
        return type(exc), str(exc)


def _exhaustive(s, p, k_sat):
    return pl.build_maximal(s, p, "exhaustive", k_sat)


def _base_types(s):
    return [pl.EMPTY_TYPE, *s.type_space(s.base_members())]


class TestExhaustiveAgainstEveryPermutation:
    """The search over strictly increasing lists against the search that
    enters every permutation of every good list."""

    @staticmethod
    def assert_same(s, types, k_sat=ALL):
        for p in types:
            assert _outcome(_exhaustive, s, p, k_sat) == _outcome(
                reference_build_maximal_exhaustive, s, p, k_sat
            ), (s.meta, p)

    @pytest.mark.parametrize("family", [pl.generators.INTERVALS, pl.generators.UNIONS])
    def test_default_corpus(self, family):
        sizes = set()
        for seed in range(100):
            s = pl.gen_random_bounded(seed, 20, 6, family)
            self.assert_same(s, _base_types(s))
            sizes.add(pl.build_maximal(s, pl.EMPTY_TYPE, "exhaustive").size)
        assert sizes == ({0, 1} if family == pl.generators.INTERVALS else {0, 1, 2})

    @pytest.mark.parametrize("family", [pl.generators.INTERVALS, pl.generators.UNIONS])
    def test_twelve_columns(self, family):
        for seed in range(10):
            s = pl.gen_random_bounded(seed, 40, 12, family)
            assert len(s.theta_set) == goodconfig.DEFAULT_EXHAUSTIVE_THETA_LIMIT
            self.assert_same(s, _base_types(s))

    @pytest.mark.parametrize("points", [8, 10, 12])
    @pytest.mark.parametrize("fill", [True, False])
    def test_linear_orders(self, points, fill):
        s = pl.gen_linear_order(points, range(0, points, 3), fill)
        self.assert_same(s, _base_types(s))

    def test_dimension_zero(self):
        # every column constant: no pair passes, at arity 0
        rows = ((0, 1, 0, 1, 1),) * 3
        s = pl.BipartiteStructure(rows, frozenset({0, 1}), frozenset(range(5)))
        assert pl.independence_dimension(s).id_value == 0
        self.assert_same(s, _base_types(s))
        assert pl.build_maximal(s, pl.EMPTY_TYPE, "exhaustive").pairs == ()

    @pytest.mark.parametrize("rows, pairs", [
        (((0, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1), (1, 0, 0, 1),
          (0, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 0)), ((1, 3), (2, 0))),
        (((1, 1, 1, 1, 1), (1, 1, 0, 0, 1), (0, 1, 1, 0, 1), (0, 1, 0, 0, 0),
          (1, 1, 0, 1, 0), (0, 1, 1, 0, 0), (1, 0, 1, 0, 0), (1, 1, 1, 0, 0)),
         ((2, 4), (3, 0))),
    ])
    def test_second_pair_next_after_the_first(self, rows, pairs):
        # over an empty base every consistent pair passes alone, and the
        # answer's second pair is the first passing pair after its first
        s = pl.BipartiteStructure(rows, frozenset(), frozenset(range(len(rows[0]))))
        self.assert_same(s, [pl.EMPTY_TYPE])
        assert pl.build_maximal(s, pl.EMPTY_TYPE, "exhaustive").pairs == pairs

    def test_errors(self):
        wide = pl.gen_linear_order(13, [0])  # |theta| = 13
        self.assert_same(wide, [pl.EMPTY_TYPE])
        assert _outcome(_exhaustive, wide, pl.EMPTY_TYPE)[0] is pl.ResourceLimitError
        s = pl.gen_random_bounded(19, 20, 6, pl.generators.UNIONS)
        # a valid finite k at or past |B| = 0 decides what ALL does, but is
        # refused; an invalid k is a ValueError for either strategy
        assert not s.base_set
        for k_sat in (1, 2):
            self.assert_same(s, [pl.EMPTY_TYPE], k_sat=k_sat)
            assert _outcome(_exhaustive, s, pl.EMPTY_TYPE, k_sat)[0] is pl.PreconditionError
        for struct in (s, parse_generator_spec("shattered:2")):
            for k_sat in (0, -3, 1.5):
                for strategy in ("greedy", "exhaustive"):
                    with pytest.raises(ValueError, match="k must be >= 1 or ALL"):
                        pl.build_maximal(struct, pl.EMPTY_TYPE, strategy, k_sat)
        chain = pl.gen_linear_order(5, [1, 3])
        unrealized = pl.PhiType({1: 1, 3: 0})  # x < 1 but not x < 3
        self.assert_same(chain, [unrealized])
        assert _outcome(_exhaustive, chain, unrealized)[0] is pl.PreconditionError

    def test_checks_fewer_lists(self, monkeypatch):
        # the two-pair configurations of the default corpus: the increasing
        # search never checks a list that a permutation of it already decided
        s = pl.gen_random_bounded(19, 20, 6, pl.generators.UNIONS)
        checked = record_clause_iii_checks(monkeypatch)
        config = pl.build_maximal(s, pl.EMPTY_TYPE, "exhaustive")
        assert config.size == 2
        assert checked and all(list(pairs) == sorted(set(pairs)) for pairs in checked)
        assert len(checked) == len(set(checked))


def record_clause_iii_checks(monkeypatch) -> list:
    """The pair lists the exhaustive search hands to the checker, in order."""
    checked = []
    real = goodconfig._check_clause_iii

    def recording(struct, family, pairs):
        checked.append(pairs)
        return real(struct, family, pairs)

    monkeypatch.setattr(goodconfig, "_check_clause_iii", recording)
    return checked


class TestExhaustiveWideDepthOne:
    """The verify-corpus instances and every empty-base instance of the
    20x6 random families, against the oracle's enumeration and row scans."""

    def test_is_the_oracles_least_longest_list(self):
        # the least of the longest lists the oracle enumerates, compared
        # exactly; no longest list reaches max_k, so none is cut off
        sizes = []
        for spec in WIDE_DIFFERENTIAL_SPECS:
            s = parse_generator_spec(spec)
            dim = pl.oracle_vc(s)
            for p in dict.fromkeys(_base_types(s)):
                configs = oracle_configs_realized(
                    s, p, pl.oracle_all_good_configs(s, min(3, dim + 1), dim))
                longest = max(map(len, configs))
                assert longest < min(3, dim + 1)
                least = min(pairs for pairs in configs if len(pairs) == longest)
                assert pl.build_maximal(s, p, "exhaustive").pairs == least, (spec, p)
                sizes.append(longest)
        assert sorted(set(sizes)) == [0, 1, 2]

    def test_checks_whole_only_lists_whose_last_two_pairs_are_good(self, monkeypatch):
        # the screen: a list reaches the checker only when its last two
        # pairs, a sub-list of it, pass clause (iii) themselves
        checked = record_clause_iii_checks(monkeypatch)
        deep = 0
        for spec in EMPTY_BASE_SPECS:
            s = parse_generator_spec(spec)
            dim = pl.oracle_vc(s)
            checked.clear()
            pl.build_maximal(s, pl.EMPTY_TYPE, "exhaustive")
            memo: dict = {}
            for pairs in checked:
                if len(pairs) > 1:
                    assert reference_clauses_hold(s, pairs[-2:], pl.EMPTY_TYPE, dim, memo)
                    deep += 1
        assert deep > 0

    def test_witness_matches_row_scans(self):
        # every two-pair list over theta with a realizer on an empty base,
        # at arity ID: the first failing (j, signs) in scan order
        verdicts = set()
        for spec in EMPTY_BASE_SPECS:
            s = parse_generator_spec(spec)
            dim = pl.oracle_vc(s)
            family = DeltaFamily(dim)
            memo: dict = {}
            theta = s.theta_members()
            for pairs in product(product(theta, repeat=2), repeat=2):
                check = pl.is_good_configuration(s, GoodConfiguration(pairs, pl.EMPTY_TYPE),
                                                 family)
                if check.clause == "ii":
                    continue
                expected = reference_clause_iii_witness(s, pairs, dim, memo)
                assert check.witness == expected, (spec, pairs)
                verdicts.add(expected and expected[0])
        assert verdicts == {None, 0, 1}


class TestBoundAndPrefixes:
    def test_every_enumerated_config_bounded(self, corpus):
        for _, s in corpus[:10]:
            if len(s.theta_set) > 10:
                continue
            dim = pl.independence_dimension(s).id_value
            for pairs in pl.oracle_all_good_configs(s, min(3, dim + 1), pl.oracle_vc(s)):
                assert len(pairs) <= dim

    def test_prefix_closure(self, corpus):
        for _, s in corpus[:6]:
            if len(s.theta_set) > 10:
                continue
            dim = pl.independence_dimension(s).id_value
            for pairs in pl.oracle_all_good_configs(s, min(3, dim + 1), pl.oracle_vc(s)):
                for cut in range(len(pairs)):
                    prefix = GoodConfiguration(pairs[:cut], pl.EMPTY_TYPE)
                    assert pl.is_good_configuration(s, prefix)


def test_certificate_payload():
    s = pl.gen_linear_order(12, [0, 4, 8])
    p = s.trace(6, s.base_members())
    config = pl.build_maximal(s, p, "greedy", 1)
    payload = config_certificate(s, config)
    assert payload["size"] == config.size
    assert payload["bound_ok"]
    assert payload["checker"]["ok"]
    assert set(payload["checker"]["clauses"]) == {"i", "ii", "iii"}


def test_certificate_json_of_a_clause_iii_failure():
    s = parse_generator_spec("linear:5:b=0,2")
    payload = config_certificate(s, GoodConfiguration(((1, 3),), pl.EMPTY_TYPE))
    assert json.dumps(payload, sort_keys=True) == (
        '{"bound_ok": true, "checker": {"clauses": {"i": true, "ii": true, "iii": false},'
        ' "ok": false, "witness": [0, [0]]}, "id": 1, "pairs": [[1, 3]], "size": 1}'
    )


def test_certificate_json_of_a_clause_i_failure():
    # the checker stops at clause (i), so (ii) and (iii) were never checked
    s = pl.BipartiteStructure(((0, 1, 0), (1, 0, 1)), frozenset(), frozenset({0, 1}))
    payload = config_certificate(s, GoodConfiguration(((0, 2),), pl.EMPTY_TYPE))
    assert json.dumps(payload, sort_keys=True) == (
        '{"bound_ok": true, "checker": {"clauses": {"i": false, "ii": null, "iii": null},'
        ' "ok": false, "witness": [0, 1]}, "id": 1, "pairs": [[0, 2]], "size": 1}'
    )
