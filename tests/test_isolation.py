import operator
from itertools import combinations, product

import pytest

import philab as pl
from philab import cover, delta, isolation
from philab.cli import parse_generator_spec
from philab.goodconfig import GoodConfiguration, extend_type
from philab.isolation import SATURATION_DEFICIT, q_harness


class TestFindIsolatingSubtype:
    def test_empty_type(self, s1):
        cert = pl.find_isolating_subtype(s1, pl.EMPTY_TYPE)
        assert cert.subtype == pl.EMPTY_TYPE and cert.minimal

    def test_shattered_needs_everything(self, s1):
        p = pl.PhiType({0: 1, 1: 1})
        cert = pl.find_isolating_subtype(s1, p)
        assert cert.size == 2 and cert.subtype == p

    def test_chain_cut_single_literal(self, s2):
        p = s2.trace(0, range(4))
        cert = pl.find_isolating_subtype(s2, p)
        assert cert.subtype == pl.PhiType({0: 1})
        assert cert.minimal and cert.method == "exhaustive"

    def test_ties_break_lexicographically(self):
        # duplicate columns: either singleton isolates; the least wins
        rows = ((0, 0), (1, 1))
        s = pl.BipartiteStructure(rows, frozenset(range(2)), frozenset(range(2)))
        cert = pl.find_isolating_subtype(s, pl.PhiType({0: 1, 1: 1}))
        assert cert.subtype == pl.PhiType({0: 1})

    def test_budget_forces_greedy(self, s1, monkeypatch):
        p = pl.PhiType({0: 1, 1: 1})
        monkeypatch.setattr(cover, "DEFAULT_COVER_LIMIT", 0)
        cert = pl.find_isolating_subtype(s1, p)
        assert cert.method == "greedy" and not cert.minimal
        assert cert.subtype == p  # nothing can be dropped on a shattered pair
        monkeypatch.undo()
        assert pl.find_isolating_subtype(s1, p).minimal

    def test_greedy_result_entails(self, corpus, monkeypatch):
        monkeypatch.setattr(cover, "DEFAULT_COVER_LIMIT", 0)
        for _, s in corpus[:4]:
            for a in range(0, s.m, 3):
                p = s.trace(a, s.base_members())
                cert = pl.find_isolating_subtype(s, p)
                assert s.entails(cert.subtype, p)

    def test_inconsistent_rejected(self):
        constant = pl.BipartiteStructure(((1,),), frozenset({0}), frozenset({0}))
        with pytest.raises(pl.PreconditionError):
            pl.find_isolating_subtype(constant, pl.PhiType({0: 0}))

    def test_minimality_flag_spot_check(self, corpus):
        for _, s in corpus[:3]:
            p = s.trace(0, s.base_members())
            cert = pl.find_isolating_subtype(s, p)
            assert cert.minimal
            target = s.type_mask(p)
            for smaller in combinations(p.items, max(cert.size - 1, 0)):
                if cert.size:
                    assert s.type_mask(pl.PhiType(smaller)) != target

    @pytest.mark.parametrize("n, method", [(16, "exhaustive"), (17, "greedy")])
    def test_cover_limit_forces_greedy(self, n, method):
        # row 0 is all ones and row i+1 is zero only at column i: isolating
        # row 0 needs every literal, found after 2^n - 1 candidate subsets
        rows = ((1,) * n,) + tuple(tuple(int(j != i) for j in range(n)) for i in range(n))
        s = pl.BipartiteStructure(rows, frozenset(range(n)), frozenset(range(n)))
        p = s.trace(0, range(n))
        cert = pl.find_isolating_subtype(s, p)
        assert (cert.method, cert.size, cert.subtype) == (method, n, p)
        assert cert.minimal == (method == "exhaustive")


class TestDefiningFormula:
    def test_agrees_on_domain(self, s2):
        p = s2.trace(0, range(4))
        cert = pl.find_isolating_subtype(s2, p)
        formula = pl.phi_defining_formula(s2, cert)
        for b, sign in p.items:
            assert formula.holds(b) == bool(sign)

    def test_full_type_as_gamma(self, s1):
        p = s1.trace(2, [0, 1])
        cert = pl.IsolationCertificate(p, p, True)
        formula = pl.phi_defining_formula(s1, cert)
        for b, sign in p.items:
            assert formula.holds(b) == bool(sign)

    def test_invalid_certificate_rejected(self, s1):
        bogus = pl.IsolationCertificate(pl.PhiType({0: 1, 1: 1}), pl.PhiType({0: 1}), True)
        with pytest.raises(pl.PreconditionError):
            pl.phi_defining_formula(s1, bogus)

    def test_subtype_outside_its_target_rejected(self, s1):
        bogus = pl.IsolationCertificate(pl.PhiType({0: 1}), pl.PhiType({1: 0}), True)
        with pytest.raises(pl.PreconditionError,
                           match="^certificate subtype is not contained in its target$"):
            pl.phi_defining_formula(s1, bogus)


class TestIsolatedExtension:
    def test_budget_reported_and_ok(self, corpus):
        for _, s in corpus[:6]:
            p = s.trace(0, s.base_members())
            result = pl.isolated_extension(s, p)
            assert result.two_k <= result.two_id
            assert result.added_params <= result.two_id
            assert result.budget_ok

    def test_theta_equals_base_keeps_base_certificate(self):
        s = pl.gen_linear_order(6, [2, 4], fill_gaps=False)
        p = s.trace(3, s.base_members())
        result = pl.isolated_extension(s, p)
        assert result.configuration.size == 0
        assert result.certificate.subtype == result.base_certificate.subtype
        assert result.diagnostic == SATURATION_DEFICIT

    def test_gap_chain_certificate_small(self, gap_chain):
        p = gap_chain.trace(6, gap_chain.base_members())
        result = pl.isolated_extension(gap_chain, p, k_sat=1)
        assert result.certificate.size <= 2
        assert result.two_k <= 2
        assert gap_chain.entails(result.certificate.subtype, result.extension)

    def test_domain_must_be_inside_base(self, gap_chain):
        with pytest.raises(pl.PreconditionError):
            pl.isolated_extension(gap_chain, pl.PhiType({6: 1}))

    def test_inconsistent_type_rejected(self):
        s = pl.gen_linear_order(12, [0, 4, 8])
        # no element lies below 0
        with pytest.raises(pl.PreconditionError):
            pl.isolated_extension(s, pl.PhiType({0: 1}))

    def test_certificate_is_the_extensions_own(self, corpus):
        # the base certificate stands in for the extension's only when no
        # pair was added; at k = 1 a few runs take a step, so both branches run
        steps = 0
        for name, s in corpus[:200]:
            assert name.split(":")[0] in (pl.generators.INTERVALS, pl.generators.UNIONS)
            for p in s.type_space(s.base_members()):
                for k in (delta.ALL, 1):
                    result = pl.isolated_extension(s, p, k)
                    steps += result.configuration.size > 0
                    extension = extend_type(p, result.configuration)
                    expected = pl.find_isolating_subtype(s, extension)
                    assert result.certificate == expected
        assert steps == 6

    @pytest.mark.parametrize("d, n, theta_cuts, histogram", [
        pytest.param(2, 8, range(1, 7), {0: 4, 1: 4, 2: 1}, id="8^2"),
        pytest.param(3, 7, range(1, 8), {0: 8, 1: 12, 2: 6, 3: 1}, id="7^3"),
    ])
    def test_grid_steps_reach_twice_the_dimension(self, d, n, theta_cuts, histogram):
        # rows {0..n-1}^d; column (i, t) holds x_i < t, theta is every column
        # and B the cuts 3 and 6; at k = 1 the largest configuration has ID
        # pairs, so 2K = 2 ID is reached and the bound is checked where it bites
        cols = [(i, t) for i in range(d) for t in theta_cuts]
        rows = tuple(tuple(int(x[i] < t) for i, t in cols)
                     for x in product(range(n), repeat=d))
        base = frozenset(j for j, (_, t) in enumerate(cols) if t in (3, 6))
        s = pl.BipartiteStructure(rows, base, frozenset(range(len(cols))))
        assert pl.independence_dimension(s).id_value == d
        sizes = {}
        for p in s.type_space(s.base_members()):
            result = pl.isolated_extension(s, p, 1)
            extension = extend_type(p, result.configuration)
            assert result.budget_ok and result.two_id == 2 * d
            assert result.added_params <= result.two_k
            assert result.extension == extension
            assert s.entails(result.certificate.subtype, extension)
            assert result.certificate.subtype.is_subtype_of(extension)
            size = result.configuration.size
            sizes[size] = sizes.get(size, 0) + 1
        assert sizes == histogram
        assert max(sizes) == d

    @pytest.mark.parametrize("k, pairs, searches", [(delta.ALL, 0, 1), (1, 1, 2)])
    def test_one_cover_search_without_a_step(self, gap_chain, monkeypatch, k, pairs, searches):
        calls = []
        search = isolation.find_isolating_subtype

        def counted(struct, p):
            calls.append(p)
            return search(struct, p)

        monkeypatch.setattr(isolation, "find_isolating_subtype", counted)
        p = gap_chain.trace(6, gap_chain.base_members())
        result = pl.isolated_extension(gap_chain, p, k)
        assert result.configuration.size == pairs
        assert len(calls) == searches
        assert result.certificate == search(gap_chain, extend_type(p, result.configuration))

    def test_stale_certificate_after_a_step_is_rejected(self, gap_chain, monkeypatch):
        # a certificate search that hands back p's certificate for the
        # extension too must not pass as the extension's own
        search = isolation.find_isolating_subtype
        first = []

        def stale(struct, p):
            if not first:
                first.append(search(struct, p))
            return first[0]

        monkeypatch.setattr(isolation, "find_isolating_subtype", stale)
        p = gap_chain.trace(6, gap_chain.base_members())
        with pytest.raises(pl.InvariantError, match="other than p plus its configuration"):
            pl.isolated_extension(gap_chain, p, 1)
        assert len(first) == 1


class TestGammaCertificate:
    def test_s1_pair_example(self, s1):
        p = pl.PhiType({0: 1, 1: 1})
        gamma = pl.gamma_certificate(s1, 3, GoodConfiguration((), p))
        assert len(gamma) <= 2
        assert s1.entails(gamma, p)

    def test_single_element_structure(self):
        s = pl.BipartiteStructure(((1, 0),), frozenset({0}), frozenset({0, 1}))
        p = s.trace(0, [0])
        gamma = pl.gamma_certificate(s, 0, GoodConfiguration((), p))
        assert s.entails(gamma, p)

    def test_entails_extended_type(self, gap_chain):
        p = gap_chain.trace(6, gap_chain.base_members())
        config = pl.build_maximal(gap_chain, p, "greedy", 1)
        p_c = pl.extend_type(p, config)
        for a in gap_chain.realizers(p_c):
            gamma = pl.gamma_certificate(gap_chain, a, config)
            assert gap_chain.entails(gamma, p_c)

    @pytest.mark.parametrize("spec", [
        *(f"random:{family}:{seed}:20:6"
          for family in ("intervals", "unions2") for seed in range(10)),
        "linear:12:b=0,4,8",
        "eqrel:1,1",
    ])
    def test_every_realizer_has_a_gamma(self, spec):
        # each base parameter's own literal lies in the full trace and covers
        # its bit, so a cover exists for every realizer; the empty
        # configurations reach every element
        s = parse_generator_spec(spec)
        for p in set(s.trace(a, s.base_members()) for a in range(s.m)):
            for config in (GoodConfiguration((), p), pl.build_maximal(s, p, "greedy", 1)):
                p_c = extend_type(p, config)
                for a in s.realizers(p_c):
                    assert s.entails(pl.gamma_certificate(s, a, config), p_c)

    def test_non_realizer_rejected(self, s1):
        p = pl.PhiType({0: 1, 1: 1})
        with pytest.raises(pl.PreconditionError):
            pl.gamma_certificate(s1, 0, GoodConfiguration((), p))

    def test_empty_base_gives_config_literals_only(self):
        s = pl.gen_linear_order(4, [], fill_gaps=True)
        gamma = pl.gamma_certificate(s, 1, GoodConfiguration((), pl.EMPTY_TYPE))
        assert gamma == pl.EMPTY_TYPE


class TestPsiDisjunction:
    def test_covers_exactly(self, s1):
        p = pl.PhiType({0: 1, 1: 1})
        disjuncts = pl.psi_disjunction(s1, GoodConfiguration((), p))
        assert len(disjuncts) == 1
        covered = set()
        for g in disjuncts:
            covered.update(s1.realizers(g))
        assert covered == set(s1.realizers(p))

    def test_multi_class_cover(self, s2):
        p = pl.PhiType({3: 1})  # realizers 0..3, four distinct traces
        disjuncts = pl.psi_disjunction(s2, GoodConfiguration((), p))
        covered = set()
        for g in disjuncts:
            covered.update(s2.realizers(g))
        assert covered == set(s2.realizers(p))

    def test_single_trace_class_single_disjunct(self, gap_chain):
        p = gap_chain.trace(6, gap_chain.base_members())
        config = pl.build_maximal(gap_chain, p, "greedy", 1)
        p_c = pl.extend_type(p, config)
        if len(gap_chain.realizers(p_c)) == 1:
            assert len(pl.psi_disjunction(gap_chain, config)) == 1

    def test_inconsistent_extended_type_rejected(self):
        # on linear:4 no element has x < 1 (1=1) and not x < 2 (2=0)
        s = parse_generator_spec("linear:4")
        with pytest.raises(pl.PreconditionError, match="^extended type must be consistent$"):
            pl.psi_disjunction(s, GoodConfiguration(((2, 1),), pl.EMPTY_TYPE))


class TestEmbedTrace:
    def test_chain_example(self):
        # columns y1, y3 of the chain: element 2 traces to (0, 1)
        rows = tuple(tuple(1 if i < j else 0 for j in (1, 3)) for i in range(5))
        s = pl.BipartiteStructure(rows, frozenset(range(2)), frozenset(range(2)))
        formula, result = pl.embed_trace(s, 2)
        assert [int(formula.holds(b)) for b in s.base_members()] == [0, 1]

    def test_constant_row(self, s1):
        formula, _ = pl.embed_trace(s1, 3)
        assert all(formula.holds(b) for b in s1.base_members())

    def test_agreement_on_every_row(self, corpus):
        for _, s in corpus[:4]:
            for a in range(s.m):
                formula, _ = pl.embed_trace(s, a)
                for b in s.base_members():
                    assert formula.holds(b) == bool(s.truth[a][b])


class TestQType:
    def _maximal_config(self, struct, p):
        dim = pl.independence_dimension(struct).id_value
        configs = pl.oracle_all_good_configs(struct, p, min(2, dim + 1))
        best = max(len(c) for c in configs)
        pairs = min(c for c in configs if len(c) == best)
        return GoodConfiguration(pairs, p)

    def test_generating_tuple_realizes(self, corpus):
        for _, s in corpus[:6]:
            if len(s.theta_set) > 10:
                continue
            config = self._maximal_config(s, pl.EMPTY_TYPE)
            q = pl.q_type(s, config)
            assert pl.check_q_realizer(s, q, config.components)

    def test_membership_clause(self):
        # B is empty and theta {0..4} leaves out column 5: the candidate
        # (5, 1) realizes the q-type built with every column in theta, so
        # only q' rejects it on the restricted structure
        s = parse_generator_spec("random:unions2:8:20:6")
        smaller_theta = pl.BipartiteStructure(
            s.truth, s.base_set, frozenset(range(5)) | s.base_set
        )
        config = self._maximal_config(smaller_theta, pl.EMPTY_TYPE)
        assert config.pairs == ((0, 1),)
        assert pl.check_q_realizer(s, pl.q_type(s, config), (5, 1))
        q = pl.q_type(smaller_theta, config)
        assert not pl.check_q_realizer(smaller_theta, q, (5, 1))
        # every component is checked before any is tested against theta
        with pytest.raises(pl.UnknownParameterError, match="^unknown parameter 99$"):
            pl.check_q_realizer(smaller_theta, q, (5, 99))

    def test_duplicate_column_copy_passes(self):
        # duplicate every column, then any generating tuple's twin passes
        base_struct = pl.gen_random_bounded(0, 10, 3, pl.generators.INTERVALS)
        rows = tuple(row + row for row in base_struct.truth)
        n = base_struct.n
        s = pl.BipartiteStructure(
            rows,
            frozenset(base_struct.base_set),
            frozenset(range(2 * n)),
        )
        config = self._maximal_config(s, pl.EMPTY_TYPE)
        if config.size:
            q = pl.q_type(s, config)
            twin = tuple((c + n) % (2 * n) for c in config.components)
            p_c_size = pl.find_isolating_subtype(
                s, pl.extend_type(pl.EMPTY_TYPE, config)
            ).size
            if pl.check_q_realizer(s, q, twin):
                twin_type = pl.PhiType(
                    [(c, j % 2) for j, c in enumerate(twin)]
                )
                assert pl.find_isolating_subtype(s, twin_type).size == p_c_size

    def test_base_type_rejects_a_candidate_its_literals_admit(self):
        # rows 101 and 010: the candidate (2, 1) has the generating tuple's
        # arity-0 signatures and realizable literals 2=0, 1=1, but no row
        # realizes them together with the base type 0=1
        s = pl.BipartiteStructure(((1, 0, 1), (0, 1, 0)), frozenset(), frozenset({1, 2}))
        p = pl.PhiType({0: 1})
        q = pl.q_type(s, GoodConfiguration(((1, 2),), p), family=pl.DeltaFamily(0))
        assert s.is_consistent(pl.PhiType({2: 0, 1: 1}))
        assert not pl.check_q_realizer(s, q, (2, 1))

    def test_generating_tuple_outside_theta_fails_its_own_type(self):
        # theta {0, 1} leaves out the component 2, so q' rejects the
        # generating tuple itself
        s = parse_generator_spec("shattered:3")
        narrow = pl.BipartiteStructure(s.truth, frozenset({0, 1}), frozenset({0, 1}))
        with pytest.raises(pl.InvariantError, match="^generating tuple fails its own type$"):
            pl.q_type(narrow, GoodConfiguration(((1, 2),), pl.EMPTY_TYPE))

    def test_arity_mismatch(self, s1):
        q = pl.q_type(s1, GoodConfiguration((), pl.EMPTY_TYPE))
        with pytest.raises(pl.ArityMismatchError):
            pl.check_q_realizer(s1, q, (0,))

    def test_realizer_matches_entry_by_entry_schema(self):
        # the q-type as a schema of single delta entries: each component's
        # table over the base parameters and the components, slot by slot,
        # evaluated with delta_eval on every theta tuple
        def schema(s, family, tup):
            params = s.base_members() + tuple(tup)
            return (
                pl.delta_eval(s, family, c, zs, t, signs)
                for c in tup
                for zs in product(params, repeat=family.arity)
                for t in (0, 1)
                for signs in product((0, 1), repeat=family.arity)
            )

        def reference(s, q, tup, generating_schema):
            if any(c not in s.theta_set for c in tup):
                return False
            literals = [(c, j % 2) for j, c in enumerate(tup)]
            # every sub-conjunction of the base type, each on its own
            for size in range(len(q.base_type) + 1):
                for conj in combinations(q.base_type.items, size):
                    try:
                        combined = pl.PhiType(conj).union(pl.PhiType(literals))
                    except pl.LiteralClashError:
                        return False
                    if not s.is_consistent(combined):
                        return False
            # entry by entry, stopping at the first difference
            return all(map(operator.eq, schema(s, q.family, tup), generating_schema))

        # two intervals on 0..5, each duplicated; theta is all four columns
        cols = [range(0, 4), range(2, 6), range(0, 4), range(2, 6)]
        rows = tuple(tuple(int(x in c) for c in cols) for x in range(8))
        dup = pl.BipartiteStructure(rows, frozenset(), frozenset(range(4)))
        dup_base = pl.BipartiteStructure(rows, frozenset({0}), frozenset(range(4)))
        cases = [
            (dup, self._maximal_config(dup, pl.EMPTY_TYPE)),
            # a component repeats
            (dup, GoodConfiguration(((1, 0), (1, 2)), pl.EMPTY_TYPE)),
            # a component equals the base member 0, once and twice
            (dup_base, GoodConfiguration(((0, 3),), pl.EMPTY_TYPE)),
            (dup_base, GoodConfiguration(((0, 1), (0, 3)), pl.EMPTY_TYPE)),
        ]
        for seed in (0, 2, 7):
            s = pl.gen_random_bounded(seed, 10, 5, pl.generators.INTERVALS)
            cases.append((s, self._maximal_config(s, pl.EMPTY_TYPE)))
        outcomes = set()
        for s, config in cases:
            for arity in (1, 2):
                q = pl.q_type(s, config, family=pl.DeltaFamily(arity))
                generating_schema = list(schema(s, q.family, q.generating))
                for tup in product(s.theta_members(), repeat=q.component_count):
                    got = pl.check_q_realizer(s, q, tup)
                    assert got == reference(s, q, tup, generating_schema)
                    outcomes.add(got)
        assert outcomes == {True, False}

    def test_search_reads_the_table_guard(self, s1, monkeypatch):
        # arity 2 over the base {0, 1} and two components: each component's
        # signature has C(4, 2) * 2^3 = 48 entries; no component, no table
        q = pl.q_type(s1, GoodConfiguration(((0, 1),), pl.EMPTY_TYPE),
                      family=pl.DeltaFamily(2))
        empty = pl.q_type(s1, GoodConfiguration((), pl.EMPTY_TYPE), family=pl.DeltaFamily(2))
        monkeypatch.setattr(delta, "DEFAULT_TABLE_LIMIT", 47)
        with pytest.raises(pl.ResourceLimitError,
                           match="^delta table would have 48 entries, over the limit 47$"):
            pl.check_q_realizer(s1, q, q.generating)
        monkeypatch.setattr(delta, "DEFAULT_TABLE_LIMIT", 0)
        assert pl.check_q_realizer(s1, empty, ())
        monkeypatch.setattr(delta, "DEFAULT_TABLE_LIMIT", 48)
        assert pl.check_q_realizer(s1, q, q.generating)

    def test_harness_guards(self, s1, monkeypatch):
        big = GoodConfiguration(((0, 1),) * 3, pl.EMPTY_TYPE)
        with pytest.raises(pl.ResourceLimitError):
            q_harness(s1, big)
        small = GoodConfiguration(((0, 1),), pl.EMPTY_TYPE)
        assert q_harness(s1, small).ok
        monkeypatch.setattr(isolation, "Q_THETA_LIMIT", 1)
        with pytest.raises(pl.ResourceLimitError,
                           match=r"^harness guard: \|theta\| = 2 > 1$"):
            q_harness(s1, small)
