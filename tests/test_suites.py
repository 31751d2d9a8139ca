"""Failure paths of the `verify` suites.

Each test rebinds one name that `philab.suites` imports so that a suite sees
one disagreement, and checks what `philab verify` then reports: exit code 1,
`ok: false`, and one counterexample holding the instance, the serialized
structure and the suite's own detail keys.
"""

import dataclasses
import json

import pytest

import philab as pl
from philab import goodconfig, isolation, oracle, suites, vc
from philab.cli import main, parse_generator_spec

from conftest import reference_remark_suite

SPEC = "random:intervals:0:20:6"


def once(real, perturb):
    """`real`, except that its first result goes through `perturb`."""
    calls = []

    def wrapped(*args):
        value = real(*args)
        calls.append(None)
        return perturb(value) if len(calls) == 1 else value

    return wrapped


def verify(capsys, suite, spec=SPEC, *extra):
    code = main(["verify", "--suite", suite, "--gen", spec, *extra])
    out = capsys.readouterr()
    return code, out.out, out.err


def one_failure(capsys, suite, spec, detail_keys):
    code, out, _ = verify(capsys, suite, spec, "--format", "json")
    report = json.loads(out)
    assert code == 1
    assert report["suite"] == suite and report["ok"] is False
    [ce] = report["counterexamples"]
    assert set(ce) == {"instance", "structure", *detail_keys}
    assert ce["structure"] == pl.serialize_structure(parse_generator_spec(spec))
    return report, ce


def test_bound_reports_a_configuration_past_the_dimension(capsys, monkeypatch):
    monkeypatch.setattr(suites, "cached_dimension", lambda struct: -1)
    report, ce = one_failure(capsys, "bound", SPEC, {"pairs", "id"})
    assert (ce["instance"], ce["pairs"], ce["id"]) == (SPEC, [], -1)
    assert report["configurations_checked"] == 1


def test_shatter_reports_an_oracle_disagreement(capsys, monkeypatch):
    real = suites.oracle_min_isolating
    monkeypatch.setattr(suites, "oracle_min_isolating", once(real, lambda v: v + 1))
    report, ce = one_failure(
        capsys, "shatter", "shattered:2", {"type", "subject_size", "oracle_size"}
    )
    assert report["types_checked"] == 4
    assert ce["oracle_size"] == ce["subject_size"] + 1 == len(ce["type"]) + 1


def test_remark_reports_the_offending_tuples(capsys, monkeypatch):
    real = suites.q_harness
    lower = once(real, lambda r: dataclasses.replace(r, reference_size=-1))
    monkeypatch.setattr(suites, "q_harness", lower)
    report, ce = one_failure(
        capsys, "remark", SPEC, {"pairs", "reference_size", "offenders"}
    )
    assert ce["reference_size"] == -1 and ce["offenders"]
    assert all(set(o) == {"tuple", "size"} and o["size"] > -1 for o in ce["offenders"])
    assert report["harness_runs"] >= 1 and report["skipped_by_guard"] == 0


def test_oracle_logs_and_reports_a_disagreement(capsys, monkeypatch):
    real = suites.oracle_min_isolating
    monkeypatch.setattr(suites, "oracle_min_isolating", once(real, lambda v: v + 1))
    report, ce = one_failure(capsys, "oracle", SPEC, {"op", "subject", "oracle", "type"})
    assert ce["op"] == "min_isolating" and ce["instance"].startswith(SPEC + "#p=")
    assert ce["oracle"] == ce["subject"] + 1
    lines = [json.loads(line) for line in report["log"]]
    assert report["comparisons"] == len(lines) > 2
    assert all(
        set(line) == {"operation", "instance", "oracle", "subject", "agree"}
        for line in lines
    )
    assert [line["agree"] for line in lines] == [
        line["oracle"] == line["subject"] for line in lines
    ]
    [bad] = [line for line in lines if not line["agree"]]
    assert (bad["operation"], bad["instance"]) == ("min_isolating", ce["instance"])
    assert (lines[0]["operation"], lines[-1]["operation"]) == ("vc", "max_config")


def test_oracle_stops_a_structure_at_a_dimension_disagreement(capsys, monkeypatch):
    real = suites.cached_dimension
    monkeypatch.setattr(suites, "cached_dimension", once(real, lambda v: v + 1))
    report, ce = one_failure(capsys, "oracle", SPEC, {"op", "subject", "oracle"})
    assert ce["op"] == "vc" and ce["instance"] == SPEC
    assert ce["subject"] == ce["oracle"] + 1
    [line] = map(json.loads, report["log"])
    assert line["operation"] == "vc" and line["agree"] is False


def test_budget_reports_an_overrun(capsys, monkeypatch):
    real = suites.isolated_extension
    over = once(real, lambda r: dataclasses.replace(r, two_id=-1))
    monkeypatch.setattr(suites, "isolated_extension", over)
    report, ce = one_failure(
        capsys, "budget", SPEC, {"type", "added", "two_k", "two_id"}
    )
    assert ce["two_id"] == -1 and report["runs"] > 1


def test_defining_stops_at_a_lying_formula(capsys, monkeypatch):
    real = pl.DefiningFormula.holds
    monkeypatch.setattr(pl.DefiningFormula, "holds", lambda f, b: not real(f, b))
    code, out, _ = verify(capsys, "defining", SPEC, "--format", "json")
    report = json.loads(out)
    assert code == 1
    assert report["suite"] == "defining" and report["ok"] is False
    assert report["rows_checked"] == 20 and report["counterexamples"]
    for ce in report["counterexamples"]:
        assert set(ce) == {"instance", "structure", "element", "error"}
        assert ce["instance"] == SPEC
        assert ce["error"] == "defining formula disagrees on domain"


def test_text_mode_shows_three_counterexamples(capsys, monkeypatch):
    monkeypatch.setattr(suites, "cached_dimension", lambda struct: -1)
    code, out, _ = verify(capsys, "bound", "random", "--seeds", "0..4", "--format", "json")
    assert code == 1
    shown = [json.dumps(ce, sort_keys=True) for ce in json.loads(out)["counterexamples"]]
    assert len(shown) == 10
    code, out, _ = verify(capsys, "bound", "random", "--seeds", "0..4")
    assert code == 1
    assert out.splitlines() == [
        "suite bound: FAIL",
        *shown[:3],
        "... and 7 more (use --format json for all)",
    ]


def test_remark_counts_the_harness_runs_its_guard_skips(capsys, monkeypatch):
    code, out, _ = verify(capsys, "remark", SPEC, "--format", "json")
    runs = json.loads(out)["harness_runs"]
    assert code == 0 and runs >= 1
    monkeypatch.setattr(isolation, "Q_THETA_LIMIT", 0)
    code, out, _ = verify(capsys, "remark", SPEC, "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["ok"] is True
    assert (report["harness_runs"], report["skipped_by_guard"]) == (0, runs)


def test_remark_tries_the_empty_type_and_the_first_base_type(monkeypatch):
    # one enumeration per structure, for the empty type; a harness per
    # distinct configuration and type, the first two maximal of each
    real_enumeration, real_harness = suites.oracle_all_good_configs, suites.q_harness
    enumerated, harnessed = [], []

    def enumeration(struct, max_k, arity):
        enumerated.append((max_k, arity))
        return real_enumeration(struct, max_k, arity)

    def harness(struct, config):
        harnessed.append((config.pairs, config.base_type))
        return real_harness(struct, config)

    monkeypatch.setattr(suites, "oracle_all_good_configs", enumeration)
    monkeypatch.setattr(suites, "q_harness", harness)
    for seed in range(5):
        struct = parse_generator_spec(f"random:intervals:{seed}:20:6")
        first = struct.type_space(struct.base_members())[0]
        dim = pl.independence_dimension(struct).id_value
        expected = []
        for p in (pl.PhiType(), first):
            configs = oracle.oracle_configs_realized(
                struct, p, real_enumeration(struct, min(2, dim + 1), dim))
            best = max(map(len, configs))
            expected += [(c, p) for c in configs if len(c) == best][:2]
        enumerated.clear()
        harnessed.clear()
        assert suites.remark_suite([("s", struct)])["ok"]
        assert enumerated == [(min(2, dim + 1), dim)]
        assert harnessed == list(dict.fromkeys(expected))
        assert {p for _, p in harnessed} == {pl.PhiType(), first}


def test_remark_matches_the_suite_with_one_enumeration_per_type():
    for family in ("intervals", "unions2"):
        for seeds, size in ((range(100), "20:6"), (range(20), "40:8")):
            for seed in seeds:
                spec = f"random:{family}:{seed}:{size}"
                named = [(spec, parse_generator_spec(spec))]
                assert json.dumps(suites.remark_suite(named)) == json.dumps(
                    reference_remark_suite(named)
                )


@pytest.mark.parametrize("spec", ["random:intervals:9:20:6", "random:unions2:19:20:6"])
def test_remark_counts_reused_reports_on_an_empty_base(capsys, monkeypatch, spec):
    # on an empty base the base trace is the empty type, whose harness
    # reports it reuses, but each type still counts its runs and its skips
    assert parse_generator_spec(spec).base_members() == ()
    code, out, _ = verify(capsys, "remark", spec, "--format", "json")
    report = json.loads(out)
    assert code == 0 and (report["harness_runs"], report["skipped_by_guard"]) == (4, 0)
    monkeypatch.setattr(isolation, "Q_THETA_LIMIT", 0)
    code, out, _ = verify(capsys, "remark", spec, "--format", "json")
    report = json.loads(out)
    assert code == 0 and (report["harness_runs"], report["skipped_by_guard"]) == (0, 4)


def test_remark_skips_both_types_past_the_oracle_dimension_guard(capsys, monkeypatch):
    # past the oracle's |Y| guard the subject's dimension search is not run
    # either, so its own guard cannot end the suite
    monkeypatch.setattr(vc, "DIMENSION_NODE_LIMIT", 0)
    code, out, _ = verify(capsys, "remark", "random:intervals:0:20:12", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["ok"] is True
    assert (report["harness_runs"], report["skipped_by_guard"]) == (0, 2)


def test_remark_skips_a_type_past_the_oracle_enumeration_guard(capsys, monkeypatch):
    # oracle_vc's |Y| guard bounds |theta| by the enumeration's own guard,
    # so only a lowered theta guard reaches this skip
    monkeypatch.setattr(oracle, "GOODCONFIG_THETA_LIMIT", 0)
    code, out, _ = verify(capsys, "remark", SPEC, "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["ok"] is True
    assert (report["harness_runs"], report["skipped_by_guard"]) == (0, 2)


def test_oracle_skips_the_max_config_comparison_past_its_guard(capsys, monkeypatch):
    code, out, _ = verify(capsys, "oracle", SPEC, "--format", "json")
    ops = [json.loads(line)["operation"] for line in json.loads(out)["log"]]
    assert code == 0 and ops[-1] == "max_config"
    monkeypatch.setattr(goodconfig, "DEFAULT_EXHAUSTIVE_THETA_LIMIT", 0)
    code, out, _ = verify(capsys, "oracle", SPEC, "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["ok"] is True
    assert [json.loads(line)["operation"] for line in report["log"]] == ops[:-1]
    assert report["comparisons"] == len(ops) - 1
