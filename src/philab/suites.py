"""Invariant suites shared by the CLI `verify` command and the acceptance
tests.

Each suite takes named structures and returns a JSON-ready report with an
`ok` flag and, on failure, a minimized counterexample (the serialized
structure plus the offending object).  Suites only ever compare computed
values; expected quantities come from the brute-force oracles.

The bound suite enumerates configurations of the empty type: any
configuration good for some type is good for the empty type (its clause-(ii)
literal set is a subset, the other clauses do not mention the type), so the
empty type casts the widest net for bound violations.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotWitnessedError, PreconditionError, ResourceLimitError
from .goodconfig import GoodConfiguration, build_maximal
from .isolation import embed_trace, find_isolating_subtype, isolated_extension, q_harness
from .oracle import OracleReport, oracle_all_good_configs, oracle_min_isolating, oracle_vc
from .structure import BipartiteStructure, PhiType, serialize_structure
from .vc import cached_dimension

Named = tuple[str, BipartiteStructure]


def _counterexample(name: str, struct: BipartiteStructure, detail: dict) -> dict:
    return {"instance": name, "structure": serialize_structure(struct), **detail}


def bound_suite(structures: Iterable[Named]) -> dict:
    """No enumerated good configuration exceeds the independence dimension."""
    checked = 0
    failures = []
    for name, struct in structures:
        dim = cached_dimension(struct)
        configs = oracle_all_good_configs(struct, PhiType(), min(3, dim + 1))
        checked += len(configs)
        worst = max((len(c) for c in configs), default=0)
        if worst > dim:
            offender = min(c for c in configs if len(c) > dim)
            failures.append(
                _counterexample(
                    name,
                    struct,
                    {"pairs": [list(p) for p in offender], "id": dim},
                )
            )
    return {
        "suite": "bound",
        "configurations_checked": checked,
        "ok": not failures,
        "counterexamples": failures,
    }


def shatter_suite(structures: Iterable[Named]) -> dict:
    """On fully shattered structures, no type over Y has a proper isolating
    subtype: the minimum certificate is the type itself.  Each distinct type
    over Y is checked once; a structure that is not fully shattered raises
    PreconditionError, since the claim says nothing about it."""
    failures = []
    types_checked = 0
    for name, struct in structures:
        space = struct.type_space(range(struct.n))
        if len(space) != 1 << struct.n:
            raise PreconditionError(
                f"{name}: the shatter suite needs a fully shattered structure")
        for p in space:
            types_checked += 1
            cert = find_isolating_subtype(struct, p)
            oracle_size = oracle_min_isolating(struct, p)
            if cert.size != len(p) or oracle_size != len(p):
                failures.append(
                    _counterexample(
                        name,
                        struct,
                        {
                            "type": [list(i) for i in p.items],
                            "subject_size": cert.size,
                            "oracle_size": oracle_size,
                        },
                    )
                )
    return {
        "suite": "shatter",
        "types_checked": types_checked,
        "ok": not failures,
        "counterexamples": failures,
    }


def remark_suite(structures: Iterable[Named]) -> dict:
    """Every tuple realizing a maximal configuration's q-type isolates at
    most as hard as the configuration itself."""
    failures = []
    harness_runs = 0
    skipped = 0
    for name, struct in structures:
        dim = cached_dimension(struct)
        for p in (PhiType(),) + struct.type_space(struct.base_members())[:1]:
            if not struct.is_consistent(p):
                continue
            try:
                configs = oracle_all_good_configs(struct, p, min(2, dim + 1))
            except ResourceLimitError:
                skipped += 1
                continue
            max_size = max(len(c) for c in configs)
            maximal = [c for c in configs if len(c) == max_size]
            for pairs in maximal[:2]:
                try:
                    report = q_harness(struct, GoodConfiguration(pairs, p))
                except ResourceLimitError:
                    skipped += 1
                    continue
                harness_runs += 1
                if not report.ok:
                    bad = [
                        {"tuple": list(c), "size": s}
                        for c, s in report.passing
                        if s > report.reference_size
                    ]
                    failures.append(
                        _counterexample(
                            name,
                            struct,
                            {
                                "pairs": [list(x) for x in pairs],
                                "reference_size": report.reference_size,
                                "offenders": bad,
                            },
                        )
                    )
    return {
        "suite": "remark",
        "harness_runs": harness_runs,
        "skipped_by_guard": skipped,
        "ok": not failures,
        "counterexamples": failures,
    }


def defining_suite(structures: Iterable[Named]) -> dict:
    """Defining formulas from the pipeline reproduce each row on the base
    set; certificates re-check entailment.  The per-trace pipeline output is
    memoized since identical base traces give identical results."""
    failures = []
    rows_checked = 0
    for name, struct in structures:
        by_trace: dict[PhiType, tuple] = {}
        for a in range(struct.m):
            rows_checked += 1
            p = struct.trace(a, struct.base_members())
            if p not in by_trace:
                try:
                    by_trace[p] = embed_trace(struct, a)
                except NotWitnessedError as exc:
                    failures.append(
                        _counterexample(name, struct, {"row": a, "error": str(exc)})
                    )
                    continue
            formula, _ = by_trace[p]
            mismatches = [
                b
                for b in struct.base_members()
                if formula.holds(b) != bool(struct.truth[a][b])
            ]
            if mismatches:
                failures.append(
                    _counterexample(name, struct, {"row": a, "mismatch_at": mismatches})
                )
    return {
        "suite": "defining",
        "rows_checked": rows_checked,
        "ok": not failures,
        "counterexamples": failures,
    }


def oracle_suite(structures: Iterable[Named]) -> dict:
    """Differential agreement: dimension, minimum isolating size per
    distinct base trace, and maximal configuration size (exhaustive search
    vs oracle enumeration of the empty type's configurations).  Every
    comparison is logged as an OracleReport JSON line."""
    failures = []
    log: list[str] = []

    def record(report: OracleReport, struct: BipartiteStructure, detail: dict) -> None:
        log.append(report.json_line())
        if not report.agree:
            failures.append(
                _counterexample(
                    report.instance,
                    struct,
                    {
                        "op": report.operation,
                        "subject": report.subject_value,
                        "oracle": report.oracle_value,
                        **detail,
                    },
                )
            )

    for name, struct in structures:
        subject_id = cached_dimension(struct)
        vc_report = OracleReport("vc", name, oracle_vc(struct), subject_id)
        record(vc_report, struct, {})
        if not vc_report.agree:
            continue
        for p in struct.type_space(struct.base_members()):
            digest = f"{name}#p={''.join(str(s) for _, s in p.items) or 'empty'}"
            record(
                OracleReport(
                    "min_isolating",
                    digest,
                    oracle_min_isolating(struct, p),
                    find_isolating_subtype(struct, p).size,
                ),
                struct,
                {"type": [list(i) for i in p.items]},
            )
        try:
            subject_max = build_maximal(struct, PhiType(), "exhaustive").size
            oracle_max = max(
                len(c)
                for c in oracle_all_good_configs(
                    struct, PhiType(), min(3, subject_id + 1), vc_report.oracle_value
                )
            )
        except ResourceLimitError:
            continue
        record(OracleReport("max_config", name, oracle_max, subject_max), struct, {})
    return {
        "suite": "oracle",
        "comparisons": len(log),
        "log": log,
        "ok": not failures,
        "counterexamples": failures,
    }


def budget_suite(structures: Iterable[Named]) -> dict:
    """Every pipeline run stays within the 2K <= 2*dimension budget."""
    failures = []
    runs = 0
    for name, struct in structures:
        for p in struct.type_space(struct.base_members()):
            runs += 1
            result = isolated_extension(struct, p)
            if not result.budget_ok:
                failures.append(
                    _counterexample(
                        name,
                        struct,
                        {
                            "type": [list(i) for i in p.items],
                            "added": result.added_params,
                            "two_k": result.two_k,
                            "two_id": result.two_id,
                        },
                    )
                )
    return {
        "suite": "budget",
        "runs": runs,
        "ok": not failures,
        "counterexamples": failures,
    }


SUITES = {
    "bound": bound_suite,
    "shatter": shatter_suite,
    "remark": remark_suite,
    "defining": defining_suite,
    "oracle": oracle_suite,
    "budget": budget_suite,
}
