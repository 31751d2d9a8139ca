"""Invariant suites shared by the CLI `verify` command and the acceptance
tests.

Each suite takes named structures and returns a JSON-ready report: the suite
name, its counters, an `ok` flag and, on failure, counterexamples: each holds
the instance's whole serialized structure, not yet minimized, plus the
offending object.  Suites only ever compare computed values; expected
quantities come from the brute-force oracles.

The bound suite enumerates configurations of the empty type: any
configuration good for some type is good for the empty type (its clause-(ii)
literal set is a subset, the other clauses do not mention the type), so the
empty type casts the widest net for bound violations.
"""

from __future__ import annotations

import json
from typing import Iterable

from .errors import InvariantError, PreconditionError, ResourceLimitError
from .goodconfig import GoodConfiguration, build_maximal
from .isolation import embed_trace, find_isolating_subtype, isolated_extension, q_harness
from .oracle import (
    oracle_all_good_configs,
    oracle_configs_realized,
    oracle_min_isolating,
    oracle_vc,
)
from .structure import BipartiteStructure, PhiType, serialize_structure
from .vc import cached_dimension

Named = tuple[str, BipartiteStructure]


def _counterexample(name: str, struct: BipartiteStructure, detail: dict) -> dict:
    return {"instance": name, "structure": serialize_structure(struct), **detail}


def _report(suite: str, failures: list, **counters) -> dict:
    return {"suite": suite, **counters, "ok": not failures, "counterexamples": failures}


def bound_suite(structures: Iterable[Named]) -> dict:
    """No enumerated good configuration exceeds the independence dimension."""
    checked = 0
    failures = []
    for name, struct in structures:
        dim = cached_dimension(struct)
        configs = oracle_all_good_configs(struct, PhiType(), min(3, dim + 1))
        checked += len(configs)
        over = [c for c in configs if len(c) > dim]
        if over:
            pairs = [list(p) for p in min(over)]
            failures.append(_counterexample(name, struct, {"pairs": pairs, "id": dim}))
    return _report("bound", failures, configurations_checked=checked)


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
    return _report("shatter", failures, types_checked=types_checked)


def remark_suite(structures: Iterable[Named]) -> dict:
    """Every tuple realizing a maximal configuration's q-type isolates at
    most as hard as the configuration itself.  The types tried, the empty
    type and row 0's base trace (the base type space's first), are realized,
    so each has a configuration (the empty one at least).  The oracle's
    dimension sizes the enumeration and is its arity; past its guard, or the
    enumeration's, both types are skipped.  The enumeration runs once, for
    the empty type: the base trace's configurations are those it realizes
    (`oracle_configs_realized`).  A harness runs once per distinct
    configuration and type, so on an empty base, where the two types are
    one, the base trace reuses the empty type's reports; each type still
    counts its runs, its skips and its counterexamples."""
    failures = []
    harness_runs = 0
    skipped = 0
    for name, struct in structures:
        try:
            arity = oracle_vc(struct)
            configs = oracle_all_good_configs(struct, PhiType(), min(2, arity + 1), arity)
        except ResourceLimitError:
            skipped += 2
            continue
        base_trace = struct.trace(0, struct.base_members())
        # (pairs, type) -> its harness report, or None past the harness guard
        reports: dict = {}
        for p, good in (
            (PhiType(), configs),
            (base_trace, oracle_configs_realized(struct, base_trace, configs)),
        ):
            max_size = max(len(c) for c in good)
            maximal = [c for c in good if len(c) == max_size]
            for pairs in maximal[:2]:
                key = (pairs, p)
                if key not in reports:
                    try:
                        reports[key] = q_harness(struct, GoodConfiguration(pairs, p))
                    except ResourceLimitError:
                        reports[key] = None
                report = reports[key]
                if report is None:
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
    return _report("remark", failures, harness_runs=harness_runs, skipped_by_guard=skipped)


def defining_suite(structures: Iterable[Named]) -> dict:
    """Defining formulas from the pipeline reproduce each row on the base
    set.  embed_trace checks its row and raises InvariantError on a
    disagreement, which becomes a counterexample naming the element and the
    error; rows with one base trace share the formula, so it runs once per
    type over B, on the type's first realizer."""
    failures = []
    rows_checked = 0
    for name, struct in structures:
        for p in struct.type_space(struct.base_members()):
            mask = struct.type_mask(p)
            a = (mask & -mask).bit_length() - 1
            try:
                embed_trace(struct, a)
            except InvariantError as exc:
                detail = {"element": a, "error": str(exc)}
                failures.append(_counterexample(name, struct, detail))
        rows_checked += struct.m
    return _report("defining", failures, rows_checked=rows_checked)


def oracle_suite(structures: Iterable[Named]) -> dict:
    """Differential agreement: dimension, minimum isolating size per
    distinct base trace, and maximal configuration size (exhaustive search
    vs oracle enumeration of the empty type's configurations).  Every
    comparison is logged as one JSON line: operation, instance, oracle and
    subject values, and whether they agree."""
    failures = []
    log: list[str] = []

    def record(op, instance, oracle, subject, struct, detail) -> bool:
        agree = oracle == subject
        line = {"operation": op, "instance": instance, "oracle": oracle,
                "subject": subject, "agree": agree}
        log.append(json.dumps(line, sort_keys=True))
        if not agree:
            detail = {"op": op, "subject": subject, "oracle": oracle, **detail}
            failures.append(_counterexample(instance, struct, detail))
        return agree

    for name, struct in structures:
        subject_id = cached_dimension(struct)
        oracle_id = oracle_vc(struct)
        if not record("vc", name, oracle_id, subject_id, struct, {}):
            continue
        for p in struct.type_space(struct.base_members()):
            digest = f"{name}#p={''.join(str(s) for _, s in p.items) or 'empty'}"
            record("min_isolating", digest, oracle_min_isolating(struct, p),
                   find_isolating_subtype(struct, p).size, struct,
                   {"type": [list(i) for i in p.items]})
        try:
            subject_max = build_maximal(struct, PhiType(), "exhaustive").size
            oracle_max = max(
                len(c)
                for c in oracle_all_good_configs(
                    struct, PhiType(), min(3, oracle_id + 1), oracle_id
                )
            )
        except ResourceLimitError:
            continue
        record("max_config", name, oracle_max, subject_max, struct, {})
    return _report("oracle", failures, comparisons=len(log), log=log)


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
    return _report("budget", failures, runs=runs)


SUITES = {
    "bound": bound_suite,
    "shatter": shatter_suite,
    "remark": remark_suite,
    "defining": defining_suite,
    "oracle": oracle_suite,
    "budget": budget_suite,
}
