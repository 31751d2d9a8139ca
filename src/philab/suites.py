"""Invariant suites shared by the CLI `verify` command and the acceptance
tests.

Each suite is a per-instance check run by one driver, `_run`: the check adds
to the suite's counters and yields one detail per failure, and the driver
builds every report (the suite name, its counters, an `ok` flag and the
counterexamples) and every counterexample (the instance, its whole
serialized structure, not yet minimized, and the detail, which may name its
own instance).  Suites only ever compare computed values; expected
quantities come from the brute-force oracles.

The bound suite enumerates configurations of the empty type, which hold
every type's (`oracle.oracle_configs_realized` proves it), so it casts the
widest net for bound violations.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator

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
Check = Callable[[str, BipartiteStructure, dict], Iterator[dict]]


def _run(suite: str, structures: Iterable[Named], check: Check, **counters) -> dict:
    """The report of `check` run on each named structure in turn; `counters`,
    the report's fields before `ok`, hold the running totals."""
    failures = []
    for name, struct in structures:
        for detail in check(name, struct, counters):
            failures.append({"instance": name, "structure": serialize_structure(struct), **detail})
    return {"suite": suite, **counters, "ok": not failures, "counterexamples": failures}


def bound_suite(structures: Iterable[Named]) -> dict:
    """No enumerated good configuration exceeds the independence dimension.
    The enumeration's arity is the oracle's dimension."""

    def check(name, struct, counters):
        dim = cached_dimension(struct)
        configs = oracle_all_good_configs(struct, min(3, dim + 1), oracle_vc(struct))
        counters["configurations_checked"] += len(configs)
        over = [c for c in configs if len(c) > dim]
        if over:
            yield {"pairs": [list(p) for p in min(over)], "id": dim}

    return _run("bound", structures, check, configurations_checked=0)


def shatter_suite(structures: Iterable[Named]) -> dict:
    """On fully shattered structures, no type over Y has a proper isolating
    subtype: the minimum certificate is the type itself.  Each distinct type
    over Y is checked once; a structure that is not fully shattered raises
    PreconditionError, since the claim says nothing about it."""

    def check(name, struct, counters):
        space = struct.type_space(range(struct.n))
        if len(space) != 1 << struct.n:
            raise PreconditionError(
                f"{name}: the shatter suite needs a fully shattered structure")
        for p in space:
            counters["types_checked"] += 1
            cert = find_isolating_subtype(struct, p)
            oracle_size = oracle_min_isolating(struct, p)
            if cert.size != len(p) or oracle_size != len(p):
                yield {
                    "type": [list(i) for i in p.items],
                    "subject_size": cert.size,
                    "oracle_size": oracle_size,
                }

    return _run("shatter", structures, check, types_checked=0)


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

    def check(name, struct, counters):
        try:
            arity = oracle_vc(struct)
            configs = oracle_all_good_configs(struct, min(2, arity + 1), arity)
        except ResourceLimitError:
            counters["skipped_by_guard"] += 2
            return
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
                    counters["skipped_by_guard"] += 1
                    continue
                counters["harness_runs"] += 1
                if not report.ok:
                    bad = [
                        {"tuple": list(c), "size": s}
                        for c, s in report.passing
                        if s > report.reference_size
                    ]
                    yield {
                        "pairs": [list(x) for x in pairs],
                        "reference_size": report.reference_size,
                        "offenders": bad,
                    }

    return _run("remark", structures, check, harness_runs=0, skipped_by_guard=0)


def defining_suite(structures: Iterable[Named]) -> dict:
    """Defining formulas from the pipeline reproduce each row on the base
    set.  embed_trace checks its row and raises InvariantError on a
    disagreement, which becomes a counterexample naming the element and the
    error; rows with one base trace share the formula, so it runs once per
    type over B, on the type's first realizer."""

    def check(name, struct, counters):
        for p in struct.type_space(struct.base_members()):
            mask = struct.type_mask(p)
            a = (mask & -mask).bit_length() - 1
            try:
                embed_trace(struct, a)
            except InvariantError as exc:
                yield {"element": a, "error": str(exc)}
        counters["rows_checked"] += struct.m

    return _run("defining", structures, check, rows_checked=0)


def oracle_suite(structures: Iterable[Named]) -> dict:
    """Differential agreement: dimension, minimum isolating size per
    distinct base trace, and maximal configuration size (exhaustive search
    vs oracle enumeration of the empty type's configurations).  Every
    comparison is logged as one JSON line: operation, instance, oracle and
    subject values, and whether they agree."""

    def check(name, struct, counters):
        def record(op, instance, oracle, subject, **detail):
            """Log one comparison; yield its disagreement, return whether
            the values agree."""
            agree = oracle == subject
            line = {"operation": op, "instance": instance, "oracle": oracle,
                    "subject": subject, "agree": agree}
            counters["comparisons"] += 1
            counters["log"].append(json.dumps(line, sort_keys=True))
            if not agree:
                yield {"instance": instance, "op": op, "subject": subject,
                       "oracle": oracle, **detail}
            return agree

        subject_id = cached_dimension(struct)
        oracle_id = oracle_vc(struct)
        if not (yield from record("vc", name, oracle_id, subject_id)):
            return
        for p in struct.type_space(struct.base_members()):
            digest = f"{name}#p={''.join(str(s) for _, s in p.items) or 'empty'}"
            yield from record("min_isolating", digest, oracle_min_isolating(struct, p),
                              find_isolating_subtype(struct, p).size,
                              type=[list(i) for i in p.items])
        try:
            subject_max = build_maximal(struct, PhiType(), "exhaustive").size
            oracle_max = max(
                len(c)
                for c in oracle_all_good_configs(struct, min(3, oracle_id + 1), oracle_id)
            )
        except ResourceLimitError:
            return
        yield from record("max_config", name, oracle_max, subject_max)

    return _run("oracle", structures, check, comparisons=0, log=[])


def budget_suite(structures: Iterable[Named]) -> dict:
    """Every pipeline run stays within the 2K <= 2*dimension budget."""

    def check(name, struct, counters):
        for p in struct.type_space(struct.base_members()):
            counters["runs"] += 1
            result = isolated_extension(struct, p)
            if not result.budget_ok:
                yield {
                    "type": [list(i) for i in p.items],
                    "added": result.added_params,
                    "two_k": result.two_k,
                    "two_id": result.two_id,
                }

    return _run("budget", structures, check, runs=0)


SUITES = {
    "bound": bound_suite,
    "shatter": shatter_suite,
    "remark": remark_suite,
    "defining": defining_suite,
    "oracle": oracle_suite,
    "budget": budget_suite,
}
