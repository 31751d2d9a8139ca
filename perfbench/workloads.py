"""The workloads: their inputs, ops and output checks.

An op is one user-level call: `philab.cli.main(argv)` with stdout captured,
or one public library call whose result is rendered to canonical JSON.  The
benchmark derives every generator seed from the workload seed and hands the
program only the generated inputs.

Where per-instance cost varies by orders of magnitude between generator
seeds, a run would measure which instances it drew rather than the program,
so most instances are a fixed core and a seed-derived share rides along
(see each workload function).  Every name is looked up on its module at call time, so
the tracer's wrappers are picked up once installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import philab
import philab.cli
import philab.generators as gens
import philab.oracle
import philab.vc

VERIFY_SUITES = ("bound", "remark", "defining", "oracle", "budget")
MIN_ISOLATING_DOM_LIMIT = philab.oracle.MIN_ISOLATING_DOM_LIMIT
VC_Y_LIMIT = philab.oracle.VC_Y_LIMIT


@dataclass
class Op:
    """One timed call.  `run` returns the raw result, `render` turns it into
    the canonical text hashed into the digest, and `check` returns a failure
    reason or None.  `check` runs once per distinct op, outside timing."""

    label: str
    group: str
    run: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object], Optional[str]]


# -- helpers -----------------------------------------------------------------


def cli_call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = philab.cli.main(argv)
    return code, out.getvalue()


def rows_matching(truth, literals) -> frozenset[int]:
    """Independent row scan: rows agreeing with every (column, sign)."""
    literals = [tuple(lit) for lit in literals]
    return frozenset(
        r for r, row in enumerate(truth) if all(row[b] == s for b, s in literals)
    )


def check_certificate(struct, target, subtype, minimal) -> Optional[str]:
    """The certificate is a subtype of its target, has the target's realizer
    set (so it entails the target), and where the oracle's guard allows has
    the oracle's minimum size."""
    target = [tuple(lit) for lit in target]
    subtype = [tuple(lit) for lit in subtype]
    if not set(subtype) <= set(target):
        return "certificate is not a subtype of its target"
    realizers = rows_matching(struct.truth, target)
    if not realizers:
        return "target type has no realizer"
    if rows_matching(struct.truth, subtype) != realizers:
        return "certificate does not entail its target"
    if minimal and len(target) <= MIN_ISOLATING_DOM_LIMIT:
        size = philab.oracle.oracle_min_isolating(struct, philab.PhiType(target))
        if size != len(subtype):
            return f"certificate size {len(subtype)} != oracle minimum {size}"
    return None


# -- verify-corpus -----------------------------------------------------------


def verify_corpus(seed: int, smoke: bool) -> list[Op]:
    """`philab verify --suite S --gen random:FAMILY:G:20:6` for the five
    corpus suites, both families and 25 generator seeds G, plus the shatter
    suite over shattered:1..5.  G is 0..23 and one seed from the workload
    seed, so seed 0 is the first quarter of the acceptance corpus 0..99; a
    quarter keeps a pass near two seconds (see run.py on why passes are
    short).  The latency tail rests on the few slowest instances, so a
    larger seed-derived share moved it by a quarter between seeds."""
    core, share = (2, 1) if smoke else (24, 1)
    gseeds = list(range(core)) + [core + share * seed + j for j in range(share)]
    ops = []
    for g in gseeds:
        for family in ("intervals", "unions2"):
            for suite in VERIFY_SUITES:
                ops.append(_verify_op(suite, f"random:{family}:{g}:20:6"))
    for k in range(1, 3 if smoke else 6):
        ops.append(_verify_op("shatter", f"shattered:{k}"))
    return ops


def _verify_op(suite: str, spec: str) -> Op:
    argv = ["verify", "--suite", suite, "--gen", spec, "--format", "json"]

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        if json.loads(out).get("ok") is not True:
            return "report is not ok"
        return None

    return Op(" ".join(argv), suite, lambda: cli_call(argv), lambda r: r[1], check)


# -- isolate-cold ------------------------------------------------------------

#: (points, columns, |B| range, core instances, seed-derived instances) per
#: rung.  An op's cost grows with |B|^dimension and |B| is a coin flip per
#: column, so instances are kept only within the rung's |B| range and at
#: dimension 3.  Smaller rungs get more ops, so the pass is not dominated by
#: the largest rung and every percentile up to p75 rests on ten or more ops;
#: the median falls in the first rung and p75 in the second, so those two
#: hold a single |B| each.
COLD_RUNGS = (
    (50, 12, (4, 4), 22, 8),
    (100, 16, (5, 5), 9, 3),
    (200, 24, (6, 7), 3, 1),
)
COLD_SMOKE_RUNGS = ((30, 8, (3, 5), 1, 1),)


def _stratified(x: int, y: int, b_range, start: int, count: int) -> list:
    out = []
    g = start
    while len(out) < count:
        struct = gens.gen_random_bounded(g, x, y, gens.UNIONS)
        if (
            b_range[0] <= len(struct.base_set) <= b_range[1]
            and philab.vc.independence_dimension(struct).id_value == 3
        ):
            out.append((g, struct))
        g += 1
    return out


def isolate_cold(seed: int, smoke: bool) -> list[Op]:
    """`philab isolate --gen random:unions2:G:X:Y --of ROW --k-sat all` over
    the size ladder, per rung a fixed core of instances plus some from the
    workload seed.  Each ROW is drawn from the middle half of the point line,
    where base traces are rich, by the generator seed G (so the core is
    fixed).  Every op rebuilds its structure, as every CLI invocation does."""
    per_rung = []
    for x, y, b_range, core, share in COLD_SMOKE_RUNGS if smoke else COLD_RUNGS:
        instances = _stratified(x, y, b_range, 0, core)
        instances += _stratified(x, y, b_range, 1000 + 100 * seed, share)
        per_rung.append(
            [_isolate_op(f"random:unions2:{g}:{x}:{y}", struct,
                         random.Random(g).randrange(x // 4, 3 * x // 4), f"{x}x{y}")
             for g, struct in instances]
        )
    # interleave the rungs so every stretch of ops has a similar size mix
    ops = []
    while any(per_rung):
        ops += [rung.pop(0) for rung in per_rung if rung]
    return ops


def _isolate_op(spec: str, struct, row: int, group: str) -> Op:
    argv = ["isolate", "--gen", spec, "--of", str(row), "--k-sat", "all", "--format", "json"]

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(out)
        if not payload["budget"]["ok"]:
            return "budget violated"
        base_trace = {(b, struct.truth[row][b]) for b in struct.base_set}
        if not base_trace <= {tuple(lit) for lit in payload["type"]}:
            return "extension does not extend the row's base trace"
        problem = check_certificate(struct, payload["type"], payload["subtype"], payload["minimal"])
        if problem:
            return problem
        gamma_rows = rows_matching(struct.truth, payload["defining_formula"]["gamma"])
        expected = [[b, int(all(struct.truth[r][b] for r in gamma_rows))]
                    for b in sorted(struct.base_set)]
        if payload["defining_formula"]["on_base"] != expected:
            return "defining formula disagrees with a row scan"
        return None

    return Op(" ".join(argv), group, lambda: cli_call(argv), lambda r: r[1], check)


# -- types-id ----------------------------------------------------------------


TYPES_CURATED = (
    *[(f"shattered:{k}", lambda k=k: gens.gen_shattered(k)) for k in range(1, 5)],
    ("linear:5", lambda: gens.gen_linear_order(5, [1, 2, 3, 4])),
    ("linear:6:b=1,3", lambda: gens.gen_linear_order(6, [1, 3])),
    ("linear:6:b=2,4:nofill", lambda: gens.gen_linear_order(6, [2, 4], False)),
    ("linear:12:b=0,4,8", lambda: gens.gen_linear_order(12, [0, 4, 8])),
    ("eqrel:1", lambda: gens.gen_eqrel(gens.EqRelSpec([2], [1]))),
    ("eqrel:1,1", lambda: gens.gen_eqrel(gens.EqRelSpec([2, 1], [1, 1]))),
)
TYPES_SMOKE_CURATED = TYPES_CURATED[2:3] + TYPES_CURATED[5:6]


def types_corpus(seed: int, smoke: bool) -> list:
    """The acceptance corpus, cut to keep a pass short (see run.py): random
    families over 50 generator seeds (38 fixed, 12 from the workload seed)
    and the curated instances less eqrel:2, which repeats eqrel:1,1's 27
    columns."""
    core, share = (2, 1) if smoke else (38, 12)
    gseeds = list(range(core)) + [core + share * seed + j for j in range(share)]
    out = []
    for family in (gens.INTERVALS, gens.UNIONS):
        for g in gseeds:
            out.append((f"{family}:{g}", gens.gen_random_bounded(g, 20, 6, family)))
    curated = TYPES_SMOKE_CURATED if smoke else TYPES_CURATED
    return out + [(name, make()) for name, make in curated]


def types_id(seed: int, smoke: bool) -> list[Op]:
    """Criterion 4's identity over every domain of size <= 5 of each corpus
    instance (one op per instance), plus `philab id --cap full` on wide
    structures: two fixed, and one from the workload seed small enough for
    the oracle to check."""
    ops = [_types_op(name, struct) for name, struct in types_corpus(seed, smoke)]
    wide = ["random:unions2:3:40:12"] if smoke else [
        "random:unions2:3:128:64",
        "eqrel:1,1,1",
        f"random:unions2:{1000 + seed}:64:8",
    ]
    ops += [_id_op(spec) for spec in wide]
    return ops


def _types_op(name, struct) -> Op:
    def run():
        rows = []
        for size in range(min(struct.n, 5) + 1):
            for domain in combinations(range(struct.n), size):
                rows.append((size, len(struct.type_space(domain)),
                             philab.is_phi_independent(struct, domain)))
        return rows

    def render(rows):
        sizes = ",".join(str(count) for _, count, _ in rows).encode()
        return json.dumps(
            {
                "domains": len(rows),
                "independent": sum(ind for _, _, ind in rows),
                "counts_sha256": hashlib.sha256(sizes).hexdigest(),
            },
            sort_keys=True,
        )

    def check(rows):
        for size, count, ind in rows:
            if ind != (count == 2**size):
                return "type-count identity fails"
        return None

    return Op(f"types {name}", "types", run, render, check)


def _id_op(spec: str) -> Op:
    argv = ["id", "--gen", spec, "--cap", "full", "--format", "json"]

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(out)
        struct = philab.cli.parse_generator_spec(spec)
        witness = payload["witness"]
        if payload["capped"] or len(witness) != payload["id"]:
            return "id report is capped or its witness has the wrong size"
        patterns = {tuple(row[b] for b in witness) for row in struct.truth}
        if len(patterns) != 2 ** len(witness):
            return "witness is not independent by a row scan"
        if struct.n <= VC_Y_LIMIT and philab.oracle.oracle_vc(struct) != payload["id"]:
            return "id disagrees with oracle_vc"
        return None

    return Op(" ".join(argv), "id", lambda: cli_call(argv), lambda r: r[1], check)


WORKLOADS = {
    "verify-corpus": verify_corpus,
    "isolate-cold": isolate_cold,
    "types-id": types_id,
}
