"""philab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` as it stands.  Each op is timed alone and checked once per distinct
op (outside the timed region); later passes must reproduce the first pass's
outputs exactly.  The run repeats whole passes over the workload's op list,
at least three and until about --seconds of wall time have passed.

A pass takes a few seconds, so each op is sampled many times across the
run.  Successive passes run pinned to successive CPUs the process may use
(one process, one CPU at a time), and every pass after the first runs the
ops in a new seeded order, so no op always follows the same neighbour or
opens a pass.

On a shared machine the speed of a CPU changes with its neighbours' load:
phases about 1.5 times slower than the fastest last from seconds to several
minutes, on one CPU or on all.  No run is long enough to average them out,
so every op's latency is scaled by the machine's speed at the moment it ran.
Before each op the run times a speed probe, a fixed loop of this file's own
pure-Python code (so no change to the program moves it).  An op's scaled
latency is its measured latency times PROBE_REFERENCE_S over the median of
the probes taken just before and after it, which is the time it would take
when a probe takes PROBE_REFERENCE_S.  On a shared 2-vCPU KVM guest, over
65 one-second passes of 60 verify ops, the interquartile spread of the pass
time (as a share of its median) was 0.146 measured and 0.039 scaled.

Every op's latency is the median of its scaled latencies over the passes.
From those: ops_per_s is the number of ops over their sum, latency_p50_ms
their median, and latency_tail_ms the highest of p99/p95/p90/p75 with at
least ten ops beyond it.  setup_s is the median, scaled the same way, of the
wall times of fresh interpreters that import philab and build the inputs.
The measured (unscaled) figures are printed too.

The last line of stdout is one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of one traced pass, compared
against one untraced pass of the same ops (a trace file is written under
`.perfbench/`).  The lines before it print every metric by name with its
unit, the machine fingerprint and the output digest.  Exit status is 0 when
a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
PINNED = HERE / "pinned.json"

SETUP_PROBES = 5
#: The scale of every reported time: the speed probe's time on a 2-vCPU Xeon
#: (Sapphire Rapids) KVM guest under CPython 3.11 in its fast phases.
PROBE_REFERENCE_S = 0.5e-3
#: Probes around an op: the op at position p in a pass is scaled by the
#: median of the probes taken before positions p-2 .. p+3 (the probe before
#: p+1 is the one right after it).
PROBE_BEFORE, PROBE_AFTER = 2, 4
OP_TIME_LIMIT_S = 60
MIN_PASSES = 3
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIME_LIMIT_S} s")


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _probe_work(rounds: int = 400) -> int:
    """A fixed mix of what the program's hot code does: integer bit
    operations, small tuples, dict and set updates and method calls."""
    acc, table, seen = 0, {}, set()
    for i in range(rounds):
        key = (i & 31, (i >> 5) & 7)
        mask = (acc ^ (i * 2654435761)) & 0xFFFFFFFF
        acc = (acc + bin(mask).count("1") + len(key)) & 0xFFFF
        table[key] = table.get(key, 0) + (mask & 3)
        if mask & 1:
            seen.add(mask & 255)
    return acc + len(seen) + sum(table.values())


def probe() -> float:
    """Wall time of one speed probe."""
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


def speed_scale(probes: list[float]) -> float:
    """Factor that turns a time measured next to `probes` into the time at
    the reference speed."""
    return PROBE_REFERENCE_S / statistics.median(probes)


def run_pass(ops, first: list | None, tracer=None, order=None, probing=False) -> dict:
    """Run every op once, in `order` (a permutation of op indices; list order
    by default).  On the first pass (`first` is None) each output is checked
    and its hash kept; on later passes it must match that hash.  With
    `probing`, a speed probe runs before each op and after the last, and
    `scaled` holds each op's latency at the reference speed."""
    latencies, hashes = [0.0] * len(ops), [""] * len(ops)
    failures = []
    group_time: dict[str, float] = {}
    digest = hashlib.sha256()
    order = list(order or range(len(ops)))
    probes = []
    for index in order:
        op = ops[index]
        if probing:
            probes.append(probe())
        if tracer is not None:
            tracer.op, tracer.group = index, op.group
        signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except (Exception, SystemExit) as exc:  # an op's failure is a result
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.group = "bench"
        latencies[index] = elapsed
        group_time[op.group] = group_time.get(op.group, 0.0) + elapsed
        text = "FAILED" if error else op.render(result)
        text_hash = hashlib.sha256(text.encode()).hexdigest()
        digest.update(f"{op.label}\t{text_hash}\n".encode())
        hashes[index] = text_hash
        if error is None:
            if first is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # a check that cannot run fails the op
                    error = f"check raised {type(exc).__name__}: {exc}"
            elif text_hash != first[index]:
                error = "output differs from the first pass"
        if error:
            failures.append((op.label, error))
    scaled = None
    if probing:
        probes.append(probe())
        scaled = [0.0] * len(ops)
        for position, index in enumerate(order):
            around = probes[max(position - PROBE_BEFORE, 0):position + PROBE_AFTER]
            scaled[index] = latencies[index] * speed_scale(around)
    return {
        "latencies": latencies,
        "scaled": scaled,
        "probes": probes,
        "failures": failures,
        "hashes": hashes,
        "digest": digest.hexdigest(),
        "group_time": group_time,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, nearest-rank value, samples beyond it) for the highest
    ladder percentile with at least TAIL_MIN_BEYOND samples beyond it, or
    p50 when even that has fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        index = max(math.ceil(q / 100 * n) - 1, 0)
        if n - index - 1 >= TAIL_MIN_BEYOND:
            break
    return q, ordered[index], n - index - 1


def setup_probe(args) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports philab and builds the
    workload's inputs, then exits, measured and scaled by speed probes
    around it.  It inherits this process's CPU."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    probes = [probe() for _ in range(3)]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    probes += [probe() for _ in range(3)]
    return elapsed, elapsed * speed_scale(probes)


def pinned_digest(args) -> str | None:
    pinned = json.loads(PINNED.read_text())
    if args.scale != "full" or args.seed != pinned["seed"]:
        return None
    return pinned["digests"].get(args.workload, "missing")


def report(lines: list[str], result: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))


def end_to_end(args, build) -> int:
    ops = build(args.seed, args.scale == "smoke")
    cpus = sorted(os.sched_getaffinity(0))
    shuffle = random.Random(f"passes:{args.seed}").shuffle
    order = list(range(len(ops)))
    passes, first, probes = [], None, []
    start = time.perf_counter()
    elapsed = 0.0
    # stop within half a pass of --seconds of wall time, probes included
    while len(passes) < MIN_PASSES or elapsed + elapsed / len(passes) / 2 < args.seconds:
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        done = run_pass(ops, first, order=order, probing=True)
        shuffle(order)  # no op always runs at the same place in a pass
        passes.append(done)
        first = first or done["hashes"]
        if len(probes) < SETUP_PROBES:  # spread over the run, like the passes
            probes.append(setup_probe(args))
        elapsed = time.perf_counter() - start
    while len(probes) < SETUP_PROBES:
        os.sched_setaffinity(0, {cpus[len(probes) % len(cpus)]})
        probes.append(setup_probe(args))
    os.sched_setaffinity(0, cpus)
    per_op = [statistics.median(p["scaled"][i] for p in passes) for i in range(len(ops))]
    raw_per_op = [statistics.median(p["latencies"][i] for p in passes) for i in range(len(ops))]
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(ops) * len(passes)
    q, tail_value, beyond = tail(per_op)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "ops_per_s": len(ops) / sum(per_op),
        "latency_p50_ms": statistics.median(per_op) * 1000,
        "latency_tail_ms": tail_value * 1000,
        "setup_s": statistics.median(scaled for _, scaled in probes),
        "peak_rss_mb": rss_mb,
        "ops_ok_frac": 1 - len(failures) / attempted,
    }
    all_probes = [t for p in passes for t in p["probes"]]
    digest = passes[0]["digest"]
    expected = pinned_digest(args)
    lines = [f"fingerprint {json.dumps(fingerprint(), sort_keys=True)}",
             f"workload {args.workload} seed {args.seed} scale {args.scale}: "
             f"{len(passes)} passes of {len(ops)} ops in {elapsed:.1f} s"]
    lines += [f"{name} = {values[name]:.6g} {unit}" for name, unit in END_TO_END]
    lines.append(f"latency_tail_ms is p{q:g} of {len(ops)} op latencies, {beyond} beyond it")
    lines.append(f"ops_failed_frac = {len(failures) / attempted:.6g} ratio")
    lines.append(f"speed probe: median {statistics.median(all_probes) * 1000:.4f} ms over "
                 f"{len(all_probes)}, reference {PROBE_REFERENCE_S * 1000:g} ms")
    lines.append(f"measured, unscaled: ops_per_s = {len(ops) / sum(raw_per_op):.6g} 1/s, "
                 f"latency_p50_ms = {statistics.median(raw_per_op) * 1000:.6g} ms, "
                 f"latency_tail_ms = {tail(raw_per_op)[1] * 1000:.6g} ms, "
                 f"setup_s = {statistics.median(raw for raw, _ in probes):.6g} s")
    lines.append(f"output_digest {digest}")
    correct = not failures
    if expected is not None and digest != expected:
        correct = False
        lines.append(f"digest mismatch: pinned {expected}")
    lines += [f"FAILED {label}: {why}" for label, why in failures[:20]]
    report(lines, {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    })
    return 0


def traced(args, build) -> int:
    import tracer as tracing

    smoke = args.scale == "smoke"
    plain = run_pass(build(args.seed, smoke), None)
    tracer = tracing.Tracer()
    tracer.install()
    problems = tracing.coverage_problems(tracer)
    ops = build(args.seed, smoke)  # fresh inputs: per-structure memos start empty
    traced_pass = run_pass(ops, plain["hashes"], tracer)
    plain_time = sum(plain["latencies"])
    traced_time = sum(traced_pass["latencies"])
    overhead = traced_time / plain_time - 1
    values = tracing.per_layer_values(tracer, traced_time, traced_pass["group_time"], overhead)
    out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}-{args.scale}.json"
    tracer.write(out, {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                       "fingerprint": fingerprint(), "op_time_s": traced_time,
                       "group_time_s": traced_pass["group_time"],
                       "labels": [op.label for op in ops]})
    failures = plain["failures"] + traced_pass["failures"]
    lines = [f"fingerprint {json.dumps(fingerprint(), sort_keys=True)}",
             f"workload {args.workload} seed {args.seed} scale {args.scale}: "
             f"one untraced and one traced pass of {len(ops)} ops; trace written to {out}"]
    specs = tracing.per_layer_specs()
    lines += [f"{name} = {values[name]:.6g} {unit}" for name, unit, _ in specs]
    lines.append(f"output_digest {plain['digest']} (traced {traced_pass['digest']})")
    lines += [f"tracer coverage: {p}" for p in problems]
    lines += [f"FAILED {label}: {why}" for label, why in failures[:20]]
    correct = not failures and not problems and traced_pass["digest"] == plain["digest"]
    expected = pinned_digest(args)
    if expected is not None and plain["digest"] != expected:
        correct = False
        lines.append(f"digest mismatch: pinned {expected}")
    report(lines, {
        "correct": correct,
        "attempted": 2 * len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    })
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "philab" / "__init__.py").is_file():
        print(f"error: no philab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        build(args.seed, args.scale == "smoke")
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    return traced(args, build) if args.trace else end_to_end(args, build)


if __name__ == "__main__":
    sys.exit(main())
