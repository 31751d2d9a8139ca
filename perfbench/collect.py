"""Repeat benchmark runs over several seeds and summarise each metric.

    python3 perfbench/collect.py --workload isolate-cold --seeds 1-10

Runs the benchmark command of BENCHMARK.json untraced, with its
run_seconds, once per seed, one at a time, each in a fresh process.  Then
prints for every end-to-end metric its median, quartiles, spread
(interquartile distance as a share of the median, from
`statistics.quantiles(values, n=4)`) and bound.  The raw results and the
summary are written as JSON under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"attempted={result['attempted']} wall={wall:.1f}s", flush=True)

    summary = {"wall_s": summarise([r["wall_s"] for r in runs])}
    for name in runs[0]["metrics"]:
        summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
    for name, s in summary.items():
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"{name:48s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
              f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}{note}")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"collect-{args.workload}-{args.seeds}.json"
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
