"""Self-test of the benchmark itself, at smoke size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at smoke size, untraced and traced,
each in a fresh process, and fails unless:

* the last stdout line has exactly the keys correct/attempted/failed/metrics,
  reports correct outputs and no failed op, and names exactly the metrics
  BENCHMARK.json declares for that mode, each with its declared unit;
* the tracer wraps every public function of every layer module (or lists it
  as deliberately excluded) and every function a per-layer metric reads;
* the benchmark exits non-zero without printing a result when the program's
  sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def check_result(bench: dict, workload: str, trace: int) -> list[str]:
    cmd = [*bench["command"], "--workload", workload, "--seed", "1", "--seconds", "0.5",
           "--trace", str(trace), "--scale", "smoke"]
    done = run(cmd, ROOT)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
        problems += [f"{where}: {line}" for line in done.stdout.splitlines()
                     if line.startswith(("FAILED", "digest", "tracer"))]
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        wrong = sorted(n for n in set(declared) & set(emitted) if declared[n] != emitted[n])
        problems.append(f"{where}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
    for name, metric in result.get("metrics", {}).items():
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: {name} is not a number")
    return problems


def check_coverage() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    return tracing.coverage_problems(tracer)


def check_refuses_without_sources(bench: dict) -> list[str]:
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work_dir))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = bench["workloads"][0]["name"]
        done = run([*bench["command"], "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return ["the benchmark ran without the program's sources"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            problems += check_result(bench, workload["name"], trace)
            print(f"checked {workload['name']} trace={trace}", flush=True)
    problems += check_coverage()
    problems += check_refuses_without_sources(bench)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
