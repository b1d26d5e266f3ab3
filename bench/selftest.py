"""Self-test of the benchmark on seconds-long variants of every workload.

    python3 bench/selftest.py

Each workload runs through bench/run.py with ``--tiny``: twice untraced
(seeds 1 and 2) and once traced (seed 1).  It checks that every metric named
in BENCHMARK.json is emitted with its unit, that every op passes its output
checks, and that another seed changes the inputs but not the metric set.
Exits 1 on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = ROOT / ".bench_run" / f"{workload}-tiny-s{seed}-t{trace}" / "result.json"
    return result, json.loads(detail.read_text())


def problems_in(result: dict, expected: dict) -> list:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"ops failed: {result['failed']} of {result['attempted']}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        wrong = sorted(n for n in set(units) & set(expected) if units[n] != expected[n])
        problems.append(f"metrics missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            problems.append(f"{name}: value {m['value']!r} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        seen = {}
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            result, detail = run(workload, seed, trace)
            for problem in problems_in(result, expected[trace]):
                failures.append(f"{workload} seed {seed} trace {trace}: {problem}")
            seen[seed, trace] = (detail["inputs_sha256"], set(result["metrics"]))
        if seen[1, 0][0] == seen[2, 0][0]:
            failures.append(f"{workload}: seeds 1 and 2 gave identical inputs")
        if seen[1, 0][0] != seen[1, 1][0]:
            failures.append(f"{workload}: seed 1 gave different inputs in two runs")
        if seen[1, 0][1] != seen[2, 0][1]:
            failures.append(f"{workload}: the metric set depends on the seed")
        print(f"{workload}: {'ok' if not failures else 'FAILED'}", flush=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
