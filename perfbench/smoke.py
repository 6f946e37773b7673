"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced for one second on the
default seed, whose answers are checked against the stored references.
Each run must print every metric BENCHMARK.json names, with its unit, and
fail no operation.  ``perfbench/metrics.json`` must describe exactly those
names.  Finally a copy of the benchmark without the package source must
exit non-zero without printing a result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as handle:
        described = json.load(handle)
    problems = []
    for group in ("end_to_end", "per_layer"):
        names = {m["name"] for m in spec[group]}
        if names != set(described[group]):
            problems.append(f"metrics.json {group} differs: {sorted(names ^ set(described[group]))}")
    if {w["name"] for w in spec["workloads"]} != set(described["workloads"]):
        problems.append("metrics.json workloads differ from BENCHMARK.json")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{what}: metrics or units differ from BENCHMARK.json")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{what}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{what}: failed {result['failed']} of {result['attempted']}")
            if "reference_checked\": true" not in proc.stdout:
                problems.append(f"{what}: answers were not checked against the reference")
            print(f"ok {what}: {result['attempted']} checked operations", flush=True)

    bare = os.path.join(HERE, "results", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the package source the benchmark did not fail cleanly")
    else:
        print(f"ok without the package source: exit {proc.returncode}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
