"""Benchmark of the edithints package: one workload, one run.

    python3 perfbench/run.py --workload seq-serve --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` there and fails when that is missing.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run;
``BENCHMARK.json`` at the root names both sets and their units.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics with their sample counts, the failures and the run's provenance.
A fuller result and the trace's spans go to ``perfbench/results/``.

``--write-reference`` instead stores the answers of the given seed as the
reference the benchmark checks that seed against.

All load comes from this one process and the CLI processes it starts one
at a time.  BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


def _git_commit(root: str):
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, seconds: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "edithints", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "git_commit": _git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "clients": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("seq-serve", "tree-serve", "seq-eval"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "edithints", "__init__.py")):
        print(f"run.py: no edithints package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import edithints

    if os.path.dirname(os.path.abspath(edithints.__file__)) != os.path.join(SRC, "edithints"):
        print(f"run.py: imported edithints from {edithints.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(RESULTS, f"work-{tag}")
    os.makedirs(workdir, exist_ok=True)
    run = workloads.Run(args.workload, args.seed, args.seconds, workdir, SRC)

    if args.write_reference:
        ref = workloads.reference_answers(run)
        if run.failures:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        path = os.path.join(workloads.REFERENCE_DIR, f"{args.workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(ref, handle, indent=0)
            handle.write("\n")
        print(f"wrote {path}")
        return 0

    if args.trace:
        values = workloads.measure_traced(run, os.path.join(RESULTS, f"{tag}-spans.jsonl"))
    else:
        values = workloads.measure(run)
    mismatch = sorted({m["name"] for m in wanted} ^ set(values))
    if mismatch:
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {mismatch}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = provenance(args.workload, args.seed, args.seconds)
    info["reference_checked"] = run.reference is not None
    with open(os.path.join(RESULTS, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(
            dict(
                result,
                unscaled=getattr(run, "unscaled", None),
                samples=run.samples,
                failures=run.failures,
                provenance=info,
            ),
            handle,
            indent=1,
        )

    for name, metric in metrics.items():
        count = run.samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{name:48s} {metric['value']:14.6g} {metric['unit']}{suffix}")
    for name, value in getattr(run, "unscaled", {}).items():
        print(f"{name + ' (unscaled)':48s} {value:14.6g} {metrics[name]['unit']}")
    print(f"{'fail_rate':48s} {failed / run.attempted:14.6g} share  ({failed}/{run.attempted})")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
