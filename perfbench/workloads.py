"""The benchmark workloads and the checks on their answers.

``seq-serve`` and ``tree-serve`` fit a model through ``edithints fit`` and
then serve ``chf`` hints to one closed-loop client: each request (the text
of a student's state) is sent only after the previous answer arrived, as a
tutor front-end does.  They also time ``edithints hint`` as a process of
its own, model load included.  ``seq-eval`` is a researcher's job on a
small corpus: a random hyper-parameter search followed by leave-one-out
evaluation of every prediction scheme; its operations are the
leave-one-out folds.  Every round of a run works on a corpus of its own.

An operation fails when it raises, or when its answer breaks a check: a
hint's edit must apply to the query, its objective must be finite, a
repeated query must get the same answer, and on the default seed the
answer must match the stored reference.

Every timed operation is scaled by the host's speed next to it; see
``speed.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import numpy as np

from edithints import cli, evaluate, policies, states, traces
from edithints.editdist import apply_edit, serialize_edit

import corpora
from speed import Gauge
from tracing import Tracer, per_layer_metrics

MIN_OPS = 100  # p90 needs ten samples beyond it
EXTRA_SECONDS = 60  # how far a slow machine may overrun --seconds to reach MIN_OPS folds
REL_TOL = 1e-6  # objectives and RMSE means may differ from the reference by rounding
EVAL_PSI, EVAL_NOISE, EVAL_REPEATS = (0.5, 5.0), (0.01, 1.0), 2

# A run takes turns in ``rounds``: each round generates a corpus of its own,
# fits it, spends its share of the operations on it and times ``cli`` CLI
# processes.  How costly a hint or a fold is depends much more on the
# fitted corpus than on the query, so a run's timings pool many small
# corpora.  Sizes in traces of corpora.STATES_PER_TRACE states: 48, 32 and
# 32 training states per corpus; 24 and 16 queries per corpus.
WORKLOADS = {
    "seq-serve": dict(
        kind="sequence", traces=12, query_traces=6, rounds=10, cli=1, psi=3.0, noise=0.3
    ),
    "tree-serve": dict(kind="tree", traces=8, query_traces=4, rounds=8, cli=1, psi=2.0, noise=0.3),
    "seq-eval": dict(kind="sequence", traces=8, query_traces=0, rounds=8, cli=1, psi=2.0, noise=0.3),
}
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class Corpus:
    """The inputs of one round on disk: dataset, fit arguments, model
    file, and the texts of the queries."""

    def __init__(self, dataset: str, fit_argv: list, model: str, queries: list):
        self.dataset = dataset
        self.fit_argv = fit_argv
        self.model = model
        self.queries = queries


class Run:
    """One benchmark run: its inputs on disk, its checks and its numbers."""

    def __init__(self, workload: str, seed: int, seconds: int, workdir: str, src: str):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.src = src
        self.attempted = 0
        self.failures = []
        self.samples = {}  # metric name -> sample count behind it
        self.answers = {}  # (round, query index), or round, -> first answer seen
        self.digests = {}  # round -> digests of every model file it wrote
        self.cli_calls = 0
        self.gauge = Gauge()
        self.reference = _load_reference(workload, seed)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def attempt(self, what: str, fn, *args):
        """Run one operation; an exception is a failed operation."""
        try:
            return fn(*args)
        except Exception as exc:  # the run goes on and reports the failure
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    # -- inputs and set-up --------------------------------------------------

    def make_inputs(self, rounds: int = None):
        """Generate and write the corpus of each round; round ``r`` draws
        from the seed ``"<seed>.<r>"``."""
        spec = self.spec
        self.rounds = [
            self._corpus(r, f"{self.seed}.{r}") for r in range(rounds or spec["rounds"])
        ]

    def _corpus(self, r: int, seed: str) -> Corpus:
        spec = self.spec
        if spec["kind"] == "tree":
            data, queries = corpora.tree_corpus(seed, spec["traces"], spec["query_traces"])
            extra = {"cost": corpora.tree_cost().to_dict(), "canon": corpora.TREE_CANON.to_dict()}
        else:
            data, queries = corpora.sequence_corpus(seed, spec["traces"], spec["query_traces"])
            extra = {}
        dataset = self._write(f"dataset{r}.json", data)
        model = os.path.join(self.workdir, f"model{r}.json")
        argv = ["fit", "--dataset", dataset]
        for flag, value in extra.items():
            argv += [f"--{flag}", self._write(f"{flag}.json", value)]
        argv += ["--psi", repr(spec["psi"]), "--noise", repr(spec["noise"]), "--out", model]
        return Corpus(dataset, argv, model, queries)

    def _write(self, name: str, obj) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        return path

    def fit(self, r: int) -> float:
        """``edithints fit`` of round ``r``'s corpus in this process:
        dataset load, goal filter, fit and model file.  Returns its time."""
        corpus = self.rounds[r]
        start = perf_counter()
        code = cli.main(corpus.fit_argv)
        elapsed = perf_counter() - start
        self.check(code == 0, f"fit {r} exited with {code}")
        with open(corpus.model, "rb") as handle:
            self.digests.setdefault(r, set()).add(hashlib.sha256(handle.read()).hexdigest())
        return elapsed

    # -- serving --------------------------------------------------------------

    def hint(self, model, r: int, k: int):
        """One request: parse the query text, answer it, check the answer."""
        start = perf_counter()
        state = states.parse_state(self.rounds[r].queries[k], self.spec["kind"])
        result = policies.chf_hint(model, state)
        elapsed = perf_counter() - start
        x = states.canonicalize_state(state, model.canon)
        if result.edit is None:
            answer = [None, None, result.reason]
            ok = result.reason is not None
        else:
            apply_edit(x, result.edit)  # raises when the edit does not apply
            answer = [serialize_edit(result.edit), result.objective, None]
            ok = math.isfinite(result.objective)
        self.check(ok and self._same(r, k, answer), f"hint {r}.{k}: {answer}")
        return elapsed

    def _same(self, r: int, k: int, answer) -> bool:
        first = self.answers.setdefault((r, k), answer)
        if not _close(first, answer):
            return False
        if self.reference is not None:
            return _close(self.reference["answers"][r][k], answer)
        return True

    def serve(self, model, r: int, budget: float, min_ops: int = 0, count: int = None) -> list:
        """Closed loop over round ``r``'s queries in order, cycling.  Stops
        after ``count`` requests or, without a count, after as many whole
        passes over the queries as fill ``budget`` seconds at the first
        pass's pace, and at least ``min_ops`` requests; so every query
        counts as often as any other however fast the machine is.  Returns
        the latency of each answered request with the index of the probe
        taken before it."""
        queries = self.rounds[r].queries
        latencies = []
        start = perf_counter()
        sent = 0
        while count is None or sent < count:
            if count is None and sent == len(queries):
                passes = round(budget / (perf_counter() - start))
                count = max(passes, -(-min_ops // len(queries)), 1) * len(queries)
                continue
            k = sent % len(queries)
            index = self.gauge.tick()
            lat = self.attempt(f"hint {r}.{k}", self.hint, model, r, k)
            if lat is not None:
                latencies.append((lat, index))
            sent += 1
        return latencies

    def cli_call(self, r: int) -> float:
        """One CLI process of the workload's user on round ``r``'s corpus:
        ``edithints hint``, model load included, whose answer must equal
        the in-process answer; or ``edithints dist``, whose matrix must
        equal the fitted model's.  Returns its wall time."""
        if self.name == "seq-eval":
            return self._cli_dist(r)
        # a different student's last state each time: its hint costs least
        # and varies least, so the process start and the model load dominate
        queries = self.rounds[r].queries
        k = ((self.cli_calls + 1) * corpora.STATES_PER_TRACE - 1) % len(queries)
        self.cli_calls += 1
        argv = ["hint", "--model", self.rounds[r].model, "--state", queries[k]]
        elapsed, out = self._cli(argv)
        if out is not None:
            answer = json.loads(out)
            edit = answer["edit"]
            got = [
                None if edit is None else json.dumps(edit, sort_keys=True, separators=(",", ":")),
                answer["objective"],
                answer["reason"],
            ]
            self.check(_close(self.answers.get((r, k), got), got), f"CLI hint {r}.{k}: {got}")
        return elapsed

    def _cli(self, argv):
        env = dict(os.environ, PYTHONPATH=self.src)
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "edithints.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        elapsed = perf_counter() - start
        ok = proc.returncode == 0
        self.check(ok, f"CLI {argv[0]} exited with {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return elapsed, (proc.stdout if ok else None)

    # -- evaluation -------------------------------------------------------------

    def eval_job(self, dataset, r: int):
        """Hyper-parameter search, then leave-one-out RMSE of every scheme,
        on the corpus of round ``r``."""
        # every round samples its own kernel parameters, so that a run's
        # folds spread over many of them
        start = perf_counter()
        params = evaluate.hyper_search(
            dataset, EVAL_PSI, EVAL_NOISE, repeats=EVAL_REPEATS, seed=f"{self.seed}.{r}.search"
        )
        reports = evaluate.loo_rmse_multi(dataset, evaluate.PREDICTION_SCHEMES, params)
        elapsed = perf_counter() - start
        answer = {
            "params": [params.length_scale, params.noise_std],
            "schemes": {s: [r.mean_next, r.mean_final] for s, r in reports.items()},
        }
        finite = all(math.isfinite(v) for pair in answer["schemes"].values() for v in pair)
        first = self.answers.setdefault(r, answer)
        ok = finite and _close(first, answer)
        if self.reference is not None:
            ok = ok and _close(self.reference["answers"][r], answer)
        self.check(ok, f"eval job {r}: {answer}")
        # the search runs one leave-one-out pass per sample, over the same folds
        folds = len(dataset.successful_traces()) * (EVAL_REPEATS + 1)
        return elapsed, folds

    def _cli_dist(self, r: int) -> float:
        corpus = self.rounds[r]
        elapsed, out = self._cli(["dist", "--dataset", corpus.dataset])
        if out is not None:
            with open(corpus.model, encoding="utf-8") as handle:
                expected = np.array(json.load(handle)["dist_raw"])
            rows = [line.split(",")[1:] for line in out.strip().splitlines()[1:]]
            got = np.array(rows, dtype=float)
            self.check(np.array_equal(got, expected), f"CLI dist {r} differs from the model's")
        return elapsed


@contextmanager
def fold_clock(laps: list, gauge: Gauge):
    """Time every leave-one-out fold of ``loo_rmse_multi``.  The fold loop
    has no hook of its own, so take a probe and start a fold's clock where
    ``evaluate`` builds each fold's model; a fold lasts until the next
    build or the end of its leave-one-out run.  Each lap is its time with
    the index of the probe before it."""
    build, loo = evaluate.GprModel, evaluate.loo_rmse_multi
    fold = []  # start and probe index of the fold under way
    counting = []

    def close():
        if fold:
            laps.append((perf_counter() - fold[0], fold[1]))
            fold.clear()

    def marked_build(*args, **kwargs):
        close()
        index = gauge.tick()  # the hyper-parameter search's folds are probed too
        if counting:
            fold[:] = [perf_counter(), index]
        return build(*args, **kwargs)

    def marked_loo(*args, **kwargs):
        counting.append(True)
        try:
            return loo(*args, **kwargs)
        finally:
            close()
            counting.clear()

    evaluate.GprModel, evaluate.loo_rmse_multi = marked_build, marked_loo
    try:
        yield
    finally:
        evaluate.GprModel, evaluate.loo_rmse_multi = build, loo


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    return a == b


def _load_reference(workload: str, seed: int):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        ref = json.load(handle)
    return ref if ref["seed"] == seed else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timing(latencies) -> dict:
    return {
        "op_ms_p50": 1e3 * float(np.percentile(latencies, 50)),
        "op_ms_p90": 1e3 * float(np.percentile(latencies, 90)),
        "ops_per_s": len(latencies) / sum(latencies),
    }


# -- the runs ---------------------------------------------------------------------


def measure(run: Run) -> dict:
    """End-to-end metrics of one untraced run, each time scaled by the
    host's speed around it.  ``run.unscaled`` gets the same timings as
    measured."""
    run.make_inputs()
    gauge = run.gauge
    # every timing is (seconds, index of the probe before it[, of the last
    # probe taken inside it])
    setups, cli_times, latencies, laps, jobs = [], [], [], [], []
    folds = 0
    rounds = len(run.rounds)
    budget = run.seconds / rounds
    min_ops = -(-MIN_OPS // rounds)
    for r, corpus in enumerate(run.rounds):
        index = gauge.tick()
        setups.append((run.fit(r), index))
        if r == 0:
            run.cli_call(r)  # warm-up: file caches fill, not timed
        if run.name == "seq-eval":
            dataset = traces.load_dataset(corpus.dataset)
            spent, done_folds = 0.0, 0
            with fold_clock(laps, gauge):
                while spent < budget or (
                    done_folds < min_ops and spent < budget + EXTRA_SECONDS / rounds
                ):
                    first, probing = gauge.tick(), gauge.spent
                    done = run.attempt(f"eval job {r}", run.eval_job, dataset, r)
                    if done is None:
                        break
                    # the job's time without the probes taken inside it
                    job = done[0] - (gauge.spent - probing)
                    jobs.append((job, first, len(gauge.probes) - 1))
                    spent += job
                    done_folds += done[1]
            folds += done_folds
        else:
            model = cli.load_model(corpus.model)
            latencies += run.serve(model, r, budget, min_ops)
        for _ in range(run.spec["cli"]):
            index = gauge.tick()
            cli_times.append((run.cli_call(r), index))
    run.fit(0)  # a refit must write the same model file
    run.check(all(len(d) == 1 for d in run.digests.values()), "refits wrote different model files")
    gauge.tick()  # the last operation's probe after it

    def timings(scale) -> dict:
        def scaled(timed):
            return [scale(*t) for t in timed]

        if run.name == "seq-eval":
            metrics = _timing(scaled(laps))
            metrics["ops_per_s"] = folds / sum(scaled(jobs))
        else:
            metrics = _timing(scaled(latencies))
        metrics["setup_s"] = median(scaled(setups))
        metrics["cli_s"] = median(scaled(cli_times))
        return metrics

    metrics = timings(gauge.scale)
    run.unscaled = timings(lambda seconds, *probes: seconds)
    ops = laps if run.name == "seq-eval" else latencies
    run.samples.update(
        op_ms_p50=len(ops),
        op_ms_p90=len(ops),
        ops_per_s=folds if run.name == "seq-eval" else len(ops),
        setup_s=len(setups),
        cli_s=len(cli_times),
        model_bytes=rounds,
        probes=len(gauge.probes),
    )
    metrics["model_bytes"] = median(os.path.getsize(c.model) for c in run.rounds)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def measure_traced(run: Run, spans_path: str) -> dict:
    """Per-layer metrics, on the first round's corpus: one traced set-up,
    then a fixed set of operations, each run untraced and traced in turn,
    in alternating order, so that drift of the machine and warm caches
    cancel out of the tracing overhead, then three traced model loads."""
    run.make_inputs(rounds=1)
    corpus = run.rounds[0]
    tracer = Tracer()
    with tracer.on():
        run.fit(0)
    untraced = traced = 0.0
    if run.name == "seq-eval":
        dataset = traces.load_dataset(corpus.dataset)
        untraced, _ = run.eval_job(dataset, 0)
        with tracer.on(0):
            traced, ops = run.eval_job(dataset, 0)
        hints = 0
    else:
        model = cli.load_model(corpus.model)
        hints = ops = len(corpus.queries)  # a fixed set, so traced counts repeat exactly
        for k in range(hints):
            for trace in (k % 2, 1 - k % 2):
                if trace:
                    with tracer.on(k):
                        traced += run.attempt(f"traced hint {k}", run.hint, model, 0, k) or 0.0
                else:
                    untraced += run.attempt(f"hint {k}", run.hint, model, 0, k) or 0.0
    with tracer.on():
        for _ in range(3):
            cli.load_model(corpus.model)
    tracer.write(spans_path)
    return per_layer_metrics(tracer, hints, ops, traced, traced / untraced - 1.0)


def reference_answers(run: Run) -> dict:
    """Answers to every query of every round of the run's seed, for the
    reference file."""
    run.make_inputs()
    run.reference = None
    answers = []
    for r, corpus in enumerate(run.rounds):
        run.fit(r)
        if run.name == "seq-eval":
            run.eval_job(traces.load_dataset(corpus.dataset), r)
            answers.append(run.answers[r])
        else:
            run.serve(cli.load_model(corpus.model), r, 0.0, count=len(corpus.queries))
            answers.append([run.answers[(r, k)] for k in range(len(corpus.queries))])
    return {"seed": run.seed, "answers": answers}
