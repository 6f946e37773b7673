"""The traced run: spans around the calls into each layer of the package.

Each wrapper replaces one public function at the place a caller looks it
up (``policies.distance``, ``evaluate.distance`` and ``editdist.distance``
are three sites of one function), or one public method on its class.
A span records the site, start, end, the span that was open when it
started and the id of the operation (hint, or eval job) it belongs to.
``numpy.linalg.lstsq`` is only counted, so its time stays in the self time
of the span that called it (``policies.sparsify``).

Spans stay in memory; :meth:`Tracer.write` saves them when the run ends.
Per-layer metrics are derived from the spans alone: self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from edithints import cli, editdist, evaluate, policies, space, states, traces

LAYERS = ("states", "editdist", "traces", "space", "policies", "evaluate", "cli")

# site module, attribute, owning layer function; classes are patched once,
# on the class, so every caller shares the site
FUNCTION_SITES = (
    (states, "parse_state", "states.parse_state"),
    (cli, "parse_state", "states.parse_state"),
    (traces, "parse_tree", "states.parse_tree"),
    (traces, "canonicalize_state", "states.canonicalize_state"),
    (policies, "canonicalize_state", "states.canonicalize_state"),
    (editdist, "distance", "editdist.distance"),
    (policies, "distance", "editdist.distance"),
    (evaluate, "distance", "editdist.distance"),
    (policies, "distance_and_script", "editdist.distance_and_script"),
    (policies, "pairwise_distances", "editdist.pairwise_distances"),
    (policies, "apply_edit", "editdist.apply_edit"),
    (traces, "load_dataset", "traces.load_dataset"),
    (cli, "load_dataset", "traces.load_dataset"),
    (policies, "goal_filter", "traces.goal_filter"),
    (evaluate, "goal_filter", "traces.goal_filter"),
    (policies, "build_pairs", "traces.build_pairs"),
    (evaluate, "build_pairs", "traces.build_pairs"),
    (cli, "build_pairs", "traces.build_pairs"),
    (space, "center", "space.center"),
    (space, "jacobi_eigh", "space.jacobi_eigh"),
    (cli, "fit_model", "policies.fit_model"),
    (policies, "alpha_from_gamma", "policies.alpha_from_gamma"),
    (policies, "sparsify", "policies.sparsify"),
    (policies, "candidate_edits", "policies.candidate_edits"),
    (policies, "score_candidates", "policies.score_candidates"),
    (policies, "preimage_select", "policies.preimage_select"),
    (policies, "chf_hint", "policies.chf_hint"),
    (evaluate, "prepared_traces", "evaluate.prepared_traces"),
    (evaluate, "hyper_search", "evaluate.hyper_search"),
    (evaluate, "loo_rmse", "evaluate.loo_rmse"),
    (evaluate, "loo_rmse_multi", "evaluate.loo_rmse_multi"),
    (cli, "main", "cli.main"),
    (cli, "model_to_dict", "cli.model_to_dict"),
    (cli, "model_from_dict", "cli.model_from_dict"),
    (cli, "load_model", "cli.load_model"),
)
METHOD_SITES = (
    (space.CorrectedSpace, "__init__", "space.CorrectedSpace.init"),
    (space.CorrectedSpace, "extend", "space.CorrectedSpace.extend"),
    (space.CorrectedSpace, "extended_gram", "space.CorrectedSpace.extended_gram"),
    (space.CorrectedSpace, "corrected_sqdist", "space.CorrectedSpace.corrected_sqdist"),
    (policies.GprModel, "__init__", "policies.GprModel.init"),
    (policies.GprModel, "query_raw_distances", "policies.query_raw_distances"),
    (policies.GprModel, "embed_query", "policies.embed_query"),
    (policies.GprModel, "weights", "policies.weights"),
    (policies.GprModel, "closest_correct_index", "policies.closest_correct_index"),
)


def _folds(reports) -> list:
    """[folds, folds skipped] of one leave-one-out run; every scheme's
    report covers the same folds."""
    report = next(iter(reports.values()))
    return [len(report.per_trace) + len(report.folds_skipped), len(report.folds_skipped)]


# what a span keeps from its call besides the times
NOTES = {
    "space.jacobi_eigh": lambda args, out: int(np.shape(args[0])[0]),
    "policies.candidate_edits": lambda args, out: len(out),
    "policies.chf_hint": lambda args, out: out.edit is not None,
    "evaluate.loo_rmse_multi": lambda args, out: _folds(out),
}


class Tracer:
    """Holds the spans of one run and switches the span wrappers on and off."""

    def __init__(self):
        self.spans = []  # [site, owner, start, end, parent, op, note]
        self.lstsq = []  # index of the open span at each lstsq call
        self.op = None  # id of the operation under way, None outside them
        self._stack = []
        self._patches = []  # (object, attribute, original, wrapper)
        for module, attr, owner in FUNCTION_SITES:
            site = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            self._add(module, attr, self._wrap(site, owner, getattr(module, attr)))
        for cls, attr, owner in METHOD_SITES:
            self._add(cls, attr, self._wrap(owner, owner, getattr(cls, attr)))
        self._add(np.linalg, "lstsq", self._count_lstsq(np.linalg.lstsq))

    def _add(self, obj, attr, wrapper):
        self._patches.append((obj, attr, getattr(obj, attr), wrapper))

    def _wrap(self, site, owner, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(owner)

        def traced(*args, **kwargs):
            span = [site, owner, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if note is not None:
                span[6] = note(args, out)
            return out

        return traced

    def _count_lstsq(self, fn):
        def counted(*args, **kwargs):
            self.lstsq.append(self._stack[-1] if self._stack else -1)
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def on(self, op=None):
        """Trace the calls made inside the block, as part of operation ``op``."""
        self.op = op
        for obj, attr, _, wrapper in self._patches:
            setattr(obj, attr, wrapper)
        try:
            yield
        finally:
            for obj, attr, original, _ in self._patches:
                setattr(obj, attr, original)
            self.op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for site, owner, start, end, parent, op, note in self.spans:
                handle.write(json.dumps([site, start, end, parent, op, note]) + "\n")


def _self_times(spans) -> list:
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def per_layer_metrics(tracer: Tracer, hints: int, ops: int, op_wall: float, overhead: float) -> dict:
    """Per-layer metrics of one traced run.

    ``hints`` is the number of traced hints (0 for the eval workload),
    ``ops`` the number of traced operations (hints, or leave-one-out
    folds), ``op_wall`` their wall time as the client measured it and
    ``overhead`` the traced against the untraced wall time of the same
    operations, minus one.
    """
    spans = tracer.spans
    own = _self_times(spans)
    by_owner = {}
    for i, s in enumerate(spans):
        by_owner.setdefault(s[1], []).append(i)

    def idx(owner, in_ops=False):
        return [i for i in by_owner.get(owner, ()) if not in_ops or spans[i][5] is not None]

    def dur(i):
        return spans[i][3] - spans[i][2]

    def mean_ms(owner):
        ids = idx(owner)
        return 1e3 * sum(dur(i) for i in ids) / len(ids) if ids else 0.0

    def per_hint(value):
        return value / hints if hints else 0.0

    def ms_per_hint(owner):
        return per_hint(1e3 * sum(dur(i) for i in idx(owner, True)))

    fits = len(idx("policies.fit_model")) + len(idx("evaluate.prepared_traces"))
    sparsify = idx("policies.sparsify")
    greedy = {spans[i][4] for i in idx("space.CorrectedSpace.extended_gram")}
    loo = idx("evaluate.loo_rmse_multi")
    folds = sum(spans[i][6][0] for i in loo)
    chf = idx("policies.chf_hint")
    in_op = [i for i, s in enumerate(spans) if s[5] is not None]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in in_op:
        layer_self[spans[i][1].split(".", 1)[0]] += own[i]
    jacobi = idx("space.jacobi_eigh")

    metrics = {
        "editdist.distance.calls_per_hint": per_hint(len(idx("editdist.distance", True))),
        "editdist.distance.us_per_call": 1e3 * mean_ms("editdist.distance"),
        "editdist.distance_and_script.calls_per_hint": per_hint(
            len(idx("editdist.distance_and_script", True))
        ),
        "editdist.distance_and_script.us_per_call": 1e3 * mean_ms("editdist.distance_and_script"),
        "editdist.pairwise_distances.ms": mean_ms("editdist.pairwise_distances"),
        "space.jacobi_eigh.calls": len(jacobi),
        "space.jacobi_eigh.ms_per_call": mean_ms("space.jacobi_eigh"),
        "space.jacobi_eigh.order_mean": (
            sum(spans[i][6] for i in jacobi) / len(jacobi) if jacobi else 0.0
        ),
        "space.center.ms": mean_ms("space.center"),
        "space.CorrectedSpace.extend.us_per_call": 1e3 * mean_ms("space.CorrectedSpace.extend"),
        "policies.GprModel.init.ms": mean_ms("policies.GprModel.init"),
        "policies.query_raw_distances.ms_per_hint": ms_per_hint("policies.query_raw_distances"),
        "policies.weights.ms_per_hint": ms_per_hint("policies.weights"),
        "policies.sparsify.ms_per_hint": ms_per_hint("policies.sparsify"),
        "policies.sparsify.lstsq_calls_per_hint": per_hint(
            sum(1 for i in tracer.lstsq if i >= 0 and spans[i][5] is not None)
        ),
        "policies.sparsify.greedy_share": (
            sum(1 for i in sparsify if i in greedy) / len(sparsify) if sparsify else 0.0
        ),
        "policies.candidate_edits.ms_per_hint": ms_per_hint("policies.candidate_edits"),
        "policies.candidate_edits.candidates_per_hint": per_hint(
            sum(spans[i][6] for i in idx("policies.candidate_edits", True))
        ),
        "policies.score_candidates.ms_per_hint": ms_per_hint("policies.score_candidates"),
        "policies.chf_hint.self_ms": 1e3 * sum(own[i] for i in chf) / len(chf) if chf else 0.0,
        "policies.chf_hint.hinted_share": (
            sum(1 for i in chf if spans[i][6]) / len(chf) if chf else 0.0
        ),
        "traces.load_dataset.ms": mean_ms("traces.load_dataset"),
        "traces.goal_filter.ms": (
            1e3 * sum(dur(i) for i in idx("traces.goal_filter")) / fits if fits else 0.0
        ),
        "states.parse_state.us_per_call": 1e3 * mean_ms("states.parse_state"),
        "states.canonicalize_state.us_per_call": 1e3 * mean_ms("states.canonicalize_state"),
        "evaluate.loo_rmse_multi.ms_per_fold": (
            1e3 * sum(dur(i) for i in loo) / folds if folds else 0.0
        ),
        "evaluate.hyper_search.ms": mean_ms("evaluate.hyper_search"),
        "evaluate.distance.calls": sum(1 for s in spans if s[0] == "evaluate.distance"),
        "evaluate.folds_skipped": sum(spans[i][6][1] for i in loo),
        "cli.load_model.ms": mean_ms("cli.load_model"),
        "cli.model_to_dict.ms": mean_ms("cli.model_to_dict"),
        "trace.overhead_share": overhead,
        "trace.accounted_share": sum(own[i] for i in in_op) / op_wall if op_wall else 0.0,
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_ms_per_op"] = 1e3 * layer_self[layer] / ops if ops else 0.0
    return metrics
