"""Evaluation harnesses.

Two questions are supported.  How well does a prediction scheme anticipate
where capable students move next (leave-one-trace-out RMSE in the
corrected embedding, against the actual next state and the final state)?
And how well do generated hints reproduce human tutor hints (quality
ratings, exact-match fraction, raw edit distance to the nearest tutor
hint, hintable fraction)?

Prediction errors are measured in the corrected embedding (queries enter
through the Nystrom extension); tutor-hint distances use raw edit
distances.  Folds are independent; reports keep per-fold values so
significance tests can be run externally.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .editdist import CostModel, EditError, UNIT_COSTS
from .editdist import apply_edit, distance, distance_row, seq_distance, serialize_edit
from .policies import FitError, Geometry, GprModel, KernelParams, prepared_traces
from .space import NumericalError, check_mode, squared
from .states import EMPTY_CANON
from .traces import Dataset, Trace, TracePairs
from .traces import build_pairs, goal_filter  # uncalled; perfbench/tracing.py wraps these names

PREDICTION_SCHEMES = (
    "do_nothing",
    "successor_of_closest",
    "closest_correct",
    "gaussian_process",
    "nwr",
    "nn",
)

_WEIGHT_SCHEME = {"gaussian_process": "gpr", "nwr": "nwr", "nn": "nn"}

# synthetic_corpus records one state every 1 to this many steps of a walk
CORPUS_MAX_STRIDE = 3
# most matrix entries in one stack of fold geometries: of 4096 to 131072, this
# and 65536 built spaces fastest per matrix at 12 to 306 states, within noise
_STACK_ENTRIES = 32768


@dataclass(frozen=True)
class EvalReport:
    """Cross-validation or hint-quality results.

    RQ1 reports fill the per-trace RMSE fields; RQ2 reports fill the
    quality fields.  ``folds_skipped`` names held-out traces whose fold
    could not be fitted.
    """

    kind: str  # "rmse" | "quality"
    per_trace: tuple = ()  # rmse: (trace_id, rmse_next, rmse_final, n_states)
    mean_next: float = None
    std_next: float = None
    mean_final: float = None
    std_final: float = None
    folds_skipped: tuple = ()
    per_state: tuple = ()  # quality: (trace_id, step, hinted, quality, dist)
    median_quality: float = None
    mean_quality: float = None
    std_quality: float = None
    fraction_positive: float = None
    rmse_to_tutor: float = None
    hintable_fraction: float = None

    def to_dict(self) -> dict:
        summary, rows, columns = _LAYOUT[self.kind]
        out = {"kind": self.kind, **{name: getattr(self, name) for name in summary}}
        out[rows] = [dict(zip(columns, row)) for row in getattr(self, rows)]
        return out

    def csv_rows(self):
        _, rows, columns = _LAYOUT[self.kind]
        yield columns
        for row in getattr(self, rows):
            # csv writes floats by repr and None as an empty cell
            yield tuple(int(v) if isinstance(v, bool) else v for v in row)


# per report kind: its summary fields, its row field and the row's columns
_LAYOUT = {
    "rmse": (
        ("mean_next", "std_next", "mean_final", "std_final", "folds_skipped"),
        "per_trace",
        ("trace", "rmse_next", "rmse_final", "states"),
    ),
    "quality": (
        ("median_quality", "mean_quality", "std_quality", "fraction_positive",
         "rmse_to_tutor", "hintable_fraction"),
        "per_state",
        ("trace", "step", "hinted", "quality", "distance_to_tutor"),
    ),
}


def _predict_coords(model: GprModel, scheme: str, raw: np.ndarray, coords, sqdist=None) -> np.ndarray:
    """Predicted next-state coordinates of one query, or a stack of them one per row,
    under a scheme; ``sqdist`` is their :meth:`GprModel.kernel_query_sqdist`, or None."""
    if scheme == "do_nothing":
        return coords
    points = model.space.coordinates
    if scheme == "successor_of_closest":
        return points[model.closest_successor_raw_index(raw)]
    if scheme == "closest_correct":
        return points[model.closest_correct_raw_index(raw)]
    gamma = model.weights(raw, _WEIGHT_SCHEME[scheme], sqdist)
    return coords + (gamma[..., None, :] @ (points[model.pairs.successor] - points))[..., 0, :]


def _fold_geometries(flat, matrix: np.ndarray, mode: str) -> list:
    """One :class:`Geometry` per fold, which keeps its held-out states' raw
    rows as its queries for every pass; folds of one shape join one group,
    of ``_STACK_ENTRIES`` entries at most.  A held-out trace is one span,
    so both matrices are cut by deleting it."""
    folds, groups, ids, spans = [], {}, flat.trace_ids, flat.trace_spans
    lengths = [stop - start for start, stop in spans]
    for held, (start, stop) in enumerate(spans):
        cut = slice(start, stop)
        states, rest = flat.states[:start] + flat.states[stop:], lengths[:held] + lengths[held + 1 :]
        pairs = TracePairs.from_lengths(states, ids[:held] + ids[held + 1 :], rest)
        m = len(pairs)
        shape = groups.setdefault((m, len(pairs.moving_indices)), [[]])
        if (len(shape[-1]) + 1) * m * m > _STACK_ENTRIES:
            shape.append([])
        queries = np.delete(matrix[cut], cut, axis=1)
        train = np.delete(np.delete(matrix, cut, axis=0), cut, axis=1)
        folds.append(Geometry(pairs, train, mode, queries, shape[-1]))
        shape[-1].append(folds[-1])
    return folds


def loo_rmse_multi(
    dataset: Dataset,
    schemes,
    params: KernelParams = KernelParams(),
    cost: CostModel = UNIT_COSTS,
    mode: str = "clip",
    prepared: tuple = None,
) -> dict:
    """Leave-one-trace-out RMSE for several prediction schemes at once.

    Each fold's model is fitted once and shared across schemes, and so is
    each held-out state's kernel query; a fold predicts its held-out
    states in one call per scheme.  ``prepared`` is
    ``prepared_traces(dataset, cost)``, computed here when not given; its
    fold records keep each fold's geometry, its held-out states' raw rows
    and their embedding for every pass, so every later call on it fits only
    the kernel systems.  Folds of one training and kernel size (all of them
    when every trace has one length) build their geometries as one stack,
    and embed their held-out states in one pass per space, at the first
    fold model of any of them.  The training states are already canonical,
    so fold models canonicalize nothing.
    Returns a mapping scheme name -> :class:`EvalReport`.
    """
    schemes = tuple(schemes)
    for scheme in schemes:
        if scheme not in PREDICTION_SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; expected one of {PREDICTION_SCHEMES}"
            )
    if len(set(schemes)) < len(schemes):
        raise ValueError(f"each scheme may be named once, got {schemes}")
    check_mode(mode)
    if prepared is None:
        prepared = prepared_traces(dataset, cost)
    flat, matrix = prepared
    ids = flat.trace_ids
    if len(ids) < 2:
        raise FitError("leave-one-out needs at least two successful traces")
    if mode not in prepared.folds:
        prepared.folds[mode] = _fold_geometries(flat, matrix, mode)

    per_trace = {scheme: [] for scheme in schemes}
    skipped = []
    for held, ((start, stop), geometry) in enumerate(zip(flat.trace_spans, prepared.folds[mode])):
        try:  # the first fold of a group builds the group and embeds its queries
            model = GprModel(dataset.kind, geometry, cost, EMPTY_CANON, params)
            coords, sqdist = geometry.embedded()
        except (FitError, ValueError, NumericalError) as exc:
            skipped.append((ids[held], str(exc)))
            continue
        nexts, n = flat.successor[start:stop] - start, stop - start
        for scheme in schemes:
            pred = _predict_coords(model, scheme, geometry.queries, coords, sqdist)
            errs = (((pred - coords[nexts]) ** 2).sum(axis=-1), ((pred - coords[-1]) ** 2).sum(axis=-1))
            per_trace[scheme].append((ids[held], *(math.sqrt(sum(e.tolist()) / n) for e in errs), n))

    reports = {}
    for scheme, rows in per_trace.items():
        if not rows:
            held, reason = skipped[0]
            raise FitError(f"every fold was unfittable; the first, trace {held!r}: {reason}")
        errs = np.array([[row[k] for row in rows] for k in (1, 2)])  # next and final, per fold
        mean, std = errs.mean(axis=1).tolist(), errs.std(axis=1).tolist()
        reports[scheme] = EvalReport(
            "rmse", tuple(rows), mean[0], std[0], mean[1], std[1], folds_skipped=tuple(skipped)
        )
    return reports


def loo_rmse(
    dataset: Dataset,
    scheme: str,
    params: KernelParams = KernelParams(),
    cost: CostModel = UNIT_COSTS,
    mode: str = "clip",
) -> EvalReport:
    """Leave-one-trace-out next-step and final-step RMSE of one prediction
    scheme.

    Per fold, the model is fitted on all other traces; every state of the
    held-out trace is embedded as a query and the squared corrected
    distance between the predicted point and (a) the actual next state,
    (b) the trace's final state is averaged over the trace before taking
    the root.  The report carries the per-fold values and their mean and
    population standard deviation.
    """
    return loo_rmse_multi(dataset, (scheme,), params, cost, mode)[scheme]


def hint_quality(model: GprModel, tutor_hints, policy_fn) -> EvalReport:
    """Score a policy of a fitted model against tutor hints.

    Every tutor-annotated state is queried.  A hint matching any tutor edit
    for that state (serialized equality) earns the mean rating of the
    matching tutor entries, anything else earns zero.  The RMSE column is
    the raw edit distance, under ``model.cost``, between the hinted state
    and the nearest tutor-hinted state, over the states where a hint was
    produced; a distance whose square overflows is a ``ValueError``.

    ``tutor_hints`` are a dataset's :class:`~edithints.traces.TutorHint`
    entries; ``policy_fn(model, state)`` must return a
    :class:`~edithints.policies.HintResult`.
    """
    if not tutor_hints:
        raise ValueError("dataset has no tutor hints")
    grouped = {}
    for hint in tutor_hints:
        grouped.setdefault((hint.trace_id, hint.step), []).append(hint)

    per_state = []
    qualities = []
    sq_dists = []
    hinted_count = 0
    for (trace_id, step) in sorted(grouped):
        entries = grouped[(trace_id, step)]
        state = entries[0].state
        result = policy_fn(model, state)
        hinted = result.edit is not None
        quality = 0.0
        dist_to_tutor = None
        if hinted:
            hinted_count += 1
            key = serialize_edit(result.edit)
            matching = [e.quality for e in entries if serialize_edit(e.edit) == key]
            if matching:
                quality = float(np.mean(matching))
            tutor_states = []
            for entry in entries:
                try:
                    tutor_states.append(apply_edit(state, entry.edit))
                except EditError:
                    continue  # a tree edit may not apply to the canonic form
            dists = distance_row(apply_edit(state, result.edit), tutor_states, model.cost)
            if dists:
                dist_to_tutor = float(min(dists))
                sq_dists.append(float(squared(np.array(dist_to_tutor))))
        qualities.append(quality)
        per_state.append((trace_id, step, hinted, quality, dist_to_tutor))

    q = np.array(qualities)
    return EvalReport(
        kind="quality",
        per_state=tuple(per_state),
        median_quality=float(np.median(q)),
        mean_quality=float(q.mean()),
        std_quality=float(q.std()),
        fraction_positive=float((q > 0).mean()),
        rmse_to_tutor=math.sqrt(sum(sq_dists) / len(sq_dists)) if sq_dists else None,
        hintable_fraction=hinted_count / len(per_state),
    )


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    if lo == hi:
        return lo
    if not (lo > 0 and hi > lo):
        raise ValueError(f"range ({lo}, {hi}) must be positive and increasing")
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def hyper_search(
    dataset: Dataset,
    psi_range,
    noise_range,
    repeats: int = 10,
    seed: int = 0,
    cost: CostModel = UNIT_COSTS,
    mode: str = "clip",
    prepared: tuple = None,
) -> KernelParams:
    """Random hyper-parameter search: sample both parameters log-uniformly
    and keep the sample with the lowest mean next-step RMSE of the
    Gaussian-process scheme under leave-one-out cross-validation.
    Deterministic for a fixed seed; ties keep the earlier sample.  Every
    sample reuses the fold records of the same prepared data, so each
    fold's geometry is built once: ``prepared`` is ``prepared_traces(dataset,
    cost)``, computed here when not given."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    check_mode(mode)
    if prepared is None:
        prepared = prepared_traces(dataset, cost)
    rng = random.Random(seed)
    best = None
    for _ in range(repeats):
        params = KernelParams(
            length_scale=_log_uniform(rng, *psi_range),
            noise_std=_log_uniform(rng, *noise_range),
        )
        scheme = "gaussian_process"
        reports = loo_rmse_multi(dataset, (scheme,), params, cost, mode, prepared)
        score = reports[scheme].mean_next
        if best is None or score < best[0]:
            best = (score, params)
    return best[1]


def synthetic_corpus(
    seed: int,
    n_traces: int = 20,
    base_solution="abcdefghijkl",
    goal_variants: bool = True,
    min_missing: int = 4,
    max_missing: int = 9,
) -> Dataset:
    """Seeded corpus of noisy goal-directed sequence traces.

    Mimics an open-ended task: each trace heads for its own small variation
    of a base solution (``goal_variants``), starts at a random corruption
    of that goal (symbols dropped, some substituted), and walks to it by
    applying, at each step, a random applicable edit of the current
    shortest edit script.  Only every ``1..CORPUS_MAX_STRIDE``-th state is
    recorded, like students whose states are saved sparsely.  Every
    recorded state is strictly closer to the goal than the previous one,
    so the traces are goal-directed but take varied paths through a mostly
    unrepeated state space.
    """
    rng = random.Random(seed)
    base = tuple(base_solution)
    alphabet = sorted(set(base))
    traces = []
    for t in range(n_traces):
        goal = base
        if goal_variants:
            for _ in range(rng.randint(1, 2)):
                pos = rng.randrange(len(goal))
                other = rng.choice([s for s in alphabet if s != goal[pos]])
                goal = goal[:pos] + (other,) + goal[pos + 1 :]
        k = rng.randint(min_missing, min(max_missing, len(goal) - 1))
        drop = set(rng.sample(range(len(goal)), k))
        state = tuple(s for i, s in enumerate(goal) if i not in drop)
        for _ in range(rng.randint(0, 2)):
            pos = rng.randrange(len(state))
            wrong = rng.choice([s for s in alphabet if s != state[pos]])
            state = state[:pos] + (wrong,) + state[pos + 1 :]
        states = [state]
        guard = 0
        while state != goal:
            guard += 1
            if guard > 20 * len(goal):
                raise AssertionError("corpus walk failed to reach the goal")
            stride = rng.randint(1, CORPUS_MAX_STRIDE)
            for _ in range(stride):
                if state == goal:
                    break
                d_here, script = seq_distance(state, goal)
                options = list(script.edits)
                rng.shuffle(options)
                for edit in options:
                    try:
                        nxt = apply_edit(state, edit)
                    except EditError:
                        continue
                    if distance(nxt, goal) < d_here:
                        state = nxt
                        break
            states.append(state)
        traces.append(Trace(f"trace{t:02d}", tuple(states), True))
    return Dataset("sequence", tuple(traces))
