"""Hint policies.

The embedding policy predicts where capable students moved from states
similar to the query, as a weighted combination of training states, then
translates that combination back into a single concrete edit:

1. kernel regression (Gaussian-process, Nadaraya-Watson, or 1-NN) yields
   weights ``gamma`` over the training pairs with actual movement;
2. the weights convert to per-state coefficients ``alpha`` by telescoping
   along each trace (start: -gamma_i, intermediate: gamma_{i-1} - gamma_i,
   end: gamma_{i-1});
3. the coefficients are sparsified to at most ``m_max`` states lying
   between the query and the closest correct solution;
4. candidate edits are collected from the shortest edit scripts toward the
   positively weighted states and scored by
   ``d(edit(x), x)^2 + sum_i alpha_i d(edit(x), x_i)^2``
   with raw edit distances; the lowest score wins.

Kernel values are computed from eigenvalue-corrected distances over the
regression inputs (the moving-pair source states): correcting makes those
distances Euclidean, which is what keeps the radial basis kernel matrix
positive semi-definite; on raw edit distances it generally is not.  A
second corrected space over all trace states carries everything else
geometric: the sparsification target, distances between weighted
combinations, and the choice of the closest correct solution.

Baseline policies: closest-correct-solution (first edit toward it),
successor-of-closest (first edit toward the closest state's successor in
its trace), and a seeded random-reference policy.

Fitted models are immutable; every hint query is pure and reproducible.
At its first hint a model annotates (trees) or packs (unit-cost
sequences) its training states for the edit distances, once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .editdist import (
    CostModel,
    DistanceMemo,
    EditError,
    UNIT_COSTS,
    apply_edit,
    distance,
    distance_and_script,
    distance_row,
    pairwise_distances,
    serialize_edit,
    edit_to_dict,
)
from .space import CorrectedSpace, NumericalError, QueryEmbedding, squared
from .states import CanonConfig, EMPTY_CANON, canonicalize_state
from .traces import Dataset, TracePairs, build_pairs, goal_filter

DEFAULT_M_MAX = 11
KERNEL_DECAY_NORM = 1e-6
_TIE_EPS = 1e-9
# How far, relative to the Gram scale, a screened sparsification error may
# sit from its exact refit.  It dwarfs the greedy step's 1e-15 tie rule.
_SCREEN_SLACK = 1e-9


class FitError(ValueError):
    """The dataset cannot support a fitted model."""


def rbf(d2, length_scale: float):
    """Radial basis kernel exp(-0.5 d^2 / psi^2) on squared distances."""
    return np.exp(-0.5 * np.asarray(d2, dtype=float) / (length_scale * length_scale))


@dataclass(frozen=True)
class KernelParams:
    length_scale: float = 1.0
    noise_std: float = 0.0

    def __post_init__(self):
        # the kernel uses the squares: finite, and non-zero for the length scale
        psi, noise = self.length_scale, self.noise_std
        if not (psi > 0 and 0 < psi * psi < math.inf):
            raise ValueError(f"length_scale must be positive with a finite square, got {psi}")
        if not (noise >= 0 and math.isfinite(noise * noise)):
            raise ValueError(f"noise_std must be non-negative with a finite square, got {noise}")


@dataclass(frozen=True)
class HintResult:
    """A policy's answer for one query state.

    ``edit`` is None when the policy declines (``reason`` says why);
    ``candidates`` lists every scored candidate for audit; ``alpha_used``
    holds the state coefficients that justified the choice (embedding
    policies only).
    """

    edit: object
    objective: float
    candidates: tuple  # tuple[(edit, score)]
    alpha_used: object = None  # np.ndarray over training states
    sparsified: bool = False
    reason: str = None

    def to_dict(self) -> dict:
        return {
            "edit": None if self.edit is None else edit_to_dict(self.edit),
            "objective": self.objective,
            "candidates": [
                {"edit": edit_to_dict(e), "objective": s} for e, s in self.candidates
            ],
            "alpha": None if self.alpha_used is None else [float(a) for a in self.alpha_used],
            "sparsified": self.sparsified,
            "reason": self.reason,
        }


class Geometry:
    """What a model fits before any kernel parameter: the training pairs,
    their raw pairwise edit distances and the correction mode.  The first
    :meth:`spaces` call builds the corrected embedding over all trace
    states and the kernel's own corrected space over the regression inputs
    (the moving pairs' source states), so that the kernel matrix is a
    Gaussian kernel on genuine Euclidean points.  Every model of one
    geometry shares that build; a failed build raises its error again at
    every later call, without a second attempt."""

    def __init__(self, pairs: TracePairs, dist_raw: np.ndarray, mode: str):
        if dist_raw.shape != (len(pairs), len(pairs)):
            raise ValueError(f"expected {len(pairs)}x{len(pairs)} distances, got {dist_raw.shape}")
        self.pairs, self.dist_raw, self.mode = pairs, dist_raw, mode
        self.kernel_indices = pairs.moving_indices.tolist()
        self._built = None  # the built spaces, or the error of their build

    def spaces(self) -> tuple:
        """``(space, kernel_space, kernel_sqdist)``: both corrected spaces
        and the kernel space's corrected squared distances."""
        if self._built is None:
            idx = self.kernel_indices
            try:
                space = CorrectedSpace(squared(self.dist_raw), self.mode)
                kernel = CorrectedSpace(squared(self.dist_raw[np.ix_(idx, idx)]), self.mode)
                self._built = (space, kernel, kernel.corrected_sqdist())
            except (ValueError, NumericalError) as exc:
                self._built = exc
        if isinstance(self._built, Exception):  # a fresh traceback at every raise
            raise self._built.with_traceback(None)
        return self._built


class GprModel:
    """A fitted hint model over goal-filtered successful traces: a
    :class:`Geometry` and, from the kernel parameters, the kernel system
    ``(K + noise^2 I)`` over the pairs with actual movement."""

    def __init__(
        self, kind: str, geometry: Geometry, cost: CostModel, canon: CanonConfig, params: KernelParams
    ):
        self.kind, self.cost, self.canon, self.params = kind, cost, canon, params
        self.pairs, self.dist_raw, self.mode = geometry.pairs, geometry.dist_raw, geometry.mode
        self.kernel_indices = geometry.kernel_indices
        self.space, self.kernel_space, kernel_sqdist = geometry.spaces()
        self.kernel_matrix = rbf(kernel_sqdist, params.length_scale)
        self.used_pseudo_inverse = False
        self._prepare_solver()
        self._base_memo = None  # the training states annotated or packed, at the first hint

    def _prepare_solver(self):
        """The operator (K + noise^2 I)^-1 that every GPR query multiplies
        by: from the Cholesky factor when it is well conditioned, else the
        Moore-Penrose pseudo-inverse."""
        n = len(self.kernel_indices)
        a = self.kernel_matrix + self.params.noise_std**2 * np.eye(n)
        try:
            chol = np.linalg.cholesky(a)
            # reject factorizations that are numerically meaningless
            diag = np.diag(chol)
            if n and float(np.min(diag)) < 1e-10 * float(np.max(diag)):
                raise np.linalg.LinAlgError("ill-conditioned")
            chol_inv = np.linalg.solve(chol, np.eye(n))
            self._inverse = chol_inv.T @ chol_inv
        except np.linalg.LinAlgError:
            # duplicate training states make K singular at zero noise
            self._inverse = np.linalg.pinv(a, rcond=1e-10)
            self.used_pseudo_inverse = True

    # -- query-side quantities ---------------------------------------------

    def hint_memo(self) -> DistanceMemo:
        """A memo for the distances of one hint, started from the base memo
        that annotates (trees) or packs (unit-cost sequences) the training
        states at the first hint; what the hint adds goes with its memo."""
        if self._base_memo is None:
            base = DistanceMemo()
            if self.kind == "tree":
                base.trie(self.pairs.states, self.cost)
            elif self.cost.is_unit:
                base.pack(self.pairs.states)
            self._base_memo = base
        return DistanceMemo(self._base_memo)

    def query_raw_distances(self, state, memo: DistanceMemo) -> np.ndarray:
        """Raw edit distances from ``state`` to every training state,
        through ``memo``, a :meth:`hint_memo`."""
        return np.array(distance_row(state, self.pairs.states, self.cost, memo))

    def embed_query(self, raw_distances: np.ndarray) -> QueryEmbedding:
        return self.space.extend(raw_distances**2)

    def kernel_query_sqdist(self, raw_distances: np.ndarray) -> np.ndarray:
        """Corrected squared distances from a query to the regression
        inputs: the eigenvalue correction extended to the new distances."""
        q = self.kernel_space.extend(raw_distances[self.kernel_indices] ** 2)
        return np.maximum(self.kernel_space.query_sqdist(q), 0.0)

    def weights(self, raw_distances: np.ndarray, scheme: str, sqdist: np.ndarray = None) -> np.ndarray:
        """Regression weights ``gamma`` over the pairs, zero at the final
        self-pairs, from one kernel query: ``sqdist``, the query's
        :meth:`kernel_query_sqdist`, computed here when not given.

        ``gpr``: the Gaussian-process weights k(x) (K + noise^2 I)^-1.
        ``nwr``: the kernel values normalized to sum to one; all zeros when
        every kernel value underflowed (a no-prediction signal).  ``nn``:
        weight one on the closest regression input in corrected distance;
        the lowest pair index within a relative ``_TIE_EPS`` wins.
        """
        if scheme not in ("gpr", "nwr", "nn"):
            raise ValueError(f"unknown weight scheme {scheme!r}")
        idx = self.kernel_indices
        gamma = np.zeros(len(self.pairs))
        if not idx:
            return gamma
        d = self.kernel_query_sqdist(raw_distances) if sqdist is None else sqdist
        if scheme == "nn":
            best = float(np.min(d))
            for pos, i in enumerate(idx):  # ties: lowest pair index wins
                if d[pos] <= best + _TIE_EPS * (1.0 + best):
                    gamma[i] = 1.0
                    break
            return gamma
        k = rbf(d, self.params.length_scale)
        total = float(k.sum())
        if scheme == "gpr":
            gamma[idx] = self._inverse @ k
        elif total != 0.0:
            gamma[idx] = k / total
        return gamma

    def closest_correct_index(self, corrected_sqdist_to_states: np.ndarray) -> int:
        """Index of the end state closest to the query in the corrected
        space; values within a relative ``_TIE_EPS`` tie, and ties break
        toward the lowest trace id, then dataset order."""
        return self._closest_end(corrected_sqdist_to_states, relative=True)

    def closest_correct_raw_index(self, raw_distances: np.ndarray) -> int:
        """Index of the end state closest to the query in raw edit
        distance; values within an absolute ``_TIE_EPS`` tie, and ties break
        as in :meth:`closest_correct_index`."""
        return self._closest_end(raw_distances, relative=False)

    def closest_successor_raw_index(self, raw_distances: np.ndarray) -> int:
        """Index of the successor in its trace of the training state closest
        to the query in raw edit distance (the state itself when it is
        final); the first state within an absolute ``_TIE_EPS`` of the
        minimum is the closest."""
        best = float(np.min(raw_distances))
        nearest = int(np.flatnonzero(raw_distances <= best + _TIE_EPS)[0])
        return int(self.pairs.successor[nearest])

    def _closest_end(self, values: np.ndarray, relative: bool) -> int:
        ends = self.pairs.end_indices.tolist()
        if not ends:
            raise FitError("model has no end states")
        best = min(float(values[i]) for i in ends)
        limit = best + _TIE_EPS * ((1.0 + abs(best)) if relative else 1.0)
        return min(
            (tid, i) for tid, i in zip(self.pairs.trace_ids, ends) if float(values[i]) <= limit
        )[1]


class Prepared(tuple):
    """``(pairs, dist_raw)`` of :func:`prepared_traces`.  ``folds`` maps a
    correction mode to the leave-one-out fold records that evaluations on
    this data fill at first use and share, ``{held-out trace index:
    (train ids, Geometry, held-out queries)}``; they live as long as it."""

    def __new__(cls, pairs: TracePairs, dist_raw: np.ndarray):
        out = super().__new__(cls, (pairs, dist_raw))
        out.folds = {}
        return out


def prepared_traces(dataset: Dataset, cost: CostModel = UNIT_COSTS) -> Prepared:
    """The training data that fitting and evaluation share: the
    goal-filtered successful traces as pairs, and the raw edit distances
    between their states.  Each trace's distances to its goal are one
    :func:`distance_row`."""
    successful = dataset.successful_traces()
    if not successful:
        raise FitError("dataset has no successful traces to learn from")
    pairs = build_pairs(
        goal_filter(t, distance_row(t.states[-1], t.states[:-1], cost)) for t in successful
    )
    return Prepared(pairs, pairwise_distances(pairs.states, cost))


def fit_model(
    dataset: Dataset,
    cost: CostModel = UNIT_COSTS,
    canon: CanonConfig = EMPTY_CANON,
    params: KernelParams = KernelParams(),
    mode: str = "clip",
    prepared: tuple = None,
) -> GprModel:
    """Fit a hint model on the prepared traces: the corrected spaces and
    the kernel system.  ``prepared`` is ``prepared_traces(dataset, cost)``,
    computed here when not given."""
    pairs, dist_raw = prepared_traces(dataset, cost) if prepared is None else prepared
    return GprModel(dataset.kind, Geometry(pairs, dist_raw, mode), cost, canon, params)


def alpha_from_gamma(gamma: np.ndarray, pairs: TracePairs) -> np.ndarray:
    """Convert pair weights to state coefficients by telescoping each trace.

    The represented point phi(x) + sum_i gamma_i (phi(y_i) - phi(x_i))
    equals phi(x) + sum_i alpha_i phi(x_i); the coefficients always sum to
    zero.  Self-pair weights (trace ends) drop out because their edit
    vectors are zero.
    """
    gamma = np.asarray(gamma, dtype=float)
    m = len(pairs)
    if gamma.shape != (m,):
        raise ValueError(f"gamma must have length {m}")
    moving = pairs.moving_indices
    alpha = np.zeros(m)
    alpha[moving] = -gamma[moving]
    alpha[pairs.successor[moving]] += gamma[moving]
    return alpha


# ---------------------------------------------------------------------------
# sparsification


def _bordered(block: np.ndarray) -> np.ndarray:
    """The bordered KKT matrix ``[[G_AA, 1], [1^T, 0]]`` of a Gram block."""
    k = len(block)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = block
    kkt[k, k] = 0.0
    return kkt


def _affine_ls(gram: np.ndarray, target: np.ndarray, cols) -> tuple:
    """Least squares over ``cols`` with coefficients summing to one.

    Minimizes (c - t)^T G (c - t) where c is supported on ``cols``;
    returns the coefficients and the achieved squared error.
    """
    k = len(cols)
    sub = gram[np.ix_(cols, cols)]
    rhs = gram[cols, :] @ target
    kkt = _bordered(sub)
    vec = np.append(rhs, 1.0)
    sol = np.linalg.lstsq(kkt, vec, rcond=None)[0]
    coef = sol[:k]
    err = float(coef @ sub @ coef - 2.0 * coef @ rhs + target @ gram @ target)
    return coef, err


def _screen(gram, pull, offset, active, cols, best_err, flat_tol):
    """Estimated squared error of the refit ``active + [j]`` for every j in
    ``cols``, from one solve against the bordered KKT matrix
    ``[[G_AA, 1], [1^T, 0]]`` of the active states.

    ``pull`` is G t and ``offset`` is t^T G t.  Candidate j's Schur
    complement s_j is its squared distance to the affine hull of the active
    states, and adding it lowers the error by g_j^2 / s_j.  An estimate is
    NaN where s_j is at most ``flat_tol`` or the solve fails.
    """
    diag = np.diag(gram)[cols]
    if not active:  # one state takes the whole weight
        return diag - 2.0 * pull[cols] + offset
    k = len(active)
    kkt = _bordered(gram[active][:, active])
    border = np.ones((k + 1, len(cols) + 1))  # candidate columns, then the fit's right side
    border[:k, :-1] = gram[active][:, cols]
    border[:k, -1] = pull[active]
    est = np.full(len(cols), np.nan)
    try:
        sol = np.linalg.solve(kkt, border)
    except np.linalg.LinAlgError:
        return est
    if not np.all(np.isfinite(sol)):
        return est
    schur = diag - np.einsum("ij,ij->j", border[:, :-1], sol[:, :-1])
    gap = pull[cols] - sol[:, -1] @ border[:, :-1]
    ok = schur > flat_tol
    est[ok] = best_err - gap[ok] ** 2 / schur[ok]
    return est


class _ScreenMiss(Exception):
    """A refit missed its screened estimate by more than one slack."""


def _greedy(gram, target, allowed, m_max, scale, screened):
    """The greedy run of :func:`sparsify`: its states, coefficients and error."""
    pull = gram @ target
    offset = float(target @ pull)
    slack = _SCREEN_SLACK * scale

    def refit(cols, estimate):
        coef, err = _affine_ls(gram, target, cols)
        if abs(err - estimate) > slack:  # never for a NaN estimate
            raise _ScreenMiss
        return coef, err

    active, remaining = [], list(allowed)
    best_err, best_coef = math.inf, None  # best_coef None: best_err is an estimate
    for _ in range(min(m_max, len(allowed))):
        if screened:
            est = _screen(gram, pull, offset, active, remaining, best_err, slack)
        else:
            est = np.full(len(remaining), np.nan)
        known = ~np.isnan(est)
        low = float(np.min(est[known])) if known.any() else math.inf
        # with every estimate within one slack of its exact error, those
        # left out lie more than two slacks above the lowest exact error;
        # a candidate with no estimate (NaN) is never left out
        picks = [(j, e) for j, e in zip(remaining, est) if not e > low + 4.0 * slack]
        if len(picks) == 1 and known.any():  # a clear winner, taken on its estimate
            fits = {picks[0][0]: (None, low)}
        else:
            fits = {j: refit(active + [j], e) for j, e in picks}
        step_best = None
        for j, (coef, err) in fits.items():
            if step_best is None or err < step_best[1] - 1e-15:
                step_best = (j, err, coef)
        j, err, coef = step_best
        if err >= best_err - 1e-12 * scale - 2.0 * slack:  # near the stop margin
            if best_coef is None and active:
                best_coef, best_err = refit(active, best_err)
            if coef is None:
                coef, err = refit(active + [j], err)
            if err >= best_err - 1e-12 * scale:
                break
        active.append(j)
        remaining.remove(j)
        best_err, best_coef = err, coef
    if best_coef is None and active:
        best_coef, best_err = refit(active, best_err)
    return active, best_coef, best_err


def sparsify(
    model: GprModel,
    alpha: np.ndarray,
    query: QueryEmbedding,
    allowed,
    m_max: int = DEFAULT_M_MAX,
):
    """Approximate the represented point with at most ``m_max`` states.

    The target is phi(x) + sum_i alpha_i phi(x_i); the approximation is an
    affine combination (coefficients summing to one) supported inside
    ``allowed``.  Two heuristics compete: greedy forward selection with a
    sum-constrained least-squares refit per step, and renormalizing the
    ``m_max`` largest coefficients of ``alpha`` inside the support;
    whichever lands closer to the target is returned.

    Each greedy step screens every candidate (:func:`_screen`) and trusts
    each estimate to within one slack (``_SCREEN_SLACK`` times the Gram
    scale) of its least-squares refit.  It refits only where a decision
    lies within that trust: the candidates within four slacks of the
    lowest estimate, unless one stands alone, and those with no estimate;
    and at a stop test within two slacks of its ``1e-12`` margin, the
    winner and the accepted states.  The final coefficients are one refit
    of the final support, the input of the refit that accepted its last
    state.  A refit that misses its estimate by more than one slack reruns
    the greedy run refitting every candidate at every step.  So the
    support, the coefficients and the stop are those of refitting every
    candidate at every step.

    Returns the coefficients ``alpha_tilde``; raises ``ValueError`` when
    ``allowed`` is empty.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    alpha = np.asarray(alpha, dtype=float)
    m = len(model.pairs)
    allowed = sorted(set(int(i) for i in allowed))
    if not allowed:
        raise ValueError("sparsify needs a non-empty allowed support")

    gram = model.space.extended_gram(query)
    target = np.append(alpha, 1.0)
    scale = max(1.0, float(np.max(np.abs(np.diag(gram)))))

    # heuristic 1: greedy forward selection with affine refit
    try:
        active, best_coef, best_err = _greedy(gram, target, allowed, m_max, scale, True)
    except _ScreenMiss:
        active, best_coef, best_err = _greedy(gram, target, allowed, m_max, scale, False)
    greedy = np.zeros(m)
    greedy[active] = best_coef

    # heuristic 2: largest coefficients of alpha inside the support
    ranked = sorted(
        (i for i in allowed if abs(alpha[i]) > 1e-12),
        key=lambda i: (-abs(alpha[i]), i),
    )[:m_max]
    top = None
    top_err = math.inf
    if ranked:
        total = float(alpha[ranked].sum())
        if abs(total) > 1e-12:
            top = np.zeros(m)
            top[ranked] = alpha[ranked] / total
            v = np.append(top, 0.0) - target
            top_err = float(v @ gram @ v)

    if top is not None and top_err < best_err:
        return top
    return greedy


# ---------------------------------------------------------------------------
# candidate extraction and pre-image selection


def candidate_edits(x, positive_states, cost: CostModel, memo: DistanceMemo):
    """Union of edits from the shortest edit scripts x -> state, one entry
    per serialized form, sorted for determinism.  The scripts' distances
    go through ``memo``.

    Later script edits may address positions that only exist after earlier
    edits were applied; those cannot be offered as a next step and are
    dropped."""
    # equal edits serialize equally, so each distinct edit is serialized once
    seen = {}
    for state in positive_states:
        seen.update(dict.fromkeys(distance_and_script(x, state, cost, memo)[1].edits))
    out = []
    for edit in sorted(seen, key=serialize_edit):
        try:
            apply_edit(x, edit)
        except EditError:
            continue
        out.append(edit)
    return out


def _tie_key(edit):
    if hasattr(edit, "path"):  # tree edits: closest to the root wins
        return (len(edit.path), serialize_edit(edit))
    return (edit.position, serialize_edit(edit))


def preimage_objective(sq_to_x: float, sq_to_support, weights) -> float:
    """The pre-image score of one candidate: squared distance to the query
    plus the coefficient-weighted squared distances to the support states.

    For coefficient vectors summing to zero this differs from the squared
    distance to the represented point by a candidate-independent constant,
    so score differences equal direct embedding-distance differences.
    """
    return float(sq_to_x + np.dot(weights, sq_to_support))


def score_candidates(x, candidates, support_states, weights, cost: CostModel, memo: DistanceMemo):
    """Score each candidate edit by d(e(x), x)^2 + sum_i w_i d(e(x), s_i)^2
    using raw edit distances, all through ``memo``."""
    weights = np.asarray(weights, dtype=float)
    targets = list(support_states) + [x]
    scored = []
    for edit in candidates:
        sq = [d**2 for d in distance_row(apply_edit(x, edit), targets, cost, memo)]
        scored.append((edit, preimage_objective(sq[-1], sq[:-1], weights)))
    return scored


def preimage_select(x, alpha, candidates, model: GprModel, memo: DistanceMemo) -> HintResult:
    """Pick the candidate edit minimizing the pre-image objective, scored
    through ``memo`` (see :func:`score_candidates`).

    Scores within a relative ``_TIE_EPS`` of the lowest tie, so rounding
    in the embedding cannot decide; ties break toward the edit closest to
    the root (trees) or the smallest position (sequences), then by
    serialized form.  The result does not depend on the candidate order.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not candidates:
        return HintResult(None, None, (), alpha_used=alpha, reason="no-candidates")
    nz = [int(i) for i in np.flatnonzero(np.abs(alpha) > 1e-12)]
    scored = score_candidates(
        x, candidates, [model.pairs.states[i] for i in nz], alpha[nz], model.cost, memo
    )
    lowest = min(score for _, score in scored)
    limit = lowest + _TIE_EPS * (1.0 + abs(lowest))
    # every score up to the limit ranks as the limit: the tie key decides
    scored.sort(key=lambda pair: (max(pair[1], limit), _tie_key(pair[0])))
    best_edit, best_score = scored[0]
    return HintResult(best_edit, best_score, tuple(scored), alpha_used=alpha)


# ---------------------------------------------------------------------------
# the embedding hint policy and the baselines


def chf_hint(
    model: GprModel,
    state,
    m_max: int = DEFAULT_M_MAX,
    scheme: str = "gpr",
) -> HintResult:
    """Full pipeline: canonicalize, embed, regress, convert weights,
    sparsify, extract candidates, select the pre-image edit.

    Declines (edit None, reason "kernel-decay") when the query is so far
    from all training data that the regression weights vanish.  The query
    row, the candidate scripts and the scoring share one
    :meth:`GprModel.hint_memo`.
    """
    x = canonicalize_state(state, model.canon)
    memo = model.hint_memo()
    raw = model.query_raw_distances(x, memo)
    squared(raw)  # the embedding squares the row: a square that overflows is a ValueError
    gamma = model.weights(raw, scheme)
    if float(np.linalg.norm(gamma)) < KERNEL_DECAY_NORM:
        return HintResult(None, None, (), reason="kernel-decay")
    alpha = alpha_from_gamma(gamma, model.pairs)
    query = model.embed_query(raw)
    star = model.closest_correct_index(model.space.query_sqdist(query))
    limit = raw[star] + _TIE_EPS
    allowed = [
        i
        for i in range(len(model.pairs))
        if raw[i] <= limit and model.dist_raw[i, star] <= limit
    ]
    # allowed holds star: raw[star] <= limit and dist_raw[star, star] = 0
    alpha_tilde = sparsify(model, alpha, query, allowed, m_max)
    positives = [int(i) for i in np.flatnonzero(alpha_tilde > 1e-12)]
    candidates = candidate_edits(x, [model.pairs.states[i] for i in positives], model.cost, memo)
    return replace(preimage_select(x, alpha_tilde, candidates, model, memo), sparsified=True)


def _first_edit_toward(
    model: GprModel, x, ref_index: int, reason_when_equal: str, memo: DistanceMemo
) -> HintResult:
    ref = model.pairs.states[ref_index]
    script = distance_and_script(x, ref, model.cost, memo)[1]
    if not script.edits:
        return HintResult(None, None, (), reason=reason_when_equal)
    edit = script.edits[0]
    after = distance(apply_edit(x, edit), ref, model.cost, memo)
    return HintResult(edit, float(after), ((edit, float(after)),))


def zimmerman_hint(model: GprModel, state) -> HintResult:
    """First edit on the shortest script toward the closest correct
    solution (raw edit distance; ties toward the lowest trace id)."""
    x = canonicalize_state(state, model.canon)
    memo = model.hint_memo()
    star = model.closest_correct_raw_index(model.query_raw_distances(x, memo))
    return _first_edit_toward(model, x, star, "at-solution", memo)


def gross_hint(model: GprModel, state) -> HintResult:
    """First edit toward the successor-in-trace of the closest training
    state (the state itself when it is final)."""
    x = canonicalize_state(state, model.canon)
    memo = model.hint_memo()
    successor = model.closest_successor_raw_index(model.query_raw_distances(x, memo))
    return _first_edit_toward(model, x, successor, "at-reference", memo)


def random_hint(model: GprModel, state, seed: int) -> HintResult:
    """First edit toward a uniformly chosen training state; deterministic
    for a fixed seed."""
    x = canonicalize_state(state, model.canon)
    rng = random.Random(seed)
    ref = rng.randrange(len(model.pairs))
    return _first_edit_toward(model, x, ref, "at-reference", model.hint_memo())


POLICY_NAMES = ("chf", "nwr", "nn", "zimmerman", "gross", "random")
# the embedding policies and the weight scheme each regresses with
_CHF_SCHEMES = {"chf": "gpr", "nwr": "nwr", "nn": "nn"}


def hint_by_policy(
    model: GprModel,
    state,
    policy: str,
    seed: int = None,
    m_max: int = DEFAULT_M_MAX,
) -> HintResult:
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    if policy in _CHF_SCHEMES:
        return chf_hint(model, state, m_max, _CHF_SCHEMES[policy])
    if policy == "zimmerman":
        return zimmerman_hint(model, state)
    if policy == "gross":
        return gross_hint(model, state)
    if policy == "random":
        if seed is None:
            raise ValueError("the random policy requires an explicit seed")
        return random_hint(model, state, seed)
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
