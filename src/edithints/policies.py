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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .editdist import (
    CostModel,
    EditError,
    UNIT_COSTS,
    apply_edit,
    distance,
    distance_and_script,
    pairwise_distances,
    serialize_edit,
    edit_to_dict,
)
from .space import CorrectedSpace, QueryEmbedding
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


class GprModel:
    """A fitted hint model over goal-filtered successful traces.

    Holds the flattened training pairs, the raw pairwise edit distances,
    the corrected embedding over all trace states, and the kernel system
    ``(K + noise^2 I)`` over the pairs with actual movement.  The kernel
    has its own corrected space spanning only those regression inputs, so
    the kernel matrix is a Gaussian kernel on genuine Euclidean points.
    """

    def __init__(
        self,
        kind: str,
        pairs: TracePairs,
        cost: CostModel,
        canon: CanonConfig,
        params: KernelParams,
        mode: str = "clip",
        dist_raw: np.ndarray = None,
    ):
        self.kind = kind
        self.pairs = pairs
        self.cost = cost
        self.canon = canon
        self.params = params
        self.mode = mode
        if dist_raw is None:
            dist_raw = pairwise_distances(pairs.states, cost)
        if dist_raw.shape != (len(pairs), len(pairs)):
            raise ValueError(f"expected {len(pairs)}x{len(pairs)} distances, got {dist_raw.shape}")
        self.dist_raw = dist_raw
        self.space = CorrectedSpace(dist_raw**2, mode)
        self.kernel_indices = pairs.moving_indices
        idx = list(self.kernel_indices)
        self.kernel_space = CorrectedSpace(dist_raw[np.ix_(idx, idx)] ** 2, mode)
        self.kernel_matrix = rbf(self.kernel_space.corrected_sqdist(), params.length_scale)
        self.used_pseudo_inverse = False
        self._prepare_solver()

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

    def query_raw_distances(self, state) -> np.ndarray:
        return np.array([distance(state, s, self.cost) for s in self.pairs.states])

    def embed_query(self, raw_distances: np.ndarray) -> QueryEmbedding:
        return self.space.extend(raw_distances**2)

    def kernel_query_sqdist(self, raw_distances: np.ndarray) -> np.ndarray:
        """Corrected squared distances from a query to the regression
        inputs: the eigenvalue correction extended to the new distances."""
        idx = list(self.kernel_indices)
        q = self.kernel_space.extend(raw_distances[idx] ** 2)
        return np.maximum(self.kernel_space.query_sqdist(q), 0.0)

    def gpr_weights(self, raw_distances: np.ndarray) -> np.ndarray:
        """Gaussian-process weights k(x) (K + noise^2 I)^-1, placed into a
        full-length vector with zeros at the final self-pairs."""
        idx = list(self.kernel_indices)
        gamma = np.zeros(len(self.pairs))
        if idx:
            k = rbf(self.kernel_query_sqdist(raw_distances), self.params.length_scale)
            gamma[idx] = self._inverse @ k
        return gamma

    def nwr_weights(self, raw_distances: np.ndarray) -> np.ndarray:
        idx = list(self.kernel_indices)
        gamma = np.zeros(len(self.pairs))
        if not idx:
            return gamma
        k = rbf(self.kernel_query_sqdist(raw_distances), self.params.length_scale)
        total = float(k.sum())
        if total == 0.0:
            return gamma  # no-prediction signal: every kernel value underflowed
        gamma[idx] = k / total
        return gamma

    def nn_weights(self, raw_distances: np.ndarray) -> np.ndarray:
        idx = list(self.kernel_indices)
        gamma = np.zeros(len(self.pairs))
        if not idx:
            return gamma
        d = self.kernel_query_sqdist(raw_distances)
        best = float(np.min(d))
        for pos, i in enumerate(idx):  # ties: lowest pair index wins
            if d[pos] <= best + _TIE_EPS * (1.0 + best):
                gamma[i] = 1.0
                break
        return gamma

    def weights(self, raw_distances: np.ndarray, scheme: str) -> np.ndarray:
        if scheme == "gpr":
            return self.gpr_weights(raw_distances)
        if scheme == "nwr":
            return self.nwr_weights(raw_distances)
        if scheme == "nn":
            return self.nn_weights(raw_distances)
        raise ValueError(f"unknown weight scheme {scheme!r}")

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
        return self.pairs.pair_of[nearest][1]

    def _closest_end(self, values: np.ndarray, relative: bool) -> int:
        ends = self.pairs.end_indices
        if not ends:
            raise FitError("model has no end states")
        best = min(float(values[i]) for i in ends)
        limit = best + _TIE_EPS * ((1.0 + abs(best)) if relative else 1.0)
        tied = [i for i in ends if float(values[i]) <= limit]
        return min(tied, key=lambda i: (self.pairs.trace_ids[self.pairs.trace_of[i]], i))


def fit_model(
    dataset: Dataset,
    cost: CostModel = UNIT_COSTS,
    canon: CanonConfig = EMPTY_CANON,
    params: KernelParams = KernelParams(),
    mode: str = "clip",
) -> GprModel:
    """Fit a hint model: goal-filter the successful traces, build pairs,
    compute pairwise distances, the corrected space, and the kernel system.
    """
    successful = dataset.successful_traces()
    if not successful:
        raise FitError("dataset has no successful traces to learn from")
    metric = lambda a, b: distance(a, b, cost)
    filtered = tuple(goal_filter(t, metric) for t in successful)
    pairs = build_pairs(filtered)
    return GprModel(dataset.kind, pairs, cost, canon, params, mode)


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
    alpha = np.zeros(m)
    for start, stop in pairs.trace_spans:
        if stop - start > 1:
            alpha[start] = -gamma[start]
            for i in range(start + 1, stop - 1):
                alpha[i] = gamma[i - 1] - gamma[i]
            alpha[stop - 1] = gamma[stop - 2]
    return alpha


# ---------------------------------------------------------------------------
# sparsification


def _affine_ls(gram: np.ndarray, target: np.ndarray, cols) -> tuple:
    """Least squares over ``cols`` with coefficients summing to one.

    Minimizes (c - t)^T G (c - t) where c is supported on ``cols``;
    returns the coefficients and the achieved squared error.
    """
    k = len(cols)
    sub = gram[np.ix_(cols, cols)]
    rhs = gram[cols, :] @ target
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = sub
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    vec = np.zeros(k + 1)
    vec[:k] = rhs
    vec[k] = 1.0
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
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = gram[np.ix_(active, active)]
    kkt[:k, k] = kkt[k, :k] = 1.0
    border = np.ones((k + 1, len(cols) + 1))  # candidate columns, then the fit's right side
    border[:k, :-1] = gram[np.ix_(active, cols)]
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

    Each greedy step screens every candidate with one bordered solve
    (:func:`_screen`) and refits by least squares only those whose
    estimate is within four slacks (``_SCREEN_SLACK`` times the Gram
    scale) of the lowest, or that have no estimate.  The others cannot
    decide the step's ``1e-15`` tie rule; when a refit misses its estimate
    by more than one slack, the step refits every candidate.  So the
    support, the coefficients and the stop are those of refitting every
    candidate at every step.

    Returns ``(alpha_tilde, applied)``; ``applied`` is False when the
    allowed support is empty and sparsification was skipped.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    alpha = np.asarray(alpha, dtype=float)
    m = len(model.pairs)
    allowed = sorted(set(int(i) for i in allowed))
    if not allowed:
        return alpha.copy(), False

    support = [int(i) for i in np.flatnonzero(np.abs(alpha) > 1e-12)]
    if (
        len(support) <= m_max
        and set(support) <= set(allowed)
        and float(alpha.sum()) > 1e-12
    ):
        out = np.zeros(m)
        out[support] = alpha[support] / alpha[support].sum()
        return out, True

    gram = model.space.extended_gram(query)
    target = np.append(alpha, 1.0)
    scale = max(1.0, float(np.max(np.abs(np.diag(gram)))))

    # heuristic 1: greedy forward selection with affine refit
    pull = gram @ target
    offset = float(target @ pull)
    slack = _SCREEN_SLACK * scale
    active = []
    best_err = math.inf
    best_coef = None
    remaining = list(allowed)
    for _ in range(min(m_max, len(allowed))):
        est = _screen(gram, pull, offset, active, remaining, best_err, slack)
        known = ~np.isnan(est)
        low = float(np.min(est[known])) if known.any() else math.inf
        # with every estimate within one slack of its exact error, those
        # left out lie more than two slacks above the lowest exact error
        picks = [j for j, e, ok in zip(remaining, est, known) if not ok or e <= low + 4.0 * slack]
        fits = {j: _affine_ls(gram, target, active + [j]) for j in picks}
        if any(ok and j in fits and abs(fits[j][1] - e) > slack
               for j, e, ok in zip(remaining, est, known)):
            for j in set(remaining) - set(fits):
                fits[j] = _affine_ls(gram, target, active + [j])
        step_best = None
        for j in remaining:
            if j not in fits:
                continue
            coef, err = fits[j]
            if step_best is None or err < step_best[1] - 1e-15:
                step_best = (j, err, coef)
        j, err, coef = step_best
        if err >= best_err - 1e-12 * scale:
            break
        active.append(j)
        remaining.remove(j)
        best_err, best_coef = err, coef
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
        return top, True
    return greedy, True


# ---------------------------------------------------------------------------
# candidate extraction and pre-image selection


def candidate_edits(x, positive_states, cost: CostModel = UNIT_COSTS, keep=None):
    """Union of edits from the shortest edit scripts x -> state, one entry
    per serialized form, sorted for determinism.

    Later script edits may address positions that only exist after earlier
    edits were applied; those cannot be offered as a next step and are
    dropped.  ``keep`` is an optional predicate on (edit, resulting_state)
    for domain-specific filters such as syntax or unit-test checks."""
    seen = {}
    for state in positive_states:
        script = distance_and_script(x, state, cost)[1]
        for edit in script.edits:
            seen.setdefault(serialize_edit(edit), edit)
    out = []
    for key in sorted(seen):
        edit = seen[key]
        try:
            result = apply_edit(x, edit)
        except EditError:
            continue
        if keep is None or keep(edit, result):
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


def score_candidates(x, candidates, support_states, weights, cost: CostModel = UNIT_COSTS):
    """Score each candidate edit by d(e(x), x)^2 + sum_i w_i d(e(x), s_i)^2
    using raw edit distances."""
    weights = np.asarray(weights, dtype=float)
    scored = []
    for edit in candidates:
        result = apply_edit(x, edit)
        sq_support = [distance(result, s, cost) ** 2 for s in support_states]
        value = preimage_objective(distance(result, x, cost) ** 2, sq_support, weights)
        scored.append((edit, value))
    return scored


def preimage_select(x, alpha, candidates, model: GprModel) -> HintResult:
    """Pick the candidate edit minimizing the pre-image objective.

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
        x, candidates, [model.pairs.states[i] for i in nz], alpha[nz], model.cost
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
    candidate_filter=None,
) -> HintResult:
    """Full pipeline: canonicalize, embed, regress, convert weights,
    sparsify, extract candidates, select the pre-image edit.

    Declines (edit None, reason "kernel-decay") when the query is so far
    from all training data that the regression weights vanish.
    """
    x = canonicalize_state(state, model.canon)
    raw = model.query_raw_distances(x)
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
    alpha_tilde, applied = sparsify(model, alpha, query, allowed, m_max)
    positives = [int(i) for i in np.flatnonzero(alpha_tilde > 1e-12)]
    if not positives:
        return HintResult(
            None, None, (), alpha_used=alpha_tilde, sparsified=applied,
            reason="no-positive-support",
        )
    candidates = candidate_edits(
        x, [model.pairs.states[i] for i in positives], model.cost, keep=candidate_filter
    )
    result = preimage_select(x, alpha_tilde, candidates, model)
    return HintResult(
        result.edit,
        result.objective,
        result.candidates,
        alpha_used=alpha_tilde,
        sparsified=applied,
        reason=result.reason,
    )


def _first_edit_toward(model: GprModel, x, ref_index: int, reason_when_equal: str) -> HintResult:
    ref = model.pairs.states[ref_index]
    dist_value, script = distance_and_script(x, ref, model.cost)
    if not script.edits:
        return HintResult(None, None, (), reason=reason_when_equal)
    edit = script.edits[0]
    after = distance(apply_edit(x, edit), ref, model.cost)
    return HintResult(edit, float(after), ((edit, float(after)),))


def zimmerman_hint(model: GprModel, state) -> HintResult:
    """First edit on the shortest script toward the closest correct
    solution (raw edit distance; ties toward the lowest trace id)."""
    x = canonicalize_state(state, model.canon)
    star = model.closest_correct_raw_index(model.query_raw_distances(x))
    return _first_edit_toward(model, x, star, "at-solution")


def gross_hint(model: GprModel, state) -> HintResult:
    """First edit toward the successor-in-trace of the closest training
    state (the state itself when it is final)."""
    x = canonicalize_state(state, model.canon)
    successor = model.closest_successor_raw_index(model.query_raw_distances(x))
    return _first_edit_toward(model, x, successor, "at-reference")


def random_hint(model: GprModel, state, seed: int) -> HintResult:
    """First edit toward a uniformly chosen training state; deterministic
    for a fixed seed."""
    x = canonicalize_state(state, model.canon)
    rng = random.Random(seed)
    ref = rng.randrange(len(model.pairs))
    return _first_edit_toward(model, x, ref, "at-reference")


POLICY_NAMES = ("chf", "nwr", "nn", "zimmerman", "gross", "random")


def hint_by_policy(
    model: GprModel,
    state,
    policy: str,
    seed: int = None,
    m_max: int = DEFAULT_M_MAX,
    candidate_filter=None,
) -> HintResult:
    if policy == "chf":
        return chf_hint(model, state, m_max, "gpr", candidate_filter)
    if policy == "nwr":
        return chf_hint(model, state, m_max, "nwr", candidate_filter)
    if policy == "nn":
        return chf_hint(model, state, m_max, "nn", candidate_filter)
    if policy == "zimmerman":
        return zimmerman_hint(model, state)
    if policy == "gross":
        return gross_hint(model, state)
    if policy == "random":
        if seed is None:
            raise ValueError("the random policy requires an explicit seed")
        return random_hint(model, state, seed)
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
