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
At its first hint a model builds the columns of its training states for
the edit distances (see :meth:`DistanceMemo.columns`), once.
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
    distance_rows,
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
# sit from its exact refit; the greedy step's margins are four slacks.
_SCREEN_SLACK = 1e-9


class FitError(ValueError):
    """The dataset cannot support a fitted model."""


def _first_lowest(values: np.ndarray, relative: bool) -> np.ndarray:
    """Per row, the first index within a relative or absolute ``_TIE_EPS`` of the lowest."""
    best = values.min(axis=-1, keepdims=True)
    limit = best + _TIE_EPS * ((1.0 + abs(best)) if relative else 1.0)
    return (values <= limit).argmax(axis=-1)


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
    Gaussian kernel on genuine Euclidean points, and embeds ``queries``,
    raw distances from outside states to the training states, one row each,
    which it keeps for every later reader.  Every model of one geometry
    shares that build; a failed build raises its error again at every later
    call, without a second attempt.

    Geometries of one shape that each hold the ``group`` list of them all
    are built as one stack, bitwise each one's lone build on SkylakeX and
    Haswell kernels, at the first :meth:`spaces` call of any; if the stack
    fails, each builds alone."""

    def __init__(self, pairs: TracePairs, dist_raw: np.ndarray, mode: str, queries=None, group=None):
        if dist_raw.shape != (len(pairs), len(pairs)):
            raise ValueError(f"expected {len(pairs)}x{len(pairs)} distances, got {dist_raw.shape}")
        self.pairs, self.dist_raw, self.mode, self.queries = pairs, dist_raw, mode, queries
        self.kernel_indices = pairs.moving_indices.tolist()
        ends = pairs.end_indices  # in the order ties break: by trace id, then index
        self.end_order = ends[np.lexsort((ends, pairs.trace_ids))]
        self._group = group  # those built with this one: a reference cycle until the build
        self._built = None  # the built spaces and embedded queries, or the error of their build

    def spaces(self) -> tuple:
        """``(space, kernel_space, kernel_sqdist)``: both corrected spaces
        and the kernel space's corrected squared distances."""
        if self._built is None:
            _build(self._group or [self])
        if isinstance(self._built, Exception):  # a fresh traceback at every raise
            raise self._built.with_traceback(None)
        return self._built[:3]

    def embedded(self) -> tuple:
        """The queries' corrected coordinates and :meth:`GprModel.kernel_query_sqdist`."""
        self.spaces()
        return self._built[3:]


def _build(group: list):
    """A lone geometry (fit, load, hints) builds from its own 2-D matrices."""
    one, first = len(group) == 1, group[0]
    join = (lambda arrays, axis=0: arrays[0]) if one else np.stack
    try:
        space = CorrectedSpace(squared(join([g.dist_raw for g in group])), first.mode)
        ix = [np.ix_(g.kernel_indices, g.kernel_indices) for g in group]
        kernel = CorrectedSpace(squared(join([g.dist_raw[i] for g, i in zip(group, ix)])), first.mode)
        built = [space, kernel, kernel.corrected_sqdist()]
        if first.queries is not None:  # a query square that overflows fails the build
            coords = space.extend(squared(join([g.queries for g in group], -2))).coords
            q = kernel.extend(join([g.queries[:, g.kernel_indices] for g in group], -2) ** 2)
            sqdist = np.maximum(kernel.query_sqdist(q), 0.0)
            built += [np.moveaxis(x, -2, 0) for x in (coords, sqdist)]  # members first
    except (ValueError, NumericalError) as exc:
        if one:
            first._built, first._group = exc, None
        else:  # each alone, so that a failure stays with its own geometry
            for g in group:
                _build([g])
        return
    for i, g in enumerate(group):
        g._built = tuple(built) if one else tuple(p[i] for p in built)
        g._group = None


class GprModel:
    """A fitted hint model over goal-filtered successful traces: a
    :class:`Geometry` and, from the kernel parameters, the kernel system
    ``(K + noise^2 I)`` over the pairs with actual movement."""

    def __init__(
        self, kind: str, geometry: Geometry, cost: CostModel, canon: CanonConfig, params: KernelParams
    ):
        self.kind, self.cost, self.canon, self.params = kind, cost, canon, params
        self.pairs, self.dist_raw, self.mode = geometry.pairs, geometry.dist_raw, geometry.mode
        self.kernel_indices, self._ends = geometry.kernel_indices, geometry.end_order
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
            chol_inv = np.linalg.inv(chol)
            self._inverse = chol_inv.T @ chol_inv
        except np.linalg.LinAlgError:
            # duplicate training states make K singular at zero noise
            self._inverse = np.linalg.pinv(a, rcond=1e-10)
            self.used_pseudo_inverse = True

    # -- query-side quantities: of one query, or of a stack of them, one per row

    def hint_memo(self) -> DistanceMemo:
        """A memo for the distances of one hint, started from the base memo
        that builds the columns of the training states (their pack or their
        trie) at the first hint; what the hint adds goes with its memo."""
        if self._base_memo is None:
            base = DistanceMemo()
            base.columns(self.pairs.states, self.cost)
            self._base_memo = base
        return DistanceMemo(self._base_memo)

    def query_raw_distances(self, state, memo: DistanceMemo) -> np.ndarray:
        """Raw edit distances from ``state`` to every training state,
        through ``memo``, a :meth:`hint_memo`."""
        return np.array(distance_rows((state,), self.pairs.states, self.cost, memo)[0])

    def embed_query(self, raw_distances: np.ndarray) -> QueryEmbedding:
        return self.space.extend(raw_distances**2)

    def kernel_query_sqdist(self, raw_distances: np.ndarray) -> np.ndarray:
        """Corrected squared distances from a query to the regression
        inputs: the eigenvalue correction extended to the new distances."""
        q = self.kernel_space.extend(raw_distances[..., self.kernel_indices] ** 2)
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
        gamma = np.zeros(np.shape(raw_distances))
        if not idx:
            return gamma
        d = self.kernel_query_sqdist(raw_distances) if sqdist is None else sqdist
        if scheme == "nn":  # ties: lowest pair index wins
            pos = _first_lowest(d, relative=True)
            np.put_along_axis(gamma, np.array(idx)[pos][..., None], 1.0, axis=-1)
            return gamma
        k = rbf(d, self.params.length_scale)
        if scheme == "gpr":
            gamma[..., idx] = (self._inverse @ k[..., None])[..., 0]
        else:
            total = k.sum(axis=-1, keepdims=True)
            gamma[..., idx] = k / np.where(total == 0.0, 1.0, total)
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
        return self.pairs.successor[_first_lowest(raw_distances, relative=False)].tolist()

    def _closest_end(self, values: np.ndarray, relative: bool) -> int:
        if not len(self._ends):
            raise FitError("model has no end states")
        values = np.asarray(values)[..., self._ends]
        return self._ends[_first_lowest(values, relative)].tolist()


class Prepared(tuple):
    """``(pairs, dist_raw)`` of :func:`prepared_traces`.  ``folds`` maps a
    correction mode to the leave-one-out fold records that evaluations on
    this data fill at first use and share, one :class:`Geometry` per fold
    that keeps the held-out states' raw rows as its queries for every pass;
    they live as long as it."""

    def __new__(cls, pairs: TracePairs, dist_raw: np.ndarray):
        out = super().__new__(cls, (pairs, dist_raw))
        out.folds = {}
        return out


def prepared_traces(dataset: Dataset, cost: CostModel = UNIT_COSTS) -> Prepared:
    """The training data that fitting and evaluation share: the
    goal-filtered successful traces as pairs, and the raw edit distances
    between their states.  Each trace's distances to its goal are one
    :func:`distance_rows` row."""
    successful = dataset.successful_traces()
    if not successful:
        raise FitError("dataset has no successful traces to learn from")
    pairs = build_pairs(
        goal_filter(t, distance_rows((t.states[-1],), t.states[:-1], cost)[0]) for t in successful
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


def _affine_ls(gram: np.ndarray, target: np.ndarray, cols) -> tuple:
    """Least squares over ``cols`` with coefficients summing to one.

    Minimizes (c - t)^T G (c - t) where c is supported on ``cols``;
    returns the coefficients and the achieved squared error.
    """
    k = len(cols)
    sub = gram[np.ix_(cols, cols)]
    rhs = gram[cols, :] @ target
    kkt = np.ones((k + 1, k + 1))  # the bordered KKT matrix [[G_AA, 1], [1^T, 0]]
    kkt[:k, :k] = sub
    kkt[k, k] = 0.0
    vec = np.append(rhs, 1.0)
    sol = np.linalg.lstsq(kkt, vec, rcond=None)[0]
    coef = sol[:k]
    err = float(coef @ sub @ coef - 2.0 * coef @ rhs + target @ gram @ target)
    return coef, err


class _Screen:
    """Estimated squared errors of the fits ``active + [j]`` over the
    allowed states ``cols``, kept across one greedy run; ``pull`` is G t
    and ``offset`` is t^T G t.  The greedy run decides on these estimates.

    Candidate j's Schur complement s_j is its squared distance to the affine
    hull of the active states, and adding it lowers the error by g_j^2 / s_j,
    where g_j is its gap.  Accepting j* updates both by one rank-one step on
    the cross terms c = G[j*] - solution[:, j*] . border, and appends c to
    ``border`` and c / s* to ``solution``.
    """

    def __init__(self, gram, pull, offset, cols, steps, flat_tol):
        self.cols, self.flat_tol = np.asarray(cols), flat_tol
        self.gram = gram[np.ix_(self.cols, self.cols)]  # the allowed states' rows, indexed once
        self.diag, self.pull = np.diag(self.gram), pull[self.cols]
        self.single = self.diag - 2.0 * self.pull + offset  # one state takes the whole weight
        self.schur = self.gap = None
        self.border, self.solution = np.empty((2, steps + 1, len(cols)))
        self.rows = 0

    def estimates(self, open_, best_err) -> list:
        """Python floats for the positions ``open_``; NaN where s_j is not
        above ``flat_tol``, and so everywhere once a pivot has failed."""
        if self.schur is None:
            return self.single[open_].tolist()
        s, g, tol = self.schur.tolist(), self.gap.tolist(), self.flat_tol
        return [best_err - g[p] * g[p] / s[p] if s[p] > tol else math.nan for p in open_]

    def accept(self, p):
        """Update s and g for the acceptance of ``cols[p]``."""
        row, r = self.gram[p], self.rows
        if r == 0:  # the rows of a's bordered KKT matrix [[G_aa, 1], [1, 0]]
            g_aa = row[p]
            self.schur = self.diag - 2.0 * row + g_aa
            self.gap = self.pull - row - (self.pull[p] - g_aa)
            self.border[0], self.border[1] = row, 1.0
            self.solution[0], self.solution[1] = 1.0, row - g_aa
        elif 0.0 < self.schur[p] < math.inf:
            cross = row - self.solution[:r, p] @ self.border[:r]
            sol = cross / self.schur[p]
            self.schur -= cross * sol
            self.gap -= self.gap[p] * sol
            self.border[r], self.solution[r] = cross, sol
        else:  # a pivot that is not positive and finite (or NaN, once one was)
            self.schur[:] = math.nan
        self.rows = r + 1 if r else 2


def _greedy(gram, target, allowed, m_max, scale):
    """The greedy run of :func:`sparsify`: its coefficients over every state, and its error."""
    pull = gram @ target
    slack = _SCREEN_SLACK * scale
    steps = min(m_max, len(allowed))
    screen = _Screen(gram, pull, float(target @ pull), allowed, steps, slack)
    active, remaining = [], list(range(len(allowed)))  # remaining: positions in allowed
    err = math.inf
    for _ in range(steps):
        est = screen.estimates(remaining, err)
        low = min((e for e in est if not math.isnan(e)), default=math.inf)
        if not low < err - 4.0 * slack:
            break
        # the lowest index within four slacks stands for its copies
        p, err = next((p, e) for p, e in zip(remaining, est) if e <= low + 4.0 * slack)
        active.append(allowed[p])
        remaining.remove(p)
        screen.accept(p)
    coef = np.zeros(len(gram) - 1)  # the extended Gram matrix's last row is the query's
    coef[active], err = _affine_ls(gram, target, active)
    return coef, err


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
    ``allowed``.  Two heuristics compete: greedy forward selection of
    states for a sum-constrained least-squares fit, and renormalizing the
    ``m_max`` largest coefficients of ``alpha`` inside the support;
    whichever lands closer to the target is returned.

    The greedy run decides on the error estimates of :class:`_Screen`,
    which keeps each candidate's Schur complement and gap by one rank-one
    step per accepted state; a slack is ``_SCREEN_SLACK`` times the Gram
    scale.  Each step stops unless the lowest estimate lies more than four
    slacks below the current error, and otherwise accepts, on its
    estimate, the lowest-index candidate within four slacks of the lowest,
    so the lowest index stands for its copies.  A candidate on the affine
    hull of the active states (a copy of one) has no estimate and is never
    taken; after a failed pivot no candidate has one, and the run ends.
    The coefficients and the error are one least-squares solve of the
    final support.

    Returns ``alpha_tilde``; raises ``ValueError`` when ``allowed`` is empty.
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

    # heuristic 1: greedy forward selection, one affine fit of its support
    greedy, best_err = _greedy(gram, target, allowed, m_max, scale)

    # heuristic 2: largest coefficients of alpha inside the support
    ranked = sorted(
        (i for i in allowed if abs(alpha[i]) > 1e-12),
        key=lambda i: (-abs(alpha[i]), i),
    )[:m_max]
    total = float(alpha[ranked].sum())  # 0 when nothing ranks
    if abs(total) > 1e-12:
        top = np.zeros(m)
        top[ranked] = alpha[ranked] / total
        v = np.append(top, 0.0) - target
        if float(v @ gram @ v) < best_err:
            return top
    return greedy


# ---------------------------------------------------------------------------
# candidate extraction and pre-image selection


def candidate_edits(x, positive_states, cost: CostModel, memo: DistanceMemo):
    """Union of edits from the shortest edit scripts x -> state, one entry
    per serialized form, sorted for determinism, each with the state e(x)
    it makes.  The scripts' distances go through ``memo``.

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
            out.append((edit, apply_edit(x, edit)))
        except EditError:
            continue
    return out


def _tie_key(edit):
    if hasattr(edit, "path"):  # tree edits: closest to the root wins
        return (len(edit.path), serialize_edit(edit))
    return (edit.position, serialize_edit(edit))


def score_candidates(x, candidates, support_states, weights, cost: CostModel, memo: DistanceMemo):
    """Score each candidate ``(e, e(x))`` of :func:`candidate_edits` by
    d(e(x), x)^2 + sum_i w_i d(e(x), s_i)^2 using raw edit distances, every
    e(x) against the support states and x in one :func:`distance_rows` pass
    through ``memo``, so that the forests the candidates share with x and
    with each other fill once.  A square that overflows is a ``ValueError``.

    For coefficients summing to zero the score differs from the squared
    distance to the represented point by a candidate-independent constant,
    so score differences equal direct embedding-distance differences."""
    w = np.asarray(weights, dtype=float)
    edited = [state for _, state in candidates]
    rows = distance_rows(edited, list(support_states) + [x], cost, memo)
    sq = squared(np.array(rows).reshape(len(edited), len(w) + 1))
    scores = (sq[:, None, :-1] @ w[:, None])[:, 0, 0] + sq[:, -1]  # each row one dot, as np.dot
    return [(edit, score) for (edit, _), score in zip(candidates, scores.tolist())]


def preimage_select(x, alpha, candidates, model: GprModel, memo: DistanceMemo) -> HintResult:
    """Pick, among the candidates of :func:`candidate_edits`, the edit
    minimizing the pre-image objective, scored through ``memo`` (see
    :func:`score_candidates`).

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
    allowed = np.flatnonzero((raw <= limit) & (model.dist_raw[:, star] <= limit)).tolist()
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


def check_hint_args(policy: str, seed: int, m_max: int):
    """The checks of :func:`hint_by_policy` that need no model; ``ValueError`` on a fault."""
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    if policy == "random" and seed is None:
        raise ValueError("the random policy requires an explicit seed")


def hint_by_policy(
    model: GprModel,
    state,
    policy: str,
    seed: int = None,
    m_max: int = DEFAULT_M_MAX,
) -> HintResult:
    check_hint_args(policy, seed, m_max)
    if policy in _CHF_SCHEMES:
        return chf_hint(model, state, m_max, _CHF_SCHEMES[policy])
    if policy == "zimmerman":
        return zimmerman_hint(model, state)
    if policy == "gross":
        return gross_hint(model, state)
    if policy == "random":
        return random_hint(model, state, seed)
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
