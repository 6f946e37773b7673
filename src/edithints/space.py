"""The distance embedding: double centering, eigenvalue correction,
out-of-sample extension and distances between weighted state combinations.

Edit distances are symmetric with zero self-distance, so the squared
distance matrix always admits a pseudo-Euclidean embedding; negative
eigenvalues of the centered Gram matrix measure how far it is from being
Euclidean.  Correcting the spectrum (clip / flip / shift) yields a proper
Euclidean space in which states are vectors and distances between weighted
combinations reduce to quadratic forms of the corrected Gram matrix.  A
query state enters through a Nystrom projection of its centered squared
distances; one equal to training state j reproduces row j of the corrected
distances (clip and flip modes).

The eigendecomposition, by LAPACK, is never stored: a saved model keeps
the raw distances and rebuilds its spaces on load.  Spaces of one size
build as a stack, one numpy call per step for all, each member bitwise
its lone build on OpenBLAS's SkylakeX and Haswell kernels (not on
Prescott's): the 8 leave-one-out folds of a benchmark seq-eval corpus
build their 28- and 21-state spaces in one call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODES = ("clip", "flip", "shift")
# how far, relative to the largest entry, a squared distance matrix may
# stray from symmetry, a zero diagonal and non-negativity
SQDIST_TOL = 1e-8
# the largest distance whose square is finite
MAX_DISTANCE = math.sqrt(np.finfo(float).max)


class NumericalError(RuntimeError):
    """Eigensolver failure or irreparably malformed numeric input."""


def squared(raw: np.ndarray) -> np.ndarray:
    """Raw distances squared; a distance whose square overflows is a
    ``ValueError``."""
    if raw.size and not raw.max() <= MAX_DISTANCE:
        raise ValueError("squared distances must be finite")
    return raw**2


def validate_sqdist(d2: np.ndarray) -> np.ndarray:
    d2 = np.asarray(d2, dtype=float)  # one matrix, or a stack of them
    if d2.ndim not in (2, 3) or d2.shape[-2] != d2.shape[-1]:
        raise ValueError(f"squared distance matrix must be square, got {d2.shape}")
    if not d2.size:
        return d2
    if not np.all(np.isfinite(d2)):
        raise ValueError("squared distances must be finite")
    limit = SQDIST_TOL * np.maximum(1.0, np.abs(d2).max(axis=(-2, -1)))  # per member
    if (np.abs(d2 - np.swapaxes(d2, -2, -1)).max(axis=(-2, -1)) > limit).any():
        raise ValueError("squared distance matrix must be symmetric")
    if (np.abs(np.diagonal(d2, axis1=-2, axis2=-1)).max(axis=-1) > limit).any():
        raise ValueError("squared distance matrix must have a zero diagonal")
    if (d2.min(axis=(-2, -1)) < -limit).any():
        raise ValueError("squared distances must be non-negative")
    return d2


def center(d2: np.ndarray) -> np.ndarray:
    """Double centering: G = -1/2 J D2 J with J = I - (1/M) 11^T.

    Row and column sums of G are zero; for Euclidean inputs
    G_ii + G_jj - 2 G_ij reproduces D2_ij.  Stacks center by member.
    """
    d2 = np.asarray(d2, dtype=float)
    m = d2.shape[-1]
    if m == 0:
        return np.zeros(d2.shape)
    j = np.eye(m) - np.full((m, m), 1.0 / m)
    return -0.5 * (j @ d2 @ j)


def jacobi_eigh(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix (or stack) by LAPACK (``numpy.linalg.eigh``).

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvector columns.  Each column is signed so that its largest-magnitude
    component is positive, which makes the result, and the ``mds`` output
    built on it, independent of the LAPACK build.  A LAPACK failure raises
    :class:`NumericalError`, in a stack that of any member; a member's
    result is bitwise its result alone on SkylakeX and Haswell kernels.

    The name predates the LAPACK solver; the benchmark's tracer
    (``perfbench/tracing.py``) wraps this function by name, so a rename
    goes together with a change to the benchmark.
    """
    try:
        eigvals, eigvecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    eigvals, eigvecs = eigvals[..., ::-1].copy(), eigvecs[..., ::-1].copy()
    if eigvals.size:
        rows = np.argmax(np.abs(eigvecs), axis=-2)[..., None, :]
        eigvecs *= np.where(np.take_along_axis(eigvecs, rows, axis=-2) < 0, -1.0, 1.0)
    return eigvals, eigvecs


def correct_eigenvalues(eigvals: np.ndarray, mode: str) -> np.ndarray:
    """Repair an indefinite spectrum.

    clip: negative eigenvalues to zero; flip: absolute values; shift:
    subtract the smallest eigenvalue when it is negative (per stack member).
    """
    w = np.asarray(eigvals, dtype=float)
    if check_mode(mode) == "clip":
        return np.clip(w, 0.0, None)
    if mode == "flip":
        return np.abs(w)
    lo = np.min(w, axis=-1, keepdims=True, initial=0.0)
    return np.where(lo < 0, w - lo, w)


def check_mode(mode: str) -> str:
    """``mode``, when it is one of :data:`MODES`; else a ``ValueError``."""
    if mode not in MODES:
        raise ValueError(f"correction mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class QueryEmbedding:
    """A query state projected into a corrected space.

    ``coords`` are its coordinates in the corrected eigenbasis,
    ``cross_gram[i]`` its inner product with training state i, and
    ``self_inner`` its squared norm, floored at the projected norm and
    raised to the norm implied by the query's raw distances so that
    distances to off-span queries are not underestimated.  The corrected
    squared distance to training state i is
    ``self_inner + G_ii - 2 cross_gram[i]``.  Stacked queries stack each field.
    """

    coords: np.ndarray
    cross_gram: np.ndarray
    self_inner: float


class CorrectedSpace:
    """Eigenvalue-corrected embedding of a finite state collection, or of a
    stack of them from a 3-D ``sqdist``, built in one pass of numpy calls:
    array attributes gain its leading axis; ``space[i]`` is member i alone.

    Immutable after construction; all methods are pure.
    """

    def __init__(self, sqdist: np.ndarray, mode: str = "clip"):
        d2 = validate_sqdist(sqdist)  # not kept: extend reads only its means
        self.mode = mode
        m = self.size = d2.shape[-1]
        self.eigenvalues, self.eigenvectors = jacobi_eigh(center(d2))
        self.corrected_eigenvalues = correct_eigenvalues(self.eigenvalues, mode)
        self.col_means = d2.mean(axis=-2) if m else np.zeros(d2.shape[:-1])
        self.grand_mean = d2.mean(axis=(-2, -1)) if m else np.zeros(d2.shape[:-2])
        root = np.sqrt(self.corrected_eigenvalues)
        self.coordinates = self.eigenvectors * root[..., None, :]
        self.gram_corrected = self.coordinates @ np.swapaxes(self.coordinates, -2, -1)
        # Nystrom factor sqrt(lambda+) / lambda per eigenvalue; 0 where either
        # is numerically zero, so those directions drop out of the projection
        w, w_plus = self.eigenvalues, self.corrected_eigenvalues
        eps = 1e-10 * np.max(w_plus, axis=-1, keepdims=True, initial=0.0)
        kept = (w_plus > eps) & (np.abs(w) > eps)
        self._projection = np.zeros(w.shape)
        self._projection[kept] = np.sqrt(w_plus[kept]) / w[kept]
        self._check_invariants()

    def __getitem__(self, i: int) -> "CorrectedSpace":
        out = object.__new__(CorrectedSpace)
        out.__dict__.update((k, v[i] if isinstance(v, np.ndarray) else v) for k, v in vars(self).items())
        return out

    def _check_invariants(self):
        if self.size == 0:
            return
        u = self.eigenvectors
        ortho = np.abs(np.swapaxes(u, -2, -1) @ u - np.eye(self.size)).max()
        if ortho > 1e-8:
            raise NumericalError(f"eigenvectors lost orthonormality: {ortho:.3e}")
        floor = -1e-8 * np.abs(self.eigenvalues).max(axis=-1, initial=1.0)
        if (self.corrected_eigenvalues.min(axis=-1, initial=0.0) < floor).any():
            raise NumericalError("corrected spectrum is not positive semi-definite")
        if (self._sqdist().min(axis=(-2, -1)) < floor).any():
            raise NumericalError("corrected squared distances turned negative")

    def _sqdist(self) -> np.ndarray:
        g = self.gram_corrected
        diag = g.diagonal(0, -2, -1)
        return diag[..., :, None] + diag[..., None, :] - 2.0 * g

    def corrected_sqdist(self) -> np.ndarray:
        return np.maximum(self._sqdist(), 0.0)

    def extend(self, d2_to_training: np.ndarray) -> QueryEmbedding:
        """Nystrom projection of a query's squared distances to training.

        The query's squared distances are centered against the training
        column means and grand mean, projected onto the corrected eigenbasis,
        and re-normed so an in-sample query reproduces its own corrected
        distance row.  Stacked queries, ``(..., size)`` here or
        ``(..., members, size)`` on a stack, get their lone results bitwise
        on SkylakeX and Haswell kernels.
        """
        d2q = np.ascontiguousarray(d2_to_training, dtype=float)  # rows BLAS sums as it would alone
        if d2q.shape[d2q.ndim - self.col_means.ndim :] != self.col_means.shape:
            raise ValueError(f"expected {self.size} query distances, got {d2q.shape}")
        if self.size and d2q.min() < -1e-12:
            raise ValueError("query squared distances must be non-negative")
        if self.size == 0:
            return QueryEmbedding(np.zeros(d2q.shape), np.zeros(d2q.shape), np.zeros(d2q.shape[:-1]))
        query_mean = d2q.sum(axis=-1) / self.size  # the mean, without its wrapper
        g_tilde = -0.5 * (d2q - self.col_means - query_mean[..., None] + self.grand_mean[..., None])
        coords = (g_tilde[..., None, :] @ self.eigenvectors)[..., 0, :] * self._projection
        cross = (self.coordinates @ coords[..., None])[..., 0]
        norm_estimate = query_mean - 0.5 * self.grand_mean
        projected = (coords[..., None, :] @ coords[..., None])[..., 0, 0]
        return QueryEmbedding(coords, cross, np.maximum(np.maximum(projected, norm_estimate), 0.0))

    def query_sqdist(self, q: QueryEmbedding) -> np.ndarray:
        """Corrected squared distances from the query to every training state."""
        diag = self.gram_corrected.diagonal(0, -2, -1)
        return q.self_inner[..., None] + diag - 2.0 * q.cross_gram

    def extended_gram(self, q: QueryEmbedding) -> np.ndarray:
        """Corrected Gram matrix bordered by the query column."""
        m = self.size
        out = np.zeros((m + 1, m + 1))
        out[:m, :m] = self.gram_corrected
        out[:m, m] = q.cross_gram
        out[m, :m] = q.cross_gram
        out[m, m] = q.self_inner
        return out

    def mds_coordinates(self, dims: int = 2) -> np.ndarray:
        """Top-``dims`` corrected eigen-coordinates per state (zero-padded)."""
        out = np.zeros((self.size, dims))
        take = min(dims, self.size)
        out[:, :take] = self.coordinates[:, :take]
        return out
