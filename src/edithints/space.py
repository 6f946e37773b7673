"""The distance embedding: double centering, eigenvalue correction,
out-of-sample extension and distances between weighted state combinations.

Edit distances are symmetric with zero self-distance, so the squared
distance matrix always admits a pseudo-Euclidean embedding; negative
eigenvalues of the centered Gram matrix measure how far it is from being
Euclidean.  Correcting the spectrum (clip / flip / shift) yields a proper
Euclidean space in which states are vectors, weighted combinations of
states are meaningful, and distances between such combinations reduce to
quadratic forms of the corrected Gram matrix.

A query state outside the training set enters the space through a Nystrom
projection of its centered squared distances onto the corrected
eigenbasis.  For a query equal to training state j this reproduces row j
of the corrected distances exactly (clip and flip modes).

The eigendecomposition is the one derived quantity everything else rests
on.  It is computed by LAPACK when a space is built and is never stored:
a saved model keeps the raw distances and rebuilds its spaces on load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODES = ("clip", "flip", "shift")
# how far, relative to the largest entry, a squared distance matrix may
# stray from symmetry, a zero diagonal and non-negativity
SQDIST_TOL = 1e-8


class NumericalError(RuntimeError):
    """Eigensolver failure or irreparably malformed numeric input."""


def validate_sqdist(d2: np.ndarray) -> np.ndarray:
    d2 = np.asarray(d2, dtype=float)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise ValueError(f"squared distance matrix must be square, got {d2.shape}")
    if not d2.size:
        return d2
    if not np.all(np.isfinite(d2)):
        raise ValueError("squared distances must be finite")
    limit = SQDIST_TOL * max(1.0, float(np.max(np.abs(d2))))
    if np.max(np.abs(d2 - d2.T)) > limit:
        raise ValueError("squared distance matrix must be symmetric")
    if np.max(np.abs(np.diag(d2))) > limit:
        raise ValueError("squared distance matrix must have a zero diagonal")
    if np.min(d2) < -limit:
        raise ValueError("squared distances must be non-negative")
    return d2


def center(d2: np.ndarray) -> np.ndarray:
    """Double centering: G = -1/2 J D2 J with J = I - (1/M) 11^T.

    Row and column sums of G are zero; for Euclidean inputs
    G_ii + G_jj - 2 G_ij reproduces D2_ij.
    """
    d2 = np.asarray(d2, dtype=float)
    m = d2.shape[0]
    if m == 0:
        return np.zeros((0, 0))
    j = np.eye(m) - np.full((m, m), 1.0 / m)
    return -0.5 * (j @ d2 @ j)


def jacobi_eigh(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvector columns.  Each column is signed so that its largest-magnitude
    component is positive, which makes the result, and the ``mds`` output
    built on it, independent of the LAPACK build.  A LAPACK failure raises
    :class:`NumericalError`.

    The name predates the LAPACK solver; the benchmark's tracer
    (``perfbench/tracing.py``) wraps this function by name, so a rename
    goes together with a change to the benchmark.
    """
    try:
        eigvals, eigvecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    eigvals, eigvecs = eigvals[::-1].copy(), eigvecs[:, ::-1].copy()
    if eigvals.size:
        peak = eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(eigvals.size)]
        eigvecs[:, peak < 0] *= -1.0
    return eigvals, eigvecs


def correct_eigenvalues(eigvals: np.ndarray, mode: str) -> np.ndarray:
    """Repair an indefinite spectrum.

    clip: negative eigenvalues to zero; flip: absolute values; shift:
    subtract the smallest eigenvalue when it is negative.
    """
    if mode not in MODES:
        raise ValueError(f"correction mode must be one of {MODES}, got {mode!r}")
    w = np.asarray(eigvals, dtype=float)
    if mode == "clip":
        return np.clip(w, 0.0, None)
    if mode == "flip":
        return np.abs(w)
    lo = float(np.min(w)) if w.size else 0.0
    return w - lo if lo < 0 else w.copy()


@dataclass(frozen=True)
class QueryEmbedding:
    """A query state projected into a corrected space.

    ``coords`` are its coordinates in the corrected eigenbasis,
    ``cross_gram[i]`` its inner product with training state i, and
    ``self_inner`` its squared norm, floored at the projected norm and
    raised to the norm implied by the query's raw distances so that
    distances to off-span queries are not underestimated.  The corrected
    squared distance to training state i is
    ``self_inner + G_ii - 2 cross_gram[i]``.
    """

    coords: np.ndarray
    cross_gram: np.ndarray
    self_inner: float


class CorrectedSpace:
    """Eigenvalue-corrected embedding of a finite state collection.

    Immutable after construction; all methods are pure.
    """

    def __init__(self, sqdist: np.ndarray, mode: str = "clip"):
        self.sqdist_raw = validate_sqdist(sqdist)
        self.mode = mode
        m = self.sqdist_raw.shape[0]
        self.size = m
        self.eigenvalues, self.eigenvectors = jacobi_eigh(center(self.sqdist_raw))
        self.corrected_eigenvalues = correct_eigenvalues(self.eigenvalues, mode)
        self.col_means = (
            self.sqdist_raw.mean(axis=0) if m else np.zeros(0)
        )
        self.grand_mean = float(self.sqdist_raw.mean()) if m else 0.0
        root = np.sqrt(self.corrected_eigenvalues)
        self.coordinates = self.eigenvectors * root[np.newaxis, :]
        self.gram_corrected = self.coordinates @ self.coordinates.T
        # Nystrom factor sqrt(lambda+) / lambda per eigenvalue; 0 where either
        # is numerically zero, so those directions drop out of the projection
        eps = 1e-10 * float(np.max(self.corrected_eigenvalues, initial=0.0))
        w, w_plus = self.eigenvalues, self.corrected_eigenvalues
        kept = (w_plus > eps) & (np.abs(w) > eps)
        self._projection = np.zeros(m)
        self._projection[kept] = np.sqrt(w_plus[kept]) / w[kept]
        self._check_invariants()

    def _check_invariants(self):
        if self.size == 0:
            return
        u = self.eigenvectors
        ortho = np.max(np.abs(u.T @ u - np.eye(self.size)))
        if ortho > 1e-8:
            raise NumericalError(f"eigenvectors lost orthonormality: {ortho:.3e}")
        scale = float(np.max(np.abs(self.eigenvalues), initial=1.0))
        if np.min(self.corrected_eigenvalues, initial=0.0) < -1e-8 * max(scale, 1.0):
            raise NumericalError("corrected spectrum is not positive semi-definite")
        g = self.gram_corrected
        raw = np.diag(g)[:, None] + np.diag(g)[None, :] - 2.0 * g
        if np.min(raw) < -1e-8 * max(scale, 1.0):
            raise NumericalError("corrected squared distances turned negative")

    def corrected_sqdist(self) -> np.ndarray:
        g = self.gram_corrected
        diag = np.diag(g)
        out = diag[:, None] + diag[None, :] - 2.0 * g
        return np.maximum(out, 0.0)

    def extend(self, d2_to_training: np.ndarray) -> QueryEmbedding:
        """Nystrom projection of a query's squared distances to training.

        The query's squared distances are centered against the training
        column means and grand mean, projected onto the corrected
        eigenbasis, and re-normed so an in-sample query reproduces its own
        corrected distance row.
        """
        d2q = np.asarray(d2_to_training, dtype=float)
        if d2q.shape != (self.size,):
            raise ValueError(f"expected {self.size} query distances, got {d2q.shape}")
        if self.size and np.min(d2q) < -1e-12:
            raise ValueError("query squared distances must be non-negative")
        if self.size == 0:
            return QueryEmbedding(np.zeros(0), np.zeros(0), 0.0)
        query_mean = float(d2q.mean())
        g_tilde = -0.5 * (d2q - self.col_means - query_mean + self.grand_mean)
        coords = (g_tilde @ self.eigenvectors) * self._projection
        cross = self.coordinates @ coords
        norm_estimate = query_mean - 0.5 * self.grand_mean
        self_inner = max(float(coords @ coords), norm_estimate, 0.0)
        return QueryEmbedding(coords, cross, self_inner)

    def query_sqdist(self, q: QueryEmbedding) -> np.ndarray:
        """Corrected squared distances from the query to every training state."""
        return q.self_inner + np.diag(self.gram_corrected) - 2.0 * q.cross_gram

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
