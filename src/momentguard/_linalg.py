"""Shared dense linear-algebra helpers. Internal module."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, RankDeficiency, SingularSystem

#: Relative singular-value cutoff for rank decisions.
RANK_RTOL = 1e-10


def as_matrix(x, name: str) -> np.ndarray:
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d array, got ndim={a.ndim}")
    return a


def as_vector(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float).reshape(-1)
    return a


def sym_sqrt_psd(a: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Symmetric PSD square root (or inverse square root) via eigendecomposition."""
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    floor = RANK_RTOL * max(vals.max(), 0.0)
    if inverse:
        if vals.min() <= floor:
            raise SingularSystem("matrix is numerically singular; cannot form inverse root")
        d = 1.0 / np.sqrt(vals)
    else:
        d = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * d) @ vecs.T


def orth_complement(b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of col(b).

    Returns a ``d x (d - r)`` matrix with orthonormal columns spanning
    ``null(b')``. For an empty ``b`` (zero columns) this is the identity.
    """
    d = b.shape[0]
    r = b.shape[1] if b.ndim == 2 else 0
    if r == 0:
        return np.eye(d)
    u, s, _ = np.linalg.svd(b, full_matrices=True)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    if rank < r:
        raise RankDeficiency("matrix does not have full column rank")
    return u[:, rank:]


def solve_psd(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive-definite system, raising SingularSystem on failure."""
    try:
        c = np.linalg.cholesky(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"positive-definite solve failed: {exc}") from exc
    y = np.linalg.solve(c, rhs)
    x = np.linalg.solve(c.T, y)
    if not np.all(np.isfinite(x)):
        raise SingularSystem("positive-definite solve overflowed")
    return x
