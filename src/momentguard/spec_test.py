"""Misspecification-robust specification test and the lower bound on M.

The S statistic projects the standardized sample moments onto the orthogonal
complement of the standardized Jacobian's column space; under the null that
the perturbation lies in ``C(M) = {B gamma : ||gamma||_p <= M}``, it is
asymptotically noncentral chi-square with ``d_g - d_theta`` degrees of freedom
and noncentrality at most

    sup over C(M) of  c' Sigma^{-1/2} R Sigma^{-1/2} c  =  M^2 ncp(1),
    ncp(1) = ||R Sigma^{-1/2} B||_{p,2}^2.

The test rejects when S exceeds the noncentral chi-square quantile at this
supremum. Everything derives from the unit noncentrality ``ncp(1)``, computed
once per ``(model, B, p)``: the supremum is homogeneous of degree two in M,
and because the quantile increases in the noncentrality, the smallest
magnitude the test does not reject solves ``F(S; df, M^2 ncp(1)) = 1 - alpha``.
One root-find over the noncentrality gives it, the lower end of the one-sided
confidence set [m_min, inf) for the misspecification magnitude; where
rounding leaves the test rejecting at that root, m_min steps up by a few ulps
to the first magnitude the test accepts.

For p = inf, ``ncp(1)`` is the largest convex quadratic ``t' G t`` over the
sign vertices of the unit box, all ``2^(d_gamma - 1)`` of them evaluated
exactly up to d_gamma = ``VERTEX_CAP``. The enumeration runs on BLAS matrix
products over one read-only table of the low block's sign patterns, built
on first use once per process (``2^12 x 12`` doubles, about 0.4 MB).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import RANK_RTOL, sym_sqrt_psd
from .critval import _check_alpha, noncentral_chisq_ncp, noncentral_chisq_quantile
from .errors import (DimensionMismatch, JustIdentified, NumericalError,
                     RankDeficiency, SolverFailure, VertexEnumerationTooLarge)
from .model import MisspecSet, MomentModel, _check_m

#: Largest d_gamma for which exact sign-vertex enumeration is attempted.
VERTEX_CAP = 24

#: Sign coordinates enumerated once as the low block of the vertex search.
_LOW_BLOCK = 12

#: Most entries in one chunk's matrix of vertex values (memory cap).
_CHUNK_VALUES = 1 << 16

#: Most steps of ``m_min`` up to where the test accepts: the k-th step puts it
#: ``2^k`` eps above the noncentrality root, well past the rounding of both
#: solves.
_ACCEPT_STEPS = 16


@dataclass(frozen=True, slots=True)
class SpecTestResult:
    """One test's outcome. Slotted, without a per-instance ``__dict__``: a
    caller that keeps a result per test holds about 80 bytes each instead of
    120 (CPython 3.11)."""

    statistic: float
    df: int
    ncp_bar: float
    critical_value: float
    reject: bool


def _whiten(model: MomentModel) -> tuple[np.ndarray, np.ndarray]:
    """``Sigma^{-1/2}`` and the residual projector of the model.

    ``R = I - S^{-1/2} Gamma (Gamma' S^{-1} Gamma)^{-1} Gamma' S^{-1/2}``,
    formed from the left singular vectors of ``S^{-1/2} Gamma``.
    """
    root_inv = sym_sqrt_psd(model.sigma, inverse=True)
    u, _, _ = np.linalg.svd(root_inv @ model.gamma, full_matrices=False)
    return root_inv, np.eye(model.d_g) - u @ u.T


def _statistic(model: MomentModel, root_inv: np.ndarray, resid: np.ndarray) -> float:
    if model.d_g == model.d_theta:
        raise JustIdentified(
            "the model is just identified; the statistic is identically zero")
    z = resid @ (root_inv @ model.g_init)
    return model.n * float(z @ z)


def _signs(patterns: np.ndarray, width: int) -> np.ndarray:
    """Rows of +-1: bit j of each pattern gives the sign of coordinate j."""
    return ((patterns[:, None] >> np.arange(width)) & 1) * 2.0 - 1.0


@functools.cache
def _sign_table(width: int) -> np.ndarray:
    """Sign patterns ``0 .. 2^width - 1``, built on first use and shared
    read-only (4096 x 12 doubles, about 0.4 MB, at ``_LOW_BLOCK``). Its first
    ``2^k`` rows and ``k`` columns are exactly ``_signs(arange(2^k), k)``."""
    table = _signs(np.arange(1 << width), width)
    table.flags.writeable = False
    return table


def _max_sign_quadratic(gram: np.ndarray) -> float:
    """``max t' G t`` over ``t`` in ``{-1, 1}^d``, every vertex evaluated.

    ``t`` and ``-t`` give the same value, so ``t_0 = +1`` is pinned. The last
    ``k = min(d - 1, _LOW_BLOCK)`` coordinates form a low block whose ``2^k``
    sign patterns ``S_lo`` are the leading rows and columns of the shared
    ``_sign_table(_LOW_BLOCK)``; the remaining high patterns ``T_hi`` are
    walked in chunks of at most ``_CHUNK_VALUES`` vertices, each scored as
    ``q_hi[:, None] + 2 (T_hi G_hl) S_lo' + q_lo[None, :]``. Every product is
    a BLAS matrix product, and each block's quadratic forms are a row-wise
    dot of ``S G`` with ``S``.
    """
    d = gram.shape[0]
    k = min(d - 1, _LOW_BLOCK)
    h = d - k
    g_hh, g_hl, g_ll = gram[:h, :h], gram[:h, h:], gram[h:, h:]
    s_lo = _sign_table(_LOW_BLOCK)[:1 << k, :k]
    q_lo = np.einsum("ij,ij->i", s_lo @ g_ll, s_lo)
    n_hi = 1 << (h - 1)
    step = max(_CHUNK_VALUES >> k, 1)
    best = 0.0
    for start in range(0, n_hi, step):
        free = _signs(np.arange(start, min(start + step, n_hi)), h - 1)
        t_hi = np.hstack([np.ones((free.shape[0], 1)), free])
        q_hi = np.einsum("ij,ij->i", t_hi @ g_hh, t_hi)
        cross = (2.0 * (t_hi @ g_hl)) @ s_lo.T
        best = max(best, float(np.max(q_hi + np.max(cross + q_lo, axis=1))))
    return best


def _unit_ncp(root_inv: np.ndarray, resid: np.ndarray, mset: MisspecSet) -> float:
    """``ncp(1) = ||R Sigma^{-1/2} B||_{p,2}^2``, ignoring ``mset.m``.

    Closed-form top eigenvalue for p = 2; for p = inf the supremum of the
    convex quadratic over the unit box sits at a sign vertex, found by exact
    enumeration up to d_gamma = ``VERTEX_CAP``. A value at the rounding level
    of ``||Sigma^{-1/2} B||_F^2`` (B inside the Jacobian's span) returns 0.
    """
    if mset.b_mat.shape[0] != root_inv.shape[0]:
        raise DimensionMismatch(
            f"b_mat has {mset.b_mat.shape[0]} rows, model has d_g={root_inv.shape[0]}")
    if math.isinf(mset.p) and mset.d_gamma > VERTEX_CAP:
        raise VertexEnumerationTooLarge(
            f"exact enumeration requires d_gamma <= {VERTEX_CAP}, got {mset.d_gamma}")
    wb = root_inv @ mset.b_mat
    a_mat = resid @ wb
    gram = a_mat.T @ a_mat
    if math.isinf(mset.p):
        top = _max_sign_quadratic(gram)
    else:
        top = float(np.linalg.eigvalsh(gram)[-1])
    if top <= RANK_RTOL**2 * mset.d_gamma * float(np.sum(wb * wb)):
        return 0.0
    return top


def _ncp(m: float, unit: float) -> float:
    """The supremum ``m^2 ncp(1)``; 0 at every m when ``ncp(1)`` is, where
    ``m * m`` may overflow."""
    return m * m * unit if unit else 0.0


def _decide(stat: float, df: int, ncp: float, alpha: float) -> SpecTestResult:
    crit = noncentral_chisq_quantile(1.0 - alpha, df, ncp)
    return SpecTestResult(statistic=stat, df=df, ncp_bar=ncp,
                          critical_value=crit, reject=bool(stat > crit))


def s_statistic(model: MomentModel) -> float:
    """Overidentification statistic ``n * g' S^{-1/2} R S^{-1/2} g``."""
    return _statistic(model, *_whiten(model))


def noncentrality_sup(model: MomentModel, mset: MisspecSet) -> float:
    """Largest noncentrality over the set: ``m^2 ||R S^{-1/2} B||_{p,2}^2``.

    Closed-form top eigenvalue for p = 2. For p = inf, all ``2^(d_gamma - 1)``
    sign vertices of the box are evaluated exactly, in blocks of BLAS matrix
    products over the shared sign table, capped at d_gamma = 24. Returns
    exactly 0 when B lies in the span of the Jacobian up to rounding, and
    raises NumericalError when the supremum exceeds double precision.
    """
    root_inv, resid = _whiten(model)
    unit = _unit_ncp(root_inv, resid, mset)
    ncp = _ncp(mset.m, unit)
    if not math.isfinite(ncp):
        raise NumericalError(f"the noncentrality m^2 ncp(1) = {mset.m!r}^2 * "
                             f"{unit!r} exceeds double precision")
    return ncp


def test_at_m(model: MomentModel, mset: MisspecSet,
              alpha: float = 0.05) -> SpecTestResult:
    """Test the null that the perturbation lies in ``mset`` at level alpha,
    which lies in (0, 1/2) as every level of the package does."""
    a = _check_alpha(alpha)
    root_inv, resid = _whiten(model)
    stat = _statistic(model, root_inv, resid)
    ncp = _ncp(mset.m, _unit_ncp(root_inv, resid, mset))
    return _decide(stat, model.d_g - model.d_theta, ncp, a)


def spec_test_grid(model: MomentModel, b_mat: np.ndarray, p: float,
                   m_grid, alpha: float = 0.05
                   ) -> tuple[float, float, list[SpecTestResult]]:
    """S, ``m_min`` and the test at each magnitude in ``m_grid``.

    Returns what :func:`s_statistic`, :func:`m_lower_ci` and
    :func:`test_at_m` would, from one whitening of the model and one unit
    noncentrality ``ncp(1)``; the latter is skipped when the central test
    accepts and the grid is empty.
    """
    a = _check_alpha(alpha)
    unit_set = MisspecSet(b_mat, p, 1.0)
    ms = [_check_m(m) for m in m_grid]
    root_inv, resid = _whiten(model)
    stat = _statistic(model, root_inv, resid)
    df = model.d_g - model.d_theta
    rejects_central = _decide(stat, df, 0.0, a).reject
    unit = (_unit_ncp(root_inv, resid, unit_set)
            if rejects_central or ms else 0.0)
    m_min = 0.0
    if rejects_central:
        if unit == 0.0:
            raise RankDeficiency(
                "the noncentrality is zero for every M because B lies in the "
                "span of the moment Jacobian; no finite M avoids rejection")
        m_min = _accepted(stat, df, unit, a,
                          math.sqrt(noncentral_chisq_ncp(stat, df, 1.0 - a) / unit))
    return stat, m_min, [_decide(stat, df, _ncp(m, unit), a) for m in ms]


def _accepted(stat: float, df: int, unit: float, alpha: float,
              root: float) -> float:
    """The first of ``root`` and ``root (1 + 2^k eps)``, k = 0, 1, ..., at
    which the test accepts. At the root S equals the critical value, so
    rounding in the two solves can leave the test rejecting there."""
    eps = float(np.finfo(float).eps)
    for m in [root] + [root * (1.0 + 2.0**k * eps) for k in range(_ACCEPT_STEPS)]:
        if not _decide(stat, df, _ncp(m, unit), alpha).reject:
            return m
    raise SolverFailure(f"the test still rejects {_ACCEPT_STEPS} steps above "
                        f"the noncentrality root m={root!r}")


def m_lower_ci(model: MomentModel, b_mat: np.ndarray, p: float,
               alpha: float = 0.05) -> float:
    """Smallest magnitude the test does not reject: a lower CI bound for m.

    Returns 0 when the central test already accepts. Otherwise solves
    ``F(S; df, ncp*) = 1 - alpha`` for the noncentrality in one bracketed
    root-find and returns ``sqrt(ncp* / ncp(1))``, stepped up by a few ulps
    where rounding leaves :func:`test_at_m` rejecting there, so the test
    accepts at the returned value: rejection is monotone in m because the
    critical value increases with the noncentrality ``m^2 ncp(1)``. Raises
    RankDeficiency when ``ncp(1)`` is zero, since then no finite magnitude
    explains a rejection.
    """
    return spec_test_grid(model, b_mat, p, (), alpha)[1]
