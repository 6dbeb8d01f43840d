"""One-step estimates and misspecification-robust confidence intervals.

Given a sensitivity ``k``, the one-step estimator ``h_init + k @ g_init``
implements that sensitivity from any root-n consistent start. Two-sided
intervals widen the Wald interval through the bias-aware critical value;
one-sided intervals subtract the worst-case bias outright. With magnitude
zero both reduce exactly to the usual Wald construction.

Also provides the reverse map from a target sensitivity to an equivalent GMM
weighting matrix, so the one-step estimator can be swapped for a full GMM
re-estimation with identical first-order behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import RANK_RTOL, orth_complement, solve_psd
from .critval import _check_alpha, cv_alpha, norm_quantile
from .errors import (
    DimensionMismatch,
    NoValidS,
    OutOfRange,
    SingularW1,
)
from .model import (
    MisspecSet,
    MomentModel,
    Sensitivity,
    _check_finite,
    sensitivity_constraint_residual,
)
from .sensitivity import (
    SensitivityFrontier,
    select_lambda,
    worst_case_bias,
)


@dataclass(frozen=True)
class RobustCI:
    """A robust confidence interval around a one-step estimate.

    ``half_length`` is set for two-sided intervals, ``lower`` for lower
    one-sided ones; ``max_bias`` and ``std_error`` are already on the scale of
    the estimate (divided by sqrt(n)). ``k`` is the sensitivity the interval
    was built on.
    """

    estimate: float
    max_bias: float
    std_error: float
    lambda_star: float | None
    side: str
    k: Sensitivity = field(compare=False)
    half_length: float | None = None
    lower: float | None = None


def one_step(model: MomentModel, k: Sensitivity) -> float:
    """One-step estimate ``h_init + k @ g_init`` implementing sensitivity k."""
    k = np.asarray(k, dtype=float).reshape(-1)
    if k.shape[0] != model.d_g:
        raise DimensionMismatch(
            f"k has length {k.shape[0]}, model has d_g={model.d_g}")
    return model.h_init + float(k @ model.g_init)


def _check_d_g(model: MomentModel, mset: MisspecSet) -> None:
    """Raise DimensionMismatch unless the set's ``B`` has the model's d_g
    rows. Only shapes are compared: this runs once per interval, where a
    full ``validate_model`` would cost more than the interval."""
    if mset.b_mat.shape[0] != model.d_g:
        raise DimensionMismatch(
            f"the misspecification set has d_g={mset.b_mat.shape[0]}, "
            f"the model has d_g={model.d_g}")


def ci_from_sensitivity(model: MomentModel, mset: MisspecSet, k: Sensitivity,
                        alpha: float = 0.05,
                        lambda_star: float | None = None) -> RobustCI:
    """Two-sided robust CI at a caller-chosen sensitivity."""
    _check_d_g(model, mset)
    est = one_step(model, k)
    sd = math.sqrt(float(k @ model.sigma @ k))
    bias = worst_case_bias(k, mset)
    root_n = math.sqrt(model.n)
    half = cv_alpha(bias / sd, alpha) * sd / root_n
    return RobustCI(estimate=est, max_bias=bias / root_n,
                    std_error=sd / root_n, lambda_star=lambda_star,
                    side="two_sided", k=k, half_length=half)


def two_sided_ci(model: MomentModel, front: SensitivityFrontier, m: float,
                 alpha: float = 0.05, criterion: str = "ci_length") -> RobustCI:
    """Two-sided robust CI over the set ``front.set`` scaled to magnitude
    ``m``, at the frontier point minimizing ``criterion`` ("ci_length" or
    "mse"); ``front`` may be built on another model's variance than the one
    that forms the interval."""
    _check_d_g(model, front.set)
    mset = front.set.scaled(m)
    choice = select_lambda(front, mset.m, alpha, criterion)
    return ci_from_sensitivity(model, mset, choice.knot.k, alpha,
                               lambda_star=choice.lambda_star)


def one_sided_ci(model: MomentModel, mset: MisspecSet, k: Sensitivity,
                 alpha: float = 0.05,
                 lambda_star: float | None = None) -> RobustCI:
    """Lower one-sided CI: subtract worst-case bias and the one-sided margin.

    The upper variant follows by applying this to the negated functional
    (flip the signs of ``h_deriv`` and ``h_init``).
    """
    _check_alpha(alpha)
    est = one_step(model, k)
    sd = math.sqrt(float(k @ model.sigma @ k))
    bias = worst_case_bias(k, mset)
    root_n = math.sqrt(model.n)
    lower = est - bias / root_n - norm_quantile(1.0 - alpha) * sd / root_n
    return RobustCI(estimate=est, max_bias=bias / root_n,
                    std_error=sd / root_n, lambda_star=lambda_star,
                    side="lower_one_sided", k=k, lower=lower)


def ci_curve(model: MomentModel, front: SensitivityFrontier, m_grid,
             alpha: float = 0.05,
             criterion: str = "ci_length") -> list[tuple[float, RobustCI]]:
    """:func:`two_sided_ci` for every magnitude in an ascending grid, reusing
    one frontier."""
    _check_alpha(alpha)
    m_grid = np.asarray(m_grid, dtype=float).reshape(-1)
    if np.any(m_grid < 0.0) or np.any(np.diff(m_grid) < 0.0):
        raise OutOfRange("m_grid must be nonnegative and ascending")
    return [(m, two_sided_ci(model, front, m, alpha, criterion))
            for m in m_grid.tolist()]


def equivalent_weighting(model: MomentModel, k: Sensitivity,
                         w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """GMM weighting matrix whose estimator has sensitivity ``k``.

    Builds ``W = S w1 S' + G_perp w2 G_perp'`` from a factor S satisfying
    ``S' Gamma = -I`` and ``S h_deriv = k``; any nonsingular ``w1`` and
    conformable ``w2`` give the same implied sensitivity. The construction
    requires ``k`` to satisfy the regularity constraint.
    """
    k = np.asarray(k, dtype=float).reshape(-1)
    resid = sensitivity_constraint_residual(model, k)
    if resid > 1e-6 * max(1.0, float(np.max(np.abs(model.h_deriv)))):
        raise NoValidS(
            f"k violates the regularity constraint (residual {resid:.3e})")
    w1 = np.atleast_2d(np.asarray(w1, dtype=float))
    w2 = np.atleast_2d(np.asarray(w2, dtype=float))
    _check_finite(w1, "w1")
    _check_finite(w2, "w2")
    d_th = model.d_theta
    if w1.shape != (d_th, d_th):
        raise DimensionMismatch(f"w1 must be {d_th} x {d_th}, got {w1.shape}")
    sv = np.linalg.svd(w1, compute_uv=False)
    if not sv[-1] > RANK_RTOL * sv[0]:
        raise SingularW1("w1 is singular")

    # base factor from the efficient direction, then a rank-one correction
    # toward k inside null(Gamma')
    v = solve_psd(model.sigma, model.gamma)
    s_base = -np.linalg.solve((model.gamma.T @ v).T, v.T).T
    hh = float(model.h_deriv @ model.h_deriv)
    k_base = s_base @ model.h_deriv
    s_mat = s_base + np.outer(k - k_base, model.h_deriv) / hh

    g_perp = orth_complement(model.gamma)
    if w2.shape != (g_perp.shape[1], g_perp.shape[1]):
        raise DimensionMismatch(
            f"w2 must be {g_perp.shape[1]} x {g_perp.shape[1]}, got {w2.shape}")
    w = s_mat @ w1 @ s_mat.T + g_perp @ w2 @ g_perp.T

    gram = model.gamma.T @ w @ model.gamma
    implied = -w.T @ model.gamma @ np.linalg.solve(gram.T, model.h_deriv)
    if np.max(np.abs(implied - k)) > 1e-8 * max(1.0, np.max(np.abs(k))):
        raise NoValidS("constructed weighting does not reproduce k")
    return w
