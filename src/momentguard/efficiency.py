"""Modulus of continuity and efficiency bounds for the limiting experiment.

The modulus at a statistical distance ``delta`` is

    omega(delta) = max  2 * H @ theta   s.t.  c in C(m),
                   (c - Gamma theta)' Sigma^{-1} (c - Gamma theta) <= delta^2 / 4.

By duality (Donoho 1994; Armstrong and Kolesar) it is also a minimum over the
sensitivities that satisfy ``H = -k' Gamma``:

    omega(delta) = min_k  2 m bbar(k) + delta sd(k),

with ``bbar`` the worst-case bias over the unit set and ``sd = sqrt(k' Sigma
k)``. That minimizer lies on the bias-variance frontier of
:mod:`momentguard.sensitivity`, so one frontier per problem gives the modulus
at every delta: the slope ``omega'`` is the sd of the minimizer ``k_delta``,
and the frontier's multiplier ``mu`` recovers the maximizer in closed form,
``theta* = delta / (2 sd) mu`` and ``c* = Gamma theta* + delta / (2 sd) Sigma
k_delta``, at which the quadratic budget binds.

The two-sided efficiency bound compares the best possible expected CI length
at correct specification against the optimized fixed-length interval; its
numerator is a Gaussian integral of the modulus and its denominator the
minimized bias-aware length over delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from ._linalg import golden_section, orth_complement, solve_psd
from .critval import _check_alpha, cv_alpha, norm_cdf, norm_pdf, norm_quantile
from .errors import (
    InfeasibleDelta,
    OutOfRange,
    RankDeficiency,
    TooManyInvalidMoments,
)
from .model import MisspecSet, MomentModel, Sensitivity
from .sensitivity import SensitivityFrontier, _argmin_bias_sd, frontier

#: Gauss-Legendre nodes for the expected-modulus integral.
QUAD_NODES = 201

#: Width (in normal quantile units) of the exactly integrated region.
QUAD_SPAN = 8.0


@dataclass(frozen=True)
class ModulusSolution:
    """One point on the modulus: value, slope, and the attaining perturbation."""

    delta: float
    omega: float
    omega_prime: float
    theta_star: np.ndarray
    c_star: np.ndarray
    k_delta: Sensitivity


@dataclass(frozen=True)
class EfficiencyReport:
    kappa_two_sided: float
    kappa_one_sided: float
    universal_lower: float
    alpha: float
    beta: float


def half_modulus(model: MomentModel, mset: MisspecSet,
                 delta: float) -> ModulusSolution:
    """Solve the modulus program at radius ``delta``.

    Returns the maximizer, the modulus value
    ``omega = 2 H theta* = 2 m bbar + delta sd``, and the slope
    ``omega' = sd = sqrt(k' Sigma k)`` of the implied optimal sensitivity.
    The quadratic budget always binds at the solution.
    """
    if not (delta > 0.0) or not math.isfinite(delta):
        raise InfeasibleDelta(f"delta must be strictly positive, got {delta}")
    return _modulus(frontier(model, mset), mset.m, delta)


def _modulus(front: SensitivityFrontier, m: float,
             delta: float) -> ModulusSolution:
    """The modulus at ``delta`` from the unit frontier of a set of size m."""
    kn = _argmin_bias_sd(front, 2.0 * m, delta)
    sd = math.sqrt(kn.var)
    scale = 0.5 * delta / sd
    theta_star = scale * kn.mu
    c_star = front.model.gamma @ theta_star + scale * (front.model.sigma @ kn.k)
    return ModulusSolution(delta=float(delta), omega=2.0 * m * kn.bbar + delta * sd,
                           omega_prime=sd, theta_star=theta_star, c_star=c_star,
                           k_delta=kn.k)


def universal_lower_bound(alpha: float) -> float:
    """Sharp dimension-free lower bound on the two-sided efficiency."""
    a = _check_alpha(alpha)
    z1 = norm_quantile(1.0 - a)
    z2 = norm_quantile(1.0 - a / 2.0)
    zt = z1 - z2
    return (z1 * (1.0 - a) - zt * norm_cdf(zt)
            + norm_pdf(z1) - norm_pdf(zt)) / z2


def kappa_linear_subspace(alpha: float) -> float:
    """Two-sided efficiency when the set is a linear subspace (linear modulus)."""
    a = _check_alpha(alpha)
    z1 = norm_quantile(1.0 - a)
    z2 = norm_quantile(1.0 - a / 2.0)
    return ((1.0 - a) * z1 + norm_pdf(z1)) / z2


def _flci_length_halved(sol: ModulusSolution, alpha: float) -> float:
    """cv_alpha(omega/(2 omega') - delta/2) * omega': half the FLCI length."""
    bias = sol.omega / (2.0 * sol.omega_prime) - 0.5 * sol.delta
    return cv_alpha(max(bias, 0.0), alpha) * sol.omega_prime


def kappa_two_sided(model: MomentModel, mset: MisspecSet,
                    alpha: float = 0.05) -> float:
    """Two-sided efficiency bound: best expected length at correct
    specification relative to the optimized fixed-length interval.
    """
    a = _check_alpha(alpha)
    z1 = norm_quantile(1.0 - a)
    front = frontier(model, mset)

    def modulus(delta: float) -> ModulusSolution:
        return _modulus(front, mset.m, delta)

    # numerator: integral of omega(2(z1 - z)) phi(z) below z1, quadrature on
    # the last QUAD_SPAN quantile units plus a concave linear-growth tail
    nodes, weights = roots_legendre(QUAD_NODES)
    lo, hi = z1 - QUAD_SPAN, z1
    z = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    numer = float(np.sum(
        w * np.array([modulus(2.0 * (z1 - zi)).omega * norm_pdf(zi)
                      for zi in z])))
    edge = modulus(2.0 * QUAD_SPAN)
    u = z1 - QUAD_SPAN
    numer += edge.omega * norm_cdf(u) + 2.0 * edge.omega_prime * (
        u * norm_cdf(u) + norm_pdf(u))

    # denominator: shortest bias-aware fixed-length interval over delta
    bias_scale = _bias_to_sd(front, mset.m)
    delta_hi = 4.0 * norm_quantile(1.0 - a / 2.0) + 8.0 * bias_scale
    grid = np.geomspace(1e-3, delta_hi, 25)
    vals = np.array([_flci_length_halved(modulus(d), a) for d in grid])
    best = float(vals.min())
    # the length is flat wherever k_delta stands still, so rounding decides
    # which of several equal grid values is smallest: refine next to both
    # ends of the flat stretch
    tied = np.flatnonzero(vals <= best * (1.0 + 1e-9))
    for j in {int(tied[0]), int(tied[-1])}:
        _, val = golden_section(lambda d: _flci_length_halved(modulus(d), a),
                                grid[max(j - 1, 0)],
                                grid[min(j + 1, grid.shape[0] - 1)], tol=1e-6)
        best = min(best, val)
    return numer / (2.0 * best)


def _bias_to_sd(front: SensitivityFrontier, m: float) -> float:
    """Worst-case bias of the efficient sensitivity in its own sd units."""
    k0 = front.knots[0]
    return m * k0.bbar / math.sqrt(k0.var)


def kappa_one_sided(model: MomentModel, mset: MisspecSet, alpha: float = 0.05,
                    beta: float = 0.8) -> float:
    """One-sided efficiency bound ``omega(2 d_b) / (omega(d_b) + d_b omega'(d_b))``
    at ``d_b = z_{1-alpha} + z_beta``.
    """
    a = _check_alpha(alpha)
    if not (0.0 < beta < 1.0):
        raise OutOfRange(f"beta must lie in (0, 1), got {beta}")
    d_b = norm_quantile(1.0 - a) + norm_quantile(beta)
    front = frontier(model, mset)
    sol1 = _modulus(front, mset.m, d_b)
    sol2 = _modulus(front, mset.m, 2.0 * d_b)
    return sol2.omega / (sol1.omega + d_b * sol1.omega_prime)


def gls_subspace_sensitivity(model: MomentModel,
                             b_mat: np.ndarray | None) -> Sensitivity:
    """Sensitivity of the GLS estimator using only unperturbed directions.

    Optimal when the misspecification set is the full column space of
    ``b_mat``; with an empty ``b_mat`` it reduces to the efficient-GMM
    sensitivity.
    """
    if b_mat is None:
        b = np.zeros((model.d_g, 0))
    else:
        b = np.asarray(b_mat, dtype=float)
        if b.ndim != 2:
            b = np.atleast_2d(b)
    d_gam = b.shape[1]
    if d_gam > model.d_g - model.d_theta:
        raise TooManyInvalidMoments(
            f"d_gamma={d_gam} exceeds d_g - d_theta = {model.d_g - model.d_theta}")
    b_perp = orth_complement(b)
    core = solve_psd(b_perp.T @ model.sigma @ b_perp, b_perp.T @ model.gamma)
    gram = model.gamma.T @ b_perp @ core
    s = np.linalg.svd(gram, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise RankDeficiency("B_perp' Gamma is rank deficient")
    return -(b_perp @ core) @ np.linalg.solve(gram, model.h_deriv)


def efficiency_report(model: MomentModel, mset: MisspecSet,
                      alpha: float = 0.05, beta: float = 0.8) -> EfficiencyReport:
    """Bundle the two-sided and one-sided bounds with the universal floor."""
    return EfficiencyReport(
        kappa_two_sided=kappa_two_sided(model, mset, alpha),
        kappa_one_sided=kappa_one_sided(model, mset, alpha, beta),
        universal_lower=universal_lower_bound(alpha),
        alpha=alpha, beta=beta)
