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
minimized bias-aware length over delta. The numerator needs the modulus at
every quadrature node and at the tail's edge, and the one-sided bound needs
it at ``d_b`` and ``2 d_b``: one sweep along the frontier gives all 204
(:func:`momentguard.sensitivity._argmin_sweep`).
The fixed-length interval at delta is built on ``k_delta``, and every
frontier point is ``k_delta`` for some delta, so that denominator is the
shortest two-sided CI over the frontier: the point the CI selector
:func:`momentguard.sensitivity.select_lambda` picks.
:func:`efficiency_report` reads both bounds off one frontier and that one
sweep; :func:`kappa_two_sided` and :func:`kappa_one_sided` make the same
sweep, so each returns the report's value to the bit.

The numerator's Gauss-Legendre rule is numpy's ``leggauss``: the nodes are
the eigenvalues of the Legendre Jacobi matrix (Golub and Welsch 1969), each
polished by one Newton step. It is computed once per process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import orth_complement, solve_psd
from .critval import (_check_alpha, _check_one_sided, cv_alpha, norm_cdf,
                      norm_pdf, norm_quantile)
from .errors import InfeasibleDelta, RankDeficiency, TooManyInvalidMoments
from .model import MisspecSet, MomentModel, Sensitivity
from .sensitivity import (FrontierPoints, SensitivityFrontier, _argmin_sweep,
                          frontier, select_lambda)

#: Gauss-Legendre nodes for the expected-modulus integral.
QUAD_NODES = 201

#: Width (in normal quantile units) of the exactly integrated region.
QUAD_SPAN = 8.0


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The ``QUAD_NODES``-point Gauss-Legendre rule on [-1, 1], a constant
    computed once per process (numpy's ``leggauss``); read-only, since every
    caller shares it."""
    rule = np.polynomial.legendre.leggauss(QUAD_NODES)
    for arr in rule:
        arr.flags.writeable = False
    return rule


@dataclass(frozen=True)
class ModulusSolution:
    """One point on the modulus: value, slope, and the attaining perturbation."""

    delta: float
    omega: float
    omega_prime: float
    theta_star: np.ndarray
    c_star: np.ndarray
    k_delta: Sensitivity


@dataclass(frozen=True, slots=True)
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
    pts, omega = _moduli(frontier(model, mset), mset.m,
                         np.array([delta], dtype=float))
    kn = pts.knot(0)
    sd = math.sqrt(kn.var)
    scale = 0.5 * delta / sd
    theta_star = scale * kn.mu
    c_star = model.gamma @ theta_star + scale * (model.sigma @ kn.k)
    return ModulusSolution(delta=float(delta), omega=float(omega[0]),
                           omega_prime=sd, theta_star=theta_star, c_star=c_star,
                           k_delta=kn.k)


def _moduli(front: SensitivityFrontier, m: float,
            deltas: np.ndarray) -> tuple[FrontierPoints, np.ndarray]:
    """The minimizing frontier point and the modulus at each delta, from the
    unit frontier of a set of size m."""
    deltas = np.asarray(deltas, dtype=float)
    bad = deltas[~((deltas > 0.0) & (deltas < math.inf))]
    if bad.size:
        raise InfeasibleDelta(f"delta must be positive and finite, got {bad[0]}")
    pts = _argmin_sweep(front, np.full(deltas.size, 2.0 * m), deltas)
    return pts, 2.0 * m * pts.bbar + deltas * pts.sd


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


def kappa_two_sided(model: MomentModel, mset: MisspecSet,
                    alpha: float = 0.05) -> float:
    """Two-sided efficiency bound: best expected length at correct
    specification relative to the optimized fixed-length interval.
    """
    a = _check_alpha(alpha)
    return _kappas(frontier(model, mset), mset.m, a, 0.8)[0]


def kappa_one_sided(model: MomentModel, mset: MisspecSet, alpha: float = 0.05,
                    beta: float = 0.8) -> float:
    """One-sided efficiency bound ``omega(2 d_b) / (omega(d_b) + d_b omega'(d_b))``
    at ``d_b = z_{1-alpha} + z_beta``.
    """
    a = _check_alpha(alpha)
    _check_one_sided(a, beta)
    return _kappas(frontier(model, mset), mset.m, a, beta)[1]


def _kappas(front: SensitivityFrontier, m: float, a: float,
            beta: float) -> tuple[float, float]:
    """The two-sided and the one-sided bound from one sweep of the modulus
    over the numerator's nodes, the tail's edge and the one-sided pair
    ``(d_b, 2 d_b)``. ``d_b > 0`` where :func:`_check_one_sided` passes, and at
    beta = 0.8 for every alpha in (0, 1/2)."""
    z1 = norm_quantile(1.0 - a)
    d_b = z1 + norm_quantile(beta)
    # numerator: integral of omega(2(z1 - z)) phi(z) below z1, quadrature on
    # the last QUAD_SPAN quantile units plus a concave linear-growth tail
    # from the modulus at its edge
    nodes, weights = _gauss_legendre()
    lo, hi = z1 - QUAD_SPAN, z1
    z = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    pts, omega = _moduli(front, m, np.concatenate(
        [2.0 * (z1 - z), [2.0 * QUAD_SPAN], [d_b, 2.0 * d_b]]))
    n = QUAD_NODES
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    numer = float(np.sum(w * omega[:n] * phi))
    numer += float(omega[n]) * norm_cdf(lo) + 2.0 * float(pts.sd[n]) * (
        lo * norm_cdf(lo) + norm_pdf(lo))

    # denominator: half the shortest fixed-length interval over delta, the
    # frontier's shortest CI (each frontier point is k_delta at
    # delta = 2 m sd / lam')
    kn = select_lambda(front, m, a).knot
    sd = math.sqrt(kn.var)
    two_sided = numer / (2.0 * cv_alpha(m * kn.bbar / sd, a) * sd)
    return two_sided, float(omega[n + 2] / (omega[n + 1] + d_b * pts.sd[n + 1]))


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
    """Bundle the two-sided and one-sided bounds with the universal floor,
    both read off one frontier in one sweep of the modulus."""
    a = _check_alpha(alpha)
    _check_one_sided(a, beta)
    two_sided, one_sided = _kappas(frontier(model, mset), mset.m, a, beta)
    return EfficiencyReport(kappa_two_sided=two_sided, kappa_one_sided=one_sided,
                            universal_lower=universal_lower_bound(alpha),
                            alpha=alpha, beta=beta)
