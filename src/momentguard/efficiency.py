"""Modulus of continuity and efficiency bounds for the limiting experiment.

The modulus solves, for a statistical distance ``delta``,

    max  2 * H @ theta   s.t.  c in C,
         (c - Gamma theta)' Sigma^{-1} (c - Gamma theta) <= delta^2 / 4.

Profiling out ``theta`` in closed form reduces this to a concave program over
the set coefficients ``gamma`` alone:

    max  a @ gamma + s0 * sqrt(delta^2/4 - gamma' Q gamma),   ||gamma||_p <= m,

with ``a``, ``Q`` and ``s0`` built from one Cholesky solve. We dualize the
quadratic budget with a multiplier ``rho`` and bisect on it; for fixed ``rho``
the inner problem is a box-constrained concave quadratic (p = inf, solved by
projected coordinate ascent) or a trust-region problem (p = 2, solved through
the eigendecomposition of Q). At the root, the budget binds exactly, the
maximizer is recovered in closed form, and the modulus slope equals the
standard deviation of the implied optimal sensitivity (``rho * delta / 2``).

The two-sided efficiency bound compares the best possible expected CI length
at correct specification against the optimized fixed-length interval; its
numerator is a Gaussian integral of the modulus and its denominator the
minimized bias-aware length over delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import roots_legendre

from ._linalg import golden_section, orth_complement, solve_psd
from .critval import _check_alpha, cv_alpha, norm_cdf, norm_pdf, norm_quantile
from .errors import (
    InfeasibleDelta,
    OutOfRange,
    RankDeficiency,
    SolverFailure,
    TooManyInvalidMoments,
)
from .model import MisspecSet, MomentModel, Sensitivity

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


class _Reduced:
    """Profile of the modulus program after eliminating theta."""

    def __init__(self, model: MomentModel, b_mat: np.ndarray):
        sigma_inv_b = solve_psd(model.sigma, b_mat)
        sigma_inv_gamma = solve_psd(model.sigma, model.gamma)
        gram = model.gamma.T @ sigma_inv_gamma
        self.gram = gram
        self.gram_inv_h = np.linalg.solve(gram, model.h_deriv)
        self.a = b_mat.T @ sigma_inv_gamma @ self.gram_inv_h
        gb = model.gamma.T @ sigma_inv_b
        self.q = b_mat.T @ sigma_inv_b - gb.T @ np.linalg.solve(gram, gb)
        self.q = 0.5 * (self.q + self.q.T)
        self.s0_sq = float(model.h_deriv @ self.gram_inv_h)
        self.model = model
        self.b_mat = b_mat
        # eigendecomposition reused by the p = 2 inner solver and by the
        # cancellation-free quadratic form
        self.q_vals, self.q_vecs = np.linalg.eigh(self.q)
        self.q_vals = np.clip(self.q_vals, 0.0, None)
        self.q_half = (self.q_vecs * np.sqrt(self.q_vals)).T

    def qform(self, g: np.ndarray) -> float:
        """g' Q g as a sum of squares (no sign cancellation)."""
        y = self.q_half @ g
        return float(y @ y)


def _inner_l2(red: _Reduced, rho: float, m: float) -> np.ndarray:
    """argmax a @ g - (rho/2) g' Q g over the l2 ball of radius m."""
    at = red.q_vecs.T @ red.a
    d = rho * red.q_vals

    # try the interior solution first; blows up only along null(Q) mass
    null = d <= 1e-14 * max(d.max(), 1.0)
    if not np.any(null & (np.abs(at) > 0.0)):
        g0 = np.where(null, 0.0, at / np.where(null, 1.0, d))
        if np.linalg.norm(g0) <= m:
            return red.q_vecs @ g0
    norm_a = np.linalg.norm(at)
    if norm_a == 0.0:
        return np.zeros_like(at)
    # secular equation 1/||g(nu)|| = 1/m: increasing and nearly linear in nu,
    # solved by Newton with a bisection safeguard
    lo, hi = 0.0, norm_a / m
    nu = 0.5 * hi
    at_sq = at * at
    for _ in range(100):
        gi = at / (d + nu)
        nrm = float(np.linalg.norm(gi))
        if abs(nrm - m) <= 1e-13 * m:
            break
        if nrm > m:
            lo = nu
        else:
            hi = nu
        dphi = float(np.sum(at_sq / (d + nu) ** 3)) / nrm**3
        step = (1.0 / nrm - 1.0 / m) / dphi
        nu_new = nu - step
        nu = nu_new if lo < nu_new < hi else 0.5 * (lo + hi)
    return red.q_vecs @ (at / (d + nu))


def _inner_linf(red: _Reduced, rho: float, m: float) -> np.ndarray:
    """argmax a @ g - (rho/2) g' Q g over the box [-m, m]^d_gamma.

    Projected cyclic coordinate ascent identifies the clamped face; an exact
    eigendecomposition solve on the free face then finishes the step, which
    keeps convergence fast even when Q is badly conditioned and the box never
    binds. Coordinates with zero curvature are pure linear terms and sit at a
    box corner.
    """
    a, q = red.a, red.q
    d_gam = a.shape[0]
    g = np.zeros(d_gam)
    diag = rho * np.diag(q)
    scale = max(m, 1.0)
    box_tol = 1e-12 * scale

    def sweeps(budget: int) -> bool:
        nonlocal g
        for _ in range(budget):
            delta_max = 0.0
            for i in range(d_gam):
                lin = a[i] - rho * (q[i] @ g) + diag[i] * g[i]
                if diag[i] > 1e-300:
                    new = min(max(lin / diag[i], -m), m)
                else:
                    new = m * math.copysign(1.0, lin) if lin != 0.0 else 0.0
                delta_max = max(delta_max, abs(new - g[i]))
                g[i] = new
            if delta_max <= 1e-14 * scale:
                return True
        return False

    for _ in range(60):
        if sweeps(150):
            break
        free = np.abs(g) < m - box_tol
        if not free.any():
            continue
        idx = np.flatnonzero(free)
        rhs = a[idx] - rho * (q[np.ix_(idx, np.flatnonzero(~free))]
                              @ g[~free]) if (~free).any() else a[idx].copy()
        vals, vecs = np.linalg.eigh(rho * q[np.ix_(idx, idx)])
        at = vecs.T @ rhs
        tol_e = 1e-12 * max(float(vals[-1]), 1e-300)
        pos = vals > tol_e
        y = np.where(pos, at / np.where(pos, vals, 1.0), 0.0)
        # zero-curvature directions with linear gain: head for the box
        push = ~pos & (np.abs(at) > 1e-13 * max(float(np.max(np.abs(at)),),
                                                1e-300))
        if push.any():
            y = y + np.where(push, np.sign(at) * 1e6 * scale, 0.0)
        step = vecs @ y - g[idx]
        # concavity: any partial move toward the face optimum improves, so
        # cap the step at the first box face it hits
        alpha = 1.0
        for j, i in enumerate(idx):
            if step[j] > 0.0:
                alpha = min(alpha, (m - g[i]) / step[j])
            elif step[j] < 0.0:
                alpha = min(alpha, (-m - g[i]) / step[j])
        g[idx] = np.clip(g[idx] + max(alpha, 0.0) * step, -m, m)

    # KKT residual: free-face gradient must vanish, clamped gradients must
    # point outward
    grad = a - rho * (q @ g)
    interior = np.abs(g) < m - box_tol
    resid = 0.0
    if interior.any():
        resid = float(np.max(np.abs(grad[interior])))
    clamped = ~interior
    if clamped.any():
        resid = max(resid, float(np.max(np.clip(-grad[clamped] * np.sign(g[clamped]),
                                                0.0, None))))
    grad_scale = max(float(np.max(np.abs(a))), rho * float(np.max(np.abs(q))) * scale,
                     1e-300)
    if resid > 1e-7 * grad_scale:
        raise SolverFailure(
            f"box-QP inner solve did not reach optimality (residual {resid:.2e})")
    return g


def half_modulus(model: MomentModel, mset: MisspecSet,
                 delta: float) -> ModulusSolution:
    """Solve the modulus program at radius ``delta``.

    Returns the maximizer, the modulus value ``omega = 2 H theta*``, and the
    slope ``omega' = sqrt(k' Sigma k)`` of the implied optimal sensitivity.
    The quadratic budget always binds at the solution.
    """
    if not (delta > 0.0) or not math.isfinite(delta):
        raise InfeasibleDelta(f"delta must be strictly positive, got {delta}")
    if mset.b_mat.shape[0] != model.d_g:
        raise OutOfRange("b_mat rows must equal d_g")
    red = _Reduced(model, mset.b_mat)
    m = mset.m
    s0 = math.sqrt(red.s0_sq)

    if m == 0.0:
        rho = 2.0 * s0 / delta
        gamma_star = np.zeros(mset.d_gamma)
    else:
        inner = _inner_linf if math.isinf(mset.p) else _inner_l2

        def budget_gap(rho: float) -> float:
            g = inner(red, rho, m)
            return red.qform(g) + red.s0_sq / rho**2 - 0.25 * delta**2

        rho0 = 2.0 * s0 / delta
        lo, hi = rho0, rho0
        for _ in range(200):
            if budget_gap(lo) > 0.0:
                break
            lo /= 4.0
        else:
            raise SolverFailure("could not bracket the budget multiplier from below")
        for _ in range(200):
            if budget_gap(hi) < 0.0:
                break
            hi *= 4.0
        else:
            raise SolverFailure("could not bracket the budget multiplier from above")
        # the dual value is stationary in rho at the root, so omega is second-
        # order insensitive to the residual bracketing error; the slope and
        # the budget binding are first order in it, hence the tight tolerance
        rho = float(brentq(budget_gap, lo, hi, xtol=1e-13 * rho0, rtol=1e-15))
        gamma_star = inner(red, rho, m)

    c_star = mset.b_mat @ gamma_star
    theta_star = np.linalg.solve(
        red.gram,
        model.gamma.T @ solve_psd(model.sigma, c_star)) + red.gram_inv_h / rho
    omega = 2.0 * float(model.h_deriv @ theta_star)
    k_delta = rho * solve_psd(model.sigma, c_star - model.gamma @ theta_star)
    omega_prime = math.sqrt(float(k_delta @ model.sigma @ k_delta))
    return ModulusSolution(delta=float(delta), omega=omega,
                           omega_prime=omega_prime, theta_star=theta_star,
                           c_star=c_star, k_delta=k_delta)


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
    cache: dict[float, ModulusSolution] = {}

    def modulus(delta: float) -> ModulusSolution:
        key = round(delta, 14)
        if key not in cache:
            cache[key] = half_modulus(model, mset, delta)
        return cache[key]

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
    bias_scale = (_bias_to_sd(model, mset) if mset.m > 0.0 else 0.0)
    delta_hi = 4.0 * norm_quantile(1.0 - a / 2.0) + 8.0 * bias_scale
    grid = np.geomspace(1e-3, delta_hi, 25)
    vals = [_flci_length_halved(modulus(d), a) for d in grid]
    j = int(np.argmin(vals))
    lo_d = grid[max(j - 1, 0)]
    hi_d = grid[min(j + 1, grid.shape[0] - 1)]
    _, best = golden_section(lambda d: _flci_length_halved(modulus(d), a),
                             lo_d, hi_d, tol=1e-6)
    best = min(best, min(vals))
    return numer / (2.0 * best)


def _bias_to_sd(model: MomentModel, mset: MisspecSet) -> float:
    """Worst-case bias of the efficient sensitivity in its own sd units."""
    from .sensitivity import l2_sensitivity, worst_case_bias

    k0 = l2_sensitivity(model, mset.b_mat, 0.0)
    sd = math.sqrt(float(k0 @ model.sigma @ k0))
    return worst_case_bias(k0, mset) / sd


def kappa_one_sided(model: MomentModel, mset: MisspecSet, alpha: float = 0.05,
                    beta: float = 0.8) -> float:
    """One-sided efficiency bound ``omega(2 d_b) / (omega(d_b) + d_b omega'(d_b))``
    at ``d_b = z_{1-alpha} + z_beta``.
    """
    a = _check_alpha(alpha)
    if not (0.0 < beta < 1.0):
        raise OutOfRange(f"beta must lie in (0, 1), got {beta}")
    d_b = norm_quantile(1.0 - a) + norm_quantile(beta)
    sol1 = half_modulus(model, mset, d_b)
    sol2 = half_modulus(model, mset, 2.0 * d_b)
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
