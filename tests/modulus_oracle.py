"""Primal modulus oracle: the rho-bisection solver the package used to ship.

It solves, for a statistical distance ``delta``,

    max  2 * H @ theta   s.t.  c in C,
         (c - Gamma theta)' Sigma^{-1} (c - Gamma theta) <= delta^2 / 4

directly. Profiling out ``theta`` in closed form reduces this to a concave
program over the set coefficients ``gamma`` alone:

    max  a @ gamma + s0 * sqrt(delta^2/4 - gamma' Q gamma),   ||gamma||_p <= m,

with ``a``, ``Q`` and ``s0`` built from one Cholesky solve. The quadratic
budget is dualized with a multiplier ``rho`` found by bisection; for fixed
``rho`` the inner problem is a box-constrained concave quadratic (p = inf,
solved by projected coordinate ascent) or a trust-region problem (p = 2,
solved through the eigendecomposition of Q). At the root the budget binds
exactly and the maximizer is recovered in closed form.

The package computes the modulus by duality from the sensitivity frontier
(:mod:`momentguard.efficiency`); this primal route shares none of that code,
so the tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from momentguard._linalg import solve_psd
from momentguard.efficiency import ModulusSolution
from momentguard.errors import InfeasibleDelta, OutOfRange, SolverFailure
from momentguard.model import MisspecSet, MomentModel


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
