"""Independent brute-force validators used by the test suite.

Each routine answers the same question as a production solver through a
different, dumber route: plain bisection, vertex enumeration, KKT
enumeration over sign patterns, an exhaustive lattice and scipy's brentq.
None of them call the solver they validate; the lambda selector's reference
reads the frontier only through its point evaluator.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from momentguard.critval import cv_alpha, norm_quantile
from momentguard.errors import FeasibilityError, NumericalError, OutOfRange
from momentguard.model import MisspecSet, MomentModel, Sensitivity


class NoFeasibleKKTPoint(NumericalError):
    """Exhaustive KKT enumeration found no feasible stationary point (a bug)."""


class DimensionTooLarge(FeasibilityError):
    """A brute-force oracle was asked to run beyond its supported size."""


# -- folded-normal critical value ----------------------------------------------

def cv_alpha_tail_oracle(b: float, alpha: float) -> float:
    """Bisection to adjacent doubles on the tail form ``alpha - Q(c - b) -
    Q(c + b)``, ``Q(x) = erfc(x / sqrt 2) / 2``: the first double of
    ``[0, b + 40]`` at which it is nonnegative."""
    def gap(c: float) -> float:
        return (alpha - 0.5 * math.erfc((c - b) / math.sqrt(2.0))
                - 0.5 * math.erfc((c + b) / math.sqrt(2.0)))

    lo, hi = 0.0, float(b) + 40.0
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid


# -- the lambda selector's first-order root -----------------------------------

def weights_of(criterion, m: float = 1.0, alpha: float = 0.05):
    """A criterion's partial derivatives ``(a, b)`` in bbar and sd at a
    frontier point, the form the first-order condition ``G = b lam' - a sd``
    reads them in: a criterion by name at magnitude ``m``, or a pair
    ``(a, b)`` of fixed weights, as in the modulus ``2 m bbar + delta sd``."""
    if not isinstance(criterion, str):
        a, b = criterion
        return lambda bbar, sd: (a, b)

    def weights(bbar, sd):
        if criterion == "ci_length":
            tau = m * bbar / sd
            c = cv_alpha(tau, alpha)
            t = math.tanh(c * tau)
            return m * t, c - tau * t
        if criterion == "mse":
            return m * m * bbar, sd
        return m, norm_quantile(1.0 - alpha) + norm_quantile(0.8)
    return weights


def brentq_selector(front, m: float, criterion, alpha: float = 0.05):
    """The root of ``G = b lam' - a sd`` (see :func:`weights_of`) by scipy's
    brentq: in ``log(lam)`` on the l2 path, bracketed by the first of the
    integers -40..40 with ``G(e^j) >= 0``; in lam
    inside the segment whose upper knot first has ``G >= 0`` on an
    inf-path, and ``lam = a sd / b`` past the last knot. Returns lam, or
    None where the root lies at an end of the path (beyond ``e^-40`` or
    ``e^40`` on the l2 path)."""
    from scipy.optimize import brentq

    weights = weights_of(criterion, m, alpha)
    l2 = front.set.p == 2.0

    def gap(lam):
        kn = front.knot(lam)
        sd = math.sqrt(kn.var)
        a, b = weights(kn.bbar, sd)
        return b * (lam * kn.bbar if l2 else lam) - a * sd

    eps = np.finfo(float).eps
    if l2:
        # the first integer j in -40..40 with G(e^j) >= 0, G rising: the walk
        # starts at the root of G linearized at lam = 0
        first = front.first
        a, b = weights(first.bbar, math.sqrt(first.var))
        j = min(max(math.floor(math.log(a) - math.log(b) + 0.5 * math.log(first.var)
                               - math.log(first.bbar)), -40), 40)
        if gap(math.exp(j)) >= 0.0:
            while j > -40 and gap(math.exp(j - 1)) >= 0.0:
                j -= 1
        else:
            j += 1
            while j <= 40 and gap(math.exp(j)) < 0.0:
                j += 1
        if j in (-40, 41):
            return None
        return math.exp(brentq(lambda u: gap(math.exp(u)), j - 1.0, float(j),
                               xtol=1e-300, rtol=4 * eps))
    lams = [kn.lam for kn in front.knots]
    j = next((j for j, lam in enumerate(lams) if gap(lam) >= 0.0), None)
    if j == 0:
        return None
    if j is None:
        last = front.knots[-1]
        a, b = weights(last.bbar, math.sqrt(last.var))
        return a * math.sqrt(last.var) / b
    return brentq(gap, lams[j - 1], lams[j], xtol=1e-300, rtol=4 * eps)


def root_tolerance(front, lam: float, m: float, criterion, alpha: float = 0.05) -> float:
    """How far in ``log(lam)`` two roots of the selector's first-order
    condition may lie apart at ``lam``: ``4 eps (1 + |log lam|)`` plus F's
    rounding ``16 eps (1 + |log lam| + |log r|)``, over F's slope in
    ``log(lam)`` (at most 1), F = ``log(lam' / sd) - log r``."""
    weights = weights_of(criterion, m, alpha)
    eps = np.finfo(float).eps

    def f(u):
        kn = front.knot(math.exp(u))
        sd = math.sqrt(kn.var)
        a, b = weights(kn.bbar, sd)
        lam_prime = math.exp(u) * (kn.bbar if front.set.p == 2.0 else 1.0)
        return math.log(lam_prime / sd) - math.log(a / b)

    u = math.log(lam)
    kn = front.knot(lam)
    a, b = weights(kn.bbar, math.sqrt(kn.var))
    slope = (f(u + 1e-6) - f(u - 1e-6)) / 2e-6
    rounding = 16.0 * eps * (1.0 + abs(u) + abs(math.log(a / b)))
    return (4.0 * eps * (1.0 + abs(u)) + rounding) / min(slope, 1.0)


# -- worst-case bias by vertex enumeration --------------------------------------

def sign_vertex_max(gram: np.ndarray) -> float:
    """``max t' G t`` over ``t`` in ``{-1, 1}^d``, one vertex at a time."""
    best = 0.0
    for tail in product((-1.0, 1.0), repeat=gram.shape[0] - 1):
        t = np.array((1.0,) + tail)
        best = max(best, float(t @ gram @ t))
    return best


def vertex_bias(k: Sensitivity, mset: MisspecSet) -> float:
    """Worst-case |k'c| over an l-infinity set by enumerating all sign vertices."""
    if not math.isinf(mset.p):
        raise OutOfRange("vertex enumeration applies to p = inf sets only")
    d_gam = mset.d_gamma
    if d_gam > 14:
        raise DimensionTooLarge(f"refusing to enumerate 2^{d_gam} vertices")
    v = mset.b_mat.T @ np.asarray(k, dtype=float).reshape(-1)
    best = 0.0
    for signs in product((-1.0, 1.0), repeat=d_gam):
        best = max(best, abs(float(np.dot(v, signs))))
    return mset.m * best


# -- penalized sensitivity by KKT enumeration -----------------------------------

def kkt_sensitivity(model: MomentModel, b_mat: np.ndarray,
                    lam: float) -> Sensitivity:
    """Solve ``min k'Sigma k/2 + lam*||B'k||_1  s.t.  H = -k'Gamma`` exactly.

    Enumerates all 3^d_gamma sign patterns of ``B'k``, solves the KKT linear
    system implied by each pattern, and keeps the feasible point with the
    smallest objective. Independent of the homotopy it validates.
    """
    b = np.atleast_2d(np.asarray(b_mat, dtype=float))
    d_g = model.d_g
    d_th = model.d_theta
    d_gam = b.shape[1]
    if d_gam > 12:
        raise DimensionTooLarge(f"refusing to enumerate 3^{d_gam} sign patterns")
    sigma, gamma, h = model.sigma, model.gamma, model.h_deriv
    tol = 1e-9

    best_obj = math.inf
    best_k = None
    for pattern in product((-1.0, 0.0, 1.0), repeat=d_gam):
        s = np.array(pattern)
        zero = np.flatnonzero(s == 0.0)
        nz = np.flatnonzero(s != 0.0)
        n_z = zero.shape[0]
        # unknowns: k (d_g), xi_zero (n_z in [-1,1]), mu (d_th)
        dim = d_g + n_z + d_th
        lhs = np.zeros((dim, dim))
        rhs = np.zeros(dim)
        lhs[:d_g, :d_g] = sigma
        lhs[:d_g, d_g:d_g + n_z] = lam * b[:, zero]
        lhs[:d_g, d_g + n_z:] = gamma
        rhs[:d_g] = -lam * (b[:, nz] @ s[nz]) if nz.size else 0.0
        lhs[d_g:d_g + n_z, :d_g] = b[:, zero].T
        lhs[d_g + n_z:, :d_g] = gamma.T
        rhs[d_g + n_z:] = -h
        try:
            sol = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            continue
        k = sol[:d_g]
        xi = sol[d_g:d_g + n_z]
        v = b.T @ k
        scale = max(np.max(np.abs(v)), 1.0)
        if lam > 0.0 and np.any(np.abs(xi) > 1.0 + tol):
            continue
        if np.any(np.abs(v[zero]) > tol * scale):
            continue
        if nz.size and np.any(v[nz] * s[nz] < -tol * scale):
            continue
        obj = 0.5 * k @ sigma @ k + lam * np.sum(np.abs(v))
        if obj < best_obj - 1e-15:
            best_obj, best_k = obj, k
    if best_k is None:
        raise NoFeasibleKKTPoint(
            "no sign pattern produced a feasible stationary point")
    return best_k


# -- lattice modulus -------------------------------------------------------------

def grid_modulus(model: MomentModel, mset: MisspecSet, delta: float,
                 grid_n: int = 200, zoom_rounds: int = 3) -> float:
    """Lower bound on the modulus by exhaustive lattice maximization.

    Lays a lattice over (theta, gamma), keeps points satisfying both the set
    membership and the quadratic budget, and returns twice the best objective.
    Each zoom round shrinks the window around the incumbent by a factor of 6
    (windows overlap heavily, so a flat-direction argmax several spacings off
    stays covered), so the value only uses feasible points and converges to
    the modulus from below as ``grid_n`` grows. Supports d_theta <= 2 and
    d_gamma <= 2.
    """
    d_th, d_gam = model.d_theta, mset.d_gamma
    if d_th > 2 or d_gam > 2:
        raise DimensionTooLarge("lattice oracle supports d_theta <= 2, d_gamma <= 2")
    sigma_inv = np.linalg.inv(model.sigma)
    half = 0.5 * delta
    b = mset.b_mat
    m = mset.m

    # any feasible theta satisfies ||Gamma theta|| <= ||c|| + half*sqrt(eigmax)
    sig_eig = np.linalg.eigvalsh(model.sigma)
    c_rad = m * np.linalg.norm(b, 2) * math.sqrt(d_gam)
    gam_smin = np.linalg.svd(model.gamma, compute_uv=False)[-1]
    th_rad = 1.05 * (c_rad + half * math.sqrt(sig_eig[-1])) / gam_smin + 1e-12

    def axis(center: float, rad: float) -> np.ndarray:
        return np.linspace(center - rad, center + rad, grid_n)

    th_centers = np.zeros(d_th)
    ga_centers = np.zeros(d_gam)
    th_r, ga_r = th_rad, m if m > 0 else 0.0
    best_val = -math.inf
    best_th = np.zeros(d_th)
    best_ga = np.zeros(d_gam)

    for _ in range(zoom_rounds + 1):
        th_axes = [np.append(axis(th_centers[j], th_r), 0.0) for j in range(d_th)]
        ga_axes = [np.append(axis(ga_centers[j], ga_r), 0.0) for j in range(d_gam)]
        th_grid = np.stack(np.meshgrid(*th_axes, indexing="ij"),
                           axis=-1).reshape(-1, d_th)
        ga_grid = np.stack(np.meshgrid(*ga_axes, indexing="ij"),
                           axis=-1).reshape(-1, d_gam)
        if math.isinf(mset.p):
            ok = np.all(np.abs(ga_grid) <= m + 1e-12, axis=1)
        else:
            ok = np.sum(ga_grid**2, axis=1) <= m * m + 1e-12
        ga_grid = ga_grid[ok]

        c_pts = ga_grid @ b.T                        # (G, d_g)
        t_pts = th_grid @ model.gamma.T              # (T, d_g)
        hval = th_grid @ model.h_deriv               # (T,)
        # quadratic form (c - Gamma theta)' Sigma^{-1} (c - Gamma theta),
        # expanded and chunked over gamma to bound memory
        cq = np.einsum("ij,jk,ik->i", c_pts, sigma_inv, c_pts)
        tq = np.einsum("ij,jk,ik->i", t_pts, sigma_inv, t_pts)
        si_t = sigma_inv @ t_pts.T                   # (d_g, T)
        budget = half * half + 1e-12
        chunk = max(1, int(2**22 // max(t_pts.shape[0], 1)))
        for g0 in range(0, c_pts.shape[0], chunk):
            g1 = min(g0 + chunk, c_pts.shape[0])
            q = cq[g0:g1, None] - 2.0 * (c_pts[g0:g1] @ si_t) + tq[None, :]
            feas = q <= budget
            if not feas.any():
                continue
            vals = np.where(feas, hval[None, :], -math.inf)
            flat = int(np.argmax(vals))
            gi, ti = divmod(flat, vals.shape[1])
            if vals[gi, ti] > best_val:
                best_val = float(vals[gi, ti])
                best_th = th_grid[ti]
                best_ga = ga_grid[g0 + gi]
        th_centers, ga_centers = best_th, best_ga
        th_r /= 6.0
        ga_r /= 6.0

    return 2.0 * best_val


# -- IV passes -----------------------------------------------------------------
# The sequential loops that the IV module's threaded passes replace. The
# threaded passes add the same per-block partial sums in the same order, so
# they must match these bit for bit.

def cross_matrix_loop(z: np.ndarray, x: np.ndarray, y: np.ndarray,
                      chunk: int) -> np.ndarray:
    """``W = [z'z z'x z'y]``, summed block by block over ``chunk`` rows."""
    d = z.shape[1]
    w = np.zeros((d, d + x.shape[1] + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, z.shape[0], chunk):
            hi = lo + chunk
            zb = z[lo:hi]
            w[:, :d] += zb.T @ zb
            w[:, d:] += zb.T @ np.column_stack([x[lo:hi], y[lo:hi]])
    return w


def resid_sums_loop(z: np.ndarray, resid: np.ndarray,
                    chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """``(z'resid, sum_i resid_i^2 z_i z_i')``, summed block by block."""
    d = z.shape[1]
    z_resid, meat = np.zeros(d), np.zeros((d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, z.shape[0], chunk):
            zb, rb = z[lo:lo + chunk], resid[lo:lo + chunk]
            z_resid += rb @ zb
            zr = zb * rb[:, None]
            meat += zr.T @ zr
    return z_resid, meat
