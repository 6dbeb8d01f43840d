"""Independent brute-force validators used by the test suite.

Each routine answers the same question as a production solver through a
different, dumber route: plain bisection, vertex enumeration, KKT
enumeration over sign patterns and an exhaustive lattice. None of them call
the module they validate.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from momentguard.errors import FeasibilityError, NumericalError, OutOfRange
from momentguard.model import MisspecSet, MomentModel, Sensitivity


class NoFeasibleKKTPoint(NumericalError):
    """Exhaustive KKT enumeration found no feasible stationary point (a bug)."""


class DimensionTooLarge(FeasibilityError):
    """A brute-force oracle was asked to run beyond its supported size."""


# -- folded-normal critical value ----------------------------------------------

def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def cv_alpha_oracle(b: float, alpha: float) -> float:
    """Plain 200-iteration bisection for the 1-alpha quantile of |N(b, 1)|."""
    lo, hi = 0.0, float(b) + 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _phi(mid - b) - _phi(-mid - b) < 1.0 - alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def cv_alpha_central_oracle(b: float, alpha: float) -> float:
    """Bisection to adjacent doubles on the central form ``Phi(c - b) -
    Phi(-c - b) - (1 - alpha)``, evaluated in 40-digit arithmetic: the first
    double of ``[0, b + 40]`` at which it is nonnegative, the root rounded up."""
    import mpmath

    with mpmath.workdps(40):
        b_mp, coverage = mpmath.mpf(b), 1 - mpmath.mpf(alpha)

        def gap(c: float):
            return mpmath.ncdf(c - b_mp) - mpmath.ncdf(-c - b_mp) - coverage

        lo, hi = 0.0, float(b) + 40.0
        while True:
            mid = lo + 0.5 * (hi - lo)
            if not lo < mid < hi:
                return hi
            if gap(mid) < 0:
                lo = mid
            else:
                hi = mid


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
