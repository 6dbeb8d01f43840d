"""Independent brute-force validators used by the test suite.

Each routine answers the same question as a production solver through a
different, dumber route: exhaustive lattices, KKT enumeration over sign
patterns, vertex enumeration, plain bisection, and a seeded Monte Carlo
harness for the Gaussian limiting experiment. None of them call the module
they validate.

Randomness is produced by numpy's Philox counter-based bit generator with an
explicit integer seed; normal deviates come from the inverse-cdf transform of
open-interval uniforms, so streams are bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._linalg import sym_sqrt_psd
from .errors import CNotInSet, DimensionTooLarge, NoFeasibleKKTPoint, OutOfRange
from .model import MisspecSet, MomentModel, Sensitivity


# -- reproducible normals ------------------------------------------------------

#: Wichura's AS241 (1988) rational approximations to the normal quantile,
#: (numerator, denominator) coefficients from the highest power down: for
#: ``|u - 1/2| <= 0.425`` in ``r = 0.180625 - (u - 1/2)^2``, then in
#: ``r = sqrt(-log min(u, 1 - u))`` up to 5 (shifted by 1.6) and beyond (by 5).
_AS241 = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
      1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
      4.6303378461565452959e+0, 1.4234371107496835773e+0),
     (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
      1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
      2.0531916266377588219e+0, 1.0)),
    ((2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
      2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
      5.4637849111641143699e+0, 6.6579046435011037772e+0),
     (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
      7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
      5.9983220655588793769e-1, 1.0)),
)


def _horner(coef: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    y = np.full_like(r, coef[0])
    for c in coef[1:]:
        y *= r
        y += c
    return y


def _normal_quantile(u: np.ndarray) -> np.ndarray:
    """AS241 elementwise for ``u`` in (0, 1), with the operations of
    ``statistics.NormalDist.inv_cdf`` in the same order."""
    (num, den), near, far = _AS241
    q = u - 0.5
    z = np.empty_like(u)
    mid = np.abs(q) <= 0.425
    qm = q[mid]
    r = 0.180625 - qm * qm
    z[mid] = _horner(num, r) * qm / _horner(den, r)
    tail = ~mid
    ut = u[tail]
    r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
    x = np.empty_like(r)
    for (num, den), part, shift in ((near, r <= 5.0, 1.6), (far, r > 5.0, 5.0)):
        rs = r[part] - shift
        x[part] = _horner(num, rs) / _horner(den, rs)
    z[tail] = np.where(ut < 0.5, -x, x)
    return z


def standard_normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic standard normals: Philox counters -> open uniforms -> AS241."""
    gen = np.random.Generator(np.random.Philox(int(seed)))
    u = gen.integers(1, 2**53, size=shape) / float(2**53)
    return _normal_quantile(u)


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


# -- worst-case bias by vertex enumeration --------------------------------------

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


# -- Monte Carlo coverage in the limiting experiment -----------------------------

@dataclass(frozen=True)
class CoverageReport:
    replications: int
    nominal: float
    coverage: float
    mc_stderr: float
    worst_c: np.ndarray


def adversarial_c(mset: MisspecSet, k: Sensitivity) -> np.ndarray:
    """Boundary point of the set maximizing |k'c|, in closed form."""
    v = mset.b_mat.T @ np.asarray(k, dtype=float).reshape(-1)
    if math.isinf(mset.p):
        gamma = np.sign(v)
        gamma[gamma == 0.0] = 1.0
    else:
        nv = np.linalg.norm(v)
        gamma = v / nv if nv > 0 else np.ones_like(v) / math.sqrt(v.shape[0])
    return -mset.m * (mset.b_mat @ gamma)


def membership_gamma(mset: MisspecSet, c: np.ndarray) -> np.ndarray:
    """Coefficients representing ``c = B gamma``; raises CNotInSet otherwise."""
    c = np.asarray(c, dtype=float).reshape(-1)
    gamma, *_ = np.linalg.lstsq(mset.b_mat, c, rcond=None)
    resid = np.linalg.norm(mset.b_mat @ gamma - c)
    if resid > 1e-8 * max(1.0, np.linalg.norm(c)):
        raise CNotInSet("c is not in the column space of b_mat")
    norm = np.max(np.abs(gamma)) if math.isinf(mset.p) else np.linalg.norm(gamma)
    if norm > mset.m + 1e-9:
        raise CNotInSet(f"||gamma||_p = {norm:.6g} exceeds m = {mset.m:.6g}")
    return gamma


def mc_coverage(model: MomentModel, mset: MisspecSet, alpha: float,
                c: np.ndarray, reps: int, seed: int,
                theta: np.ndarray | None = None) -> CoverageReport:
    """Empirical coverage of the optimal robust CI in the Gaussian limit.

    Simulates ``Y = -Gamma theta + c + Sigma^{1/2} eps`` with seeded,
    platform-stable normals, forms the length-optimal bias-aware CI for the
    target ``H theta``, and reports the fraction of replications covering it.
    The perturbation ``c`` must be a member of the set.
    """
    from .critval import cv_alpha
    from .sensitivity import frontier, knot_at, select_lambda

    if reps < 1000:
        raise OutOfRange(f"reps must be at least 1000, got {reps}")
    c = np.asarray(c, dtype=float).reshape(-1)
    membership_gamma(mset, c)
    theta = np.zeros(model.d_theta) if theta is None else (
        np.asarray(theta, dtype=float).reshape(-1))

    front = frontier(model, mset)
    choice = select_lambda(front, mset.m, alpha, "ci_length")
    kn = knot_at(front, choice.lambda_star)
    sd = math.sqrt(kn.var)
    half = cv_alpha(mset.m * kn.bbar / sd, alpha) * sd

    eps = standard_normals(seed, (int(reps), model.d_g))
    y = -model.gamma @ theta + c + eps @ sym_sqrt_psd(model.sigma)
    target = float(model.h_deriv @ theta)
    center = y @ kn.k
    covered = np.abs(center - target) <= half
    coverage = float(np.mean(covered))
    stderr = math.sqrt(max(coverage * (1.0 - coverage), 0.0) / reps)
    return CoverageReport(replications=int(reps), nominal=1.0 - alpha,
                          coverage=coverage, mc_stderr=stderr, worst_c=c)
