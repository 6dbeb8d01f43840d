"""Bias-variance optimal sensitivity paths.

For a misspecification set ``{B @ gamma : ||gamma||_p <= m}`` the family of
sensitivities minimizing variance ``k' Sigma k`` subject to the regularity
constraint ``H = -k' Gamma`` and a sliding bound on worst-case bias is:

* p = 2 — the ridge form ``k' = -H (G' W G)^{-1} G' W`` with
  ``W = (lam * B B' + Sigma)^{-1}``, in closed form at any lambda in
  ``[0, inf]``. One Cholesky factor ``Sigma = L L'`` and one SVD
  ``L^-1 B = U S V'`` diagonalize Sigma and ``B B'`` at once; in the
  coordinates ``z = U' L' k`` the variance is ``||z||^2``, the unit bias is
  ``||S z_1||`` (``z_1``: the first d_gamma coordinates) and each point of
  the path costs O(d_g d_theta). The frontier keeps knots on a log-spaced
  lambda grid;
* p = inf — a piecewise-linear homotopy in the penalty weight, analogous to
  the LAR-LASSO path, computed exactly between breakpoints until no event is
  reachable, so the path is complete on ``[0, inf]``.

Every knot also carries the multiplier ``mu`` of the constraint: with ``s`` a
subgradient of the unit bias at k (``B'k / bbar`` for p = 2, a sign vector for
p = inf), ``Sigma k + lam' * B s + Gamma mu = 0`` where ``lam'`` is
``lam * bbar`` for p = 2 and ``lam`` for p = inf.

Paths are always computed for the unit set (m = 1); scale invariance means the
same path serves every magnitude m, with the worst-case bias simply rescaled.
:func:`select_lambda` then picks the knot (or interior point) minimizing CI
length, worst-case MSE or a one-sided excess-length quantile at a given m, and
the modulus of continuity is the frontier's minimum of ``2 m bbar + delta sd``
(:mod:`momentguard.efficiency`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from ._linalg import golden_section, orth_complement, solve_psd
from .critval import _check_alpha, cv_alpha, norm_quantile
from .errors import (
    DegeneratePath,
    DimensionMismatch,
    EmptyFrontier,
    OutOfRange,
    RankDeficiency,
    SingularSystem,
    SolverFailure,
)
from .model import MisspecSet, MomentModel, Sensitivity

#: Relative tie tolerance for simultaneous drop/add events on the inf-path.
TIE_RTOL = 1e-12

#: Relative threshold below which a transformed coefficient counts as zero.
ACTIVE_ZERO_RTOL = 1e-11

#: Events of the inf-path farther ahead than this many units of lambda (its
#: natural scale ``tr(Sigma) ||k_0|| / ||B||_F``) count as unreachable: only a
#: rounding residue in a direction that is zero can schedule them.
MAX_EVENT_STEP = 1e12


@dataclass(frozen=True)
class FrontierKnot:
    """One point on the sensitivity path: penalty, weights, unit bias,
    variance and the multiplier ``mu`` of the constraint ``H = -k' Gamma``."""

    lam: float
    k: np.ndarray
    bbar: float
    var: float
    mu: np.ndarray


class _L2Path:
    """The p = 2 path in closed form at any ``lam = t / (1 - t)``, t in [0, 1].

    With ``Sigma = L L'`` and ``L^-1 B = U S V'``, put ``A = U' L^-1 Gamma``.
    The ridge solution is ``z = -w * (A mu)`` with ``mu = (A' diag(w) A)^-1 H``
    and ``w = (1 - t) / (1 - t + t s^2)`` on the first d_gamma coordinates,
    1 elsewhere; ``k = L^-T U z``. Nothing diverges at t = 1 (lam = inf),
    where w vanishes on the suspect directions and the path ends at the GLS
    sensitivity that ignores them, which exists when
    ``d_gamma <= d_g - d_theta``.
    """

    def __init__(self, model: MomentModel, b_mat: np.ndarray):
        b = np.atleast_2d(np.asarray(b_mat, dtype=float))
        if b.shape[0] != model.d_g:
            raise DimensionMismatch(
                f"b_mat has {b.shape[0]} rows, model has d_g={model.d_g}")
        try:
            chol = np.linalg.cholesky(model.sigma)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"Cholesky factor of sigma failed: {exc}") from exc
        u, self.s, _ = np.linalg.svd(np.linalg.solve(chol, b))
        self.a = u.T @ np.linalg.solve(chol, model.gamma)
        self.to_k = np.linalg.solve(chol.T, u)
        self.h = model.h_deriv
        #: the suspect directions leave d_theta moments to identify theta,
        #: so the bias reaches 0 at lam = inf
        self.ends_unbiased = b.shape[1] <= model.d_g - model.d_theta

    def knot(self, lam: float) -> FrontierKnot:
        """Frontier point at ``lam`` in ``[0, inf]``."""
        t, one_minus_t = (1.0, 0.0) if math.isinf(lam) else (
            lam / (1.0 + lam), 1.0 / (1.0 + lam))
        w, _, mu, a_mu = self._solve(t, one_minus_t)
        z = -w * a_mu
        bias = self.s * z[:self.s.shape[0]]
        return FrontierKnot(lam=float(lam), k=self.to_k @ z,
                            bbar=math.sqrt(bias @ bias),
                            var=_checked_var(float(z @ z), lam), mu=mu)

    def sd_lam_bbar(self, t: float) -> tuple[float, float]:
        """``sd`` and ``lam * bbar`` at ``lam = t / (1 - t)``, both finite at
        t = 1."""
        w, den, _, a_mu = self._solve(t, 1.0 - t)
        z = w * a_mu
        lam_bias = self.s * (t / den) * a_mu[:self.s.shape[0]]
        return math.sqrt(z @ z), math.sqrt(lam_bias @ lam_bias)

    def _solve(self, t: float, one_minus_t: float):
        """Weights w, their denominators, mu and ``A mu`` at t."""
        den = one_minus_t + t * self.s**2
        w = np.ones(self.a.shape[0])
        w[:self.s.shape[0]] = one_minus_t / den
        try:
            mu = np.linalg.solve((self.a.T * w) @ self.a, self.h)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("Gamma' W Gamma is singular") from exc
        return w, den, mu, self.a @ mu


@dataclass(frozen=True)
class SensitivityFrontier:
    """Ordered knots of the bias-variance frontier for a unit misspecification set.

    ``kind`` records how the path was built: "l2" (closed-form grid, every
    point recomputable exactly through ``l2_path``), "linf" (homotopy
    breakpoints, the path is linear in k and mu between consecutive knots and
    k is constant past the last one, where mu moves at the rate ``mu_slope``),
    or "single" (one knot).
    """

    knots: tuple[FrontierKnot, ...]
    set: MisspecSet
    model: MomentModel
    kind: str
    mu_slope: np.ndarray | None = None
    l2_path: _L2Path | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.knots) == 0:
            raise EmptyFrontier("frontier must contain at least one knot")


@dataclass(frozen=True)
class LambdaChoice:
    lambda_star: float
    criterion: str
    m: float


def worst_case_bias(k: Sensitivity, mset: MisspecSet) -> float:
    """Worst-case absolute bias ``sup {|k' c| : c in C(m)} = m * ||B'k||_p'``.

    Uses Holder duality: the conjugate norm is l1 for p = inf and l2 for p = 2.
    """
    k = np.asarray(k, dtype=float).reshape(-1)
    if k.shape[0] != mset.b_mat.shape[0]:
        raise DimensionMismatch(
            f"k has length {k.shape[0]}, b_mat has {mset.b_mat.shape[0]} rows")
    v = mset.b_mat.T @ k
    dual = np.sum(np.abs(v)) if math.isinf(mset.p) else float(np.linalg.norm(v))
    return mset.m * float(dual)


def l2_sensitivity(model: MomentModel, b_mat: np.ndarray,
                   lam: float) -> Sensitivity:
    """Optimal sensitivity for an l2 set at penalty ``lam`` in ``[0, inf]``
    (ridge form)."""
    if lam < 0.0:
        raise OutOfRange(f"lambda must be nonnegative, got {lam}")
    return _L2Path(model, b_mat).knot(lam).k


def _checked_var(var: float, lam: float) -> float:
    if not (0.0 < var < math.inf):  # k != 0 and sigma is PD: under/overflow
        raise SingularSystem(f"variance {var!r} at lambda={lam!r}: the "
                             "model's scale exceeds double precision")
    return var


def _knot(model: MomentModel, unit_set: MisspecSet, lam: float,
          k: np.ndarray, mu: np.ndarray) -> FrontierKnot:
    return FrontierKnot(lam=float(lam), k=k, bbar=worst_case_bias(k, unit_set),
                        var=_checked_var(float(k @ model.sigma @ k), lam), mu=mu)


def linf_path(model: MomentModel, b_mat: np.ndarray) -> SensitivityFrontier:
    """Full piecewise-linear sensitivity path for an l-infinity set.

    Works in transformed coordinates ``kt = T'^{-1} k`` where
    ``T = [B_perp'; (B'B)^{-1} B']``, so that the penalty involves only the
    last d_gamma coordinates of ``kt``. Starting from the efficient-GMM
    solution at zero penalty, the path moves along exact linear segments; at
    each event either an active penalized coordinate hits zero (and is
    dropped, with exact ties against an add resolved drop-first) or an
    inactive coordinate's stationarity bound ``|grad_i| = lam`` starts binding
    (and is added). Terminates when no further drop or add is reachable: k is
    constant from the last knot on, while the multiplier keeps moving at the
    rate stored as ``mu_slope``. Steps are reckoned in lambda's natural unit,
    so rescaling Sigma, B or H rescales lambda and k and leaves the events
    unchanged. When ``d_gamma > d_g - d_theta`` the path may run on through
    coordinate swaps after the active set first shrinks to d_theta members.

    Returns the breakpoints mapped back to original coordinates via
    ``k = T' kt``. Every knot satisfies the regularity constraint to solver
    precision.
    """
    b = np.atleast_2d(np.asarray(b_mat, dtype=float))
    mset = MisspecSet(b, math.inf, 1.0)
    if b.shape[0] != model.d_g:
        raise DimensionMismatch(
            f"b_mat has {b.shape[0]} rows, model has d_g={model.d_g}")
    d_g = model.d_g
    d_gam = b.shape[1]

    b_perp = orth_complement(b)
    try:
        t_mat = np.vstack([b_perp.T, np.linalg.solve(b.T @ b, b.T)])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("b_mat' b_mat is singular") from exc
    sig_t = 0.5 * (t_mat @ model.sigma @ t_mat.T
                   + (t_mat @ model.sigma @ t_mat.T).T)
    gam_t = t_mat @ model.gamma
    is_pen = np.zeros(d_g, dtype=bool)
    is_pen[d_g - d_gam:] = True

    # lam = 0: efficient GMM in transformed coordinates.
    sig_inv_gam = solve_psd(sig_t, gam_t)
    gram = gam_t.T @ sig_inv_gam
    try:
        mu = np.linalg.solve(gram, model.h_deriv)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("Gamma' Sigma^-1 Gamma is singular") from exc
    kt = -sig_inv_gam @ mu

    def snap(v: np.ndarray) -> np.ndarray:
        # numerical-zero convention applies to the penalized (membership-
        # carrying) coordinates only, relative to their own scale;
        # unpenalized entries stay exact
        v = v.copy()
        tiny = ACTIVE_ZERO_RTOL * np.max(np.abs(v[is_pen]))
        v[is_pen & (np.abs(v) < tiny)] = 0.0
        return v

    kt = snap(kt)
    lam = 0.0
    # a penalized coordinate is active iff its coefficient is nonzero;
    # unpenalized coordinates never leave the active set
    active = ~is_pen | (kt != 0.0)

    def directions(active_mask, s_full):
        idx = np.flatnonzero(active_mask)
        sig_aa = sig_t[np.ix_(idx, idx)]
        gam_a = gam_t[idx, :]
        sa = s_full[idx]
        x = solve_psd(sig_aa, np.column_stack([gam_a, sa]))
        gram_a = gam_a.T @ x[:, :-1]
        try:
            mu_d = -np.linalg.solve(gram_a, gam_a.T @ x[:, -1])
        except np.linalg.LinAlgError as exc:
            raise RankDeficiency("active-set gram matrix is singular") from exc
        kt_d = np.zeros(d_g)
        kt_d[idx] = -np.linalg.solve(sig_aa, gam_a @ mu_d + sa)
        return mu_d, kt_d

    s = np.where(is_pen & active, np.sign(kt), 0.0)
    mu_delta, kt_delta = directions(active, s)

    knots = [_knot(model, mset, lam, t_mat.T @ kt, mu)]
    # lambda scales as Sigma k / B; reckoning steps in this unit keeps the
    # path the same when Sigma, B or H is rescaled
    lam_unit = (np.trace(model.sigma) * np.linalg.norm(knots[0].k)
                / np.linalg.norm(b))
    reach = MAX_EVENT_STEP * lam_unit
    max_events = 8 * d_g + 24
    just_added = -1

    for _ in range(max_events):
        tol_d = 1e-13 * (lam_unit + lam)

        # d1: an active penalized coordinate reaches zero. A coordinate
        # sitting exactly at zero (from a simultaneous tie) drops immediately
        # unless it just entered and is moving off zero.
        d1 = math.inf
        d1_idx = -1
        for i in np.flatnonzero(active & is_pen):
            if kt[i] == 0.0:
                if i != just_added:
                    d1, d1_idx = 0.0, i
                    break
                continue
            if abs(kt_delta[i]) * reach <= abs(kt[i]):
                continue
            d = -kt[i] / kt_delta[i]
            if tol_d < d < d1:
                d1, d1_idx = d, i

        # d2: an inactive coordinate's gradient bound starts binding:
        # sign*(grad_i + d*grad_delta_i) = lam + d for one of the two signs.
        grad = sig_t @ kt + gam_t @ mu
        grad_delta = sig_t @ kt_delta + gam_t @ mu_delta
        d2 = math.inf
        d2_idx = -1
        for i in np.flatnonzero(~active):
            for sign in (1.0, -1.0):
                denom = sign * grad_delta[i] - 1.0
                if denom <= 1e-14:
                    continue
                d = (lam - sign * grad[i]) / denom
                if tol_d < d < min(d2, reach):
                    d2, d2_idx = d, i

        if not math.isfinite(min(d1, d2)):
            break

        # ties within relative tolerance: process the drop before the add
        if math.isinf(d1):
            drop = False
        elif math.isinf(d2):
            drop = True
        else:
            drop = d1 <= d2 + TIE_RTOL * max(d1, d2)
        d = d1 if drop else d2
        kt = kt + d * kt_delta
        mu = mu + d * mu_delta
        lam += d
        kt = snap(kt)
        if drop:
            active[d1_idx] = False
            kt[d1_idx] = 0.0
            just_added = -1
        else:
            active[d2_idx] = True
            just_added = d2_idx

        grad = sig_t @ kt + gam_t @ mu
        s = np.where(is_pen & active, -np.sign(grad), 0.0)
        mu_delta, kt_delta = directions(active, s)
        knots.append(_knot(model, mset, lam, t_mat.T @ kt, mu))
    else:
        raise DegeneratePath(f"homotopy did not terminate within {max_events} events")

    return SensitivityFrontier(knots=tuple(knots), set=mset, model=model,
                               kind="linf", mu_slope=mu_delta)


#: Grid size for the l2 penalty path.
L2_GRID_POINTS = 50


def frontier(model: MomentModel, mset: MisspecSet) -> SensitivityFrontier:
    """Compute the sensitivity frontier for the unit version of ``mset``.

    Dispatches on the norm: a lambda grid plus the efficient-GMM point for
    p = 2, the exact homotopy for p = inf. A degenerate magnitude m = 0 short-
    circuits to the single efficient-GMM knot.
    """
    unit = mset.scaled(1.0)
    if mset.m == 0.0:
        return SensitivityFrontier(knots=(_L2Path(model, mset.b_mat).knot(0.0),),
                                   set=unit, model=model, kind="single")
    b_sq = float(np.sum(mset.b_mat**2))
    if not (np.finfo(float).tiny <= b_sq < math.inf):
        raise SingularSystem(f"b_mat has squared norm {b_sq!r}: its scale "
                             "exceeds double precision")
    if math.isinf(mset.p):
        return linf_path(model, mset.b_mat)
    path = _L2Path(model, mset.b_mat)
    scale = np.trace(model.sigma) / b_sq
    lams = np.concatenate([[0.0], scale * np.logspace(-6.0, 6.0, L2_GRID_POINTS)])
    return SensitivityFrontier(knots=tuple(path.knot(lam) for lam in lams),
                               set=unit, model=model, kind="l2", l2_path=path)


def _criterion_fn(criterion: str, m: float, alpha: float, beta: float):
    if criterion == "ci_length":
        def fn(bbar: float, var: float) -> float:
            sd = math.sqrt(var)
            return 2.0 * cv_alpha(m * bbar / sd, alpha) * sd
    elif criterion == "mse":
        def fn(bbar: float, var: float) -> float:
            return (m * bbar) ** 2 + var
    elif criterion == "one_sided_quantile":
        if not (0.0 < beta < 1.0):
            raise OutOfRange(f"beta must lie in (0, 1), got {beta}")
        weight = norm_quantile(1.0 - alpha) + norm_quantile(beta)

        def fn(bbar: float, var: float) -> float:
            return m * bbar + weight * math.sqrt(var)
    else:
        raise OutOfRange("criterion must be 'ci_length', 'mse' or "
                         f"'one_sided_quantile', got {criterion!r}")
    return fn


def knot_at(front: SensitivityFrontier, lam: float) -> FrontierKnot:
    """Frontier point at an arbitrary penalty value.

    Exact recomputation for l2 frontiers; linear interpolation in k and mu
    between the bracketing breakpoints for inf-paths (the path is linear
    there, so this is exact as well). Beyond the last knot k is constant and
    mu moves on at the rate ``front.mu_slope``.
    """
    if front.kind == "l2":
        return front.l2_path.knot(lam)
    lams = [kn.lam for kn in front.knots]
    if lam <= lams[0]:
        return front.knots[0]
    if lam >= lams[-1]:
        kn = front.knots[-1]
        mu = kn.mu if front.mu_slope is None else (
            kn.mu + (lam - kn.lam) * front.mu_slope)
        return FrontierKnot(lam=float(lam), k=kn.k, bbar=kn.bbar, var=kn.var,
                            mu=mu)
    j = int(np.searchsorted(lams, lam, side="right")) - 1
    lo, hi = front.knots[j], front.knots[j + 1]
    if hi.lam <= lo.lam:
        return hi
    w = (lam - lo.lam) / (hi.lam - lo.lam)
    return _knot(front.model, front.set, lam, (1.0 - w) * lo.k + w * hi.k,
                 (1.0 - w) * lo.mu + w * hi.mu)


def _argmin_bias_sd(front: SensitivityFrontier, a: float,
                    b: float) -> FrontierKnot:
    """Frontier point minimizing ``a * bbar + b * sd`` (a >= 0, b > 0).

    The objective is convex in k, so its stationarity condition picks the
    penalty: ``lam = a sd / b`` on an inf-path, ``lam bbar = a sd / b`` on
    the l2 path. Along an inf-path segment bbar is linear in the segment
    weight and the variance quadratic, so each segment's minimum is closed
    form; on the l2 path the condition is one bracketed root in
    ``t = lam / (1 + lam)``, and without a root the minimizer is the
    ``lam = inf`` end.
    """
    if a == 0.0:
        return front.knots[0]
    if front.kind == "l2":
        path = front.l2_path

        def gap(t: float) -> float:
            sd, lam_bbar = path.sd_lam_bbar(t)
            return b * lam_bbar - a * sd

        lo, hi = 0.0, 1.0
        if path.ends_unbiased:
            if gap(1.0) <= 0.0:
                return path.knot(math.inf)
        else:
            # bbar stays positive, so gap grows without bound as t -> 1
            hi = 0.75
            while gap(hi) < 0.0:
                if hi == 1.0:
                    raise SolverFailure("could not bracket the l2 penalty")
                lo, hi = hi, 1.0 - 0.25 * (1.0 - hi)
        t = brentq(gap, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
        return path.knot(t / (1.0 - t) if t < 1.0 else math.inf)

    # the minimizer's sd fixes its penalty lam = a sd / b, which also places
    # it where k stands still over a range of lam (past the last knot, or on
    # a segment where only mu moves)
    sigma = front.model.sigma
    last = front.knots[-1]
    best_sd = math.sqrt(last.var)
    best_val = a * last.bbar + b * best_sd
    for lo, hi in zip(front.knots, front.knots[1:]):
        dk = hi.k - lo.k
        v2 = float(dk @ sigma @ dk)
        if not v2 > 0.0:
            continue
        # var(w) = h2 + r(w)^2 with r = sqrt(v2) w + c / sqrt(v2): minimize
        # beta r + b sqrt(h2 + r^2) over r, then clip the weight to [0, 1]
        c = float(lo.k @ sigma @ dk)
        h2 = max(lo.var - c * c / v2, 0.0)
        beta = a * (hi.bbar - lo.bbar) / math.sqrt(v2)
        if beta <= -b:
            w = 1.0
        elif beta >= b:
            w = 0.0
        else:
            r = -beta * math.sqrt(h2 / (b * b - beta * beta))
            w = min(max((r * math.sqrt(v2) - c) / v2, 0.0), 1.0)
        sd = math.sqrt(max(lo.var + w * (2.0 * c + w * v2), 0.0))
        val = a * ((1.0 - w) * lo.bbar + w * hi.bbar) + b * sd
        if val < best_val:
            best_val, best_sd = val, sd
    return knot_at(front, a * best_sd / b)


#: Interior evaluation points per inf-path segment when selecting lambda.
SEGMENT_SUBGRID = 20


def select_lambda(front: SensitivityFrontier, m: float, alpha: float = 0.05,
                  criterion: str = "ci_length", beta: float = 0.8) -> LambdaChoice:
    """Penalty minimizing CI length, worst-case MSE or, for
    "one_sided_quantile", ``m * bbar + (z_{1-alpha} + z_beta) * sd`` at ``m``.

    Evaluates the criterion along the computed path: at every knot, plus a
    golden-section refinement between the neighbors of the best grid point
    (l2), or a subgrid within each linear segment (inf), since the criterion
    varies inside segments as k moves.
    """
    _check_alpha(alpha)
    if m < 0.0:
        raise OutOfRange(f"m must be nonnegative, got {m}")
    fn = _criterion_fn(criterion, m, alpha, beta)
    if m == 0.0 or len(front.knots) == 1 or front.kind == "single":
        return LambdaChoice(lambda_star=front.knots[0].lam, criterion=criterion, m=m)

    vals = [fn(kn.bbar, kn.var) for kn in front.knots]
    best = int(np.argmin(vals))
    best_lam, best_val = front.knots[best].lam, vals[best]

    if front.kind == "l2":
        lo = front.knots[max(best - 1, 0)].lam
        hi = front.knots[min(best + 1, len(front.knots) - 1)].lam
        if hi > lo:
            def obj(lam: float) -> float:
                kn = knot_at(front, lam)
                return fn(kn.bbar, kn.var)
            lam_ref, val_ref = golden_section(obj, lo, hi,
                                              tol=1e-6 * max(hi - lo, 1.0))
            if val_ref < best_val:
                best_lam, best_val = lam_ref, val_ref
    else:
        for j in range(len(front.knots) - 1):
            lo, hi = front.knots[j], front.knots[j + 1]
            if hi.lam <= lo.lam:
                continue
            for w in np.linspace(0.0, 1.0, SEGMENT_SUBGRID + 2)[1:-1]:
                k = (1.0 - w) * lo.k + w * hi.k
                kn = _knot(front.model, front.set,
                           (1.0 - w) * lo.lam + w * hi.lam, k,
                           (1.0 - w) * lo.mu + w * hi.mu)
                v = fn(kn.bbar, kn.var)
                if v < best_val:
                    best_lam, best_val = kn.lam, v

    return LambdaChoice(lambda_star=float(best_lam), criterion=criterion, m=m)
