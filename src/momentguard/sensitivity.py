"""Bias-variance optimal sensitivity paths.

For a misspecification set ``{B @ gamma : ||gamma||_p <= m}`` the family of
sensitivities minimizing variance ``k' Sigma k`` subject to the regularity
constraint ``H = -k' Gamma`` and a sliding bound on worst-case bias is:

* p = 2 — a ridge-type closed form ``k' = -H (G' W G)^{-1} G' W`` with
  ``W = (lam * B B' + Sigma)^{-1}``, evaluated on a log-spaced lambda grid;
* p = inf — a piecewise-linear homotopy in the penalty weight, analogous to
  the LAR-LASSO path, computed exactly between breakpoints.

Paths are always computed for the unit set (m = 1); scale invariance means the
same path serves every magnitude m, with the worst-case bias simply rescaled.
:func:`select_lambda` then picks the knot (or interior point) minimizing CI
length, worst-case MSE or a one-sided excess-length quantile at a given m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import golden_section, orth_complement, solve_psd
from .critval import _check_alpha, cv_alpha, norm_quantile
from .errors import (
    DegeneratePath,
    DimensionMismatch,
    EmptyFrontier,
    OutOfRange,
    RankDeficiency,
    SingularSystem,
)
from .model import MisspecSet, MomentModel, Sensitivity

#: Relative tie tolerance for simultaneous drop/add events on the inf-path.
TIE_RTOL = 1e-12

#: Relative threshold below which a transformed coefficient counts as zero.
ACTIVE_ZERO_RTOL = 1e-11


@dataclass(frozen=True)
class FrontierKnot:
    """One point on the sensitivity path: penalty, weights, unit bias, variance."""

    lam: float
    k: np.ndarray
    bbar: float
    var: float


@dataclass(frozen=True)
class SensitivityFrontier:
    """Ordered knots of the bias-variance frontier for a unit misspecification set.

    ``kind`` records how the path was built: "l2" (closed-form grid, interior
    points recomputable exactly), "linf" (homotopy breakpoints, the path is
    linear in k between consecutive knots), or "single" (one knot).
    """

    knots: tuple[FrontierKnot, ...]
    set: MisspecSet
    model: MomentModel
    kind: str

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
    """Optimal sensitivity for an l2 set at penalty ``lam`` (ridge form)."""
    if lam < 0.0:
        raise OutOfRange(f"lambda must be nonnegative, got {lam}")
    b = np.atleast_2d(np.asarray(b_mat, dtype=float))
    if b.shape[0] != model.d_g:
        raise DimensionMismatch(
            f"b_mat has {b.shape[0]} rows, model has d_g={model.d_g}")
    w_inv = model.sigma + lam * (b @ b.T)
    x = solve_psd(w_inv, model.gamma)          # W Gamma
    gram = model.gamma.T @ x                   # Gamma' W Gamma
    try:
        coef = np.linalg.solve(gram, model.h_deriv)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("Gamma' W Gamma is singular") from exc
    return -x @ coef


def _knot(model: MomentModel, unit_set: MisspecSet, lam: float,
          k: np.ndarray) -> FrontierKnot:
    var = float(k @ model.sigma @ k)
    if not (0.0 < var < math.inf):  # k != 0 and sigma is PD: under/overflow
        raise SingularSystem(f"variance {var!r} at lambda={lam!r}: the "
                             "model's scale exceeds double precision")
    return FrontierKnot(lam=float(lam), k=k,
                        bbar=worst_case_bias(k, unit_set), var=var)


def linf_path(model: MomentModel, b_mat: np.ndarray) -> SensitivityFrontier:
    """Full piecewise-linear sensitivity path for an l-infinity set.

    Works in transformed coordinates ``kt = T'^{-1} k`` where
    ``T = [B_perp'; (B'B)^{-1} B']``, so that the penalty involves only the
    last d_gamma coordinates of ``kt``. Starting from the efficient-GMM
    solution at zero penalty, the path moves along exact linear segments; at
    each event either an active penalized coordinate hits zero (and is
    dropped, with exact ties against an add resolved drop-first) or an
    inactive coordinate's stationarity bound ``|grad_i| = lam`` starts binding
    (and is added). Terminates once the active set reaches
    ``max(d_g - d_gamma, d_theta)`` members, after which the path is constant.

    Returns the breakpoints mapped back to original coordinates via
    ``k = T' kt``. Every knot satisfies the regularity constraint to solver
    precision.
    """
    b = np.atleast_2d(np.asarray(b_mat, dtype=float))
    mset = MisspecSet(b, math.inf, 1.0)
    if b.shape[0] != model.d_g:
        raise DimensionMismatch(
            f"b_mat has {b.shape[0]} rows, model has d_g={model.d_g}")
    d_g, d_th = model.d_g, model.d_theta
    d_gam = b.shape[1]

    b_perp = orth_complement(b)
    try:
        t_mat = np.vstack([b_perp.T, np.linalg.solve(b.T @ b, b.T)])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("B'B is singular") from exc
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
        # carrying) coordinates only; unpenalized entries stay exact
        v = v.copy()
        tiny = ACTIVE_ZERO_RTOL * max(np.max(np.abs(v)), 1e-300)
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

    knots = [_knot(model, mset, lam, t_mat.T @ kt)]
    target = max(d_g - d_gam, d_th)
    max_events = 8 * d_g + 24
    just_added = -1

    for _ in range(max_events):
        if int(active.sum()) <= target:
            break
        tol_d = 1e-13 * (1.0 + lam)

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
            if kt_delta[i] == 0.0:
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
                if tol_d < d < d2:
                    d2, d2_idx = d, i

        if not math.isfinite(min(d1, d2)):
            raise DegeneratePath(
                "no event reachable but the active set exceeds its target size")

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
        knots.append(_knot(model, mset, lam, t_mat.T @ kt))
    else:
        raise DegeneratePath(f"homotopy did not terminate within {max_events} events")

    return SensitivityFrontier(knots=tuple(knots), set=mset, model=model,
                               kind="linf")


#: Grid size for the l2 penalty path.
L2_GRID_POINTS = 50


def _l2_lambda_grid(model: MomentModel, b_mat: np.ndarray) -> np.ndarray:
    scale = np.trace(model.sigma) / np.trace(b_mat @ b_mat.T)
    return scale * np.logspace(-6.0, 6.0, L2_GRID_POINTS)


def frontier(model: MomentModel, mset: MisspecSet) -> SensitivityFrontier:
    """Compute the sensitivity frontier for the unit version of ``mset``.

    Dispatches on the norm: a lambda grid plus the efficient-GMM point for
    p = 2, the exact homotopy for p = inf. A degenerate magnitude m = 0 short-
    circuits to the single efficient-GMM knot.
    """
    unit = mset.scaled(1.0)
    if mset.m == 0.0:
        k0 = l2_sensitivity(model, mset.b_mat, 0.0)
        return SensitivityFrontier(knots=(_knot(model, unit, 0.0, k0),),
                                   set=unit, model=model, kind="single")
    if math.isinf(mset.p):
        return linf_path(model, mset.b_mat)
    lams = np.concatenate([[0.0], _l2_lambda_grid(model, mset.b_mat)])
    knots = tuple(_knot(model, unit, lam, l2_sensitivity(model, mset.b_mat, lam))
                  for lam in lams)
    return SensitivityFrontier(knots=knots, set=unit, model=model, kind="l2")


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

    Exact recomputation for l2 frontiers; linear interpolation in k between
    the bracketing breakpoints for inf-paths (the path is linear there, so
    this is exact as well). Beyond the last knot the path is constant.
    """
    model, mset = front.model, front.set
    if front.kind == "l2":
        k = l2_sensitivity(model, mset.b_mat, lam)
        return _knot(model, mset, lam, k)
    lams = [kn.lam for kn in front.knots]
    if lam <= lams[0]:
        return front.knots[0]
    if lam >= lams[-1]:
        kn = front.knots[-1]
        return FrontierKnot(lam=float(lam), k=kn.k, bbar=kn.bbar, var=kn.var)
    j = int(np.searchsorted(lams, lam, side="right")) - 1
    lo, hi = front.knots[j], front.knots[j + 1]
    if hi.lam <= lo.lam:
        return hi
    w = (lam - lo.lam) / (hi.lam - lo.lam)
    k = (1.0 - w) * lo.k + w * hi.k
    return _knot(model, mset, lam, k)


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
                           (1.0 - w) * lo.lam + w * hi.lam, k)
                v = fn(kn.bbar, kn.var)
                if v < best_val:
                    best_lam, best_val = kn.lam, v

    return LambdaChoice(lambda_star=float(best_lam), criterion=criterion, m=m)
