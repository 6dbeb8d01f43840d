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
  the path costs O(d_g d_theta). Selection reads only the efficient point
  at lam = 0; the knots add a log-spaced lambda grid for display
  (``momentguard path``), built in one stacked call when first read;
* p = inf — a piecewise-linear homotopy in the penalty weight, analogous to
  the LAR-LASSO path, computed exactly between breakpoints until no event is
  reachable, so the path is complete on ``[0, inf]``.

Every knot also carries the multiplier ``mu`` of the constraint: with ``s`` a
subgradient of the unit bias at k (``B'k / bbar`` for p = 2, a sign vector for
p = inf), ``Sigma k + lam' * B s + Gamma mu = 0`` where ``lam'`` is
``lam * bbar`` for p = 2 and ``lam`` for p = inf.

The frontier is the path object itself: :class:`SensitivityFrontier` is the
base of one class per norm, ``_L2Path`` and ``_LinfPath``, and only
:func:`frontier` and :func:`linf_path` choose which. Both answer ``knot(lam)``
for one point, ``points(lams)`` for many points in one stacked evaluation,
``roots(a, b)`` for the penalties that minimize fixed-weight criteria and
``argmin(weights, m)`` for the point that minimizes a point-dependent one.

Paths are always computed for the unit set (m = 1); scale invariance means the
same path serves every magnitude m, 0 included, with the worst-case bias
simply rescaled. :func:`select_lambda` then finds the exact point of the path
minimizing CI length, worst-case MSE or a one-sided excess-length quantile at
a given m: each criterion is convex and nondecreasing in the bias and the sd,
so its minimizer is the one sign change of a first-order condition along the
path, where the ratio ``lam' / sd`` reaches the ratio ``r`` of the
criterion's partial derivatives. ``r`` depends on the point only through
``tau = m bbar / sd`` (:func:`_weights`), and ``argmin`` finds the root of
``F = log(lam' / sd) - log r(tau)`` by the Newton iteration of
:mod:`momentguard.critval`. The same minimizer gives the shortest CI in the
denominator of the two-sided efficiency bound (:mod:`momentguard.efficiency`).
With fixed weights, as in the modulus of continuity, the frontier's minimum
of ``2 m bbar + delta sd``, r is the constant ``2 m / delta``, and
:func:`_argmin_sweep` finds the root for every delta at once:
one sorted lookup and a closed-form quadratic per delta on an inf-path,
vectorized safeguarded Newton steps on the l2 path. Those start from a table
of the ratio and its slope on a fixed grid of log-lambda, made once per
path: a sorted lookup gives each root its bracket, and a monotone cubic
Hermite inverse its start. On the l2 path both the sweep and ``argmin``
accept a root after a Newton step of at most half the digits of a double in
``1 + |log lambda|``, the rule of :mod:`momentguard.critval`'s Newton
iteration; the sweep also stops where the condition is within the rounding
of its own terms, so no step is spent in rounding noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import orth_complement, solve_psd
from .critval import (_NEWTON_RTOL, _check_alpha, _check_one_sided, _cv_excess,
                      _newton)
from .errors import (
    DegeneratePath,
    DimensionMismatch,
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

#: Grid size for the l2 penalty path.
L2_GRID_POINTS = 50


@dataclass(frozen=True)
class FrontierKnot:
    """One point on the sensitivity path: penalty, weights, unit bias,
    variance and the multiplier ``mu`` of the constraint ``H = -k' Gamma``."""

    lam: float
    k: np.ndarray
    bbar: float
    var: float
    mu: np.ndarray


@dataclass(frozen=True)
class FrontierPoints:
    """Frontier points in bulk: row i of each array is one point, with the
    fields of :class:`FrontierKnot`."""

    lam: np.ndarray
    k: np.ndarray
    bbar: np.ndarray
    var: np.ndarray
    mu: np.ndarray

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(self.var)

    def knot(self, i: int) -> FrontierKnot:
        return FrontierKnot(lam=float(self.lam[i]), k=self.k[i],
                            bbar=float(self.bbar[i]), var=float(self.var[i]),
                            mu=self.mu[i])


_DOUBLE_MAX = np.finfo(float).max

#: ``log(lam)`` range of the l2 root: the smallest positive and the largest
#: finite double, and the longest step a search for it takes.
_LOG_LAM_MIN = math.log(5e-324)
_LOG_LAM_MAX = math.log(_DOUBLE_MAX)
_LOG_LAM_STEP = math.log(16.0)

#: Most steps of the l2 sweep; a Newton step gains digits quadratically, and
#: a safeguarding step replaces one that leaves the bracket or stalls.
_SWEEP_MAXITER = 100

#: The l2 sweep's table: L2_TABLE_POINTS values of ``u = log(lam)``, evenly
#: spaced over ``L2_TABLE_SPAN`` either side of the root of the
#: linearization at lam = 0 for ``c = 1``, bracket and start every root.
L2_TABLE_POINTS = 49
L2_TABLE_SPAN = 24.0

#: The l2 sweep stops where ``|F|`` is within ``_GAP_ATOL (1 + |u| + |log c|)``,
#: the rounding of F's terms.
_GAP_ATOL = 16.0 * np.finfo(float).eps

#: Largest ``tau`` at which the "ci_length" criterion is evaluated: from tau
#: ~ 20 on its ratio and slope are the same double (:func:`_weights`).
_CI_TAU_CAP = 1e150


def _t_pair(lam: float) -> tuple[float, float]:
    """``t = lam / (1 + lam)`` and ``1 - t``, each to full relative precision."""
    return (1.0, 0.0) if math.isinf(lam) else (lam / (1.0 + lam), 1.0 / (1.0 + lam))


def _t_pairs(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_t_pair` at each lam of a vector, as columns."""
    # capped at the largest double, lam = inf gives t = 1 without inf / inf
    finite = np.minimum(lam, _DOUBLE_MAX)[:, None]
    return finite / (1.0 + finite), 1.0 / (1.0 + lam[:, None])


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; hypot scales its arguments, so no square
    under- or overflows."""
    return np.hypot.reduce(x, axis=-1, initial=0.0)


def _checked_var(var: float, lam: float) -> float:
    if not (0.0 < var < math.inf):  # k != 0 and sigma is PD: under/overflow
        raise SingularSystem(f"variance {var!r} at lambda={lam!r}: the "
                             "model's scale exceeds double precision")
    return var


def _checked_vars(var: np.ndarray, lams: np.ndarray) -> None:
    """:func:`_checked_var` on each variance, naming the first bad lambda."""
    bad = ~((var > 0.0) & (var < math.inf))
    if np.any(bad):
        i = int(np.argmax(bad))
        _checked_var(float(var[i]), float(lams[i]))


class SensitivityFrontier:
    """The bias-variance frontier of a unit misspecification set: the base
    of ``_L2Path`` (p = 2) and ``_LinfPath`` (p = inf), which evaluate it at
    any penalty (see the module docstring).

    ``model`` and ``set`` (m = 1) are what the path was built from, ``first``
    its point at lam = 0 and ``knots`` its ordered knots: ``first`` and a
    display grid for p = 2, the homotopy's breakpoints for p = inf.
    """

    model: MomentModel
    set: MisspecSet
    first: FrontierKnot
    knots: tuple[FrontierKnot, ...]


class _L2Path(SensitivityFrontier):
    """The p = 2 path in closed form at any ``lam = t / (1 - t)``, t in [0, 1].

    With ``Sigma = L L'`` and ``L^-1 B = U S V'``, put ``A = U' L^-1 Gamma``.
    The ridge solution is ``z = -w * (A mu)`` with ``mu = (A' diag(w) A)^-1 H``
    and ``w = (1 - t) / (1 - t + t s^2)`` on the first d_gamma coordinates,
    1 elsewhere; ``k = L^-T U z``. Nothing diverges at t = 1 (lam = inf),
    where w vanishes on the suspect directions and the path ends at the GLS
    sensitivity that ignores them, which exists when
    ``d_gamma <= d_g - d_theta``.

    A stacked evaluation solves one d_theta x d_theta system per penalty in
    one call; a single point solves its one system.
    """

    def __init__(self, model: MomentModel, unit_set: MisspecSet):
        self.model, self.set = model, unit_set
        try:
            chol = np.linalg.cholesky(model.sigma)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"Cholesky factor of sigma failed: {exc}") from exc
        u, self.s, _ = np.linalg.svd(np.linalg.solve(chol, unit_set.b_mat))
        self.a = u.T @ np.linalg.solve(chol, model.gamma)
        self.to_k = np.linalg.solve(chol.T, u)
        if not max(self.s[0], np.max(np.abs(self.a))) < math.sqrt(np.finfo(float).max):
            raise SingularSystem("sigma is too small against b_mat or gamma: the "
                                 "path's squares exceed double precision")
        self.s2 = self.s**2
        self.h = model.h_deriv[:, None]
        #: the suspect directions leave d_theta moments to identify theta,
        #: so the bias reaches 0 at lam = inf
        self.ends_unbiased = unit_set.d_gamma <= model.d_g - model.d_theta
        self.first = self.knot(0.0)

    @functools.cached_property
    def knots(self) -> tuple[FrontierKnot, ...]:
        """``first``, then L2_GRID_POINTS log-spaced display knots from one
        stacked evaluation, built when first read."""
        scale = np.trace(self.model.sigma) / float(np.sum(self.set.b_mat**2))
        pts = self.points(scale * np.logspace(-6.0, 6.0, L2_GRID_POINTS))
        return (self.first, *(pts.knot(i) for i in range(L2_GRID_POINTS)))

    def knot(self, lam: float) -> FrontierKnot:
        """Frontier point at ``lam`` in ``[0, inf]``."""
        k, bbar, var, mu = self._fields(*_t_pair(lam))
        return FrontierKnot(lam=float(lam), k=k, bbar=float(bbar),
                            var=_checked_var(float(var), lam), mu=mu)

    def points(self, lams: np.ndarray) -> FrontierPoints:
        """Frontier points at each penalty in ``lams``, all in ``[0, inf]``."""
        k, bbar, var, mu = self._fields(*_t_pairs(lams))
        _checked_vars(var, lams)
        return FrontierPoints(lam=lams, k=k, bbar=bbar, var=var, mu=mu)

    def roots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The minimizing penalty for each pair of fixed weights (see
        :func:`_argmin_sweep`). ``F(u) = log(lam bbar / sd) - log c`` rises
        with slope in [0, 1] in ``u = log(lam)``, and every ``c = a / b``
        finds its root at once, by safeguarded Newton steps from a start
        read off the path's table (:attr:`_table`): inside it, the bracket
        of two table points and the monotone cubic Hermite inverse through
        them; off it, a Newton step from the table's end, and outward steps
        until the root is bracketed. A root is accepted after a Newton step
        inside its bracket within ``_NEWTON_RTOL (1 + |u|)``, or where
        ``|F|`` is within the rounding of its terms, ``_GAP_ATOL (1 + |u| +
        |log c|)``; never on a non-finite F or slope. The root is 0 where it
        lies below every positive double (and where ``a = 0``), inf where
        the criterion still falls at the unbiased end."""
        lam = np.zeros(a.size)
        todo = a > 0.0
        if self.ends_unbiased:
            _, sd_end, lam_bbar_end = self.end
            at_end = todo & (b * lam_bbar_end - a * sd_end <= 0.0)
            lam[at_end] = math.inf
            todo &= ~at_end
        idx = np.flatnonzero(todo)
        if idx.size == 0:
            return lam
        log_c = np.log(a[idx]) - np.log(b[idx])
        u_t, g_t, slope_t = self._table
        # the first table point with F >= 0 is the bracket's upper end; a
        # running maximum keeps the search sorted where rounding is not
        j = np.searchsorted(np.maximum.accumulate(g_t), log_c)
        last = u_t.size - 1
        jl, jh = np.maximum(j - 1, 0), np.minimum(j, last)
        lo = np.where(j > 0, u_t[jl], -math.inf)
        hi = np.where(j <= last, u_t[jh], math.inf)
        # inside: u as a cubic in F with slopes du/dF = 1 / slope, at most
        # three secants, so that it is monotone (Fritsch and Carlson 1980)
        step_t = u_t[1] - u_t[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            dg = g_t[jh] - g_t[jl]
            x = (log_c - g_t[jl]) / dg
            d0, d1 = (np.where(s > 0.0, np.minimum(dg / (step_t * s), 3.0), 3.0)
                      for s in (slope_t[jl], slope_t[jh]))
            inside = u_t[jl] + step_t * x * (
                d0 * (1.0 - x)**2 + x * (3.0 - 2.0 * x) + d1 * x * (x - 1.0))
        # off the table: a step from its end, known to lie on one side
        end = np.where(j > 0, last, 0)
        off, _, _ = _sweep_step(u_t[end], g_t[end] - log_c, slope_t[end], lo, hi,
                                np.full(idx.size, math.inf))
        u = np.where((j > 0) & (j <= last), inside, off)
        moved = np.full(idx.size, math.inf)
        for _ in range(_SWEEP_MAXITER):
            f, slope = self._log_gap(u, log_c)
            below = f < 0.0
            lo = np.where(below, u, lo)
            hi = np.where(below, hi, u)
            # the root lies below every positive double (m -> 0), or above the
            # largest one, where only an unbiased end can hold it
            floor = ~below & (u == _LOG_LAM_MIN)
            ceiling = below & (u == _LOG_LAM_MAX)
            if np.any(ceiling) and not self.ends_unbiased:
                raise SolverFailure("could not bracket the l2 penalty")
            lam[idx[ceiling]] = math.inf
            step, newton, take = _sweep_step(u, f, slope, lo, hi, moved)
            # a root: a last Newton step of half the digits, or F within its
            # rounding, each corrected by the Newton step where it is taken
            tol = 1.0 + np.abs(u)
            small = take & (np.abs(newton - u) <= _NEWTON_RTOL * tol)
            resolved = np.abs(f) <= _GAP_ATOL * (tol + np.abs(log_c))
            root = ~floor & ~ceiling & (small | resolved)
            lam[idx[root]] = np.exp(np.where(take, newton, u)[root])
            keep = ~(floor | ceiling | root)
            if not np.any(keep):
                return lam
            moved = np.abs(step - u)[keep]
            idx, u, lo, hi = idx[keep], step[keep], lo[keep], hi[keep]
            log_c = log_c[keep]
        raise SolverFailure("first-order condition: the l2 sweep did not "
                            f"converge in {_SWEEP_MAXITER} steps")

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``u = log(lam)`` at L2_TABLE_POINTS evenly spaced values within
        L2_TABLE_SPAN of the root of the linearization at lam = 0 for c = 1,
        ``log(sd_0 / bbar_0)``, with ``log(lam bbar / sd)`` and its slope at
        each: one stacked pass, made the first time :meth:`roots` has work."""
        first = self.first
        mid = min(max(0.5 * math.log(first.var) - math.log(first.bbar),
                      _LOG_LAM_MIN + L2_TABLE_SPAN), _LOG_LAM_MAX - L2_TABLE_SPAN)
        u = np.linspace(mid - L2_TABLE_SPAN, mid + L2_TABLE_SPAN, L2_TABLE_POINTS)
        return (u, *self._log_gap(u, np.zeros(L2_TABLE_POINTS)))

    def argmin(self, weights, m: float) -> FrontierKnot:
        """The first-order root of :func:`select_lambda` on the l2 path:
        :func:`_newton` in ``u = log(lam)`` on ``F = log(lam bbar / sd) -
        log r(tau)``, from the root of F linearized at lam = 0, stopping at a
        step of ``_NEWTON_RTOL (1 + |u|)`` as the sweep does. One
        :meth:`_log_gap` pass gives ``log(lam bbar / sd)`` and its slope S,
        whence ``tau = m bbar / sd`` and F's slope ``S - eps (S - 1)``, all
        finite (:func:`_weights`). The root is lam = inf where the criterion
        still falls at the unbiased end, and 0 where it lies below every
        positive double."""
        first = self.first
        sd0 = math.sqrt(first.var)
        if self.ends_unbiased:
            bbar_end, sd_end, lam_bbar_end = self.end
            # the sign form: log r(0) is -inf for "ci_length"
            try:
                r = math.exp(weights(m * bbar_end / sd_end)[0])
            except OverflowError:  # r = m^2 bbar / sd for "mse" may exceed a double
                r = math.inf
            if lam_bbar_end <= r * sd_end:
                return self.knot(math.inf)
        zero = np.zeros(1)

        def gap(u: float) -> tuple[float, float]:
            # Python floats: past the range the evaluator resolves, an
            # infinite slope makes the step a bisection, silently
            f, slope = (float(v[0]) for v in self._log_gap(np.array([u]), zero))
            log_r, eps = weights(m * math.exp(f - u))
            # a step is at most the sweep's outward step: where the ratio
            # levels off, a small slope would throw the next point far out,
            # where the evaluator may not resolve the path (ROADMAP E5)
            f -= log_r
            return f, max(slope - eps * (slope - 1.0), abs(f) / _LOG_LAM_STEP)

        # lam' = lam bbar_0 in the linearization
        u = (weights(m * first.bbar / sd0)[0] + math.log(sd0)
             - math.log(first.bbar))
        u = _newton(gap, min(max(u, _LOG_LAM_MIN), _LOG_LAM_MAX), _LOG_LAM_MIN,
                    _LOG_LAM_MAX, offset=1.0)
        # at either end of the range the root may lie beyond it
        edge = _NEWTON_RTOL * (1.0 + _LOG_LAM_MAX - _LOG_LAM_MIN)
        if u <= _LOG_LAM_MIN + edge and gap(_LOG_LAM_MIN)[0] >= 0.0:
            return first  # the root lies below every positive double: m -> 0
        if u >= _LOG_LAM_MAX - edge and gap(_LOG_LAM_MAX)[0] < 0.0:
            if self.ends_unbiased:
                return self.knot(math.inf)
            raise SolverFailure("could not bracket the l2 penalty")
        return self.knot(math.exp(min(u, _LOG_LAM_MAX)))

    @functools.cached_property
    def end(self) -> tuple[float, float, float]:
        """:meth:`scalars` at lam = inf."""
        return self.scalars(math.inf)

    def scalars(self, lam: float) -> tuple[float, float, float]:
        """``bbar``, ``sd`` and ``lam * bbar`` at ``lam`` in ``[0, inf]``, all
        finite at lam = inf."""
        t, one_minus_t = _t_pair(lam)
        w, den, _, _, a_mu = self._solve(t, one_minus_t)
        # bbar and lam bbar are (1 - t) and t times one norm, taken at the
        # scale of the problem, so a tiny lam does not underflow
        v = float(_norms(self.s * a_mu[:self.s.shape[0]] / den))
        return one_minus_t * v, float(_norms(w * a_mu)), t * v

    def _fields(self, t, one_minus_t):
        """k, bbar, var and mu at t."""
        w, _, _, mu, a_mu = self._solve(t, one_minus_t)
        z = -w * a_mu
        bias = self.s * z[..., :self.s.shape[0]]
        with np.errstate(over="ignore"):  # _checked_var reports an inf variance
            var = (z * z).sum(axis=-1)
        return z @ self.to_k.T, np.sqrt((bias * bias).sum(axis=-1)), var, mu

    def _solve(self, t, one_minus_t):
        """Weights w, their denominators, the Gram ``A' diag(w) A``, mu and
        ``A mu`` at t. A float t gives one point; a column of n values gives
        n points, one per row, from one stacked solve."""
        den = one_minus_t + t * self.s2
        w = np.ones(np.shape(t)[:-1] + self.a.shape[:1])
        w[..., :self.s.shape[0]] = one_minus_t / den
        gram = (self.a.T * w[..., None, :]) @ self.a
        try:
            # numpy < 2 reads a (d_theta, 1) right-hand side beside a stack
            # of systems as d_theta vectors; a stack of one is read as meant
            h = self.h if gram.ndim == 2 else self.h[None]
            mu = np.linalg.solve(gram, h)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("Gamma' W Gamma is singular") from exc
        return w, den, gram, mu, mu @ self.a.T

    def _log_gap(self, u: np.ndarray, log_c: np.ndarray):
        """``F = log(lam bbar / sd) - log_c`` at each ``lam = exp(u)`` and its
        slope ``dF/du``, which lies in [0, 1]; a NaN F raises SolverFailure.

        With ``v = s (A mu)_1 / den``, ``bbar = (1 - t) ||v||`` and
        ``lam bbar = t ||v||``. Differentiating the ridge solution gives
        ``d bbar^2 / d lam = -2 (1 - t)^3 E`` with
        ``E = sum(s^2 v^2 / den) - (1 - t) rho' (A' W A)^-1 rho`` and
        ``rho = A_1' (s v / den)``; the frontier's ``d var = -lam d bbar^2``
        then gives ``dF/du = 1 - t E (1 / ||v||^2 + t (1 - t) / var)``. E is
        quadratic in v, so it is formed from ``v / ||v||`` as ``E / ||v||^2``
        and the slope as ``1 - t E / ||v||^2 (1 + t (1 - t) (||v|| / sd)^2)``:
        no square of the model's scale, which may exceed a double.
        """
        lam = np.exp(u)
        t, one_minus_t = _t_pairs(lam)
        w, den, gram, _, a_mu = self._solve(t, one_minus_t)
        t, one_minus_t = t[:, 0], one_minus_t[:, 0]
        d_gam = self.s.shape[0]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # v overflows where lam is near the largest double and 1 - t
            # underflows: F is then NaN or infinite, and the caller says so
            v = self.s * a_mu[:, :d_gam] / den
            v_norm, sd = _norms(v), _norms(w * a_mu)
            sv = self.s * (v / v_norm[:, None]) / den
            rho = sv @ self.a[:d_gam]
            proj = np.einsum("ij,ij->i", rho,
                             np.linalg.solve(gram, rho[..., None])[..., 0])
            e = np.einsum("ij,ij->i", sv, sv * den) - one_minus_t * proj
            ratio = v_norm / sd
            f = u - np.log1p(lam) + np.log(v_norm) - np.log(sd) - log_c
            slope = 1.0 - t * e * (1.0 + t * ratio * (one_minus_t * ratio))
        if np.any(np.isnan(f)):
            raise SolverFailure("first-order condition: NaN on the l2 path at "
                                f"lambda={float(lam[np.isnan(f)][0])!r}")
        return f, slope


def _sweep_step(u, f, slope, lo, hi, moved):
    """The l2 sweep's next ``u`` from F and its slope at ``u``, in the bracket
    ``[lo, hi]`` that F's sign has updated, with ``moved`` the length of the
    step that reached ``u``; also the Newton iterate and whether it is taken,
    which it never is on a slope that is not positive and finite."""
    below = f < 0.0
    # Newton's step for 1/c - sd / lam' in 1/lam, which is linear in 1/lam
    # near lam = 0 and again where the ratio levels off or grows linearly at
    # large lam
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        newton = u - np.log1p(np.expm1(f) / slope)
    # a step that leaves a known bracket or fails to halve is replaced by
    # twice the Newton step, to bracket the root closely when the iterates
    # near it from one side, or by bisection of a bracket that is already
    # close; without a bracket, step outward
    bracketed = np.isfinite(lo) & np.isfinite(hi)
    take = ((0.0 < slope) & (slope < math.inf) & (lo <= newton) & (newton <= hi)
            & ~(bracketed & (np.abs(newton - u) > 0.5 * moved)))
    probe = 2.0 * newton - u
    probe_ok = (lo < probe) & (probe < hi) & (hi - lo > 4.0 * np.abs(newton - u))
    step = np.where(take, newton, np.where(
        bracketed, np.where(probe_ok, probe, 0.5 * (lo + hi)),
        np.where(below, lo + _LOG_LAM_STEP, hi - _LOG_LAM_STEP)))
    return np.clip(step, _LOG_LAM_MIN, _LOG_LAM_MAX), newton, take


class _LinfPath(SensitivityFrontier):
    """The p = inf path from its homotopy breakpoints ``knots``: linear in k
    and mu between consecutive knots, so every point there is exact; from
    the last knot on k is constant, while mu moves on at the rate
    ``mu_slope`` and has no limit at lam = inf."""

    def __init__(self, model: MomentModel, unit_set: MisspecSet, knots,
                 mu_slope: np.ndarray):
        self.model, self.set = model, unit_set
        self.knots = tuple(knots)
        self.first = self.knots[0]
        self.lam = np.array([kn.lam for kn in knots])
        self.k = np.array([kn.k for kn in knots])
        self.mu = np.array([kn.mu for kn in knots])
        self.bbar = np.array([kn.bbar for kn in knots])
        self.var = np.array([kn.var for kn in knots])
        self.mu_slope = mu_slope

    def knot(self, lam: float) -> FrontierKnot:
        """Frontier point at ``lam`` in ``[0, inf)``."""
        _check_finite_lam(lam)
        j = int(np.searchsorted(self.lam, lam, side="right")) - 1
        lo = self.knots[j]
        if j == len(self.knots) - 1:
            return FrontierKnot(lam=float(lam), k=lo.k, bbar=lo.bbar, var=lo.var,
                                mu=lo.mu + (lam - lo.lam) * self.mu_slope)
        if lam == lo.lam:
            return lo
        hi = self.knots[j + 1]
        w = (lam - lo.lam) / (hi.lam - lo.lam)
        k = (1.0 - w) * lo.k + w * hi.k
        return FrontierKnot(lam=float(lam), k=k,
                            bbar=float(np.sum(np.abs(self.set.b_mat.T @ k))),
                            var=_checked_var(float(k @ self.model.sigma @ k), lam),
                            mu=(1.0 - w) * lo.mu + w * hi.mu)

    def points(self, lams: np.ndarray) -> FrontierPoints:
        """:meth:`knot` at each penalty in ``lams``, all in ``[0, inf)``."""
        _check_finite_lam(float(np.max(lams, initial=0.0)))
        last = self.lam.size - 1
        j = np.searchsorted(self.lam, lams, side="right") - 1
        jh = np.minimum(j + 1, last)
        past = j == last
        w = np.where(past, 0.0, (lams - self.lam[j])
                     / np.where(past, 1.0, self.lam[jh] - self.lam[j]))
        k = (1.0 - w)[:, None] * self.k[j] + w[:, None] * self.k[jh]
        mu = ((1.0 - w)[:, None] * self.mu[j] + w[:, None] * self.mu[jh]
              + np.where(past, lams - self.lam[j], 0.0)[:, None] * self.mu_slope)
        # at a knot and past the last one, the knot's own bbar and variance
        inner = w > 0.0
        bbar = np.where(inner, np.abs(k @ self.set.b_mat).sum(axis=1), self.bbar[j])
        var = np.where(inner, np.einsum("ij,jk,ik->i", k, self.model.sigma, k),
                       self.var[j])
        _checked_vars(var[inner], lams[inner])
        return FrontierPoints(lam=lams, k=k, bbar=bbar, var=var, mu=mu)

    def roots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The minimizing penalty for each pair of fixed weights (see
        :func:`_argmin_sweep`): one sorted lookup of ``c = a / b`` among the
        knots' ratios finds its segment, where bbar and lam are linear and
        the variance quadratic in the segment weight, so the root solves a
        quadratic in closed form; past the last knot it is ``lam = c sd``."""
        lams, var = self.lam, self.var
        c = a / b
        # the first knot whose ratio reaches c ends the segment holding the root
        j = np.searchsorted(np.maximum.accumulate(lams / np.sqrt(var)), c, side="left")
        last = lams.size - 1
        past = j > last
        inner = (j > 0) & ~past
        jh = np.minimum(j, last)
        jl = np.maximum(jh - 1, 0)
        # G = lam - c sd changes sign where lam^2 = c^2 var, a quadratic in the
        # weight w; scaled by the upper knot's lam, where lam >= c sd, every
        # coefficient is at most of order one
        dk = self.k[jh] - self.k[jl]
        v2 = np.einsum("ij,jk,ik->i", dk, self.model.sigma, dk)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(inner, c / lams[jh], 0.0)
            x0 = lams[jl] / lams[jh]
        x0 = np.where(inner, x0, 0.0)
        dx = 1.0 - x0
        q0, q1, q2 = r * r * var[jl], r * r * var[jh], r * r * v2
        c2 = dx * dx - q2
        c1 = 2.0 * x0 * dx - (q1 - q0 - q2)
        c0 = x0 * x0 - q0
        root_disc = np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(c1 > 0.0, -2.0 * c0 / (c1 + root_disc),
                         (root_disc - c1) / (2.0 * c2))
        # at either end of the path w = 1 picks the knot itself
        w = np.where(inner & (lams[jh] > lams[jl]), np.clip(w, 0.0, 1.0), 1.0)
        lam = np.where(inner, (1.0 - w) * lams[jl] + w * lams[jh], 0.0)
        return np.where(past, a * np.sqrt(var[last]) / b, lam)

    def argmin(self, weights, m: float) -> FrontierKnot:
        """The first-order root of :func:`select_lambda` on an inf-path: the
        first knot with ``lam >= r sd`` ends the segment that holds it. There
        lam and bbar are linear and the variance quadratic in the segment
        weight w, so F's slope is in closed form, and :func:`_newton` solves
        ``F = log(lam / sd) - log r(tau)`` in w from the root of ``lam / sd -
        r`` interpolated between the knots. Past the last knot k stands still
        and the root is ``lam = r sd``, where mu has moved on; the same holds
        on a segment where only mu moves."""
        knots = self.knots
        for j, kn in enumerate(knots):
            sd = math.sqrt(kn.var)
            try:
                r = math.exp(weights(m * kn.bbar / sd)[0])
            except OverflowError:  # r = m^2 bbar / sd for "mse" may exceed a double
                r = math.inf
            if kn.lam >= r * sd:
                break
            g_lo = kn.lam / sd - r
        else:
            return self.knot(r * sd)  # OutOfRange where r sd exceeds a double
        if j == 0:  # r = 0 at lam = 0
            return knots[0]
        # w runs from the knot nearer the linearly interpolated root, so the
        # relative step rule is relative to the distance from that knot, and
        # F's curvature there, up to 1 / w where bbar or lam vanishes at the
        # knot, does not spoil the corrected iterate
        w = g_lo / (g_lo - (kn.lam / sd - r))
        w = w if 0.0 < w < 1.0 else 0.5
        near, far, sign = knots[j - 1], kn, 1.0
        if w > 0.5:
            near, far, sign, w = far, near, -1.0, 1.0 - w
        dk = far.k - near.k
        v2 = float(dk @ self.model.sigma @ dk)
        d_lam, d_bbar = far.lam - near.lam, far.bbar - near.bbar

        def gap(w: float) -> tuple[float, float]:
            lam = (1.0 - w) * near.lam + w * far.lam
            bbar = (1.0 - w) * near.bbar + w * far.bbar
            # exact at both ends: var(w) = (1-w) var_near + w var_far - w(1-w) v2
            var = (1.0 - w) * near.var + w * far.var - w * (1.0 - w) * v2
            half = 0.5 * (far.var - near.var - (1.0 - 2.0 * w) * v2) / var
            log_r, eps = weights(m * bbar / math.sqrt(var))
            return (sign * (math.log(lam) - 0.5 * math.log(var) - log_r),
                    sign * (d_lam / lam - half + eps * (half - d_bbar / bbar)))

        w = _newton(gap, w, 0.0, 1.0)
        return self.knot((1.0 - w) * near.lam + w * far.lam)


@dataclass(frozen=True)
class LambdaChoice:
    """The selected penalty and the frontier point ``knot`` at it."""

    lambda_star: float
    criterion: str
    m: float
    knot: FrontierKnot = field(repr=False, compare=False)


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


def _check_lam(lam: float) -> None:
    if not lam >= 0.0:
        raise OutOfRange(f"lambda must be nonnegative, got {lam}")


def _check_finite_lam(lam: float) -> None:
    if lam == math.inf:  # past its last knot an inf-path's mu has no limit
        raise OutOfRange("lambda must be finite on a p = inf path, got inf")


def l2_sensitivity(model: MomentModel, b_mat: np.ndarray,
                   lam: float) -> Sensitivity:
    """Optimal sensitivity for an l2 set at penalty ``lam`` in ``[0, inf]``
    (ridge form); ``b_mat`` is validated as the unit :class:`MisspecSet`."""
    return knot_at(_L2Path(model, _unit_set(model, b_mat, 2.0)), lam).k


def _unit_set(model: MomentModel, b_mat: np.ndarray, p: float) -> MisspecSet:
    """The validated unit set ``{B gamma : ||gamma||_p <= 1}``."""
    unit_set = MisspecSet(b_mat, p, 1.0)
    if unit_set.b_mat.shape[0] != model.d_g:
        raise DimensionMismatch(f"b_mat has {unit_set.b_mat.shape[0]} rows, "
                                f"model has d_g={model.d_g}")
    return unit_set


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
    rate of the last segment. Steps are reckoned in lambda's natural unit,
    so rescaling Sigma, B or H rescales lambda and k and leaves the events
    unchanged. When ``d_gamma > d_g - d_theta`` the path may run on through
    coordinate swaps after the active set first shrinks to d_theta members.

    When the efficient solution already has every penalized coordinate at
    zero it is unbiased and so optimal at every lambda: the path is that one
    knot, with ``bbar = 0`` and a multiplier that stands still.

    Returns the ``_LinfPath`` of the breakpoints, mapped back to original
    coordinates via ``k = T' kt``. Every knot satisfies the regularity
    constraint to solver precision.
    """
    mset = _unit_set(model, b_mat, math.inf)
    b = mset.b_mat
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

    def knot(lam: float, kt: np.ndarray, mu: np.ndarray) -> FrontierKnot:
        out = _knot(model, mset, lam, t_mat.T @ kt, mu)
        # once every penalized coordinate is zero, B'T'kt vanishes exactly,
        # whatever the rounding in T'kt
        return out if np.any(kt[is_pen]) else replace(out, bbar=0.0)

    kt = snap(kt)
    if not np.any(kt[is_pen]):
        # the unpenalized coordinates alone may not span Gamma (d_g - d_gam
        # < d_theta), so there may be no active-set direction to compute
        return _LinfPath(model, mset, [knot(0.0, kt, mu)], np.zeros_like(mu))
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
        kt_d[idx] = -(x[:, :-1] @ mu_d + x[:, -1])
        return mu_d, kt_d

    s = np.where(is_pen & active, np.sign(kt), 0.0)
    mu_delta, kt_delta = directions(active, s)

    knots = [knot(lam, kt, mu)]
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
        knots.append(knot(lam, kt, mu))
    else:
        raise DegeneratePath(f"homotopy did not terminate within {max_events} events")

    return _LinfPath(model, mset, knots, mu_delta)


def frontier(model: MomentModel, mset: MisspecSet) -> SensitivityFrontier:
    """Compute the sensitivity frontier for the unit version of ``mset``.

    Returns the path object of the norm: the exact homotopy for p = inf
    (:func:`linf_path`), the closed-form ``_L2Path`` for p = 2. The frontier
    does not depend on the magnitude ``mset.m``, so one frontier serves every
    magnitude, 0 included.
    """
    b_sq = float(np.sum(mset.b_mat**2))
    if not (np.finfo(float).tiny <= b_sq < math.inf):
        raise SingularSystem(f"b_mat has squared norm {b_sq!r}: its scale "
                             "exceeds double precision")
    if math.isinf(mset.p):
        return linf_path(model, mset.b_mat)
    return _L2Path(model, _unit_set(model, mset.b_mat, 2.0))


def _weights(criterion: str, m: float, alpha: float, beta: float = 0.8):
    """A selection criterion ``L(m bbar, sd)`` as the function ``tau -> (log
    r, eps)`` of the frontier point's ``tau = m bbar / sd``.

    ``r = a / b`` is the ratio of L's partial derivatives ``a`` in bbar and
    ``b`` in sd, which depends on the point only through tau, and ``eps = d
    log r / d log tau``. Each criterion is convex and nondecreasing in both
    arguments, so these are all that the frontier's ``argmin`` needs. At
    every ``tau > 0`` and alpha in (0, 1/2), ``log r`` is finite.
    """
    if criterion == "ci_length":
        # L = 2 cv(tau) sd; differentiating the defining equation of cv_alpha
        # gives cv' = (phi(c - tau) - phi(c + tau)) / (phi(c - tau) + phi(c +
        # tau)), which is t = tanh(c tau), so r = m t / den and, with t' =
        # (1 - t^2)(c + tau t), eps = tau t' c / (t den). den = c - tau t,
        # which rounds to 0 from tau ~ 1e17, is e + tau (1 - t) >= z_{1-alpha}
        # in the excess e = c - tau
        def weights(tau: float) -> tuple[float, float]:
            if tau == 0.0:
                return -math.inf, 1.0
            # the cap keeps c tau and c + tau t finite, and tau = m bbar / sd
            # may overflow at a large m
            if tau > _CI_TAU_CAP:
                tau = _CI_TAU_CAP
            e = _cv_excess(tau, alpha)
            c = tau + e
            t = math.tanh(c * tau)
            den = e + tau * (1.0 - t)
            return (math.log(m) + math.log(t) - math.log(den),
                    tau * (1.0 - t * t) * (c + tau * t) * c / (t * den))
    elif criterion == "mse":
        # L = (m bbar)^2 + sd^2: r = m tau
        def weights(tau: float) -> tuple[float, float]:
            return (math.log(m) + math.log(tau) if tau > 0.0 else -math.inf), 1.0
    elif criterion == "one_sided_quantile":
        weight = _check_one_sided(alpha, beta)

        def weights(tau: float) -> tuple[float, float]:
            return math.log(m) - math.log(weight), 0.0
    else:
        raise OutOfRange("criterion must be 'ci_length', 'mse' or "
                         f"'one_sided_quantile', got {criterion!r}")
    return weights


def knot_at(front: SensitivityFrontier, lam: float) -> FrontierKnot:
    """Frontier point at a penalty ``lam`` in ``[0, inf]``.

    Exact recomputation on the l2 path; on an inf-path, linear interpolation
    in k and mu between the bracketing breakpoints (the path is linear there,
    so this is exact as well), and beyond the last knot k is constant while
    mu moves on. A NaN or negative penalty raises :class:`OutOfRange`, and so
    does lam = inf on an inf-path, where mu has no limit.
    """
    _check_lam(lam)
    return front.knot(lam)


def _argmin_sweep(front: SensitivityFrontier, a: np.ndarray,
                  b: np.ndarray) -> FrontierPoints:
    """Frontier point minimizing ``a[i] bbar + b[i] sd`` for each pair of fixed
    weights, ``a >= 0`` and ``b > 0``: the frontier's ``argmin`` for the
    constant ratio ``r = a[i] / b[i]``, for every pair in one pass.

    With fixed weights the first-order root is where the ratio ``lam' / sd``,
    nondecreasing along the frontier, reaches ``c = a / b``; the frontier's
    ``roots`` find it for every pair at once.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if front.first.bbar == 0.0:
        return _repeat_knot(front.first, a.size)
    return front.points(front.roots(a, b))


def _repeat_knot(kn: FrontierKnot, n: int) -> FrontierPoints:
    return FrontierPoints(lam=np.full(n, kn.lam), k=np.tile(kn.k, (n, 1)),
                          bbar=np.full(n, kn.bbar), var=np.full(n, kn.var),
                          mu=np.tile(kn.mu, (n, 1)))


def select_lambda(front: SensitivityFrontier, m: float, alpha: float = 0.05,
                  criterion: str = "ci_length", beta: float = 0.8) -> LambdaChoice:
    """Penalty minimizing CI length, worst-case MSE or, for
    "one_sided_quantile", ``m * bbar + (z_{1-alpha} + z_beta) * sd`` at ``m``.

    The minimum over the whole frontier is exact. Along the frontier,
    stationarity ``Sigma k + lam' B s + Gamma mu = 0`` (``lam' = lam`` for
    p = inf, ``lam bbar`` for p = 2) makes ``d sd / d bbar = -lam' / sd``,
    so dL/dlam has the sign of ``lam' / sd - r``, with ``r = a / b`` the
    ratio of L's partial derivatives in bbar and sd (see :func:`_weights`).
    That changes sign once, and the minimizer is the root of ``F = log(lam'
    / sd) - log r``, which the frontier's ``argmin`` finds; the choice
    carries the frontier point there as ``knot``. An unbiased first knot,
    and the first knot at m = 0, is optimal outright. Where k stands still
    over a range of penalties (past the last knot of an inf-path), every
    penalty there gives the same sensitivity, and ``lambda_star`` is the one
    at which the stationarity condition holds, ``lam = r sd``.
    """
    _check_alpha(alpha)
    if not (0.0 <= m < math.inf):
        raise OutOfRange(f"m must be nonnegative and finite, got {m}")
    weights = _weights(criterion, m, alpha, beta)
    if m == 0.0 or front.first.bbar == 0.0:
        kn = front.first
    else:
        kn = front.argmin(weights, m)
    return LambdaChoice(lambda_star=kn.lam, criterion=criterion, m=m, knot=kn)
