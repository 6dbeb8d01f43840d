"""Bias-aware critical values and the special functions behind them.

The central object is :func:`cv_alpha`: the 1-alpha quantile of ``|Z|`` for
``Z ~ N(b, 1)``, which widens a Wald interval to absorb a worst-case bias of
``b`` standard deviations. ``cv_alpha(0, a)`` equals the two-sided normal
critical value, and its excess ``cv_alpha(b, a) - b``, which
:func:`_cv_excess` solves for, lies between the one- and two-sided ones. Every
level of the package lies in (0, 1/2) (:func:`_check_alpha`), where a CI's
length rises with its sd at a fixed bias, as the lambda selector needs.

Also provides standard normal cdf/pdf/quantile wrappers, a noncentral
chi-square quantile and its inverse in the noncentrality, both computed from
the classical Poisson-mixture-of-central-chi-squares series (Ding 1992,
*Applied Statistics* 41(2), AS 275).

Everything here runs on the standard library and numpy:

- every scalar root is one safeguarded Newton iteration, :func:`_newton`:
  :func:`cv_alpha`'s excess, both noncentral chi-square inverses', whose
  slopes come from the same series evaluation as the cdf, and the first-order
  condition of :func:`momentguard.sensitivity.select_lambda`;
- the normal cdf is ``math.erf``/``math.erfc`` at ``x / sqrt(2)``, branching
  as cephes' ``ndtr``; the quantile is ``statistics.NormalDist.inv_cdf``,
  Wichura's AS241 (1988);
- the Poisson weights and the Poisson pmf terms of the central chi-square
  cdfs come from Loader's saddle-point form (Loader 2000, "Fast and accurate
  computation of binomial probabilities") at one point and cumulative sums
  of ``log(mean / a)`` from it; the central cdfs, regularized lower
  incomplete gammas ``P(a, y)``, add those terms downward from the top of
  the Poisson window, whose own value is the tail of the same series or, far
  above the window, Legendre's continued fraction for ``Q`` (Numerical
  Recipes, 6.2).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import InvalidBias, OutOfRange, SolverFailure

#: Poisson-weight tail mass at which the noncentral chi-square series stops.
_SERIES_TAIL = 1e-14

#: Largest noncentrality :func:`noncentral_chisq_quantile` accepts and
#: :func:`noncentral_chisq_ncp` searches. The series needs O(sqrt(ncp))
#: terms, about 1.4 million per cdf evaluation here.
_NCP_CEILING = 1e10

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: Standard normal quantile: Wichura's AS241 (1988), from the standard library.
_ndtri = NormalDist().inv_cdf

_SQRT_HALF = math.sqrt(0.5)

#: Step cap of :func:`_newton`. :func:`cv_alpha` takes at most 5 steps at
#: every alpha in (0, 1/2) and b up to 1e300.
_NEWTON_MAXITER = 100

#: Relative step at which :func:`_newton` stops by default: half the digits
#: of a double. Newton's error squares with each step, so the iterate
#: corrected by such a step is within about ``K eps`` relative,
#: ``K = |x f'' / (2 f')|``.
_NEWTON_RTOL = 2.0**-26

#: Smallest upper-tail probability ``1 - p`` at which
#: :func:`noncentral_chisq_quantile` answers. Near 1 the cdf's rounding does
#: not shrink with ``1 - p``, and the quantile moves by that rounding over
#: the density, which in the upper tail is proportional to ``1 - p``. Against
#: scipy's ``ncx2`` over df 1-200 and ncp 0-1e6, the quantile's relative
#: error is 4.4e-9 at this bound, 4e-5 at 1e-11 and 0.3 at 1e-14, where the
#: results are no longer monotone in p.
_QUANTILE_TAIL_MIN = 2.0**-24


def _check_alpha(alpha: float) -> float:
    a = float(alpha)
    if not (0.0 < a < 0.5):
        raise OutOfRange(f"alpha must lie in (0, 1/2), got {alpha}")
    return a


def _check_beta(beta: float) -> None:
    if not (0.0 < beta < 1.0):
        raise OutOfRange(f"beta must lie in (0, 1), got {beta}")


def _check_one_sided(a: float, beta: float) -> float:
    """``z_{1-a} + z_beta`` for a checked level ``a``: the weight of the sd in
    the one-sided excess-length quantile, and the distance ``d_b`` of the
    one-sided efficiency bound, either of which exists only where it is
    positive."""
    _check_beta(beta)
    d_b = norm_quantile(1.0 - a) + norm_quantile(beta)
    if not d_b > 0.0:
        raise OutOfRange("z_{1-alpha} + z_beta must be positive, got "
                         f"{d_b} at alpha={a}, beta={beta}")
    return d_b


def norm_cdf(x: float) -> float:
    """Standard normal cdf, from ``erf``/``erfc`` branching as cephes' ndtr."""
    t = float(x) * _SQRT_HALF
    if abs(t) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(t)
    tail = 0.5 * math.erfc(abs(t))
    return 1.0 - tail if t > 0.0 else tail


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return float(math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))


def norm_quantile(p: float) -> float:
    """Standard normal inverse cdf; requires p in (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise OutOfRange(f"quantile probability must lie in (0, 1), got {p}")
    return _ndtri(p)


def cv_alpha(b: float, alpha: float = 0.05) -> float:
    """Critical value absorbing a bias of ``b`` standard deviations.

    Returns the ``c > 0`` solving ``Phi(c - b) - Phi(-c - b) = 1 - alpha``,
    i.e. the 1-alpha quantile of the folded normal ``|N(b, 1)|``. Equivalently
    the square root of the 1-alpha quantile of a noncentral chi-square with one
    degree of freedom and noncentrality ``b**2``, for ``alpha`` in (0, 1/2):
    ``b`` plus :func:`_cv_excess`, within a few ulps of the root.
    """
    return float(b) + _cv_excess(float(b), _check_alpha(alpha))


def _cv_excess(b: float, a: float) -> float:
    """``cv_alpha(b, a) - b`` for a checked level ``a``: :func:`_newton` on
    the tail form ``a - Q(e) - Q(e + 2b)``, ``Q(x) = erfc(x / sqrt 2) / 2``,
    in the excess ``e``, which keeps the digits of a small ``a`` and of ``e``
    at any ``b``, with slope ``phi(e) + phi(e + 2b)``. On ``e > 0`` it is
    increasing and concave, so Newton climbs monotonically from the left end
    of the bracket ``[max(z_one, z_two - b), z_two]``. It stops at a step of
    ``2^-36 (1 + e)``, after which the error is about ``z_two / 2`` times the
    step squared, below 1e-17 for any alpha down to 1e-300. A tighter rule
    would wait for steps within the rounding, ``eps a / slope``, and could
    stall.
    """
    if not math.isfinite(b) or b < 0.0:
        raise InvalidBias(f"bias must be finite and nonnegative, got {b}")
    # upper-tail quantiles from the small tail probability itself: forming
    # 1 - alpha first would lose its low digits
    z_two = -norm_quantile(a / 2.0)
    if b == 0.0:
        return z_two  # exact Wald reduction
    lo = max(-norm_quantile(a), z_two - b)

    def gap(e: float) -> tuple[float, float]:
        return (a - 0.5 * math.erfc(e * _SQRT_HALF)
                - 0.5 * math.erfc((e + 2.0 * b) * _SQRT_HALF),
                norm_pdf(e) + norm_pdf(e + 2.0 * b))

    return _newton(gap, lo, lo, z_two, rtol=2.0**-36, offset=1.0)


def _log_poisson_at(a: float, mean: float) -> float:
    """``log(mean^a e^-mean / Gamma(a + 1))`` for ``a`` near ``mean > 0``.

    From a >= 15 Loader's saddle-point form ``-stirlerr(a) - bd0(a, mean) -
    log(2 pi a) / 2`` (Loader 2000), with the Stirling series to its a^-11
    term and ``bd0 = a (v - log1p(v))``, ``v = (mean - a) / a``, so nothing
    of size ``a log a`` cancels. Below 15 the log of the product
    ``mean^a e^-mean / Gamma(a + 1)``, within a few units in 1e-16 (a sum of
    logs loses up to 1e-14); where that product leaves the normal range,
    the sum of logs.
    """
    if a < 15.0:
        t = mean**a * math.exp(-mean) / math.gamma(a + 1.0) if mean < 700.0 else 0.0
        if t >= _TINY:
            return math.log(t)
        return a * math.log(mean) - mean - math.lgamma(a + 1.0)
    v = (mean - a) / a
    bd0 = a * (v - math.log1p(v))
    r = 1.0 / (a * a)
    stirlerr = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (
        1 / 1680 - r * (1 / 1188 - r * 691 / 360360))))) / a
    return -stirlerr - bd0 - 0.5 * math.log(2.0 * math.pi * a)


def _log_poisson(a0: float, n: int, mean: float) -> np.ndarray:
    """``log(mean^a e^-mean / Gamma(a + 1))`` at ``a = a0, a0 + 1, ...``
    (``n`` values): one value next to ``mean`` from :func:`_log_poisson_at`,
    then cumulative sums of ``log(mean / a)`` up and down from it. The sums
    stay small where the terms are large, so their rounding does too.
    """
    ref = min(max(round(mean - a0), 0), n - 1)
    steps = np.log(mean / np.arange(a0 + 1.0, a0 + n - 0.5))
    out = np.empty(n)
    out[ref] = _log_poisson_at(a0 + ref, mean)
    if ref + 1 < n:
        np.add.accumulate(steps[ref:], out=out[ref + 1:])
        out[ref + 1:] += out[ref]
    if ref > 0:
        out[:ref] = (out[ref] - np.add.accumulate(steps[ref - 1::-1]))[::-1]
    return out


def _poisson_weights(half_ncp: float):
    """Poisson(half_ncp) weights covering all but ``_SERIES_TAIL`` mass.

    The window ``half_ncp +/- (10 sqrt(half_ncp) + 50)`` carries all Poisson
    mass except a tail far below the target, for any noncentrality; weights
    are computed in log space so nothing under- or overflows. Returns
    (first_index, weights array).
    """
    if half_ncp == 0.0:
        return 0, np.array([1.0])
    spread = 10.0 * math.sqrt(half_ncp) + 50.0
    lo = max(int(half_ncp - spread), 0)
    hi = int(half_ncp + spread) + 1
    return lo, np.exp(_log_poisson(float(lo), hi - lo + 1, half_ncp))


#: Iteration cap of :func:`_gamma_q_cf`. It is called only at ``y >= a + 1 +
#: 5 sqrt(a + 1)``, where it converges in about 25 iterations for any ``a``.
_CF_MAXITER = 1000


def _gamma_q_cf(a: float, y: float, t: float) -> float:
    """Regularized upper incomplete gamma ``Q(a, y)`` for ``y > a + 1``, given
    ``t = y^a e^-y / Gamma(a + 1)``: Legendre's continued fraction by the
    modified Lentz method (Numerical Recipes, 6.2)."""
    if t == 0.0:
        return 0.0
    tiny = 1e-300
    b = y + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, _CF_MAXITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return a * t * h
    raise SolverFailure(
        f"incomplete gamma Q({a!r}, {y!r}): continued fraction did not converge")


def _series(df: int, first: int, w: np.ndarray):
    """``x -> (F, f, -dF/dncp)``: the Poisson mixture of central chi-square
    cdfs ``F(x) = sum_j w_j P(df/2 + first + j, x/2)``, with ``P`` the
    regularized lower incomplete gamma and ``w`` fixed, its density in ``x``
    and its slope in the noncentrality.

    With ``t_k = y^a_k e^-y / Gamma(a_k + 1)`` at ``y = x/2``, ``P(a, y) =
    P(a + 1, y) + t`` adds only positive terms downward from the window's top
    ``a_top``, so the sum is ``W P(a_top, y) + sum_{k < top} t_k cw_k`` over
    the partial sums ``cw`` of the weights and their total ``W``. Up to
    ``y_max = a_top + 1 + 5 sqrt(a_top + 1)``, ``P(a_top, y)`` is the series
    ``sum_{k >= top} t_k``, whose terms past ``y + 10 sqrt(y) + 50`` are
    negligible; above it, ``1 - Q`` from :func:`_gamma_q_cf`. What depends on
    the weights alone is formed once: the partial sums, and ``log t_k`` at
    the window's centre ``y0``, from which ``log t_k(y) = log t_k(y0) + (a_k
    - y0) L - y0 (u - L)`` with ``u = y/y0 - 1`` and ``L = log(1 + u)``, nothing of
    size ``a_k log y`` cancelling. One evaluation is then one vector ``exp``,
    in a buffer the evaluator reuses (so it serves one caller at a time), and
    three dot products.

    The slopes reuse the window's terms ``t_j``: ``dP(a, y)/dy = a t / y``
    gives the density ``f = sum_j w_j a_j t_j / x``, and since the Poisson
    weights' derivative in their mean is ``w_{j-1} - w_j``, the mixture
    telescopes to ``-dF/dncp = (1/2) sum_j w_j t_j``, the density at ``x``
    of the noncentral chi-square with ``df + 2`` degrees of freedom. At
    ``x <= 0`` and ``x = inf`` both slopes are returned as 0.
    """
    n = w.shape[0]
    a_first = 0.5 * df + first
    a_top = a_first + n - 1
    y_max = a_top + 1.0 + 5.0 * math.sqrt(a_top + 1.0)
    size = math.ceil(y_max + 10.0 * math.sqrt(y_max) + 50.0 - a_first)
    y0 = a_first + 0.5 * (n - 1)
    log_t0 = _log_poisson(a_first, size, y0)
    da = np.arange(a_first - y0, a_first - y0 + size - 0.5)
    cw_ext = np.empty(size)
    cw = np.add.accumulate(w, out=cw_ext[:n])
    total = float(cw[-1])
    cw_ext[n:] = total
    wa = w * np.arange(a_first, a_top + 0.5)
    buf = np.empty(size)  # the terms t_k, formed in place at each evaluation

    def evaluate(x: float) -> tuple[float, float, float]:
        if x <= 0.0:
            return 0.0, 0.0, 0.0
        y = 0.5 * x
        if y == math.inf:
            return total, 0.0, 0.0
        u = (y - y0) / y0
        lg = math.log1p(u) if abs(u) < 0.5 else math.log(y / y0)
        shift = y0 * (u - lg)
        if y <= y_max:
            t = np.multiply(da, lg, out=buf)
            t -= shift
            np.add(log_t0, t, out=t)
            np.exp(t, out=t)
            cdf = float(np.dot(t, cw_ext))
            t = t[:n]
        else:
            t = np.exp(log_t0[:n] + (da[:n] * lg - shift))
            p_top = 1.0 - _gamma_q_cf(a_top, y, float(t[-1]))
            cdf = float(np.dot(t[:-1], cw[:-1])) + total * p_top
        return cdf, float(np.dot(t, wa)) / x, 0.5 * float(np.dot(t, w))

    return evaluate


def _newton(fun, x: float, lo: float, hi: float, rtol: float = _NEWTON_RTOL,
            offset: float = 0.0) -> float:
    """Root of an increasing function on ``[lo, hi]`` by Newton's method from
    ``x``, safeguarded by bisection.

    ``fun(x)`` returns the value and the slope, and the root must lie in the
    bracket. Each value's sign moves one end of the bracket to ``x``; a step
    that leaves the bracket, or a slope that is not positive, bisects it
    instead. The iteration returns ``x`` corrected by the first step within
    ``rtol (offset + |x|)``, or ``hi`` once ``lo`` and ``hi`` are adjacent
    doubles. The default rule is relative and half the digits of a double;
    an offset of 1 keeps it from stalling at a root near 0. A tolerance of a
    few eps would not do for the noncentral chi-square inverses: near the
    root the steps are the function's rounding over its slope, which for an
    upper-tail quantile is 1e-14 to 1e-13 of ``x``, so they wander there
    until the bracket closes. A NaN value raises SolverFailure, and so does
    the ``_NEWTON_MAXITER``-th step.
    """
    for _ in range(_NEWTON_MAXITER):
        g, slope = fun(x)
        if g < 0.0:
            lo = x
        elif g > 0.0:
            hi = x
        elif g == 0.0:
            return x
        else:
            raise SolverFailure(f"root search: the function is NaN at x={x!r}")
        step = g / slope if slope > 0.0 else math.inf
        if abs(step) <= rtol * (offset + abs(x)):
            return x - step
        x -= step
        if not lo < x < hi:
            x = lo + 0.5 * (hi - lo)
            if not lo < x < hi:  # lo and hi are adjacent doubles
                return hi
    raise SolverFailure(
        f"root search: Newton did not converge in {_NEWTON_MAXITER} steps (x={x!r})")


def _check_p(p: float) -> float:
    p = float(p)
    if not (0.0 < p < 1.0):
        raise OutOfRange(f"probability must lie in (0, 1), got {p}")
    return p


def _check_df(df) -> int:
    """``df`` as an int; raises OutOfRange unless it is a positive integer,
    which a boolean is not."""
    try:
        k = int(df)
        float(k)
    except (OverflowError, TypeError, ValueError):
        k = 0
    if isinstance(df, (bool, np.bool_)) or k != df or k < 1:
        raise OutOfRange(f"df must be a positive integer, got {df!r}")
    return k


def _check_ncp(ncp: float) -> float:
    """``ncp`` as a float; raises OutOfRange below 0 and SolverFailure above
    ``_NCP_CEILING`` or at NaN, where the series would need more terms than
    memory holds."""
    ncp = float(ncp)
    if ncp < 0.0:
        raise OutOfRange(f"ncp must be nonnegative, got {ncp}")
    if not ncp <= _NCP_CEILING:
        raise SolverFailure(f"noncentrality {ncp!r} is not a number at or below "
                            f"the series' ceiling {_NCP_CEILING:.0e}")
    return ncp


def noncentral_chisq_cdf(x: float, df: int, ncp: float) -> float:
    """Noncentral chi-square cdf via the Poisson-weighted central series.

    Raises OutOfRange for a NaN ``x``, a ``df`` that is not a positive
    integer or a negative ``ncp``, and SolverFailure for a noncentrality
    above ``_NCP_CEILING`` or NaN.
    """
    x = float(x)
    if math.isnan(x):
        raise OutOfRange("x must not be NaN")
    df = _check_df(df)
    ncp = _check_ncp(ncp)
    return _series(df, *_poisson_weights(0.5 * ncp))(x)[0]


def _quantile_start(p: float, df: int, ncp: float) -> float:
    """Where Newton's method starts for the quantile.

    Patnaik's two-moment approximation (Patnaik 1949), ``c chi2_h`` with the
    noncentral mean ``c h = df + ncp`` and variance, ``h = (df + ncp)^2 /
    (df + 2 ncp)``, its quantile by the Wilson-Hilferty cube. Where the
    cube's base is not positive (tiny p), or the result is deep in the lower
    tail, the root of the cdf's small-x power law ``e^(-ncp/2) y^a /
    Gamma(a + 1) = p``, ``a = df/2``, ``y = x/2``, instead: its first
    correction, of relative size about ``y (1 + ncp/2) / (a + 1)``, is then
    below 0.1, where the cube of a small base is far off.
    """
    mean = df + ncp
    v = 2.0 * (df + 2.0 * ncp) / (9.0 * mean * mean)
    base = 1.0 - v + _ndtri(p) * math.sqrt(v)
    a = 0.5 * df
    log_y = (math.log(p) + math.lgamma(a + 1.0) + 0.5 * ncp) / a
    if base <= 0.0 or log_y + math.log1p(0.5 * ncp) <= math.log(0.1 * (a + 1.0)):
        return 2.0 * math.exp(log_y)
    return mean * base**3


def _cantelli_bound(p: float, df: int, ncp: float) -> float:
    """``mean + sd sqrt(p / (1 - p))``, at or above the p-quantile: by
    Cantelli's inequality the cdf there is at least p."""
    return df + ncp + math.sqrt(2.0 * (df + 2.0 * ncp) * p / (1.0 - p))


def noncentral_chisq_quantile(p: float, df: int, ncp: float) -> float:
    """Quantile of the noncentral chi-square distribution.

    Monotone nondecreasing in ``ncp``. Newton's method on the cdf, whose
    evaluation also gives the density, starts from :func:`_quantile_start`
    inside the bracket from 0 to :func:`_cantelli_bound`. Relative error
    stays below 1e-8 for ``1 - p`` down to ``_QUANTILE_TAIL_MIN = 2^-24``;
    past that the cdf's rounding swamps ``1 - p`` (see ``_QUANTILE_TAIL_MIN``),
    as it does for any series- or integration-based cdf, so such a p is
    refused rather than answered wrongly.

    Raises OutOfRange for a p above ``1 - _QUANTILE_TAIL_MIN``, a ``df``
    that is not a positive integer or a negative ``ncp``, and SolverFailure
    for a noncentrality above ``_NCP_CEILING`` or NaN, where the series
    would need more terms than memory holds.
    """
    p = _check_p(p)
    if 1.0 - p < _QUANTILE_TAIL_MIN:
        raise OutOfRange(f"p = {p!r} is within {_QUANTILE_TAIL_MIN:.3g} of 1, "
                         "past what the noncentral chi-square cdf resolves")
    df = _check_df(df)
    ncp = _check_ncp(ncp)
    series = _series(df, *_poisson_weights(0.5 * ncp))

    def gap(x: float) -> tuple[float, float]:
        cdf, density, _ = series(x)
        return cdf - p, density

    hi = _cantelli_bound(p, df, ncp)
    return _newton(gap, min(_quantile_start(p, df, ncp), hi), 0.0, hi)


def noncentral_chisq_ncp(x: float, df: int, p: float) -> float:
    """Noncentrality at which the noncentral chi-square cdf at ``x`` equals ``p``.

    Solves ``F(x; df, ncp) = p`` for ``ncp >= 0``, which inverts
    :func:`noncentral_chisq_quantile` in its noncentrality: the cdf at a fixed
    ``x`` decreases strictly in ``ncp``, so ``quantile(p, df, ncp) = x`` at the
    root. Returns 0 when ``F(x; df, 0) <= p``. Otherwise Newton's method,
    with the slope ``-dF/dncp`` from the same series evaluation, starts from
    the normal approximation ``x = df + ncp + z_p sqrt(2 (df + 2 ncp))``
    solved for ``ncp`` and clamped to ``[0, _NCP_CEILING]``.

    Raises OutOfRange for a negative or NaN ``x`` or a ``df`` that is not a
    positive integer, and SolverFailure when no noncentrality up to
    ``_NCP_CEILING`` brings the cdf down to ``p`` (``x`` infinite or beyond
    the series' range).
    """
    x = float(x)
    if not (x >= 0.0):
        raise OutOfRange(f"x must be nonnegative, got {x}")
    p = _check_p(p)
    df = _check_df(df)

    def gap(ncp: float) -> tuple[float, float]:
        cdf, _, slope = _series(df, *_poisson_weights(0.5 * ncp))(x)
        return p - cdf, slope

    if gap(0.0)[0] >= 0.0:
        return 0.0
    # at or above the bound the cdf stays at p or more up to the ceiling
    if x < _cantelli_bound(p, df, _NCP_CEILING):
        # s = sqrt(2 (df + 2 ncp)) is the positive root of s^2 + 4 z s + 2 df - 4 x
        z = _ndtri(p)
        s = max(-2.0 * z + math.sqrt(max(4.0 * (z * z + x) - 2.0 * df, 0.0)), 0.0)
        start = min(max(0.25 * s * s - 0.5 * df, 0.0), _NCP_CEILING)
        root = _newton(gap, start, 0.0, _NCP_CEILING)
        if root < _NCP_CEILING:
            return root
    raise SolverFailure(
        f"no noncentrality up to {_NCP_CEILING:.0e} brings the cdf at {x} "
        f"down to {p}")
