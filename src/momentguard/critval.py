"""Bias-aware critical values and the special functions behind them.

The central object is :func:`cv_alpha`: the 1-alpha quantile of ``|Z|`` for
``Z ~ N(b, 1)``, which widens a Wald interval to absorb a worst-case bias of
``b`` standard deviations. ``cv_alpha(0, a)`` equals the two-sided normal
critical value, and ``cv_alpha(b, a) - b`` always lies between the one- and
two-sided normal critical values, which gives a guaranteed root bracket.

Also provides standard normal cdf/pdf/quantile wrappers, a noncentral
chi-square quantile and its inverse in the noncentrality, both computed from
the classical Poisson-mixture-of-central-chi-squares series.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainc, gammaln, ndtr, ndtri

from .errors import InvalidBias, OutOfRange, SolverFailure

#: Poisson-weight tail mass at which the noncentral chi-square series stops.
_SERIES_TAIL = 1e-14

#: Largest noncentrality :func:`noncentral_chisq_ncp` searches. The series
#: needs O(sqrt(ncp)) terms, about 1.4 million per cdf evaluation here.
_NCP_CEILING = 1e10


def _check_alpha(alpha: float) -> float:
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise OutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    return a


def norm_cdf(x: float) -> float:
    """Standard normal cdf."""
    return float(ndtr(x))


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return float(math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))


def norm_quantile(p: float) -> float:
    """Standard normal inverse cdf; requires p in (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise OutOfRange(f"quantile probability must lie in (0, 1), got {p}")
    return float(ndtri(p))


def cv_alpha(b: float, alpha: float = 0.05) -> float:
    """Critical value absorbing a bias of ``b`` standard deviations.

    Returns the ``c > 0`` solving ``Phi(c - b) - Phi(-c - b) = 1 - alpha``,
    i.e. the 1-alpha quantile of the folded normal ``|N(b, 1)|``. Equivalently
    the square root of the 1-alpha quantile of a noncentral chi-square with one
    degree of freedom and noncentrality ``b**2``.
    """
    a = _check_alpha(alpha)
    b = float(b)
    if not math.isfinite(b) or b < 0.0:
        raise InvalidBias(f"bias must be finite and nonnegative, got {b}")
    z_two = norm_quantile(1.0 - a / 2.0)
    if b == 0.0:
        return z_two  # exact Wald reduction
    z_one = norm_quantile(1.0 - a)
    if math.ulp(b + z_two) > 1e-6:
        # from 2**33 the float spacing near the root exceeds the 1e-6 bracket
        # margins below; Phi(-c - b) = 0 there, so the root is b + z_one.
        return b + z_one
    lo = b + z_one - 1e-6
    hi = b + z_two + 1e-6

    def gap(c: float) -> float:
        return ndtr(c - b) - ndtr(-c - b) - (1.0 - a)

    # gap is strictly increasing in c; the slope bounds on cv_alpha guarantee
    # the bracket, so brentq cannot escape.
    return float(brentq(gap, lo, hi, xtol=1e-10, rtol=4 * np.finfo(float).eps))


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
    js = np.arange(lo, hi + 1)
    logw = js * math.log(half_ncp) - half_ncp - gammaln(js + 1.0)
    return lo, np.exp(logw)


def _series_cdf(x: float, df: int, first: int, w: np.ndarray) -> float:
    if x <= 0.0:
        return 0.0
    js = np.arange(first, first + w.shape[0])
    central = gammainc(0.5 * df + js, 0.5 * x)
    return float(np.dot(w, central))


def noncentral_chisq_cdf(x: float, df: int, ncp: float) -> float:
    """Noncentral chi-square cdf via the Poisson-weighted central series."""
    first, w = _poisson_weights(0.5 * ncp)
    return _series_cdf(x, df, first, w)


def noncentral_chisq_quantile(p: float, df: int, ncp: float) -> float:
    """Quantile of the noncentral chi-square distribution.

    Monotone nondecreasing in ``ncp``. Relative error stays below 1e-8 for
    probabilities up to about 1 - 1e-6; past that, inverting a double-
    precision cdf over a vanishing density saturates, as it does for any
    series- or integration-based implementation.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise OutOfRange(f"probability must lie in (0, 1), got {p}")
    df = int(df)
    if df < 1:
        raise OutOfRange(f"df must be a positive integer, got {df}")
    ncp = float(ncp)
    if ncp < 0.0 or not math.isfinite(ncp):
        raise OutOfRange(f"ncp must be nonnegative and finite, got {ncp}")

    first, w = _poisson_weights(0.5 * ncp)
    mean = df + ncp
    sd = math.sqrt(2.0 * (df + 2.0 * ncp))
    hi = mean + 10.0 * sd + 10.0
    for _ in range(100):
        if _series_cdf(hi, df, first, w) >= p:
            break
        hi *= 2.0
    return float(brentq(lambda x: _series_cdf(x, df, first, w) - p,
                        0.0, hi, xtol=1e-12, rtol=1e-12))


def noncentral_chisq_ncp(x: float, df: int, p: float) -> float:
    """Noncentrality at which the noncentral chi-square cdf at ``x`` equals ``p``.

    Solves ``F(x; df, ncp) = p`` for ``ncp >= 0``, which inverts
    :func:`noncentral_chisq_quantile` in its noncentrality: the cdf at a fixed
    ``x`` decreases strictly in ``ncp``, so ``quantile(p, df, ncp) = x`` at the
    root. Returns 0 when ``F(x; df, 0) <= p``. The bracket doubles from
    ``max(x, 1)`` and one ``brentq`` solves to near machine precision.

    Raises SolverFailure when no noncentrality up to ``_NCP_CEILING`` brings
    the cdf down to ``p`` (``x`` infinite or beyond the series' range).
    """
    x = float(x)
    if not (x >= 0.0):
        raise OutOfRange(f"x must be nonnegative, got {x}")
    p = float(p)
    if not (0.0 < p < 1.0):
        raise OutOfRange(f"probability must lie in (0, 1), got {p}")
    df = int(df)
    if df < 1:
        raise OutOfRange(f"df must be a positive integer, got {df}")

    def gap(ncp: float) -> float:
        first, w = _poisson_weights(0.5 * ncp)
        return _series_cdf(x, df, first, w) - p

    if gap(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, max(x, 1.0)
    while hi <= _NCP_CEILING:
        if gap(hi) < 0.0:
            return float(brentq(gap, lo, hi, xtol=1e-14,
                                rtol=4 * np.finfo(float).eps))
        lo, hi = hi, 2.0 * hi
    raise SolverFailure(
        f"no noncentrality up to {_NCP_CEILING:.0e} brings the cdf at {x} "
        f"down to {p}")
