import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive
from scipy.stats import chi2, ncx2

from momentguard import critval
from momentguard.critval import (
    cv_alpha,
    noncentral_chisq_cdf,
    noncentral_chisq_ncp,
    noncentral_chisq_quantile,
    norm_cdf,
    norm_pdf,
    norm_quantile,
)
from momentguard.errors import InvalidBias, OutOfRange, SolverFailure
from oracles import cv_alpha_tail_oracle

Z975 = 1.959963984540054
Z95 = 1.6448536269514722


def ncx2_quantile_by_density_integration(p, df, ncp):
    """Invert the Bessel-form noncentral chi-square density numerically."""
    h = df / 2.0 - 1.0

    def pdf(x):
        if x <= 0.0:
            return 0.0
        return (0.5 * math.exp(-0.5 * (math.sqrt(x) - math.sqrt(ncp)) ** 2)
                * (x / ncp) ** (h / 2.0) * ive(h, math.sqrt(ncp * x)))

    def cdf(q):
        return quad(pdf, 0.0, q, limit=400)[0]

    lo, hi = 0.0, df + ncp + 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCvAlpha:
    def test_zero_bias_is_two_sided_normal(self):
        assert cv_alpha(0.0, 0.05) == pytest.approx(1.95996, abs=1e-5)
        assert abs(cv_alpha(0.0, 0.05) - Z975) < 1e-9

    def test_large_bias_folds_to_one_sided(self):
        assert abs(cv_alpha(10.0, 0.05) - (10.0 + Z95)) < 1e-4

    @pytest.mark.parametrize("b", [1e10, np.nextafter(2.0**34, 0.0), 3e10, 1e12,
                                   1e20, 1e300])
    def test_huge_bias_past_float_spacing(self, b):
        # the root bracket is finer than the float spacing near b here
        assert cv_alpha(b, 0.05) == pytest.approx(b + Z95, rel=4e-16)

    def test_matches_bisection_oracle(self):
        for b, alpha in [(1.0, 0.05), (3.0, 0.05), (1.0, 0.32), (0.4, 0.10)]:
            assert abs(cv_alpha(b, alpha) - cv_alpha_tail_oracle(b, alpha)) < 1e-8

    @pytest.mark.parametrize("alpha", [1e-10, 0.01, 0.05, 0.3, 0.49])
    def test_within_four_ulps_of_tail_oracle(self, alpha):
        # in units of the tail form's resolution at the root: the spacing of
        # c, and of b, which the arguments c -+ b carry, and the root's move
        # under a rounding of alpha, eps alpha / (phi(c - b) + phi(c + b))
        eps = np.finfo(float).eps
        for b in np.logspace(-12, 8, 81):
            want = cv_alpha_tail_oracle(b, alpha)
            slope = norm_pdf(want - b) + norm_pdf(want + b)
            unit = max(math.ulp(want), math.ulp(b), eps * alpha / slope)
            assert abs(cv_alpha(b, alpha) - want) <= 4.0 * unit, b

    def test_frozen_oracle_value(self):
        # computed once from the independent bisection oracle
        assert cv_alpha(1.0, 0.05) == pytest.approx(2.64614554821531, abs=1e-8)

    def test_increasing_convex_slope_bounds(self):
        bs = np.linspace(0.0, 10.0, 81)
        vals = np.array([cv_alpha(b, 0.05) for b in bs])
        slopes = np.diff(vals) / np.diff(bs)
        assert np.all(slopes > 0.0)
        assert np.all(slopes <= 1.0 + 1e-12)
        assert np.all(np.diff(slopes) >= -1e-9)

    def test_gap_between_one_and_two_sided(self):
        for b in np.linspace(0.0, 20.0, 41):
            gap = cv_alpha(b, 0.05) - b
            assert Z95 - 1e-9 <= gap <= Z975 + 1e-9

    def test_square_is_noncentral_chisq_quantile(self):
        for b in (0.0, 0.7, 2.0, 5.0):
            q = noncentral_chisq_quantile(0.95, 1, b * b)
            assert abs(cv_alpha(b, 0.05) ** 2 - q) < 1e-8

    def test_invalid_bias(self):
        with pytest.raises(InvalidBias):
            cv_alpha(-0.1, 0.05)
        with pytest.raises(InvalidBias):
            cv_alpha(float("nan"), 0.05)
        with pytest.raises(OutOfRange):
            cv_alpha(1.0, 1.5)


class TestNewton:
    """``critval._newton``, the one scalar root finder: cv_alpha, both
    noncentral chi-square inverses and select_lambda's first-order root."""

    def test_flat_slope_ends_at_adjacent_doubles(self):
        # every step bisects; the bracket closes on the jump
        def step(x):
            return (1.0 if x > 0.7 else -1.0), 0.0

        assert critval._newton(step, 0.5, 0.0, 1.0) == math.nextafter(0.7, 1.0)

    def test_nan_is_solver_failure(self):
        with pytest.raises(SolverFailure, match="NaN at x=0.625"):
            critval._newton(lambda x: (math.nan if x > 0.5 else -1.0, 1.0),
                            0.25, 0.0, 1.0)

    def test_iteration_cap(self):
        # bisection toward a root at 1e-300 needs about a thousand halvings
        with pytest.raises(SolverFailure,
                           match=r"^root search: Newton did not converge in 100 steps"):
            critval._newton(lambda x: (x - 1e-300, 0.0), 0.5, 0.0, 1.0)

    def test_offset_stops_at_a_root_at_zero(self):
        # Newton's step on a cube root doubles the distance to the root, so
        # every step bisects. A step rule relative to |x| never fires and the
        # bracket closes toward 0 only after about a thousand halvings;
        # relative to 1 + |x| it fires within 2^-26 of the root
        def cube_root(x):
            return math.copysign(abs(x) ** (1.0 / 3.0), x), (
                abs(x) ** (-2.0 / 3.0) / 3.0 if x else math.inf)

        with pytest.raises(SolverFailure, match="did not converge"):
            critval._newton(cube_root, 0.5, -1.0, 1.0)
        assert abs(critval._newton(cube_root, 0.5, -1.0, 1.0, offset=1.0)) <= 2.0**-24


class TestNormal:
    def test_quantile(self):
        assert norm_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_pdf_at_zero(self):
        assert norm_pdf(0.0) == pytest.approx(0.3989423, abs=1e-7)

    def test_inverse_pair(self):
        for p in np.arange(0.01, 1.0, 0.01):
            assert abs(norm_cdf(norm_quantile(p)) - p) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            norm_quantile(0.0)
        with pytest.raises(OutOfRange):
            norm_quantile(1.0)


class TestNoncentralChisq:
    def test_central_one_df(self):
        assert noncentral_chisq_quantile(0.95, 1, 0.0) == pytest.approx(
            3.841459, abs=1e-6)

    def test_zero_ncp_is_central(self):
        from scipy.stats import chi2
        for df in (1, 3, 7):
            for p in (0.1, 0.5, 0.95):
                assert noncentral_chisq_quantile(p, df, 0.0) == pytest.approx(
                    chi2.ppf(p, df), rel=1e-10)

    def test_against_density_integration_oracle(self):
        q = noncentral_chisq_quantile(0.95, 3, 2.0)
        oracle = ncx2_quantile_by_density_integration(0.95, 3, 2.0)
        assert abs(q - oracle) < 1e-6

    def test_monotone_in_ncp(self):
        qs = [noncentral_chisq_quantile(0.9, 4, ncp)
              for ncp in (0.0, 0.5, 2.0, 10.0, 100.0, 1e4)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_cdf_quantile_roundtrip(self):
        for ncp in (0.0, 3.0, 42.0):
            q = noncentral_chisq_quantile(0.75, 5, ncp)
            assert noncentral_chisq_cdf(q, 5, ncp) == pytest.approx(0.75, abs=1e-10)

    def test_range_errors(self):
        with pytest.raises(OutOfRange):
            noncentral_chisq_quantile(0.0, 1, 0.0)
        with pytest.raises(OutOfRange):
            noncentral_chisq_quantile(0.5, 0, 0.0)
        with pytest.raises(OutOfRange):
            noncentral_chisq_quantile(0.5, 1, -1.0)

    def test_above_ceiling_is_solver_failure(self):
        # the series needs O(sqrt(ncp)) terms: past 1e10 it fails at once
        for ncp in (math.nextafter(1e10, math.inf), 1e200, math.inf, math.nan):
            with pytest.raises(SolverFailure, match=r"ceiling 1e\+10"):
                noncentral_chisq_quantile(0.95, 3, ncp)


class TestNoncentralityRoot:
    def test_inverts_quantile_in_ncp(self):
        for df in (1, 4, 13):
            for ncp in (0.3, 7.0, 250.0):
                for p in (0.05, 0.95):
                    x = noncentral_chisq_quantile(p, df, ncp)
                    assert noncentral_chisq_ncp(x, df, p) == pytest.approx(
                        ncp, rel=1e-9)

    def test_zero_when_central_cdf_below_target(self):
        assert noncentral_chisq_ncp(1.0, 3, 0.95) == 0.0
        assert noncentral_chisq_ncp(0.0, 3, 0.95) == 0.0

    def test_no_bracket_is_solver_failure(self):
        for x in (1e12, math.inf):
            with pytest.raises(SolverFailure):
                noncentral_chisq_ncp(x, 3, 0.95)

    def test_range_errors(self):
        with pytest.raises(OutOfRange):
            noncentral_chisq_ncp(math.nan, 3, 0.95)
        with pytest.raises(OutOfRange):
            noncentral_chisq_ncp(5.0, 3, 1.0)
        with pytest.raises(OutOfRange):
            noncentral_chisq_ncp(5.0, 0, 0.95)


#: The grid of the inverses' tests: probabilities, degrees of freedom and
#: noncentralities from the central case to a million.
GRID_P = (1e-6, 0.05, 0.5, 0.95, 0.999, 1.0 - 1e-6)
GRID_DF = (1, 2, 7, 30, 200)
GRID_NCP = (0.0, 1e-8, 0.3, 7.0, 250.0, 1e4, 1e6)


def scipy_quantile(p, df, ncp):
    return chi2.ppf(p, df) if ncp == 0.0 else ncx2.ppf(p, df, ncp)


def scipy_pdf(x, df, ncp):
    return chi2.pdf(x, df) if ncp == 0.0 else ncx2.pdf(x, df, ncp)


def series_at(x, df, ncp):
    return critval._series(df, *critval._poisson_weights(0.5 * ncp))(x)


class TestNewtonInverses:
    @pytest.mark.parametrize("ncp", GRID_NCP)
    @pytest.mark.parametrize("df", GRID_DF)
    def test_quantile_matches_scipy(self, df, ncp):
        for p in GRID_P:
            want = scipy_quantile(p, df, ncp)
            got = noncentral_chisq_quantile(p, df, ncp)
            assert abs(got - want) <= 1e-8 * want, p

    @pytest.mark.parametrize("ncp", GRID_NCP)
    @pytest.mark.parametrize("df", GRID_DF)
    def test_slopes_match_scipy_densities(self, df, ncp):
        # the density in x, and -dF/dncp, which is the density with df + 2
        for p in GRID_P:
            x = noncentral_chisq_quantile(p, df, ncp)
            _, density, dncp = series_at(x, df, ncp)
            want = scipy_pdf(x, df, ncp)
            if want > 1e-300:
                assert abs(density - want) <= 1e-10 * want, p
            want = scipy_pdf(x, df + 2, ncp)
            if want > 1e-300:
                assert abs(dncp - want) <= 1e-10 * want, p

    def test_deep_lower_tail_one_df(self):
        # the quantile is about 1.57e-12: a step rule in absolute terms
        # would stop far from it
        want = chi2.ppf(1e-6, 1)
        assert abs(noncentral_chisq_quantile(1e-6, 1, 0.0) - want) <= 1e-10 * want

    def test_root_exactly_zero(self):
        for df, p in ((1, 0.05), (3, 0.95), (30, 0.5)):
            x = chi2.ppf(p, df)
            assert noncentral_chisq_ncp(x * (1.0 - 1e-9), df, p) == 0.0
            assert noncentral_chisq_ncp(x * (1.0 + 1e-9), df, p) > 0.0

    def test_few_series_evaluations(self, monkeypatch):
        # Newton from the two-moment start; a fall-back to bisection would
        # take dozens of evaluations
        calls = []

        def counted(*args):
            evaluate = series(*args)

            def wrapped(x):
                calls.append(x)
                return evaluate(x)
            return wrapped

        series = critval._series
        monkeypatch.setattr(critval, "_series", counted)
        for df in GRID_DF:
            for ncp in GRID_NCP:
                for p in (0.05, 0.5, 0.95, 0.999):
                    calls.clear()
                    noncentral_chisq_quantile(p, df, ncp)
                    assert len(calls) <= 8, (p, df, ncp)


class TestQuantileNearOne:
    """Past ``1 - p = _QUANTILE_TAIL_MIN`` the cdf's rounding swamps ``1 - p``,
    and the quantile is refused; up to it, it is accurate and monotone."""

    @pytest.mark.parametrize("p,df,ncp", [(1.0 - 2.0**-52, 3, 7.0),
                                          (1.0 - 1e-14, 30, 1e4),
                                          (1.0 - 2.0**-52, 30, 1e4)])
    def test_past_the_bound_is_out_of_range(self, p, df, ncp):
        # these gave 177.7 (scipy: 119.76), 11921 (11619) and 12287: wrong,
        # and falling as p rose
        with pytest.raises(OutOfRange, match="resolves"):
            noncentral_chisq_quantile(p, df, ncp)

    @pytest.mark.parametrize("ncp", GRID_NCP)
    @pytest.mark.parametrize("df", GRID_DF)
    def test_accurate_and_monotone_up_to_the_bound(self, df, ncp):
        tails = np.geomspace(1e-3, critval._QUANTILE_TAIL_MIN, 8)
        got = [noncentral_chisq_quantile(1.0 - t, df, ncp) for t in tails]
        assert all(x <= y for x, y in zip(got, got[1:]))
        for t, x in zip(tails, got):
            want = scipy_quantile(1.0 - t, df, ncp)
            assert abs(x - want) <= 1e-8 * want, t


class TestInputChecks:
    @pytest.mark.parametrize("df", [0, -3, 2.5, True, np.True_, math.nan, math.inf])
    def test_df_must_be_a_positive_integer(self, df):
        for call in (lambda: noncentral_chisq_cdf(3.0, df, 1.0),
                     lambda: noncentral_chisq_quantile(0.5, df, 1.0),
                     lambda: noncentral_chisq_ncp(3.0, df, 0.5)):
            with pytest.raises(OutOfRange, match="df must be a positive integer"):
                call()

    @pytest.mark.parametrize("df", [3, 3.0, np.int64(3)])
    def test_integral_df(self, df):
        assert noncentral_chisq_cdf(3.0, df, 1.0) == noncentral_chisq_cdf(3.0, 3, 1.0)

    def test_nan_x(self):
        with pytest.raises(OutOfRange):
            noncentral_chisq_cdf(math.nan, 3, 1.0)
        with pytest.raises(OutOfRange):
            noncentral_chisq_ncp(math.nan, 3, 0.5)

    def test_negative_ncp(self):
        with pytest.raises(OutOfRange):
            noncentral_chisq_cdf(3.0, 3, -1.0)

    def test_cdf_range(self):
        assert noncentral_chisq_cdf(-1.0, 3, 1.0) == 0.0
        assert noncentral_chisq_cdf(math.inf, 3, 1.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("ncp", [1e11, math.inf, math.nan])
    def test_cdf_above_ceiling_allocates_nothing(self, ncp):
        with peak_bytes() as peak:
            with pytest.raises(SolverFailure, match=r"ceiling 1e\+10"):
                noncentral_chisq_cdf(3.0, 3, ncp)
        assert peak[0] < 100_000

    @pytest.mark.parametrize("x", [1e12, math.inf])
    def test_ncp_root_past_ceiling_allocates_nothing(self, x):
        # the cdf at x stays above p up to the ceiling by Cantelli's bound,
        # so no series at a noncentrality near 1e10 is built
        with peak_bytes() as peak:
            with pytest.raises(SolverFailure, match=r"1e\+10"):
                noncentral_chisq_ncp(x, 3, 0.95)
        assert peak[0] < 100_000


@contextlib.contextmanager
def peak_bytes():
    """Peak bytes allocated inside the block, in a one-element list."""
    peak = [0]
    tracemalloc.start()
    try:
        yield peak
        peak[0] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
