import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from momentguard._linalg import sym_sqrt_psd
from momentguard import efficiency
from momentguard.critval import cv_alpha, norm_cdf, norm_pdf, norm_quantile
from momentguard.efficiency import (
    efficiency_report,
    gls_subspace_sensitivity,
    half_modulus,
    kappa_linear_subspace,
    kappa_one_sided,
    kappa_two_sided,
    universal_lower_bound,
)
from momentguard.errors import InfeasibleDelta, TooManyInvalidMoments
from momentguard.model import MisspecSet, MomentModel
from momentguard.robust_ci import two_sided_ci
from momentguard.sensitivity import _argmin, _weights, frontier, linf_path
from modulus_oracle import half_modulus as oracle_half_modulus
from oracles import grid_modulus


def random_model(d_g, d_th, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d_g, d_g))
    sigma = a @ a.T + 0.5 * np.eye(d_g)
    return MomentModel(gamma=rng.normal(size=(d_g, d_th)), sigma=sigma,
                       h_deriv=rng.normal(size=d_th),
                       g_init=np.zeros(d_g), h_init=0.0, n=100)


def efficient_sd(model):
    si = np.linalg.inv(model.sigma)
    gram = model.gamma.T @ si @ model.gamma
    return math.sqrt(model.h_deriv @ np.linalg.solve(gram, model.h_deriv))


def kappa_from_omega(omega, omega_prime, alpha):
    """Evaluate the two-sided efficiency formula for a supplied modulus."""
    z1 = norm_quantile(1.0 - alpha)
    nodes, weights = roots_legendre(400)
    lo, hi = z1 - 9.0, z1
    z = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    numer = float(np.sum(w * np.array(
        [omega(2.0 * (z1 - zi)) * norm_pdf(zi) for zi in z])))

    def half_len(d):
        b = omega(d) / (2.0 * omega_prime(d)) - 0.5 * d
        return cv_alpha(max(b, 0.0), alpha) * omega_prime(d)

    grid = np.linspace(1e-4, 30.0, 8000)
    denom = 2.0 * min(half_len(d) for d in grid)
    return numer / denom


class TestHalfModulus:
    def test_cressie_read_closed_form(self):
        m = random_model(4, 2, 0)
        s0 = efficient_sd(m)
        b = sym_sqrt_psd(m.sigma)
        for mval in (0.5, 1.0, 2.0):
            ms = MisspecSet(b, 2, mval)
            for d in (0.5, 1.0, 2.0, 4.0):
                sol = half_modulus(m, ms, d)
                assert sol.omega == pytest.approx((d + 2 * mval) * s0, rel=1e-8)

    def test_zero_magnitude_linear(self):
        m = random_model(3, 1, 1)
        s0 = efficient_sd(m)
        ms = MisspecSet(np.eye(3)[:, :1], 2, 0.0)
        for d in (0.3, 1.0, 5.0):
            sol = half_modulus(m, ms, d)
            assert sol.omega == pytest.approx(d * s0, rel=1e-12)
            assert sol.omega_prime == pytest.approx(s0, rel=1e-10)

    def test_matches_grid_oracle_linf(self):
        rng = np.random.default_rng(2)
        for trial in range(3):
            m = random_model(2, 1, 20 + trial)
            ms = MisspecSet(rng.normal(size=(2, 2)), np.inf, 1.0)
            for d in (0.8, 2.0):
                sol = half_modulus(m, ms, d)
                lower = grid_modulus(m, ms, d, grid_n=400, zoom_rounds=3)
                assert lower <= sol.omega + 1e-9
                assert sol.omega == pytest.approx(lower, rel=1e-3)

    def test_constraint_binds(self):
        m = random_model(4, 2, 3)
        si = np.linalg.inv(m.sigma)
        for p in (2.0, np.inf):
            ms = MisspecSet(np.random.default_rng(4).normal(size=(4, 2)), p, 1.3)
            for d in (0.6, 2.4):
                sol = half_modulus(m, ms, d)
                r = sol.c_star - m.gamma @ sol.theta_star
                used = float(r @ si @ r)
                assert abs(used - d * d / 4.0) <= 1e-6 * d * d

    def test_omega_value_is_two_h_theta(self):
        m = random_model(3, 2, 5)
        ms = MisspecSet(np.eye(3)[:, 1:], np.inf, 0.7)
        sol = half_modulus(m, ms, 1.5)
        assert sol.omega == pytest.approx(2.0 * float(m.h_deriv @ sol.theta_star),
                                          rel=1e-12)

    def test_k_delta_constraint_and_slope(self):
        rng = np.random.default_rng(6)
        for trial in range(8):
            m = random_model(4, int(rng.integers(1, 3)), 60 + trial)
            p = 2 if trial % 2 else np.inf
            ms = MisspecSet(rng.normal(size=(4, 2)), p, 0.8)
            d = float(rng.uniform(0.5, 4.0))
            sol = half_modulus(m, ms, d)
            resid = np.max(np.abs(m.h_deriv + sol.k_delta @ m.gamma))
            assert resid <= 1e-8 * max(np.max(np.abs(m.h_deriv)), 1.0)
            sd = math.sqrt(sol.k_delta @ m.sigma @ sol.k_delta)
            assert sol.omega_prime == pytest.approx(sd, rel=1e-10)
            eps = 1e-5 * d
            fd = (half_modulus(m, ms, d + eps).omega
                  - half_modulus(m, ms, d - eps).omega) / (2.0 * eps)
            assert sol.omega_prime == pytest.approx(fd, rel=1e-4)

    def test_concave_nondecreasing(self):
        m = random_model(3, 1, 7)
        ms = MisspecSet(np.random.default_rng(8).normal(size=(3, 2)), np.inf, 1.0)
        ds = np.linspace(0.2, 8.0, 30)
        vals = np.array([half_modulus(m, ms, d).omega for d in ds])
        assert np.all(np.diff(vals) >= -1e-10)
        assert np.all(np.diff(vals, 2) <= 1e-6)

    def test_rejects_nonpositive_delta(self):
        m = random_model(3, 1, 9)
        ms = MisspecSet(np.eye(3)[:, :1], 2, 1.0)
        with pytest.raises(InfeasibleDelta):
            half_modulus(m, ms, 0.0)


def _rel(a, b):
    return float(np.linalg.norm(np.atleast_1d(a - b))
                 / max(np.linalg.norm(np.atleast_1d(b)), 1e-300))


class TestModulusVsPrimalOracle:
    """The modulus from the frontier against the primal rho-bisection."""

    @staticmethod
    def assert_matches(model, mset, delta):
        sol = half_modulus(model, mset, delta)
        ref = oracle_half_modulus(model, mset, delta)
        for name in ("omega", "omega_prime", "theta_star", "c_star"):
            err = _rel(getattr(sol, name), getattr(ref, name))
            assert err <= 1e-6, (name, err)
        return sol

    @pytest.mark.parametrize("p", [2.0, np.inf])
    @pytest.mark.parametrize("d_th", [1, 2])
    @pytest.mark.parametrize("beyond", [False, True])
    def test_random_problems(self, p, d_th, beyond):
        # beyond: d_gamma > d_g - d_theta, so the bias cannot reach zero
        rng = np.random.default_rng([d_th, int(beyond), int(math.isinf(p))])
        for trial in range(5):
            d_g = int(rng.integers(d_th + 1, 6))
            free = d_g - d_th
            d_gam = int(rng.integers(free + 1, d_g + 1) if beyond
                        else rng.integers(1, free + 1))
            m = random_model(d_g, d_th, int(rng.integers(1 << 30)))
            mset = MisspecSet(rng.normal(size=(d_g, d_gam)), p,
                              float(rng.uniform(0.3, 3.0)))
            for d in (0.4, 3.0):
                self.assert_matches(m, mset, d)

    def test_path_past_its_first_sparse_point(self):
        # the l-inf path must run past lambda = 0.10 to reach this modulus
        rng = np.random.default_rng(108)
        a = rng.normal(size=(3, 3))
        m = MomentModel(gamma=rng.normal(size=(3, 1)),
                        sigma=a @ a.T + 0.5 * np.eye(3),
                        h_deriv=rng.normal(size=1), g_init=np.zeros(3),
                        h_init=0.0, n=400)
        mset = MisspecSet(np.random.default_rng(208).normal(size=(3, 3)),
                          np.inf, 2.0)
        sol = self.assert_matches(m, mset, 0.3)
        assert sol.omega == pytest.approx(1.8502, abs=1e-4)


class TestKappaTwoSided:
    def test_universal_lower_value(self):
        assert universal_lower_bound(0.05) == pytest.approx(0.717, abs=5e-4)

    def test_universal_bound_alpha_half(self):
        a = 0.5
        z1 = norm_quantile(1.0 - a)
        z2 = norm_quantile(1.0 - a / 2.0)
        zt = z1 - z2
        direct = (z1 * (1 - a) - zt * norm_cdf(zt)
                  + norm_pdf(z1) - norm_pdf(zt)) / z2
        assert universal_lower_bound(a) == pytest.approx(direct, rel=1e-14)

    def test_linear_subspace_value(self):
        assert kappa_linear_subspace(0.05) == pytest.approx(0.8499, abs=5e-4)
        z95, z975 = norm_quantile(0.95), norm_quantile(0.975)
        assert kappa_linear_subspace(0.05) >= z95 / z975

    def test_linear_subspace_vs_quadrature(self):
        # the closed form is the kappa formula evaluated at a linear modulus
        alpha = 0.32
        val = kappa_from_omega(lambda d: d, lambda d: 1.0, alpha)
        assert kappa_linear_subspace(alpha) == pytest.approx(val, abs=1e-5)

    def test_sharpness_of_universal_bound(self):
        # the kink modulus attains the bound exactly; integrate the two smooth
        # pieces separately so the quadrature sees no kink
        alpha = 0.05
        z2 = norm_quantile(1.0 - alpha / 2.0)
        z1 = norm_quantile(1.0 - alpha)

        def omega(d):
            return min(d, 2.0 * z2)

        nodes, weights = roots_legendre(300)
        numer = 0.0
        for lo, hi in ((z1 - 12.0, z1 - z2), (z1 - z2, z1)):
            z = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            w = 0.5 * (hi - lo) * weights
            numer += float(np.sum(w * np.array(
                [omega(2.0 * (z1 - zi)) * norm_pdf(zi) for zi in z])))
        denom = 2.0 * cv_alpha(0.0, alpha) * 1.0  # optimum at delta = 2 z2
        assert numer / denom == pytest.approx(universal_lower_bound(alpha),
                                              abs=1e-6)

    def test_cressie_read_closed_form(self):
        z1 = norm_quantile(0.95)
        for seed, mval in ((10, 0.5), (11, 1.0), (12, 2.0)):
            m = random_model(3, 1, seed)
            ms = MisspecSet(sym_sqrt_psd(m.sigma), 2, mval)
            closed = (0.95 * (z1 + mval) + norm_pdf(z1)) / cv_alpha(mval, 0.05)
            assert kappa_two_sided(m, ms, 0.05) == pytest.approx(closed, abs=1e-4)

    def test_large_magnitude_identity_b_hits_subspace_value(self):
        # with unbounded misspecification in chosen coordinates the problem
        # degenerates to a linear subspace, whose efficiency is closed form
        m = random_model(4, 1, 123)
        b = np.eye(4)[:, 2:]
        target = kappa_linear_subspace(0.05)
        for p in (2.0, np.inf):
            kap = kappa_two_sided(m, MisspecSet(b, p, 100.0), 0.05)
            assert kap == pytest.approx(target, abs=1e-4)

    def test_above_universal_bound_random(self):
        floor = universal_lower_bound(0.05)
        rng = np.random.default_rng(13)
        for trial in range(4):
            m = random_model(3, 1, 130 + trial)
            p = 2 if trial % 2 else np.inf
            ms = MisspecSet(rng.normal(size=(3, 2)), p, float(rng.uniform(0.3, 2)))
            kap = kappa_two_sided(m, ms, 0.05)
            assert floor - 1e-6 <= kap <= 1.0 + 1e-6

    def test_scale_invariance_in_h(self):
        m = random_model(3, 2, 14)
        scaled = MomentModel(gamma=m.gamma, sigma=m.sigma,
                             h_deriv=7.3 * m.h_deriv, g_init=m.g_init,
                             h_init=m.h_init, n=m.n)
        ms = MisspecSet(np.random.default_rng(15).normal(size=(3, 2)), 2, 1.0)
        assert kappa_two_sided(m, ms, 0.05) == pytest.approx(
            kappa_two_sided(scaled, ms, 0.05), rel=1e-6)


    def test_efficient_sensitivity_without_bias(self):
        # just identified, and B'k = 0 for the only admissible k: the
        # misspecification cannot bias any estimator, so the modulus is linear
        model = MomentModel(gamma=np.eye(2), sigma=np.eye(2), h_deriv=[1.0, 0.0],
                            g_init=np.zeros(2), h_init=0.0, n=1)
        ms = MisspecSet(np.eye(2)[:, 1:], 2, 1.0)
        assert kappa_two_sided(model, ms) == pytest.approx(
            kappa_linear_subspace(0.05), rel=1e-12)
        assert kappa_one_sided(model, ms) == pytest.approx(1.0, rel=1e-12)

    def test_efficient_sensitivity_without_bias_linf(self):
        # the same problem at p = inf: the homotopy has nothing to move, so
        # the frontier is the one unbiased knot and the kappas are the p = 2 ones
        model = MomentModel(gamma=np.eye(2), sigma=np.eye(2), h_deriv=[1.0, 0.0],
                            g_init=np.zeros(2), h_init=0.0, n=1)
        l2, linf = (MisspecSet(np.eye(2)[:, 1:], p, 1.0) for p in (2, np.inf))
        front = frontier(model, linf)
        assert len(front.knots) == 1 and front.knots[0].bbar == 0.0
        np.testing.assert_array_equal(front.mu_slope, np.zeros(2))
        assert kappa_two_sided(model, linf) == kappa_two_sided(model, l2)
        assert kappa_one_sided(model, linf) == kappa_one_sided(model, l2)

    def test_denominator_not_above_dense_delta_scan(self):
        """The denominator, half the shortest fixed-length CI over delta, is
        at most the shortest found by scanning 800 deltas on [1e-3, 1e3]."""
        alpha = 0.05
        z1 = norm_quantile(1.0 - alpha)
        nodes, weights = roots_legendre(efficiency.QUAD_NODES)
        lo = z1 - efficiency.QUAD_SPAN
        z = 0.5 * (z1 - lo) * nodes + 0.5 * (z1 + lo)
        w = 0.5 * (z1 - lo) * weights
        rng = np.random.default_rng(5)
        for trial in range(20):
            d_g = int(rng.integers(2, 6))
            d_gam = int(rng.integers(1, min(3, d_g) + 1))
            p = 2 if trial % 2 == 0 else np.inf
            mval = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            model = random_model(d_g, 1, 700 + trial)
            b = np.random.default_rng(1700 + trial).normal(size=(d_g, d_gam))
            ms = MisspecSet(b, p, mval)
            front = frontier(model, ms)

            def omega(deltas):
                pts, values = efficiency._moduli(front, mval, deltas)
                return values, pts.sd

            # the numerator as kappa_two_sided computes it
            (edge,), (edge_sd,) = omega([2.0 * efficiency.QUAD_SPAN])
            numer = sum(wi * om * norm_pdf(zi)
                        for zi, wi, om in zip(z, w, omega(2.0 * (z1 - z))[0]))
            numer += edge * norm_cdf(lo) + 2.0 * edge_sd * (
                lo * norm_cdf(lo) + norm_pdf(lo))
            denom = numer / (2.0 * kappa_two_sided(model, ms, alpha))
            deltas = np.geomspace(1e-3, 1e3, 800)
            scan = min(
                cv_alpha(max(om / (2.0 * sd) - 0.5 * d, 0.0), alpha) * sd
                for d, om, sd in zip(deltas, *omega(deltas)))
            assert denom <= scan * (1.0 + 1e-12), (trial, denom / scan - 1.0)


def kappas_per_delta(model, mset, alpha=0.05, beta=0.8):
    """Both kappas with the modulus found one delta at a time, one scalar
    ``_argmin`` root per quadrature node, the tail edge and each one-sided
    delta: the reference for the package's single sweep over all deltas."""
    front = frontier(model, mset)
    m = mset.m

    def modulus(delta):
        kn = _argmin(front, lambda bbar, sd: (2.0 * m, delta))
        sd = math.sqrt(kn.var)
        return 2.0 * m * kn.bbar + delta * sd, sd

    z1 = norm_quantile(1.0 - alpha)
    nodes, weights = np.polynomial.legendre.leggauss(efficiency.QUAD_NODES)
    lo, hi = z1 - efficiency.QUAD_SPAN, z1
    z = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    numer = float(np.sum(w * np.array([modulus(2.0 * (z1 - zi))[0] * norm_pdf(zi)
                                       for zi in z])))
    edge, edge_sd = modulus(2.0 * efficiency.QUAD_SPAN)
    numer += edge * norm_cdf(lo) + 2.0 * edge_sd * (lo * norm_cdf(lo) + norm_pdf(lo))
    kn = _argmin(front, _weights("ci_length", m, alpha))
    sd = math.sqrt(kn.var)
    two_sided = numer / (2.0 * cv_alpha(m * kn.bbar / sd, alpha) * sd)
    d_b = z1 + norm_quantile(beta)
    omega1, sd1 = modulus(d_b)
    return two_sided, modulus(2.0 * d_b)[0] / (omega1 + d_b * sd1)


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_kappas_match_per_delta_reference(p):
    rng = np.random.default_rng([31, int(math.isinf(p))])
    for trial in range(48):
        d_g = int(rng.integers(2, 6))
        d_th = int(rng.integers(1, min(d_g, 2) + 1))
        model = random_model(d_g, d_th, int(rng.integers(1 << 30)))
        mset = MisspecSet(rng.normal(size=(d_g, int(rng.integers(1, d_g + 1)))), p,
                          float(10.0 ** rng.uniform(-1.0, 1.0)))
        rep = efficiency_report(model, mset)
        two_sided, one_sided = kappas_per_delta(model, mset)
        assert rep.kappa_two_sided == pytest.approx(two_sided, rel=1e-12), trial
        assert rep.kappa_one_sided == pytest.approx(one_sided, rel=1e-12), trial
        assert kappa_two_sided(model, mset) == rep.kappa_two_sided
        assert kappa_one_sided(model, mset) == rep.kappa_one_sided


class TestKappaOneSided:
    def test_cressie_read_is_one(self):
        m = random_model(4, 2, 16)
        ms = MisspecSet(sym_sqrt_psd(m.sigma), 2, 1.0)
        assert kappa_one_sided(m, ms, 0.05, 0.8) == pytest.approx(1.0, abs=1e-6)

    def test_zero_magnitude_is_one(self):
        m = random_model(3, 1, 17)
        ms = MisspecSet(np.eye(3)[:, :1], 2, 0.0)
        assert kappa_one_sided(m, ms, 0.05, 0.8) == pytest.approx(1.0, abs=1e-12)

    def test_in_unit_interval_random(self):
        rng = np.random.default_rng(18)
        for trial in range(5):
            m = random_model(4, 1, 180 + trial)
            ms = MisspecSet(rng.normal(size=(4, 2)), np.inf,
                            float(rng.uniform(0.2, 2.0)))
            val = kappa_one_sided(m, ms, 0.05, 0.8)
            assert 0.0 < val <= 1.0 + 1e-9


class TestTinyMagnitude:
    """Magnitudes far below every other scale of the problem give the M = 0
    values (the just-identified reproducer once failed to find its root)."""

    @pytest.mark.parametrize("mval", [1e-300, 1e-200, 2.2e-311])
    @pytest.mark.parametrize("p", [2, np.inf])
    def test_zero_limit(self, p, mval):
        model = MomentModel(gamma=np.fliplr(np.eye(3)), sigma=np.eye(3),
                            h_deriv=[0.0, 0.0, 1.0], g_init=np.zeros(3),
                            h_init=0.0, n=1)
        b = np.eye(3)[:, :1]
        ms, zero = MisspecSet(b, p, mval), MisspecSet(b, p, 0.0)
        assert kappa_two_sided(model, ms) == pytest.approx(
            kappa_linear_subspace(0.05), rel=1e-12)
        assert kappa_one_sided(model, ms) == pytest.approx(1.0, rel=1e-12)
        ci = two_sided_ci(model, ms, frontier(model, ms))
        wald = two_sided_ci(model, zero, frontier(model, zero))
        assert ci.estimate == pytest.approx(wald.estimate, rel=1e-12, abs=1e-300)
        assert ci.half_length == pytest.approx(wald.half_length, rel=1e-12)


class TestGlsSubspace:
    def test_empty_b_is_efficient_gmm(self):
        m = random_model(4, 2, 19)
        si = np.linalg.inv(m.sigma)
        k0 = -si @ m.gamma @ np.linalg.solve(m.gamma.T @ si @ m.gamma, m.h_deriv)
        np.testing.assert_allclose(gls_subspace_sensitivity(m, None), k0,
                                   atol=1e-10)

    def test_identity_columns_zero_out(self):
        m = random_model(5, 2, 20)
        b = np.eye(5)[:, 3:]
        k = gls_subspace_sensitivity(m, b)
        assert np.max(np.abs(k[3:])) < 1e-12

    def test_terminal_linf_knot_matches(self):
        # with more moments than suspect-plus-parameters, the homotopy ends at
        # the GLS solution that drops all suspect moments
        m = random_model(5, 1, 21)
        b = np.eye(5)[:, 3:]
        front = linf_path(m, b)
        np.testing.assert_allclose(front.knots[-1].k,
                                   gls_subspace_sensitivity(m, b), atol=1e-9)

    def test_too_many_invalid(self):
        m = random_model(3, 2, 22)
        with pytest.raises(TooManyInvalidMoments):
            gls_subspace_sensitivity(m, np.eye(3)[:, 1:])
