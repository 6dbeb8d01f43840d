import math

import numpy as np
import pytest

from momentguard.critval import cv_alpha, norm_quantile
from momentguard.errors import DimensionMismatch, NoValidS, OutOfRange, SingularW1
from momentguard.model import MisspecSet, MomentModel
from momentguard.robust_ci import (
    ci_curve,
    ci_from_sensitivity,
    equivalent_weighting,
    one_sided_ci,
    one_step,
    two_sided_ci,
)
from momentguard.sensitivity import frontier, knot_at, select_lambda

Z975 = norm_quantile(0.975)
Z95 = norm_quantile(0.95)


def scalar_model():
    return MomentModel(gamma=[[-1.0]], sigma=[[1.0]], h_deriv=[1.0],
                       g_init=[0.1], h_init=0.5, n=100)


def random_model(d_g, d_th, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d_g, d_g))
    sigma = a @ a.T + 0.5 * np.eye(d_g)
    return MomentModel(gamma=rng.normal(size=(d_g, d_th)), sigma=sigma,
                       h_deriv=rng.normal(size=d_th),
                       g_init=rng.normal(size=d_g) * 0.2, h_init=0.4, n=400)


class TestOneStep:
    def test_zero_moments(self):
        m = scalar_model()
        m0 = MomentModel(gamma=m.gamma, sigma=m.sigma, h_deriv=m.h_deriv,
                         g_init=[0.0], h_init=0.5, n=100)
        assert one_step(m0, np.array([3.0])) == 0.5

    def test_zero_k(self):
        assert one_step(scalar_model(), np.zeros(1)) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            one_step(scalar_model(), np.ones(2))


class TestTwoSided:
    def test_wald_reduction_at_m_zero(self):
        m = random_model(4, 2, 0)
        ms = MisspecSet(np.eye(4)[:, 2:], 2, 0.0)
        front = frontier(m, ms)
        ci = two_sided_ci(m, ms, front, 0.05)
        k0 = front.knots[0].k
        sd = math.sqrt(k0 @ m.sigma @ k0 / m.n)
        assert ci.half_length == pytest.approx(Z975 * sd, rel=1e-12)
        assert ci.max_bias == 0.0

    def test_scalar_hand_example(self):
        m = scalar_model()
        ms = MisspecSet([[1.0]], 2, 1.0)
        front = frontier(m, ms)
        ci = two_sided_ci(m, ms, front, 0.05)
        assert ci.estimate == pytest.approx(0.6, abs=1e-14)
        assert ci.half_length == pytest.approx(cv_alpha(1.0, 0.05) / 10.0,
                                               rel=1e-10)
        assert ci.max_bias == pytest.approx(0.1, rel=1e-12)
        assert ci.std_error == pytest.approx(0.1, rel=1e-12)

    def test_half_length_bounds(self):
        # cv is never below the Wald factor and never above bias-plus-Wald
        for seed in range(5):
            m = random_model(5, 2, 100 + seed)
            b = np.random.default_rng(seed).normal(size=(5, 2))
            ms = MisspecSet(b, 2, 1.5)
            front = frontier(m, ms)
            ci = two_sided_ci(m, ms, front, 0.05)
            assert ci.half_length >= Z975 * ci.std_error - 1e-12
            assert ci.half_length <= ci.max_bias + Z975 * ci.std_error + 1e-12


class TestOneSided:
    def test_wald_reduction(self):
        m = scalar_model()
        ms = MisspecSet([[1.0]], 2, 0.0)
        ci = one_sided_ci(m, ms, np.array([1.0]), 0.05)
        assert ci.lower == pytest.approx(0.6 - Z95 * 0.1, rel=1e-12)

    def test_scalar_hand_example(self):
        m = scalar_model()
        ms = MisspecSet([[1.0]], 2, 1.0)
        ci = one_sided_ci(m, ms, np.array([1.0]), 0.05)
        assert ci.lower == pytest.approx(0.6 - 0.1 - Z95 / 10.0, rel=1e-12)
        assert ci.side == "lower_one_sided"

    def test_upper_variant_by_negation(self):
        m = scalar_model()
        neg = MomentModel(gamma=m.gamma, sigma=m.sigma, h_deriv=-m.h_deriv,
                          g_init=m.g_init, h_init=-m.h_init, n=m.n)
        ms = MisspecSet([[1.0]], 2, 1.0)
        lo = one_sided_ci(neg, ms, np.array([-1.0]), 0.05)
        upper = -lo.lower
        ci = one_sided_ci(m, ms, np.array([1.0]), 0.05)
        assert upper == pytest.approx(
            ci.estimate + ci.max_bias + Z95 * ci.std_error, rel=1e-12)


class TestSelectLambdaOneSided:
    def test_matches_grid_oracle(self):
        m = random_model(4, 1, 7)
        b = np.random.default_rng(8).normal(size=(4, 2))
        front = frontier(m, MisspecSet(b, 2, 1.0))
        choice = select_lambda(front, 1.0, 0.05, "one_sided_quantile", beta=0.8)
        weight = Z95 + norm_quantile(0.8)

        def crit(lam):
            kn = knot_at(front, lam)
            return kn.bbar + weight * math.sqrt(kn.var)

        grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 2001)])
        best = min(crit(l) for l in grid)
        assert crit(choice.lambda_star) <= best + 1e-8 * abs(best)


class TestCiCurve:
    def test_single_zero_magnitude(self):
        m = random_model(3, 1, 9)
        b = np.eye(3)[:, 2:]
        front = frontier(m, MisspecSet(b, 2, 1.0))
        curve = ci_curve(m, b, 2, [0.0], front, 0.05)
        assert len(curve) == 1
        assert curve[0][1].max_bias == 0.0

    def test_half_length_monotone_in_m(self):
        m = random_model(4, 2, 10)
        b = np.random.default_rng(11).normal(size=(4, 2))
        front = frontier(m, MisspecSet(b, 2, 1.0))
        grid = [0.0, 0.5, 1.0, 2.0, 4.0]
        curve = ci_curve(m, b, 2, grid, front, 0.05)
        halves = [ci.half_length for _, ci in curve]
        scale = halves[-1]
        assert all(x <= y + 1e-9 * scale for x, y in zip(halves, halves[1:]))

    def test_matches_pointwise_recomputation(self):
        m = scalar_model()
        b = np.array([[1.0]])
        front = frontier(m, MisspecSet(b, 2, 1.0))
        curve = ci_curve(m, b, 2, [0.5, 1.0, 2.0], front, 0.05)
        for mval, ci in curve:
            ms = MisspecSet(b, 2, mval)
            again = two_sided_ci(m, ms, frontier(m, ms), 0.05)
            assert ci.half_length == pytest.approx(again.half_length, rel=1e-9)
            assert ci.estimate == pytest.approx(again.estimate, rel=1e-12)

    def test_rejects_unsorted_grid(self):
        m = scalar_model()
        b = np.array([[1.0]])
        front = frontier(m, MisspecSet(b, 2, 1.0))
        with pytest.raises(Exception):
            ci_curve(m, b, 2, [1.0, 0.5], front, 0.05)


class TestConservativeDominance:
    def test_cv_below_bias_plus_wald(self):
        # the bias-aware interval is strictly shorter than bias-padding for b > 0
        for b in (0.2, 1.0, 3.0, 8.0):
            assert cv_alpha(b, 0.05) < b + Z975


class TestEquivalentWeighting:
    def test_efficient_k_reproduced(self):
        m = random_model(4, 2, 12)
        ms = MisspecSet(np.eye(4)[:, 2:], 2, 1.0)
        front = frontier(m, ms)
        k0 = front.knots[0].k
        w = equivalent_weighting(m, k0, np.eye(2), np.eye(2))
        gram = m.gamma.T @ w @ m.gamma
        implied = -w.T @ m.gamma @ np.linalg.solve(gram.T, m.h_deriv)
        np.testing.assert_allclose(implied, k0, atol=1e-8 * np.max(np.abs(k0)))

    def test_just_identified(self):
        m = random_model(2, 2, 13)
        k = -np.linalg.solve(m.gamma.T, m.h_deriv)
        w = equivalent_weighting(m, k, np.eye(2), np.eye(0))
        gram = m.gamma.T @ w @ m.gamma
        implied = -w.T @ m.gamma @ np.linalg.solve(gram.T, m.h_deriv)
        np.testing.assert_allclose(implied, k, atol=1e-9 * np.max(np.abs(k)))

    def test_random_frontier_knots_round_trip(self):
        rng = np.random.default_rng(14)
        count = 0
        trial = 0
        while count < 100:
            trial += 1
            d_g = int(rng.integers(2, 7))
            d_th = int(rng.integers(1, d_g + 1))
            m = random_model(d_g, d_th, 1400 + trial)
            b = rng.normal(size=(d_g, int(rng.integers(1, min(d_g, 3) + 1))))
            front = frontier(m, MisspecSet(b, np.inf, 1.0))
            w1 = rng.normal(size=(d_th, d_th)) + 2.0 * np.eye(d_th)
            n_perp = d_g - d_th
            w2 = rng.normal(size=(n_perp, n_perp))
            for kn in front.knots:
                w = equivalent_weighting(m, kn.k, w1, w2)
                gram = m.gamma.T @ w @ m.gamma
                implied = -w.T @ m.gamma @ np.linalg.solve(gram.T, m.h_deriv)
                assert np.max(np.abs(implied - kn.k)) <= \
                    1e-8 * max(1.0, np.max(np.abs(kn.k)))
                count += 1

    def test_rejects_invalid_k(self):
        m = random_model(3, 1, 15)
        with pytest.raises(NoValidS):
            equivalent_weighting(m, np.zeros(3), np.eye(1), np.eye(2))

    def test_rejects_singular_w1(self):
        m = random_model(3, 1, 16)
        ms = MisspecSet(np.eye(3)[:, 2:], 2, 1.0)
        k0 = frontier(m, ms).knots[0].k
        with pytest.raises(SingularW1):
            equivalent_weighting(m, k0, np.zeros((1, 1)), np.eye(2))

    @pytest.mark.parametrize("field, bad", [("w1", math.nan), ("w1", math.inf),
                                            ("w2", math.nan), ("w2", -math.inf)])
    def test_rejects_non_finite_blocks(self, field, bad):
        m = random_model(3, 1, 16)
        k0 = frontier(m, MisspecSet(np.eye(3)[:, 2:], 2, 1.0)).knots[0].k
        blocks = {"w1": np.eye(1), "w2": np.eye(2)}
        blocks[field][0, 0] = bad
        with pytest.raises(OutOfRange, match=field):
            equivalent_weighting(m, k0, blocks["w1"], blocks["w2"])


class TestCiFromSensitivity:
    def test_consistent_with_two_sided(self):
        m = random_model(4, 1, 17)
        b = np.random.default_rng(18).normal(size=(4, 2))
        ms = MisspecSet(b, 2, 1.0)
        front = frontier(m, ms)
        ci = two_sided_ci(m, ms, front, 0.05)
        kn = knot_at(front, ci.lambda_star)
        again = ci_from_sensitivity(m, ms, kn.k, 0.05, ci.lambda_star)
        assert again.half_length == pytest.approx(ci.half_length, rel=1e-12)
