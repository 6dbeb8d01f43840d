import numpy as np
import pytest

from momentguard._linalg import sym_sqrt_psd
from momentguard.errors import CNotInSet, OutOfRange
from momentguard.model import MisspecSet, MomentModel
from momentguard.oracle import (
    adversarial_c,
    mc_coverage,
    membership_gamma,
    standard_normals,
)
from momentguard.robust_ci import one_sided_ci, two_sided_ci
from momentguard.sensitivity import frontier
from oracles import (
    DimensionTooLarge,
    cv_alpha_tail_oracle,
    grid_modulus,
    kkt_sensitivity,
    vertex_bias,
)


def random_model(d_g, d_th, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d_g, d_g))
    sigma = a @ a.T + 0.5 * np.eye(d_g)
    return MomentModel(gamma=rng.normal(size=(d_g, d_th)), sigma=sigma,
                       h_deriv=rng.normal(size=d_th),
                       g_init=np.zeros(d_g), h_init=0.0, n=100)


def optimal_ci(model, mset):
    return two_sided_ci(model, frontier(model, mset), mset.m, 0.05)


class TestStandardNormals:
    def test_deterministic(self):
        a = standard_normals(123, (50, 3))
        b = standard_normals(123, (50, 3))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(standard_normals(1, (10,)),
                                  standard_normals(2, (10,)))

    def test_moments_sane(self):
        x = standard_normals(7, (200000,))
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01


class TestCvOracle:
    def test_zero_bias(self):
        assert cv_alpha_tail_oracle(0.0, 0.05) == pytest.approx(1.95996, abs=1e-5)

    def test_agrees_with_critval(self):
        from momentguard.critval import cv_alpha
        for b, a in ((3.0, 0.05), (1.0, 0.32), (0.0, 0.10)):
            assert abs(cv_alpha_tail_oracle(b, a) - cv_alpha(b, a)) < 1e-8


class TestKktSensitivity:
    def test_lambda_zero_efficient(self):
        m = random_model(4, 2, 0)
        si = np.linalg.inv(m.sigma)
        k0 = -si @ m.gamma @ np.linalg.solve(m.gamma.T @ si @ m.gamma,
                                             m.h_deriv)
        b = np.random.default_rng(1).normal(size=(4, 2))
        np.testing.assert_allclose(kkt_sensitivity(m, b, 0.0), k0, atol=1e-10)

    def test_just_identified(self):
        m = random_model(3, 3, 2)
        b = np.random.default_rng(3).normal(size=(3, 2))
        k = -np.linalg.solve(m.gamma.T, m.h_deriv)
        np.testing.assert_allclose(kkt_sensitivity(m, b, 5.0), k, atol=1e-9)

    def test_dimension_cap(self):
        m = random_model(14, 1, 4)
        with pytest.raises(DimensionTooLarge):
            kkt_sensitivity(m, np.eye(14)[:, :13], 1.0)


class TestVertexBias:
    def test_requires_linf(self):
        with pytest.raises(OutOfRange):
            vertex_bias(np.ones(2), MisspecSet(np.eye(2), 2, 1.0))


class TestGridModulus:
    def test_feasible_point_lower_bound(self):
        from momentguard.efficiency import half_modulus
        m = random_model(2, 1, 5)
        ms = MisspecSet(np.random.default_rng(6).normal(size=(2, 2)), np.inf, 1.0)
        sol = half_modulus(m, ms, 1.5)
        val = grid_modulus(m, ms, 1.5, grid_n=150, zoom_rounds=2)
        assert val <= sol.omega + 1e-9

    def test_zero_magnitude_linear_value(self):
        m = random_model(2, 1, 7)
        ms = MisspecSet(np.eye(2)[:, :1], 2, 0.0)
        si = np.linalg.inv(m.sigma)
        s0 = np.sqrt(m.h_deriv @ np.linalg.solve(
            m.gamma.T @ si @ m.gamma, m.h_deriv))
        val = grid_modulus(m, ms, 2.0, grid_n=300, zoom_rounds=3)
        assert val == pytest.approx(2.0 * s0, rel=1e-3)

    def test_dimension_cap(self):
        m = random_model(4, 3, 8)
        ms = MisspecSet(np.eye(4)[:, :1], 2, 1.0)
        with pytest.raises(DimensionTooLarge):
            grid_modulus(m, ms, 1.0)


class TestMembership:
    def test_exact_member(self):
        ms = MisspecSet(np.eye(3)[:, :2], np.inf, 1.0)
        g = membership_gamma(ms, np.array([0.5, -1.0, 0.0]))
        np.testing.assert_allclose(g, [0.5, -1.0])

    def test_outside_column_space(self):
        ms = MisspecSet(np.eye(3)[:, :2], np.inf, 1.0)
        with pytest.raises(CNotInSet):
            membership_gamma(ms, np.array([0.0, 0.0, 1.0]))

    def test_norm_violation(self):
        ms = MisspecSet(np.eye(3)[:, :2], np.inf, 1.0)
        with pytest.raises(CNotInSet):
            membership_gamma(ms, np.array([1.5, 0.0, 0.0]))


class TestMcCoverage:
    def test_seeded_determinism(self):
        m = random_model(3, 1, 9)
        ms = MisspecSet(np.eye(3)[:, 1:], 2, 0.5)
        c = adversarial_c(ms, np.ones(3))
        ci = optimal_ci(m, ms)
        r1 = mc_coverage(m, ms, ci, c, 2000, seed=11)
        r2 = mc_coverage(m, ms, ci, c, 2000, seed=11)
        assert r1 == r2

    def test_wald_coverage_correct_specification(self):
        m = random_model(3, 1, 10)
        ms = MisspecSet(np.eye(3)[:, 1:], 2, 0.0)
        rep = mc_coverage(m, ms, optimal_ci(m, ms), np.zeros(3), 20000, seed=12)
        assert rep.coverage >= 0.95 - 3.0 * rep.mc_stderr
        assert rep.coverage <= 0.95 + 4.0 * rep.mc_stderr

    def test_worst_case_coverage_and_z_mean(self):
        m = random_model(3, 1, 13)
        ms = MisspecSet(np.random.default_rng(14).normal(size=(3, 2)), np.inf, 1.0)
        ci = optimal_ci(m, ms)
        c = adversarial_c(ms, ci.k)
        reps = 40000
        rep = mc_coverage(m, ms, ci, c, reps, seed=15)
        assert rep.coverage >= 0.95 - 3.0 * rep.mc_stderr
        # the standardized center should sit at the worst-case bias
        sd = np.sqrt(ci.k @ m.sigma @ ci.k)
        eps = standard_normals(15, (reps, m.d_g))
        y = c + eps @ sym_sqrt_psd(m.sigma)
        z = (y @ ci.k) / sd
        expect = abs(float(ci.k @ c)) / sd
        assert abs(abs(z.mean()) - expect) <= 3.0 / np.sqrt(reps) * (1 + expect)

    def test_theta_shift_equivariance(self):
        m = random_model(3, 2, 16)
        ms = MisspecSet(np.eye(3)[:, 2:], 2, 0.5)
        c = adversarial_c(ms, np.ones(3))
        ci = optimal_ci(m, ms)
        base = mc_coverage(m, ms, ci, c, 5000, seed=17)
        shifted = mc_coverage(m, ms, ci, c, 5000, seed=17,
                              theta=5.0 * np.ones(2))
        assert base.coverage == shifted.coverage

    def test_rejects_outside_c(self):
        m = random_model(3, 1, 18)
        ms = MisspecSet(np.eye(3)[:, :1], 2, 1.0)
        with pytest.raises(CNotInSet):
            mc_coverage(m, ms, optimal_ci(m, ms), np.array([0.0, 1.0, 0.0]),
                        2000, seed=19)

    def test_min_reps(self):
        m = random_model(3, 1, 20)
        ms = MisspecSet(np.eye(3)[:, :1], 2, 0.0)
        with pytest.raises(OutOfRange):
            mc_coverage(m, ms, optimal_ci(m, ms), np.zeros(3), 10, seed=21)

    def test_rejects_one_sided_ci(self):
        m = random_model(3, 1, 22)
        ms = MisspecSet(np.eye(3)[:, :1], 2, 1.0)
        ci = one_sided_ci(m, ms, frontier(m, ms).knots[0].k)
        with pytest.raises(OutOfRange, match="two-sided"):
            mc_coverage(m, ms, ci, np.zeros(3), 2000, seed=23)


class TestAdversarialC:
    def test_linf_vertex(self):
        ms = MisspecSet(np.eye(2), np.inf, 2.0)
        c = adversarial_c(ms, np.array([1.0, -3.0]))
        np.testing.assert_allclose(np.abs(c), [2.0, 2.0])
        g = membership_gamma(ms, c)
        assert np.max(np.abs(g)) == pytest.approx(2.0)

    def test_l2_boundary(self):
        ms = MisspecSet(np.eye(3), 2, 1.5)
        k = np.array([0.3, -0.4, 1.0])
        c = adversarial_c(ms, k)
        assert np.linalg.norm(membership_gamma(ms, c)) == pytest.approx(1.5)
        # maximizes |k'c| over the ball
        assert abs(k @ c) == pytest.approx(1.5 * np.linalg.norm(k), rel=1e-12)
