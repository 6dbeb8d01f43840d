import math

import numpy as np
import pytest

from momentguard._linalg import sym_sqrt_psd
from momentguard.errors import DimensionMismatch, OutOfRange, SingularSystem
from momentguard.model import MisspecSet, MomentModel
from momentguard.oracle import kkt_sensitivity, vertex_bias
from momentguard.sensitivity import (
    frontier,
    knot_at,
    l2_sensitivity,
    linf_path,
    select_lambda,
    worst_case_bias,
)


def random_model(d_g, d_th, seed, n=200):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d_g, d_g))
    sigma = a @ a.T + 0.5 * np.eye(d_g)
    gamma = rng.normal(size=(d_g, d_th))
    h = rng.normal(size=d_th)
    while np.max(np.abs(h)) < 0.1:
        h = rng.normal(size=d_th)
    return MomentModel(gamma=gamma, sigma=sigma, h_deriv=h,
                       g_init=rng.normal(size=d_g) * 0.1, h_init=0.2, n=n)


def efficient_k(model):
    si = np.linalg.inv(model.sigma)
    gram = model.gamma.T @ si @ model.gamma
    return -si @ model.gamma @ np.linalg.solve(gram, model.h_deriv)


class TestWorstCaseBias:
    def test_linf_is_l1_norm(self):
        ms = MisspecSet(np.eye(2), np.inf, 1.0)
        assert worst_case_bias(np.array([1.0, 2.0]), ms) == 3.0

    def test_l2_scales(self):
        ms = MisspecSet(np.eye(2), 2, 2.0)
        assert worst_case_bias(np.array([3.0, 4.0]), ms) == pytest.approx(10.0)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d_g, d_gam = 5, 4
            b = rng.normal(size=(d_g, d_gam))
            k = rng.normal(size=d_g)
            ms = MisspecSet(b, np.inf, 1.7)
            assert worst_case_bias(k, ms) == pytest.approx(
                vertex_bias(k, ms), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            worst_case_bias(np.ones(3), MisspecSet(np.eye(2), 2, 1.0))


class TestL2Sensitivity:
    def test_lambda_zero_is_efficient_gmm(self):
        m = random_model(5, 2, 0)
        b = np.random.default_rng(1).normal(size=(5, 2))
        np.testing.assert_allclose(l2_sensitivity(m, b, 0.0), efficient_k(m),
                                   atol=1e-12)

    def test_sigma_root_set_never_moves(self):
        # misspecification proportional to sampling noise: the efficient
        # sensitivity stays optimal for every penalty
        m = random_model(4, 2, 2)
        b = sym_sqrt_psd(m.sigma)
        k0 = l2_sensitivity(m, b, 0.0)
        for lam in (0.1, 1.0, 50.0):
            np.testing.assert_allclose(l2_sensitivity(m, b, lam), k0, atol=1e-10)

    def test_just_identified_ignores_weighting(self):
        m = random_model(3, 3, 3)
        k_inv = -np.linalg.solve(m.gamma.T, m.h_deriv)
        b = np.random.default_rng(4).normal(size=(3, 2))
        for lam in (0.0, 1.0, 1e3):
            np.testing.assert_allclose(l2_sensitivity(m, b, lam), k_inv,
                                       atol=1e-9)

    def test_kkt_conditions(self):
        # stationarity of min k'(Sigma + lam BB')k s.t. H = -k'Gamma:
        # (Sigma + lam BB') k must lie in col(Gamma)
        rng = np.random.default_rng(6)
        for trial in range(100):
            d_g = int(rng.integers(2, 7))
            d_th = int(rng.integers(1, d_g + 1))
            m = random_model(d_g, d_th, 600 + trial)
            b = rng.normal(size=(d_g, int(rng.integers(1, 4))))
            lam = float(rng.uniform(0.0, 20.0))
            k = l2_sensitivity(m, b, lam)
            assert np.max(np.abs(m.h_deriv + k @ m.gamma)) < 1e-8
            v = (m.sigma + lam * b @ b.T) @ k
            proj = m.gamma @ np.linalg.lstsq(m.gamma, v, rcond=None)[0]
            assert np.max(np.abs(v - proj)) < 1e-8 * max(np.max(np.abs(v)), 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(OutOfRange):
            l2_sensitivity(random_model(3, 1, 7), np.eye(3), -1.0)


class TestLinfPath:
    def test_just_identified_single_knot(self):
        m = random_model(2, 2, 10)
        front = linf_path(m, np.eye(2)[:, :1])
        assert len(front.knots) == 1
        np.testing.assert_allclose(front.knots[0].k,
                                   -np.linalg.solve(m.gamma.T, m.h_deriv),
                                   atol=1e-10)

    def test_terminal_sparsity_identity_b(self):
        # d_g <= d_gamma + d_theta with identity-column B: the terminal knot
        # keeps exactly d_theta nonzero weights
        rng = np.random.default_rng(11)
        for trial in range(20):
            d_g = int(rng.integers(2, 6))
            d_th = int(rng.integers(1, min(d_g, 2) + 1))
            d_gam = max(d_g - d_th, 1)
            m = random_model(d_g, d_th, 1100 + trial)
            cols = rng.choice(d_g, size=d_gam, replace=False)
            b = np.eye(d_g)[:, np.sort(cols)]
            front = linf_path(m, b)
            term = front.knots[-1].k
            nnz = np.sum(np.abs(term) > 1e-11 * np.max(np.abs(term)))
            assert nnz == d_th, (trial, term)

    def test_every_knot_matches_kkt_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(15):
            d_g = int(rng.integers(2, 6))
            d_th = min(int(rng.integers(1, 3)), d_g)
            d_gam = int(rng.integers(1, min(d_g, 3) + 1))
            m = random_model(d_g, d_th, 1200 + trial)
            b = rng.normal(size=(d_g, d_gam))
            front = linf_path(m, b)
            for kn in front.knots:
                k_oracle = kkt_sensitivity(m, b, kn.lam)
                assert np.max(np.abs(k_oracle - kn.k)) < 1e-8, (trial, kn.lam)

    def test_monotone_bias_and_variance(self):
        for trial in range(10):
            m = random_model(5, 2, 1300 + trial)
            b = np.random.default_rng(trial).normal(size=(5, 3))
            front = linf_path(m, b)
            bbars = [kn.bbar for kn in front.knots]
            vars_ = [kn.var for kn in front.knots]
            assert all(x >= y - 1e-10 for x, y in zip(bbars, bbars[1:]))
            assert all(x <= y + 1e-10 for x, y in zip(vars_, vars_[1:]))

    def test_constraint_at_every_knot(self):
        m = random_model(6, 2, 14)
        b = np.random.default_rng(15).normal(size=(6, 3))
        front = linf_path(m, b)
        h_scale = np.max(np.abs(m.h_deriv))
        for kn in front.knots:
            resid = np.max(np.abs(m.h_deriv + kn.k @ m.gamma))
            assert resid <= 1e-8 * h_scale

    def test_terminal_active_count(self):
        m = random_model(5, 1, 16)
        b = np.eye(5)[:, 3:]
        front = linf_path(m, b)
        term = front.knots[-1].k
        # d_g > d_gamma + d_theta: all suspect moments dropped
        assert np.max(np.abs(term[3:])) < 1e-11 * np.max(np.abs(term))

    def test_basis_invariance(self, monkeypatch):
        # the path in k-space must not depend on which orthonormal complement
        # basis is used for the transform
        import momentguard.sensitivity as sens
        m = random_model(5, 2, 17)
        b = np.random.default_rng(18).normal(size=(5, 2))
        base = linf_path(m, b)

        original = sens.orth_complement
        rng = np.random.default_rng(19)

        def rotated(mat):
            bp = original(mat)
            q, _ = np.linalg.qr(rng.normal(size=(bp.shape[1], bp.shape[1])))
            return bp @ q

        monkeypatch.setattr(sens, "orth_complement", rotated)
        alt = linf_path(m, b)
        assert len(alt.knots) == len(base.knots)
        for kn_a, kn_b in zip(alt.knots, base.knots):
            assert kn_a.lam == pytest.approx(kn_b.lam, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(kn_a.k, kn_b.k, atol=1e-9)


class TestFrontier:
    def test_l2_first_knot_is_efficient(self):
        m = random_model(4, 2, 20)
        ms = MisspecSet(np.random.default_rng(21).normal(size=(4, 2)), 2, 1.0)
        front = frontier(m, ms)
        assert front.kind == "l2"
        assert front.knots[0].lam == 0.0
        np.testing.assert_allclose(front.knots[0].k, efficient_k(m), atol=1e-10)

    def test_m_zero_single_knot(self):
        m = random_model(4, 2, 22)
        ms = MisspecSet(np.eye(4)[:, :2], 2, 0.0)
        front = frontier(m, ms)
        assert front.kind == "single" and len(front.knots) == 1

    def test_normalizes_to_unit_set(self):
        m = random_model(4, 1, 23)
        b = np.random.default_rng(24).normal(size=(4, 2))
        f_half = frontier(m, MisspecSet(b, 2, 0.5))
        f_two = frontier(m, MisspecSet(b, 2, 2.0))
        assert f_half.set.m == 1.0 and f_two.set.m == 1.0
        for kn_a, kn_b in zip(f_half.knots, f_two.knots):
            assert kn_a.lam == kn_b.lam
            np.testing.assert_allclose(kn_a.k, kn_b.k, atol=1e-14)

    def test_monotone_along_path_both_norms(self):
        rng = np.random.default_rng(25)
        for trial in range(50):
            d_g = int(rng.integers(2, 6))
            d_th = int(rng.integers(1, d_g + 1))
            m = random_model(d_g, d_th, 2500 + trial)
            b = rng.normal(size=(d_g, int(rng.integers(1, 3))))
            p = 2 if trial % 2 == 0 else np.inf
            front = frontier(m, MisspecSet(b, p, 1.0))
            bbars = [kn.bbar for kn in front.knots]
            vars_ = [kn.var for kn in front.knots]
            # the l2 grid spans twelve decades of lambda; allow for the solve
            # conditioning at the stiff end
            scale_b = max(bbars[0], 1e-12)
            scale_v = max(vars_[-1], 1e-12)
            assert all(x >= y - 1e-7 * scale_b for x, y in zip(bbars, bbars[1:]))
            assert all(x <= y + 1e-7 * scale_v for x, y in zip(vars_, vars_[1:]))

    def test_l2_linf_agree_for_scalar_gamma(self):
        # with a single set coefficient the two norms coincide, so the
        # bias-variance curves match pointwise
        m = random_model(4, 1, 26)
        b = np.random.default_rng(27).normal(size=(4, 1))
        f2 = frontier(m, MisspecSet(b, 2, 1.0))
        finf = frontier(m, MisspecSet(b, np.inf, 1.0))
        # compare variance at matched bias levels via interpolation
        b2 = np.array([kn.bbar for kn in f2.knots])
        v2 = np.array([kn.var for kn in f2.knots])
        order = np.argsort(b2)
        for kn in finf.knots:
            if kn.bbar < b2.min() or kn.bbar > b2.max():
                continue
            v_interp = np.interp(kn.bbar, b2[order], v2[order])
            assert kn.var == pytest.approx(v_interp, rel=1e-4, abs=1e-8)


class TestSelectLambda:
    def test_m_zero_picks_efficient(self):
        m = random_model(4, 2, 28)
        ms = MisspecSet(np.random.default_rng(29).normal(size=(4, 2)), 2, 1.0)
        front = frontier(m, ms)
        for criterion in ("ci_length", "mse"):
            choice = select_lambda(front, 0.0, 0.05, criterion)
            assert choice.lambda_star == front.knots[0].lam

    def test_matches_fine_grid_oracle_scalar_toy(self):
        from momentguard.critval import cv_alpha
        m = MomentModel(gamma=[[-1.0], [-0.8]],
                        sigma=[[1.0, 0.2], [0.2, 2.0]], h_deriv=[1.0],
                        g_init=[0.0, 0.0], h_init=0.0, n=100)
        b = np.array([[0.2], [1.0]])
        ms = MisspecSet(b, 2, 1.5)
        front = frontier(m, ms)
        choice = select_lambda(front, 1.5, 0.05, "ci_length")

        def length(lam):
            k = l2_sensitivity(m, b, lam)
            sd = math.sqrt(k @ m.sigma @ k)
            bias = 1.5 * np.linalg.norm(b.T @ k)
            return 2.0 * cv_alpha(bias / sd, 0.05) * sd

        grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 4001)])
        vals = [length(l) for l in grid]
        best = min(vals)
        assert length(choice.lambda_star) <= best + 1e-9 * abs(best)

    def test_mse_criterion_fine_grid(self):
        m = MomentModel(gamma=[[-1.0], [-0.8]],
                        sigma=[[1.0, 0.2], [0.2, 2.0]], h_deriv=[1.0],
                        g_init=[0.0, 0.0], h_init=0.0, n=100)
        b = np.array([[0.2], [1.0]])
        front = frontier(m, MisspecSet(b, 2, 1.0))
        choice = select_lambda(front, 2.0, 0.05, "mse")

        def mse(lam):
            k = l2_sensitivity(m, b, lam)
            return (2.0 * np.linalg.norm(b.T @ k)) ** 2 + float(k @ m.sigma @ k)

        grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 4001)])
        best = min(mse(l) for l in grid)
        assert mse(choice.lambda_star) <= best + 1e-9 * abs(best)

    def test_linf_interior_refinement(self):
        m = random_model(4, 1, 30)
        b = np.random.default_rng(31).normal(size=(4, 2))
        front = frontier(m, MisspecSet(b, np.inf, 1.0))
        choice = select_lambda(front, 1.0, 0.05, "ci_length")
        kn = knot_at(front, choice.lambda_star)
        from momentguard.critval import cv_alpha
        val = 2.0 * cv_alpha(kn.bbar / math.sqrt(kn.var), 0.05) * math.sqrt(kn.var)
        # every knot value must be at least as large
        for other in front.knots:
            v = 2.0 * cv_alpha(other.bbar / math.sqrt(other.var), 0.05) * \
                math.sqrt(other.var)
            assert val <= v + 1e-10

    def test_scale_equivariance_of_choice(self):
        # reusing a unit frontier at different magnitudes equals recomputation
        m = random_model(4, 1, 32)
        b = np.random.default_rng(33).normal(size=(4, 2))
        front = frontier(m, MisspecSet(b, 2, 1.0))
        for mval in (0.5, 2.0):
            again = frontier(m, MisspecSet(b, 2, mval))
            c1 = select_lambda(front, mval, 0.05)
            c2 = select_lambda(again, mval, 0.05)
            k1, k2 = knot_at(front, c1.lambda_star), knot_at(again, c2.lambda_star)
            np.testing.assert_allclose(k1.k, k2.k, atol=1e-10)


class TestScaleOutsideDoublePrecision:
    """Valid models whose products under- or overflow fail with a typed error."""

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_variance_underflow(self, p):
        model = MomentModel(gamma=[[-1.0]], sigma=[[1.0]], h_deriv=[1e-200],
                            g_init=[0.0], h_init=0.0, n=10)
        with pytest.raises(SingularSystem):
            frontier(model, MisspecSet([[1.0]], p, 1.0))

    def test_linf_gram_underflow(self):
        model = MomentModel(gamma=[[-5e-324]], sigma=[[1e-238]], h_deriv=[1.0],
                            g_init=[0.0], h_init=0.0, n=10)
        with pytest.raises(SingularSystem):
            linf_path(model, np.array([[1.0]]))

    def test_subnormal_b_mat(self):
        model = MomentModel(gamma=[[-1.0]], sigma=[[1.0]], h_deriv=[1.0],
                            g_init=[0.0], h_init=0.0, n=10)
        for p in (2, math.inf):
            with pytest.raises(SingularSystem):
                frontier(model, MisspecSet([[2e-311]], p, 1.0))
