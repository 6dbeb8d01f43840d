import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from momentguard._linalg import sym_sqrt_psd
from momentguard.critval import norm_quantile
from momentguard.efficiency import efficiency_report, gls_subspace_sensitivity
from momentguard.errors import (
    DimensionMismatch,
    MomentGuardError,
    OutOfRange,
    RankDeficiency,
    SingularSystem,
)
from momentguard.model import MisspecSet, MomentModel
from momentguard.robust_ci import ci_curve
from momentguard.sensitivity import (
    _argmin_sweep,
    _L2Path,
    _weights,
    frontier,
    knot_at,
    l2_sensitivity,
    linf_path,
    select_lambda,
    worst_case_bias,
)
from oracles import (brentq_selector, kkt_sensitivity, root_tolerance, vertex_bias,
                     weights_of)

EPS = np.finfo(float).eps


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


def d2_reproducer():
    """d_gamma = 3 > d_g - d_theta = 2: the path runs past its first reach of
    d_theta active coordinates."""
    rng = np.random.default_rng(108)
    a = rng.normal(size=(3, 3))
    m = MomentModel(gamma=rng.normal(size=(3, 1)), sigma=a @ a.T + 0.5 * np.eye(3),
                    h_deriv=rng.normal(size=1), g_init=np.zeros(3), h_init=0.0,
                    n=400)
    return m, np.random.default_rng(208).normal(size=(3, 3))


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
            # a b_mat wider than tall is no valid set: keep its first d_g columns
            b = rng.normal(size=(d_g, int(rng.integers(1, 4))))[:, :d_g]
            lam = float(rng.uniform(0.0, 20.0))
            k = l2_sensitivity(m, b, lam)
            assert np.max(np.abs(m.h_deriv + k @ m.gamma)) < 1e-8
            v = (m.sigma + lam * b @ b.T) @ k
            proj = m.gamma @ np.linalg.lstsq(m.gamma, v, rcond=None)[0]
            assert np.max(np.abs(v - proj)) < 1e-8 * max(np.max(np.abs(v)), 1.0)

    def test_infinite_lambda_is_gls_subspace(self):
        # with d_gamma <= d_g - d_theta the path ends at the GLS sensitivity
        # that ignores the suspect directions
        rng = np.random.default_rng(8)
        for trial in range(20):
            d_g = int(rng.integers(2, 7))
            d_th = int(rng.integers(1, d_g))
            m = random_model(d_g, d_th, 800 + trial)
            b = rng.normal(size=(d_g, int(rng.integers(1, d_g - d_th + 1))))
            k = l2_sensitivity(m, b, math.inf)
            np.testing.assert_allclose(k, gls_subspace_sensitivity(m, b),
                                       atol=1e-10 * np.max(np.abs(k)))
            near = l2_sensitivity(m, b, 1e12)
            np.testing.assert_allclose(near, k, atol=1e-8 * np.max(np.abs(k)))

    def test_negative_lambda_rejected(self):
        for lam in (-1.0, math.nan):  # NaN is not a penalty either
            with pytest.raises(OutOfRange):
                l2_sensitivity(random_model(3, 1, 7), np.eye(3), lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_b_mat_rejected(self, bad):
        # b_mat is validated as the unit set, before any factorization
        b = np.eye(3)[:, :2].copy()
        b[1, 0] = bad
        with pytest.raises(OutOfRange, match="b_mat"):
            l2_sensitivity(random_model(3, 1, 7), b, 1.0)

    @pytest.mark.parametrize("b", [np.zeros((3, 1)), np.ones((3, 2))],
                             ids=["zero", "rank_deficient"])
    def test_degenerate_b_mat_rejected(self, b):
        with pytest.raises(RankDeficiency, match="b_mat"):
            l2_sensitivity(random_model(3, 1, 7), b, 1.0)


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
        # also past the last knot, where a path cut short of its end would
        # keep a k that is no longer optimal
        rng = np.random.default_rng(12)
        cases = []
        for trial in range(15):
            d_g = int(rng.integers(2, 6))
            d_th = min(int(rng.integers(1, 3)), d_g)
            d_gam = int(rng.integers(1, min(d_g, 3) + 1))
            cases.append((random_model(d_g, d_th, 1200 + trial),
                          rng.normal(size=(d_g, d_gam))))
        cases.append(d2_reproducer())
        for trial, (m, b) in enumerate(cases):
            front = linf_path(m, b)
            lam_last = front.knots[-1].lam
            points = list(front.knots) + [knot_at(front, 10.0 * lam_last),
                                          knot_at(front, 100.0 * lam_last)]
            for kn in points:
                k_oracle = kkt_sensitivity(m, b, kn.lam)
                assert np.max(np.abs(k_oracle - kn.k)) < 1e-8, (trial, kn.lam)

    @pytest.mark.parametrize("s_scale,b_scale,h_scale", [
        (1e12, 1.0, 1.0), (1e-12, 1.0, 1.0), (1.0, 1e-6, 1.0),
        (1.0, 1e-12, 1.0), (1.0, 1.0, 1e6), (1e12, 1e-6, 1e6)])
    def test_path_is_scale_free(self, s_scale, b_scale, h_scale):
        # Sigma -> s Sigma, B -> b B, H -> h H gives the same path with
        # k -> h k at lam -> lam s h / b, past the last knot too
        rng = np.random.default_rng(12)
        cases = []
        for trial in range(15):
            d_g = int(rng.integers(2, 6))
            d_th = min(int(rng.integers(1, 3)), d_g)
            d_gam = int(rng.integers(1, min(d_g, 3) + 1))
            cases.append((random_model(d_g, d_th, 1200 + trial),
                          rng.normal(size=(d_g, d_gam))))
        cases.append(d2_reproducer())
        lam_factor = s_scale * h_scale / b_scale
        for trial, (m, b) in enumerate(cases):
            scaled = MomentModel(gamma=m.gamma, sigma=s_scale * m.sigma,
                                 h_deriv=h_scale * m.h_deriv, g_init=m.g_init,
                                 h_init=m.h_init, n=m.n)
            unit, front = linf_path(m, b), linf_path(scaled, b_scale * b)
            assert len(front.knots) == len(unit.knots), trial
            lam_last = front.knots[-1].lam
            for kn in list(front.knots) + [knot_at(front, 10.0 * lam_last),
                                           knot_at(front, 100.0 * lam_last)]:
                ref = knot_at(unit, kn.lam / lam_factor).k
                err = np.max(np.abs(kn.k / h_scale - ref)) / np.max(np.abs(ref))
                assert err < 1e-8, (trial, kn.lam)

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_multiplier_stationarity(self, p):
        # Sigma k + Gamma mu = -lam * B s with s = B'k (p = 2) or s a sign
        # vector of B'k with |s| <= 1 (p = inf), between and past the knots
        rng = np.random.default_rng(40)
        for trial in range(12):
            d_g = int(rng.integers(2, 6))
            d_th = min(int(rng.integers(1, 3)), d_g)
            m = random_model(d_g, d_th, 4000 + trial)
            b = rng.normal(size=(d_g, int(rng.integers(1, d_g + 1))))
            front = frontier(m, MisspecSet(b, p, 1.0))
            lams = [kn.lam for kn in front.knots]
            probe = [0.5 * (x + y) for x, y in zip(lams, lams[1:])]
            probe += [2.0 * lams[-1] + 1.0]
            for lam in lams + probe:
                kn = knot_at(front, lam)
                resid = -(m.sigma @ kn.k + m.gamma @ kn.mu)
                scale = np.max(np.abs(m.sigma @ kn.k))
                if p == 2:
                    np.testing.assert_allclose(resid, lam * b @ (b.T @ kn.k),
                                               atol=1e-9 * scale)
                    continue
                if lam == 0.0:
                    assert np.max(np.abs(resid)) <= 1e-9 * scale
                    continue
                s = np.linalg.lstsq(b, resid / lam, rcond=None)[0]
                np.testing.assert_allclose(b @ s, resid / lam,
                                           atol=1e-9 * scale / lam)
                assert np.max(np.abs(s)) <= 1.0 + 1e-7
                v = b.T @ kn.k
                on = np.abs(v) > 1e-9 * np.linalg.norm(b) * np.linalg.norm(kn.k)
                np.testing.assert_allclose(s[on], np.sign(v[on]), atol=1e-7)

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

    def test_unbiased_end_has_exact_zero_bias(self):
        # with d_gamma <= d_g - d_theta every penalized coordinate drops by
        # the last knot, whose bias is then exactly zero, not B'k's rounding
        rng = np.random.default_rng(21)
        for trial in range(40):
            d_th = int(rng.integers(1, 3))
            d_g = d_th + int(rng.integers(1, 5))
            d_gam = int(rng.integers(1, d_g - d_th + 1))
            m = random_model(d_g, d_th, 2100 + trial)
            front = linf_path(m, rng.normal(size=(d_g, d_gam)))
            lam_last = front.knots[-1].lam
            assert front.knots[-1].bbar == 0.0, trial
            past = front.points(np.array([lam_last, 2.0 * lam_last + 1.0, 1e6]))
            assert np.all(past.bbar == 0.0), trial

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
        assert isinstance(front, _L2Path)
        assert front.knots[0].lam == 0.0
        np.testing.assert_allclose(front.knots[0].k, efficient_k(m), atol=1e-10)

    def test_m_zero_gives_unit_frontier(self):
        # the frontier does not depend on the magnitude, 0 included
        m = random_model(4, 2, 22)
        for p in (2, math.inf):
            front = frontier(m, MisspecSet(np.eye(4)[:, :2], p, 0.0))
            unit = frontier(m, MisspecSet(np.eye(4)[:, :2], p, 1.0))
            assert front.set.m == 1.0 and len(front.knots) == len(unit.knots)
            for kn_a, kn_b in zip(front.knots, unit.knots):
                assert kn_a.lam == kn_b.lam and kn_a.var == kn_b.var
                np.testing.assert_array_equal(kn_a.k, kn_b.k)

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


def folded_normal_quantile(tau, alpha=0.05):
    """cv_alpha on an array: bisection on Phi(c - tau) - Phi(-c - tau)."""
    tau = np.asarray(tau, dtype=float)
    lo = tau + norm_quantile(1.0 - alpha) - 1e-3
    hi = tau + norm_quantile(1.0 - alpha / 2.0) + 1e-3
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = ndtr(mid - tau) - ndtr(-mid - tau) < 1.0 - alpha
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def criterion_values(criterion, m, bbar, var):
    bbar, sd = np.asarray(bbar), np.sqrt(var)
    if criterion == "ci_length":
        return 2.0 * folded_normal_quantile(m * bbar / sd) * sd
    if criterion == "mse":
        return (m * bbar) ** 2 + var
    return m * bbar + (norm_quantile(0.95) + norm_quantile(0.8)) * sd


def dense_l2_points(model, b):
    """bbar and var of the ridge sensitivity at 20001 values of
    t = lam / (1 + lam) in [0, 1], by direct solves."""
    t = np.linspace(0.0, 1.0, 20001)[:-1]
    lam = t / (1.0 - t)
    w_inv = model.sigma[None] + lam[:, None, None] * (b @ b.T)[None]
    w_gam = np.linalg.solve(w_inv, np.repeat(model.gamma[None], t.size, axis=0))
    gram = np.einsum("gi,ngj->nij", model.gamma, w_gam)
    mu = np.linalg.solve(gram, np.repeat(model.h_deriv[None, :, None], t.size, axis=0))
    k = -(w_gam @ mu)[..., 0]
    if b.shape[1] <= model.d_g - model.d_theta:  # t = 1
        k = np.vstack([k, gls_subspace_sensitivity(model, b)])
    return np.linalg.norm(k @ b, axis=1), np.einsum("ni,ij,nj->n", k, model.sigma, k)


def dense_linf_points(front, b):
    """bbar and var at 2000 points inside every segment of an inf-path and at
    its knots (k is constant past the last one)."""
    w = np.linspace(0.0, 1.0, 2002)[:, None]
    ks = [np.array([kn.k for kn in front.knots])]
    for lo, hi in zip(front.knots, front.knots[1:]):
        ks.append((1.0 - w) * lo.k + w * hi.k)
    k = np.vstack(ks)
    return np.abs(k @ b).sum(axis=1), np.einsum("ni,ij,nj->n", k, front.model.sigma, k)


class TestSelectLambdaExact:
    """The selector's value is the minimum over the whole frontier: no dense
    evaluation of the path finds a smaller one."""

    @pytest.mark.parametrize("criterion", ["ci_length", "mse", "one_sided_quantile"])
    @pytest.mark.parametrize("p", [2, math.inf])
    def test_not_above_dense_oracle(self, p, criterion):
        rng = np.random.default_rng(61)
        for trial in range(20):
            d_g = int(rng.integers(2, 6))
            d_th = int(rng.integers(1, d_g))
            model = random_model(d_g, d_th, 6100 + trial)
            d_gam = int(rng.integers(1, min(d_g, 3) + 1))
            b = rng.normal(size=(d_g, d_gam))
            # without a lam = inf end the l2 evaluator's error grows with lam
            # (about 1e-10 relative at lam = 1e6), so M stays below 1e3 there
            top = 3.0 if p == 2 and d_gam > d_g - d_th else 5.0
            m = float(10.0 ** rng.uniform(-2.0, top))
            front = frontier(model, MisspecSet(b, p, 1.0))
            bbar, var = (dense_l2_points(model, b) if p == 2
                         else dense_linf_points(front, b))
            oracle = float(np.min(criterion_values(criterion, m, bbar, var)))
            kn = knot_at(front, select_lambda(front, m, 0.05, criterion).lambda_star)
            value = float(criterion_values(criterion, m, [kn.bbar], [kn.var])[0])
            assert value <= oracle * (1.0 + 1e-12), (trial, value / oracle - 1.0)


class TestLargeMagnitudeSelection:
    """At a very large M the CI-length ratio stays finite: ``c - tau t``
    rounds to 0 or below from tau ~ 1e17, so the selector forms it from the
    critical value's excess over tau."""

    @pytest.mark.parametrize("alpha", [1e-10, 0.05, 0.49])
    def test_ratio_is_finite_at_every_tau(self, alpha):
        weights = _weights("ci_length", 1.0, alpha)
        for tau in np.logspace(-300, 300, 601):
            log_r, eps = weights(float(tau))
            assert math.isfinite(log_r) and math.isfinite(eps), tau

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_not_above_dense_oracle(self, p):
        # at p = 2 only on paths that end unbiased: elsewhere the l2
        # evaluator's error grows with lam (ROADMAP E5)
        rng = np.random.default_rng(73)
        for trial in range(12):
            d_g = int(rng.integers(2, 6))
            d_th = int(rng.integers(1, d_g))
            model = random_model(d_g, d_th, 7300 + trial)
            top = min(d_g, 3) if p == math.inf else min(d_g - d_th, 3)
            b = rng.normal(size=(d_g, int(rng.integers(1, top + 1))))
            front = frontier(model, MisspecSet(b, p, 1.0))
            bbar, var = (dense_l2_points(model, b) if p == 2
                         else dense_linf_points(front, b))
            for m in (1e17, 1e20, 1e30):
                oracle = float(np.min(criterion_values("ci_length", m, bbar, var)))
                kn = select_lambda(front, m, 0.05).knot
                value = float(criterion_values("ci_length", m, [kn.bbar], [kn.var])[0])
                assert value <= oracle * (1.0 + 1e-12), (trial, m, value / oracle - 1.0)


class TestExtremeMagnitude:
    """Magnitudes near the largest double, where the criterion's ratio r
    (``m^2 bbar / sd`` for "mse") or the penalty itself exceeds a double:
    each selection returns a penalty, finite or inf, or raises a typed
    error; nothing else escapes, not even a warning."""

    @pytest.mark.parametrize("criterion", ["ci_length", "mse", "one_sided_quantile"])
    @pytest.mark.parametrize("p", [2, math.inf])
    @pytest.mark.parametrize("unbiased_end", [True, False])
    def test_typed_outcome(self, p, criterion, unbiased_end):
        rng = np.random.default_rng([83, int(math.isinf(p)), int(unbiased_end)])
        for trial in range(6):
            d_g = int(rng.integers(3, 6))
            d_th = int(rng.integers(1, d_g - 1))
            free = d_g - d_th
            d_gam = int(rng.integers(1, free + 1) if unbiased_end
                        else rng.integers(free + 1, d_g + 1))
            model = random_model(d_g, d_th, 8300 + trial)
            front = frontier(model, MisspecSet(rng.normal(size=(d_g, d_gam)), p, 1.0))
            for m in (1e155, 1e200, 1e300, 1.7e308):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        lam = select_lambda(front, m, 0.05, criterion).lambda_star
                    except MomentGuardError:
                        continue
                assert lam >= 0.0, (trial, m, lam)

    @pytest.mark.parametrize("alpha", [1e-10, 0.05, 0.49])
    def test_ci_length_ratio_past_overflow(self, alpha):
        # tau = m bbar / sd overflows at such magnitudes; from tau ~ 20 on
        # the "ci_length" ratio and its slope are the same doubles
        weights = _weights("ci_length", 1.0, alpha)
        assert weights(math.inf) == weights(1.7e308) == weights(1e20)


class TestSelectLambdaRoot:
    """The selector against the root that scipy's brentq finds for the same
    first-order condition. Both are roots of a rounded F, so they agree to
    the F3 gate ``4 eps (1 + |log lam|)`` in ``log(lam)`` plus F's rounding,
    ``16 eps (1 + |log lam| + |log r|)`` as the l2 sweep reads it, over the
    root's conditioning: F's slope in ``log(lam)``, which is at most 1 on the
    l2 path and small where the ratio ``lam' / sd`` levels off. The selector
    corrects its last Newton iterate by a step of at most half the digits of
    a double, which lands anywhere in that rounding; the gate alone fails
    one problem here by a factor 1.4, at slope 0.96."""

    @pytest.mark.parametrize("criterion", ["ci_length", "mse", "one_sided_quantile"])
    @pytest.mark.parametrize("p", [2, math.inf])
    def test_matches_brentq_root(self, p, criterion):
        rng = np.random.default_rng([67, int(math.isinf(p))])
        found = 0
        for trial in range(16):
            d_g = int(rng.integers(2, 6))
            model = random_model(d_g, int(rng.integers(1, d_g)), int(rng.integers(1 << 30)))
            b = rng.normal(size=(d_g, int(rng.integers(1, d_g + 1))))
            front = frontier(model, MisspecSet(b, p, 1.0))
            m = float(10.0 ** rng.uniform(-1.0, 1.0))
            want = brentq_selector(front, m, criterion)
            got = select_lambda(front, m, 0.05, criterion).lambda_star
            if want is None:
                assert got in (0.0, math.inf), trial
                continue
            found += 1
            u = math.log(want)
            weights = weights_of(criterion, m)

            def f(u):
                kn = front.knot(math.exp(u))
                sd = math.sqrt(kn.var)
                a, b_ = weights(kn.bbar, sd)
                lam_prime = math.exp(u) * (kn.bbar if p == 2 else 1.0)
                return math.log(lam_prime / sd) - math.log(a / b_)

            kn = front.knot(want)
            a, b_ = weights(kn.bbar, math.sqrt(kn.var))
            slope = (f(u + 1e-6) - f(u - 1e-6)) / 2e-6
            rounding = 16.0 * EPS * (1.0 + abs(u) + abs(math.log(a / b_)))
            tol = (4.0 * EPS * (1.0 + abs(u)) + rounding) / min(slope, 1.0)
            assert abs(math.log(got) - u) <= tol, (trial, got, want, slope)
        assert found >= 12

    @pytest.mark.parametrize("m", [1e-3, 1.0, 30.0])
    def test_l2_mse_root_is_m_squared(self, m):
        # the ridge path at lam minimizes var + lam bbar^2, which is the
        # worst-case MSE at lam = m^2; at m = 1 the root sits at log(lam) = 0
        for seed in range(8):
            model = random_model(4, 1, 90 + seed)
            b = np.random.default_rng(190 + seed).normal(size=(4, 2))
            front = frontier(model, MisspecSet(b, 2, 1.0))
            lam = select_lambda(front, m, 0.05, "mse").lambda_star
            assert lam == pytest.approx(m * m, rel=1e-14), seed


class TestArgminSweep:
    """The sweep for fixed weights against scipy's brentq on the same
    first-order condition, one pair of weights ``(2 m, delta)`` at a time,
    behind the shortcuts :func:`select_lambda` puts in front of its root
    (an unbiased first knot, a zero weight), at the tolerance of
    :class:`TestSelectLambdaRoot`."""

    @staticmethod
    def assert_matches(front, m, deltas):
        deltas = np.asarray(deltas, dtype=float)
        pts = _argmin_sweep(front, np.full(deltas.size, 2.0 * m), deltas)
        for i, delta in enumerate(deltas):
            got = float(pts.lam[i])
            if m == 0.0 or front.first.bbar == 0.0:
                want = 0.0
            else:
                want = brentq_selector(front, m, (2.0 * m, delta))
            if want is None:
                # at an end of the path: beyond e^-40 or e^40 on the l2 path
                assert got in (0.0, math.inf) or not (
                    math.exp(-40.0) < got < math.exp(40.0)), (delta, got)
                want = got
            elif want == 0.0 or got == 0.0:
                assert got == want or max(got, want) <= 1e-299, (delta, got, want)
            elif abs(got - want) > 4e-300:  # brentq's own absolute tolerance
                tol = root_tolerance(front, want, m, (2.0 * m, float(delta)))
                assert abs(math.log(got) - math.log(want)) <= tol, (delta, got, want)
            kn = front.knot(want)
            sd = math.sqrt(kn.var)
            assert pts.sd[i] == pytest.approx(sd, rel=1e-13), delta
            assert 2.0 * m * pts.bbar[i] + delta * pts.sd[i] == pytest.approx(
                2.0 * m * kn.bbar + delta * sd, rel=1e-13), delta
            np.testing.assert_allclose(pts.k[i], kn.k, rtol=0.0,
                                       atol=1e-10 * np.max(np.abs(kn.k)))
            np.testing.assert_allclose(pts.mu[i], kn.mu, rtol=0.0,
                                       atol=1e-9 * np.max(np.abs(kn.mu)))
        return pts

    @pytest.mark.parametrize("p", [2, math.inf])
    @pytest.mark.parametrize("d_th", [1, 2])
    @pytest.mark.parametrize("beyond", [False, True])
    def test_random_problems(self, p, d_th, beyond):
        # beyond: d_gamma > d_g - d_theta, so the bias never reaches zero
        rng = np.random.default_rng([7, d_th, int(beyond), int(math.isinf(p))])
        for trial in range(6):
            d_g = int(rng.integers(d_th + 1, 6))
            free = d_g - d_th
            d_gam = int(rng.integers(free + 1, d_g + 1) if beyond
                        else rng.integers(1, free + 1))
            model = random_model(d_g, d_th, int(rng.integers(1 << 30)))
            front = frontier(model, MisspecSet(rng.normal(size=(d_g, d_gam)), p, 1.0))
            self.assert_matches(front, float(rng.uniform(0.3, 3.0)),
                                np.geomspace(0.05, 16.0, 15))

    def test_unbiased_end(self):
        # a large M against a small delta: the criterion still falls at lam = inf
        model = random_model(5, 1, 70)
        front = frontier(model, MisspecSet(np.eye(5)[:, 3:], 2, 1.0))
        pts = self.assert_matches(front, 1.0, [1e-3, 0.5, 16.0])
        assert pts.lam[0] == math.inf and pts.bbar[0] == 0.0
        assert 0.0 < pts.lam[2] < math.inf

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_tiny_magnitude_first_knot(self, p):
        # at m = 5e-324 and delta = 16 the root lies below every positive
        # double: the efficient knot itself
        model = MomentModel(gamma=np.fliplr(np.eye(3)), sigma=np.eye(3),
                            h_deriv=[0.0, 0.0, 1.0], g_init=np.zeros(3),
                            h_init=0.0, n=1)
        front = frontier(model, MisspecSet(np.eye(3)[:, :1], p, 1.0))
        self.assert_matches(front, 2.2e-311, [0.5, 16.0])
        pts = self.assert_matches(front, 5e-324, [0.5, 16.0])
        assert pts.lam[1] == 0.0 and pts.bbar[1] == front.knots[0].bbar

    def test_past_last_linf_knot(self):
        model = random_model(5, 1, 71)
        front = frontier(model, MisspecSet(np.eye(5)[:, 3:], math.inf, 1.0))
        lam_last = front.knots[-1].lam
        pts = self.assert_matches(front, 1e3, [1e-3, 0.01, 16.0])
        assert pts.lam[0] > lam_last and pts.lam[1] > lam_last
        np.testing.assert_array_equal(pts.k[0], front.knots[-1].k)

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_unbiased_first_knot(self, p):
        model = MomentModel(gamma=np.eye(2), sigma=np.eye(2), h_deriv=[1.0, 0.0],
                            g_init=np.zeros(2), h_init=0.0, n=1)
        front = frontier(model, MisspecSet(np.eye(2)[:, 1:], p, 1.0))
        pts = self.assert_matches(front, 1.0, [0.1, 1.0, 16.0])
        assert np.all(pts.bbar == 0.0) and np.all(pts.lam == 0.0)

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_zero_magnitude(self, p):
        model = random_model(4, 1, 72)
        b = np.random.default_rng(73).normal(size=(4, 2))
        zero = frontier(model, MisspecSet(b, p, 0.0))
        assert [kn.lam for kn in zero.knots] == [
            kn.lam for kn in frontier(model, MisspecSet(b, p, 1.0)).knots]
        self.assert_matches(zero, 0.0, [0.1, 16.0])
        pts = self.assert_matches(frontier(model, MisspecSet(b, p, 1.0)), 0.0,
                                  [0.1, 16.0])
        assert np.all(pts.lam == 0.0)


class TestPathEvaluators:
    """The scalar and stacked evaluators of each path object, and the penalty
    check that ``knot_at`` puts in front of them."""

    @staticmethod
    def off_path_front(p):
        model = MomentModel(gamma=[[-1.0], [-0.8], [0.3]], sigma=np.eye(3),
                            h_deriv=[1.0], g_init=np.zeros(3), h_init=0.0, n=1)
        return frontier(model, MisspecSet([[0.0], [1.0], [0.5]], p, 1.0))

    @pytest.mark.parametrize("p", [2, math.inf])
    @pytest.mark.parametrize("lam", [-1.0, -0.5, -5e-324, math.nan])
    def test_knot_at_rejects_off_path(self, p, lam):
        with pytest.raises(OutOfRange):
            knot_at(self.off_path_front(p), lam)

    def test_knot_at_keeps_unbiased_end(self):
        front = self.off_path_front(2)
        kn = knot_at(front, math.inf)
        assert kn.lam == math.inf and kn.bbar == 0.0
        assert kn.var > front.knots[0].var

    def test_linf_rejects_infinite_lambda(self):
        # k stops at the last knot, but mu moves on without a limit: with
        # this model's slope of -0, mu would be NaN at lam = inf
        front = self.off_path_front(math.inf)
        with pytest.raises(OutOfRange, match="finite"):
            knot_at(front, math.inf)
        with pytest.raises(OutOfRange, match="finite"):
            front.points(np.array([1.0, math.inf]))

    def test_l2_knot_at_zero_is_first_knot(self):
        # selection returns the first knot, and knot_at(front, 0.0) gives the
        # same point bit for bit: both are one scalar evaluation
        rng = np.random.default_rng(40)
        for seed in range(100):
            b = rng.normal(size=(4, 1))
            front = frontier(random_model(4, 1, seed), MisspecSet(b, 2, 1.0))
            kn, first = knot_at(front, 0.0), front.knots[0]
            assert front.first is first
            assert (kn.lam, kn.bbar, kn.var) == (first.lam, first.bbar, first.var)
            np.testing.assert_array_equal(kn.k, first.k)
            np.testing.assert_array_equal(kn.mu, first.mu)

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_choice_knot_is_knot_at_lambda_star(self, p):
        # two_sided_ci forms its CI from the selected knot: the point that
        # knot_at gives at lambda_star
        rng = np.random.default_rng(41)
        for trial in range(10):
            model = random_model(5, 1, 4100 + trial)
            front = frontier(model, MisspecSet(rng.normal(size=(5, 2)), p, 1.0))
            for m in (0.0, 0.3, 2.0, 50.0):
                for criterion in ("ci_length", "mse", "one_sided_quantile"):
                    choice = select_lambda(front, m, 0.05, criterion)
                    kn = knot_at(front, choice.lambda_star)
                    assert choice.knot.lam == choice.lambda_star
                    assert (choice.knot.bbar, choice.knot.var) == (kn.bbar, kn.var)
                    np.testing.assert_array_equal(choice.knot.k, kn.k)

    def test_selection_never_builds_display_grid(self, monkeypatch):
        # CIs and efficiency bounds read the first knot and evaluate the
        # path; only `momentguard path` reads the 50 display knots
        def grid(self):
            raise AssertionError("the display grid was built")

        monkeypatch.setattr(_L2Path, "knots", property(grid))
        model = random_model(4, 1, 42)
        b = np.random.default_rng(43).normal(size=(4, 2))
        front = frontier(model, MisspecSet(b, 2, 1.0))
        ci_curve(model, front, [0.0, 0.5, 2.0])
        ci_curve(model, front, [0.0, 0.5, 2.0], criterion="mse")
        efficiency_report(model, MisspecSet(b, 2, 1.0))

    @pytest.mark.parametrize("p", [2, math.inf])
    @pytest.mark.parametrize("case", ["past_last_linf_knot", "unbiased_first_knot"])
    def test_points_match_knot(self, p, case):
        if case == "past_last_linf_knot":
            model, b = random_model(5, 1, 71), np.eye(5)[:, 3:]
        else:
            model = MomentModel(gamma=np.eye(2), sigma=np.eye(2), h_deriv=[1.0, 0.0],
                                g_init=np.zeros(2), h_init=0.0, n=1)
            b = np.eye(2)[:, 1:]
        front = frontier(model, MisspecSet(b, p, 1.0))
        at = np.array([kn.lam for kn in front.knots])
        past = (at[-1] or 1.0) * np.array([1.5, 10.0, 1e6])
        if p == 2 and front.ends_unbiased:
            past = np.append(past, math.inf)
        lams = np.concatenate([at, 0.5 * (at[:-1] + at[1:]), past])
        pts = front.points(lams)
        for i, lam in enumerate(lams):
            kn, row = front.knot(lam), pts.knot(i)
            assert row.lam == kn.lam
            # at an inf-path's knots and past its last one both evaluators
            # read the knot's own fields; elsewhere, and on the l2 path, a
            # product of one point and a stacked product round apart
            exact = math.isinf(p) and (lam in at or lam > at[-1])
            for got, want in ((row.k, kn.k), (row.mu, kn.mu),
                              (row.bbar, kn.bbar), (row.var, kn.var)):
                if exact:
                    np.testing.assert_array_equal(got, want)
                else:
                    np.testing.assert_allclose(
                        got, want, rtol=0.0, atol=1e-15 * np.max(np.abs(want)))


class TestScaleOutsideDoublePrecision:
    """Valid models whose products under- or overflow fail with a typed error."""

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_variance_underflow(self, p):
        model = MomentModel(gamma=[[-1.0]], sigma=[[1.0]], h_deriv=[1e-200],
                            g_init=[0.0], h_init=0.0, n=10)
        with pytest.raises(SingularSystem):
            frontier(model, MisspecSet([[1.0]], p, 1.0))

    def test_points_name_the_first_overflowing_penalty(self):
        # the variance rises from h^2 / 2 at lam = 0 to h^2 at lam = inf, past
        # the largest double from lam = 3 on (about 0.68 h^2 there)
        model = MomentModel(gamma=[[-1.0], [-1.0]], sigma=np.eye(2),
                            h_deriv=[1.7e154], g_init=np.zeros(2),
                            h_init=0.0, n=1)
        front = frontier(model, MisspecSet([[0.0], [1.0]], 2, 1.0))
        with pytest.raises(SingularSystem, match=r"lambda=3\.0:"):
            front.points(np.array([0.0, 0.1, 1.0, 3.0, 1e3, math.inf]))
        with pytest.raises(SingularSystem, match="lambda=inf:"):
            front.points(np.array([1.0, math.inf, 3.0]))

    def test_linf_gram_underflow(self):
        model = MomentModel(gamma=[[-5e-324]], sigma=[[1e-238]], h_deriv=[1.0],
                            g_init=[0.0], h_init=0.0, n=10)
        with pytest.raises(SingularSystem):
            linf_path(model, np.array([[1.0]]))

    def test_subnormal_b_mat(self):
        model = MomentModel(gamma=[[-1.0]], sigma=[[1.0]], h_deriv=[1.0],
                            g_init=[0.0], h_init=0.0, n=10)
        for p in (2, math.inf):
            with pytest.raises(SingularSystem, match="b_mat"):
                frontier(model, MisspecSet([[2e-311]], p, 1.0))


class TestL2SweepAtExtremeScale:
    """An h of 1e150 puts the squares of the l2 path's norms past a double.
    The sweep's slope is formed from ``v / ||v||``, so its roots and the
    kappas stay those of the unscaled model."""

    @staticmethod
    def draw(seed, scale=1.0):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 6))
        model = MomentModel(gamma=rng.normal(size=(6, 1)),
                            sigma=a @ a.T + 0.5 * np.eye(6),
                            h_deriv=scale * rng.normal(size=1),
                            g_init=np.zeros(6), h_init=0.0, n=100)
        return model, rng.normal(size=(6, 6))

    def test_roots_solve_the_condition(self, monkeypatch):
        # d_gamma = 6 > d_g - d_theta: no unbiased end. The sweep takes as
        # many passes as on the unscaled model, not safeguarding steps
        passes = []
        log_gap = _L2Path._log_gap

        def counted(*args):
            passes[-1] += 1
            return log_gap(*args)

        monkeypatch.setattr(_L2Path, "_log_gap", counted)
        deltas = np.geomspace(0.01, 20.0, 9)
        for seed in range(200):
            for scale in (1.0, 1e150):
                model, b = self.draw(seed, scale)
                front = frontier(model, MisspecSet(b, 2, 1.0))
                passes.append(0)
                lam = front.roots(np.full(9, 6.0), deltas)
            pts = front.points(lam)
            gap = np.log(lam * pts.bbar / pts.sd) - np.log(6.0 / deltas)
            assert np.max(np.abs(gap)) <= 1e-12, (seed, gap)
            assert passes[-1] == passes[-2], (seed, passes[-2:])

    def test_kappas_are_scale_free(self):
        for seed in range(60):
            model, b = self.draw(seed)
            ref = efficiency_report(model, MisspecSet(b, 2, 3.0))
            for scale in (1e150, 1e-150):
                rep = efficiency_report(self.draw(seed, scale)[0],
                                        MisspecSet(b, 2, 3.0))
                for got, want in ((rep.kappa_two_sided, ref.kappa_two_sided),
                                  (rep.kappa_one_sided, ref.kappa_one_sided)):
                    assert got == pytest.approx(want, rel=1e-12), (seed, scale)
