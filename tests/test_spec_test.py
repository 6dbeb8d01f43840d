import time

import numpy as np
import pytest

from momentguard import spec_test
from momentguard._linalg import sym_sqrt_psd
from momentguard.errors import (
    JustIdentified,
    NumericalError,
    OutOfRange,
    RankDeficiency,
    SolverFailure,
    VertexEnumerationTooLarge,
)
from momentguard.model import MisspecSet, MomentModel
from momentguard.spec_test import (
    _max_sign_quadratic,
    _whiten,
    m_lower_ci,
    noncentrality_sup,
    s_statistic,
    spec_test_grid,
)
from momentguard.spec_test import test_at_m as run_test_at_m
from oracles import sign_vertex_max


def make_model(gamma, sigma, g_init, n=250):
    gamma = np.asarray(gamma, dtype=float)
    d_th = gamma.shape[1]
    h = np.zeros(d_th)
    h[0] = 1.0
    return MomentModel(gamma=gamma, sigma=sigma, h_deriv=h,
                       g_init=g_init, h_init=0.0, n=n)


def random_overidentified(seed, d_g=4, d_th=2, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d_g, d_g))
    sigma = a @ a.T + 0.5 * np.eye(d_g)
    return make_model(rng.normal(size=(d_g, d_th)), sigma,
                      rng.normal(size=d_g) * scale)


class TestSStatistic:
    def test_zero_in_jacobian_column_space(self):
        m = make_model([[-1.0], [0.5]], np.eye(2), np.zeros(2))
        g = m.gamma @ np.array([0.7])
        m2 = make_model(m.gamma, m.sigma, g)
        assert s_statistic(m2) < 1e-20 * m2.n

    def test_projection_onto_second_coordinate(self):
        a = 0.37
        m = make_model([[-1.0], [0.0]], np.eye(2), [0.0, a], n=123)
        assert s_statistic(m) == pytest.approx(123 * a * a, rel=1e-12)

    def test_matches_linearized_j_oracle(self):
        for seed in range(10):
            m = random_overidentified(seed)
            si = np.linalg.inv(m.sigma)
            th = np.linalg.solve(m.gamma.T @ si @ m.gamma,
                                 m.gamma.T @ si @ m.g_init)
            resid = m.g_init - m.gamma @ th
            j_stat = m.n * float(resid @ si @ resid)
            assert abs(s_statistic(m) - j_stat) < 1e-8 * max(j_stat, 1.0)

    def test_just_identified_raises(self):
        m = make_model(np.eye(2) * -1.0, np.eye(2), [0.1, 0.2])
        with pytest.raises(JustIdentified):
            s_statistic(m)

    def test_projector_idempotent_and_trace(self):
        m = random_overidentified(3)
        r = _whiten(m)[1]
        assert np.max(np.abs(r @ r - r)) <= 1e-10
        assert np.trace(r) == pytest.approx(m.d_g - m.d_theta, abs=1e-8)


class TestNoncentralitySup:
    def test_zero_magnitude(self):
        m = random_overidentified(4)
        ms = MisspecSet(np.eye(4)[:, 2:], 2, 0.0)
        assert noncentrality_sup(m, ms) == 0.0

    def test_single_column_norms_agree(self):
        m = random_overidentified(5)
        b = np.random.default_rng(6).normal(size=(4, 1))
        root_inv = sym_sqrt_psd(m.sigma, inverse=True)
        r = _whiten(m)[1]
        expected = 1.69 * float(b[:, 0] @ root_inv @ r @ root_inv @ b[:, 0])
        for p in (2.0, np.inf):
            ms = MisspecSet(b, p, 1.3)
            assert noncentrality_sup(m, ms) == pytest.approx(expected, rel=1e-10)

    def test_linf_matches_dense_grid(self):
        m = random_overidentified(7)
        b = np.random.default_rng(8).normal(size=(4, 3))
        ms = MisspecSet(b, np.inf, 1.0)
        root_inv = sym_sqrt_psd(m.sigma, inverse=True)
        a_mat = _whiten(m)[1] @ root_inv @ b
        gram = a_mat.T @ a_mat
        axis = np.linspace(-1.0, 1.0, 21)
        best = 0.0
        for t1 in axis:
            for t2 in axis:
                for t3 in axis:
                    t = np.array([t1, t2, t3])
                    best = max(best, float(t @ gram @ t))
        assert noncentrality_sup(m, ms) == pytest.approx(best, abs=1e-4 + 1e-10)

    def test_homogeneous_degree_two(self):
        m = random_overidentified(9)
        b = np.random.default_rng(10).normal(size=(4, 2))
        for p in (2.0, np.inf):
            l1 = noncentrality_sup(m, MisspecSet(b, p, 1.1))
            l2 = noncentrality_sup(m, MisspecSet(b, p, 2.2))
            assert l2 == pytest.approx(4.0 * l1, rel=1e-10)

    def test_vertex_cap(self):
        m = random_overidentified(11, d_g=26, d_th=1, scale=10.0)
        b = np.eye(26)[:, :25]
        with pytest.raises(VertexEnumerationTooLarge):
            noncentrality_sup(m, MisspecSet(b, np.inf, 1.0))
        with pytest.raises(VertexEnumerationTooLarge):
            m_lower_ci(m, b, np.inf, 0.05)

    @pytest.mark.parametrize("low_block, chunk", [(12, 1 << 16), (3, 16), (1, 1)])
    def test_block_enumeration_matches_brute_force(self, monkeypatch,
                                                   low_block, chunk):
        # small blocks and chunks make every d walk several high chunks
        monkeypatch.setattr(spec_test, "_LOW_BLOCK", low_block)
        monkeypatch.setattr(spec_test, "_CHUNK_VALUES", chunk)
        for d in range(1, 13):
            for seed in range(3):
                a = np.random.default_rng([d, seed]).normal(size=(d + 2, d))
                gram = a.T @ a
                assert _max_sign_quadratic(gram) == pytest.approx(
                    sign_vertex_max(gram), rel=1e-12)

    @pytest.mark.parametrize("kind", ["full", "rank_one", "half_rank",
                                      "scaled_up", "scaled_down"])
    def test_kernel_matches_vertex_oracle(self, kind):
        eps = np.finfo(float).eps
        for d in range(1, 15):
            rng = np.random.default_rng([d, len(kind)])
            rows = {"rank_one": 1, "half_rank": max(d // 2, 1)}.get(kind, d + 2)
            a = rng.normal(size=(rows, d))
            gram = a.T @ a * {"scaled_up": 1e100, "scaled_down": 1e-100}.get(kind, 1.0)
            want = sign_vertex_max(gram)
            assert abs(_max_sign_quadratic(gram) - want) <= 8 * d * eps * want, d

    def test_small_chunks_match_default_chunking(self, monkeypatch):
        grams = []
        for d in range(15, 19):
            a = np.random.default_rng(d).normal(size=(d + 2, d))
            grams.append(a.T @ a)
        default = [_max_sign_quadratic(g) for g in grams]
        monkeypatch.setattr(spec_test, "_CHUNK_VALUES", 64)
        assert [_max_sign_quadratic(g) for g in grams] == default

    def test_sign_table_is_read_only(self):
        table = spec_test._sign_table(spec_test._LOW_BLOCK)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        for k in range(spec_test._LOW_BLOCK + 1):
            np.testing.assert_array_equal(table[:1 << k, :k],
                                          spec_test._signs(np.arange(1 << k), k))

    def test_linf_invariant_to_moment_basis_and_b_columns(self):
        # a rotation of the moment space maps the model and B along; permuting
        # B's columns or flipping their signs maps the box onto itself
        for seed, (d_g, d_gam) in enumerate([(4, 2), (7, 5), (12, 10), (15, 13)]):
            rng = np.random.default_rng(300 + seed)
            m = random_overidentified(300 + seed, d_g=d_g, d_th=2)
            b = rng.normal(size=(d_g, d_gam))
            base = noncentrality_sup(m, MisspecSet(b, np.inf, 1.0))
            q = np.linalg.qr(rng.normal(size=(d_g, d_g)))[0]
            rotated = MomentModel(gamma=q @ m.gamma, sigma=q @ m.sigma @ q.T,
                                  h_deriv=m.h_deriv, g_init=q @ m.g_init,
                                  h_init=m.h_init, n=m.n)
            moved = [(rotated, q @ b),
                     (m, b[:, rng.permutation(d_gam)]),
                     (m, b * rng.choice([-1.0, 1.0], size=d_gam))]
            for model, b_alt in moved:
                alt = noncentrality_sup(model, MisspecSet(b_alt, np.inf, 1.0))
                assert alt == pytest.approx(base, rel=1e-13), (d_g, d_gam)

    def test_vertex_cap_dimension_is_fast(self):
        m = random_overidentified(23, d_g=26, d_th=1, scale=10.0)
        b = np.random.default_rng(24).normal(size=(26, 24))
        t0 = time.perf_counter()
        m_min = m_lower_ci(m, b, np.inf, 0.05)
        assert time.perf_counter() - t0 < 2.0
        assert m_min > 0.0

    def test_jacobian_span_gives_exact_zero(self):
        m = make_model([[-1.0], [-0.8], [0.3]], np.eye(3), [0.5, -0.9, 0.7])
        for p in (2.0, np.inf):
            for mval in (1.0, 1e200):
                assert noncentrality_sup(m, MisspecSet(m.gamma, p, mval)) == 0.0


class TestTestAtM:
    def test_central_case_is_classical_j(self):
        from scipy.stats import chi2
        m = random_overidentified(12)
        ms = MisspecSet(np.eye(4)[:, 2:], 2, 0.0)
        res = run_test_at_m(m, ms, 0.05)
        assert res.df == 2
        assert res.critical_value == pytest.approx(chi2.ppf(0.95, 2), rel=1e-10)
        assert res.reject == (res.statistic > res.critical_value)

    def test_result_is_slotted(self):
        # a caller keeping one result per test holds no per-instance dict
        res = run_test_at_m(random_overidentified(12),
                            MisspecSet(np.eye(4)[:, 2:], 2, 0.0), 0.05)
        assert not hasattr(res, "__dict__")

    def test_large_magnitude_never_rejects(self):
        m = random_overidentified(13, scale=3.0)
        b = np.random.default_rng(14).normal(size=(4, 2))
        res = run_test_at_m(m, MisspecSet(b, 2, 1e3), 0.05)
        assert not res.reject

    def test_monotone_in_m(self):
        m = random_overidentified(15, scale=2.0)
        b = np.random.default_rng(16).normal(size=(4, 2))
        rejections = [run_test_at_m(m, MisspecSet(b, np.inf, mv), 0.05).reject
                      for mv in np.linspace(0.0, 6.0, 25)]
        # once acceptance starts it never flips back
        first_accept = rejections.index(False) if False in rejections else None
        if first_accept is not None:
            assert not any(rejections[first_accept:])

    def test_borderline_flip(self):
        # construct moments so the statistic sits on either side of the cutoff
        from momentguard.critval import noncentral_chisq_quantile
        m = random_overidentified(17)
        b = np.random.default_rng(18).normal(size=(4, 2))
        ms = MisspecSet(b, 2, 0.4)
        base = run_test_at_m(m, ms, 0.05)
        target = base.critical_value
        scale = np.sqrt(target / base.statistic)
        for eps, expect in ((1.0 - 1e-6, False), (1.0 + 1e-6, True)):
            m2 = MomentModel(gamma=m.gamma, sigma=m.sigma, h_deriv=m.h_deriv,
                             g_init=m.g_init * scale * eps, h_init=0.0, n=m.n)
            assert run_test_at_m(m2, ms, 0.05).reject is expect


class TestLargeMagnitude:
    """A magnitude whose noncentrality ``M^2 ncp(1)`` overflows or exceeds
    the quantile's ceiling of 1e10 fails with a typed error."""

    @staticmethod
    def problem():
        return (random_overidentified(3, d_g=5),
                np.random.default_rng(4).normal(size=(5, 2)))

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_overflowing_magnitude(self, p):
        m, b = self.problem()
        with pytest.raises(NumericalError, match="double precision"):
            noncentrality_sup(m, MisspecSet(b, p, 1e200))
        with pytest.raises(SolverFailure, match="ceiling"):
            run_test_at_m(m, MisspecSet(b, p, 1e200))
        with pytest.raises(SolverFailure, match="ceiling"):
            spec_test_grid(m, b, p, [0.0, 1e200])

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_just_above_the_ceiling(self, p):
        m, b = self.problem()
        unit = noncentrality_sup(m, MisspecSet(b, p, 1.0))
        big = np.sqrt(1e10 / unit) * (1.0 + 1e-6)
        assert 1e10 < noncentrality_sup(m, MisspecSet(b, p, big)) < 1.0001e10
        with pytest.raises(SolverFailure, match="ceiling"):
            run_test_at_m(m, MisspecSet(b, p, big))
        with pytest.raises(SolverFailure, match="ceiling"):
            spec_test_grid(m, b, p, [0.0, 1.0, big])

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_grid_noncentrality_is_m_squared_times_unit(self, p):
        m, b = self.problem()
        unit = noncentrality_sup(m, MisspecSet(b, p, 1.0))
        grid = [0.0, 1e-160, 0.3, 1.7, 41.0]
        _, _, res = spec_test_grid(m, b, p, grid)
        assert [r.ncp_bar for r in res] == [g**2 * unit for g in grid]

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_grid_rejects_bad_magnitudes(self, bad):
        m, b = self.problem()
        with pytest.raises(OutOfRange, match="nonnegative finite"):
            spec_test_grid(m, b, 2.0, [0.0, bad])


class TestMLowerCI:
    def test_zero_moments_give_zero(self):
        m = make_model([[-1.0], [0.5]], np.eye(2), [0.0, 0.0])
        assert m_lower_ci(m, np.eye(2)[:, 1:], 2, 0.05) == 0.0

    def test_scaling_weakly_increases(self):
        m = random_overidentified(19, scale=2.5)
        b = np.random.default_rng(20).normal(size=(4, 2))
        m2 = MomentModel(gamma=m.gamma, sigma=m.sigma, h_deriv=m.h_deriv,
                         g_init=2.0 * m.g_init, h_init=0.0, n=m.n)
        assert m_lower_ci(m2, b, 2, 0.05) >= m_lower_ci(m, b, 2, 0.05) - 1e-9

    def test_bracket_consistency(self):
        for seed in range(6):
            m = random_overidentified(210 + seed, scale=2.5)
            b = np.random.default_rng(seed).normal(size=(4, 2))
            p = 2 if seed % 2 else np.inf
            m_min = m_lower_ci(m, b, p, 0.05)
            if m_min == 0.0:
                continue
            eps = 1e-8 * m_min
            assert run_test_at_m(m, MisspecSet(b, p, m_min - eps), 0.05).reject
            assert not run_test_at_m(m, MisspecSet(b, p, m_min + eps), 0.05).reject

    def test_matches_fine_grid_scan(self):
        m = random_overidentified(22, d_g=2, d_th=1, scale=2.0)
        b = np.array([[0.4], [1.0]])
        m_min = m_lower_ci(m, b, 2, 0.05)
        grid = np.linspace(0.0, max(2.0 * m_min, 1.0), 4001)
        accepted = [mv for mv in grid
                    if not run_test_at_m(m, MisspecSet(b, 2, mv), 0.05).reject]
        if accepted:
            assert m_min == pytest.approx(accepted[0], abs=grid[1] - grid[0])

    def test_accepts_at_own_m_min(self):
        # [m_min, inf) is the acceptance region: the test must accept at
        # m_min itself, where S meets the critical value and rounding decides
        rng = np.random.default_rng(23)
        cases = [(random_overidentified(22, d_g=2, d_th=1, scale=2.0),
                  np.array([[0.4], [1.0]]), 2)]
        for trial in range(48):
            d_g = int(rng.integers(2, 6))
            d_th = int(rng.integers(1, d_g))
            cases.append((random_overidentified(2300 + trial, d_g=d_g, d_th=d_th,
                                                scale=float(rng.uniform(1.0, 4.0))),
                          rng.normal(size=(d_g, int(rng.integers(1, d_g + 1)))),
                          (2, np.inf)[trial % 2]))
        positive = 0
        for m, b, p in cases:
            m_min = m_lower_ci(m, b, p, 0.05)
            if m_min > 0.0:
                positive += 1
                assert not run_test_at_m(m, MisspecSet(b, p, m_min), 0.05).reject
        assert positive >= 40

    def test_jacobian_span_raises(self):
        # B inside the Jacobian's span: the noncentrality is 0 for every M
        m = make_model([[-1.0], [-0.8], [0.3]], np.eye(3), [0.5, -0.9, 0.7])
        for p in (2.0, np.inf):
            with pytest.raises(RankDeficiency):
                m_lower_ci(m, m.gamma, p, 0.05)
