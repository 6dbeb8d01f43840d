import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from momentguard import iv
from momentguard.errors import (
    ConstraintViolated,
    DimensionMismatch,
    EmptySuspectSet,
    OutOfRange,
)
from momentguard.iv import (
    IVData,
    build_b,
    build_model,
    drop_collinear_instruments,
    linear_one_step,
    tsls,
)
from momentguard.model import MisspecSet
from momentguard.robust_ci import one_step
from momentguard.sensitivity import frontier, knot_at, select_lambda


def synthetic(seed, n=800, d_g=4, gamma_direct=0.0, hetero=False):
    """One endogenous regressor, d_g instruments, optional direct effect of
    the last instrument on the outcome (local scale, gamma_direct/sqrt(n))."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d_g))
    u = rng.normal(size=n)
    x = z @ np.linspace(1.0, 0.4, d_g) + u
    noise = rng.normal(size=n)
    if hetero:
        noise = noise * np.sqrt(0.3 + z[:, 0] ** 2)
    theta0 = 0.7
    y = x * theta0 + 0.8 * u + noise + z[:, -1] * gamma_direct / np.sqrt(n)
    return IVData(y=y, x=x, z=z, suspect=(d_g - 1,)), theta0


class TestTsls:
    def test_just_identified_collapses_to_iv(self):
        rng = np.random.default_rng(0)
        n = 300
        z = rng.normal(size=(n, 2))
        x = z @ np.array([1.0, 0.5]) + rng.normal(size=n)
        y = 0.3 * x + rng.normal(size=n)
        data = IVData(y=y, x=np.column_stack([x, z[:, 1]]), z=z)
        th = tsls(data)
        direct = np.linalg.solve(z.T @ data.x, z.T @ y)
        np.testing.assert_allclose(th, direct, rtol=1e-12)

    def test_exogenous_design_is_ols(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 2))
        y = x @ np.array([1.0, -0.5]) + rng.normal(size=200)
        data = IVData(y=y, x=x, z=x)
        ols = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(tsls(data), ols, rtol=1e-10)

    def test_monte_carlo_sanity(self):
        data, theta0 = synthetic(2, n=10000)
        th = tsls(data)
        resid = data.y - data.x @ th
        zr = data.z * resid[:, None]
        gram = data.z.T @ data.x
        meat = zr.T @ zr
        bread = np.linalg.inv(gram.T @ np.linalg.inv(data.z.T @ data.z) @ gram)
        avar = bread @ gram.T @ np.linalg.inv(data.z.T @ data.z) @ meat @ \
            np.linalg.inv(data.z.T @ data.z) @ gram @ bread
        se = np.sqrt(avar[0, 0])
        assert abs(th[0] - theta0) <= 5.0 * se


class TestBuildModel:
    def test_orthogonality_of_moments(self):
        data, _ = synthetic(3)
        m = build_model(data, [1.0], "robust")
        zz = data.z.T @ data.z / data.n
        resid = m.gamma.T @ np.linalg.solve(zz, m.g_init)
        assert np.max(np.abs(resid)) < 1e-8

    def test_variance_estimates_agree_homoskedastic_dgp(self):
        data, _ = synthetic(4, n=100000)
        rob = build_model(data, [1.0], "robust").sigma
        hom = build_model(data, [1.0], "homoskedastic").sigma
        rel = np.max(np.abs(rob - hom)) / np.max(np.abs(hom))
        assert rel < 0.05

    def test_variance_estimates_differ_heteroskedastic_dgp(self):
        data, _ = synthetic(5, n=100000, hetero=True)
        rob = build_model(data, [1.0], "robust").sigma
        hom = build_model(data, [1.0], "homoskedastic").sigma
        # the (0,0) moment loads on z_1^2 and must be inflated under the
        # designed heteroskedasticity
        assert rob[0, 0] > 1.3 * hom[0, 0]

    def test_rejects_unknown_variance(self):
        data, _ = synthetic(6)
        with pytest.raises(DimensionMismatch):
            build_model(data, [1.0], "clustered")


class TestBuildB:
    def test_orthonormalized_all_suspect_gives_identity(self):
        rng = np.random.default_rng(7)
        n = 500
        raw = rng.normal(size=(n, 3))
        # whiten so z'z/n is exactly the identity
        u, s, vt = np.linalg.svd(raw, full_matrices=False)
        z = u @ vt * np.sqrt(n)
        data = IVData(y=rng.normal(size=n), x=z[:, :1] + 0 * raw[:, :1],
                      z=z, suspect=(0, 1, 2))
        np.testing.assert_allclose(build_b(data), np.eye(3), atol=1e-10)

    def test_single_suspect_column(self):
        data, _ = synthetic(8)
        b = build_b(data)
        expected = data.z.T @ data.z[:, 3] / data.n
        np.testing.assert_allclose(b[:, 0], expected, rtol=1e-12)

    def test_controls_as_instruments(self):
        # appending a control to the instrument list makes the suspect block
        # the control cross-moment
        rng = np.random.default_rng(9)
        n = 400
        zt = rng.normal(size=(n, 2))
        w = rng.normal(size=(n, 1))
        x = zt @ np.array([1.0, 0.6]) + rng.normal(size=n)
        y = x + rng.normal(size=n)
        z = np.column_stack([zt, w])
        data = IVData(y=y, x=x, z=z, suspect=(2,))
        b = build_b(data)
        np.testing.assert_allclose(b, z.T @ w / n, rtol=1e-12)

    def test_scale_vector(self):
        data, _ = synthetic(10)
        b1 = build_b(data)
        b2 = build_b(data, scale=np.array([2.0]))
        np.testing.assert_allclose(b2, 2.0 * b1, rtol=1e-14)

    def test_empty_suspects(self):
        data, _ = synthetic(11)
        bare = IVData(y=data.y, x=data.x, z=data.z)
        with pytest.raises(EmptySuspectSet):
            build_b(bare)


class TestLinearOneStep:
    def test_equals_one_step_many_datasets(self):
        for seed in range(50):
            data, _ = synthetic(100 + seed, n=300)
            m = build_model(data, [1.0], "robust")
            front = frontier(m, MisspecSet(build_b(data), 2, 1.0))
            kn = knot_at(front, select_lambda(front, 1.0, 0.05).lambda_star)
            a = one_step(m, kn.k)
            b = linear_one_step(data, kn.k, [1.0])
            assert a == pytest.approx(b, rel=1e-10)

    def test_invariant_to_initial_estimator(self):
        data, _ = synthetic(12)
        m = build_model(data, [1.0], "robust")
        front = frontier(m, MisspecSet(build_b(data), 2, 1.0))
        kn = knot_at(front, select_lambda(front, 1.0, 0.05).lambda_star)
        th = tsls(data)
        shifted = build_model(data, [1.0], "robust",
                              theta_init=th + np.array([0.3]))
        a = one_step(m, kn.k)
        b = one_step(shifted, kn.k)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_constraint_check(self):
        data, _ = synthetic(13)
        with pytest.raises(ConstraintViolated):
            linear_one_step(data, np.zeros(4), [1.0])

    def test_close_to_truth_at_large_n(self):
        data, theta0 = synthetic(14, n=50000)
        m = build_model(data, [1.0], "robust")
        si = np.linalg.inv(m.sigma)
        k0 = -si @ m.gamma @ np.linalg.solve(m.gamma.T @ si @ m.gamma,
                                             m.h_deriv)
        val = linear_one_step(data, k0)
        assert abs(val - theta0) < 0.05


class TestEndToEndCoverage:
    def test_boundary_dgp_coverage_and_wald_comparison(self):
        # true direct effect on the boundary of the set: the robust CI keeps
        # coverage while the naive Wald CI, whose worst-case-bias ratio
        # exceeds one here, covers strictly less
        import math
        from momentguard.critval import norm_quantile
        from momentguard.robust_ci import ci_from_sensitivity
        from momentguard.sensitivity import worst_case_bias

        rng = np.random.default_rng(4242)
        n, reps, m_bound, theta0 = 1000, 300, 6.0, 0.7
        pi = np.array([1.0, 0.7, 0.5, 0.3])
        z975 = norm_quantile(0.975)
        cover = wald_cover = 0
        ratios = []
        for _ in range(reps):
            z = rng.normal(size=(n, 4))
            u = rng.normal(size=n)
            x = z @ pi + u
            y = (x * theta0 + 0.6 * u + rng.normal(size=n)
                 + z[:, 3] * (m_bound / np.sqrt(n)))
            data = IVData(y=y, x=x, z=z, suspect=(3,))
            model = build_model(data, [1.0], "robust")
            ms = MisspecSet(build_b(data), 2, m_bound)
            front = frontier(model, ms)
            kn = knot_at(front, select_lambda(front, m_bound, 0.05).lambda_star)
            ci = ci_from_sensitivity(model, ms, kn.k, 0.05)
            if abs(ci.estimate - theta0) <= ci.half_length:
                cover += 1
            k0 = front.knots[0].k
            sd0 = math.sqrt(k0 @ model.sigma @ k0 / n)
            ratios.append(worst_case_bias(k0, ms)
                          / math.sqrt(k0 @ model.sigma @ k0))
            if abs(one_step(model, k0) - theta0) <= z975 * sd0:
                wald_cover += 1
        cov = cover / reps
        wald = wald_cover / reps
        se = math.sqrt(cov * (1 - cov) / reps)
        assert cov >= 0.95 - 3.0 * se
        assert np.mean(ratios) >= 1.0  # the directional check is non-vacuous
        assert wald < 0.95
        assert wald < cov


class TestCollinear:
    def test_drops_and_warns(self):
        rng = np.random.default_rng(15)
        n = 200
        z0 = rng.normal(size=(n, 2))
        z = np.column_stack([z0, z0[:, 0] + z0[:, 1]])
        x = z0 @ np.array([1.0, 0.5]) + rng.normal(size=n)
        y = x + rng.normal(size=n)
        data = IVData(y=y, x=x, z=z, suspect=(1,))
        with pytest.warns(UserWarning, match="collinear"):
            cleaned = drop_collinear_instruments(data)
        assert cleaned.z.shape[1] == 2

    def test_full_rank_passthrough(self):
        data, _ = synthetic(16)
        assert drop_collinear_instruments(data) is data


class TestGramCertificate:
    """The Gram certificate never changes which columns the pivoted QR keeps."""

    @staticmethod
    def qr_keeps(z):
        _, r_mat, piv = scipy.linalg.qr(z, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r_mat))
        return np.sort(piv[:int(np.sum(diag > 1e-10 * diag[0]))])

    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
    @pytest.mark.parametrize("eps", [0.0, 1e-14, 1e-9, 1e-6, 1e-3])
    def test_keeps_what_pivoted_qr_keeps(self, monkeypatch, scale, eps):
        rng = np.random.default_rng(17)
        n = 500
        z0 = rng.normal(size=(n, 3))
        z = scale * np.column_stack(
            [z0, z0[:, 0] + z0[:, 1] + eps * rng.normal(size=n)])
        data = IVData(y=rng.normal(size=n), x=z0[:, 0] + rng.normal(size=n),
                      z=z, suspect=(1, 3))
        qr_calls = []

        pivoted_qr = iv._pivoted_qr

        def counted_qr(*args, **kwargs):
            qr_calls.append(1)
            return pivoted_qr(*args, **kwargs)

        monkeypatch.setattr(iv, "_pivoted_qr", counted_qr)
        keep = self.qr_keeps(z)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cleaned = drop_collinear_instruments(data)
        assert (cleaned is data) == (keep.size == 4)
        assert bool(caught) == (keep.size < 4)
        np.testing.assert_array_equal(cleaned.z, z[:, keep])
        if eps <= 1e-9 or scale == 1e160:
            # numerically singular (eps = 1e-9 is kept by the QR but not
            # certifiable) or an overflowing Gram: the QR must decide
            assert qr_calls
        if eps == 1e-3 and scale == 1.0:
            assert not qr_calls


def overflowing_design():
    """``TestGramCertificate``'s design at scale 1e160, eps 1e-3: full rank,
    but ``z'z`` overflows."""
    rng = np.random.default_rng(17)
    n = 500
    z0 = rng.normal(size=(n, 3))
    z = 1e160 * np.column_stack([z0, z0[:, 0] + z0[:, 1] + 1e-3 * rng.normal(size=n)])
    return IVData(y=rng.normal(size=n), x=z0[:, 0] + rng.normal(size=n), z=z,
                  suspect=(1, 3))


class TestOverflow:
    """An overflowing cross-product is a typed error naming ``z``, with no
    RuntimeWarning on the way."""

    @pytest.mark.parametrize("variance", ["robust", "homoskedastic"])
    def test_build_model(self, variance):
        data = overflowing_design()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OutOfRange, match="^z:"):
                build_model(data, [1.0], variance)
            with pytest.raises(OutOfRange, match="^z:"):
                tsls(data)
            with pytest.raises(OutOfRange, match="^z:"):
                build_b(data)


def dense_design(seed, n, d_g=5):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d_g)) * np.linspace(1.0, 3.0, d_g)
    u = rng.normal(size=n)
    x = np.column_stack([z @ np.linspace(1.0, 0.4, d_g) + u, z[:, 0] + rng.normal(size=n)])
    y = x @ np.array([0.7, -0.2]) + 0.8 * u + rng.normal(size=n) * (1.0 + z[:, 1] ** 2)
    return IVData(y=y, x=x, z=z, suspect=(1, 4))


class TestReductionsMatchDense:
    @pytest.mark.parametrize("n", [iv._CHUNK_ROWS - 1, iv._CHUNK_ROWS, iv._CHUNK_ROWS + 1,
                                   3 * iv._CHUNK_ROWS + 17])
    def test_robust_sigma(self, n):
        data = dense_design(n, n)
        theta = tsls(data)
        zr = data.z * (data.y - data.x @ theta)[:, None]
        dense = zr.T @ zr / n
        sigma = build_model(data, [1.0, 0.0], "robust").sigma
        assert np.max(np.abs(sigma - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_homoskedastic_sigma_and_b(self):
        data = dense_design(3, 3000)
        n, z = data.n, data.z
        resid = data.y - data.x @ tsls(data)
        dense = np.mean(resid**2) * (z.T @ z) / n
        sigma = build_model(data, [1.0, 0.0], "homoskedastic").sigma
        assert np.max(np.abs(sigma - dense)) <= 1e-14 * np.max(np.abs(dense))
        dense_b = z.T @ z[:, [1, 4]] / n
        assert np.max(np.abs(build_b(data) - dense_b)) <= 1e-14 * np.max(np.abs(dense_b))

    def test_tsls_is_the_model_theta(self):
        data = dense_design(4, 2000)
        th = tsls(data)
        for j in range(2):
            h = np.eye(2)[j]
            assert build_model(data, h, "robust").h_init == th[j]


class TestSinglePass:
    """No call allocates a temporary anywhere near the size of ``z``."""

    @pytest.mark.parametrize("call", [
        lambda d: drop_collinear_instruments(d),
        lambda d: build_model(d, [1.0], "robust"),
        lambda d: build_b(d),
    ], ids=["drop_collinear_instruments", "build_model", "build_b"])
    def test_peak_allocation(self, call):
        data, _ = synthetic(18, n=50_000, d_g=30)
        call(data)  # warm up lazily loaded code
        tracemalloc.start()
        try:
            call(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * data.z.nbytes
