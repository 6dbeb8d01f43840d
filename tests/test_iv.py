import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

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
from oracles import cross_matrix_loop, resid_sums_loop

SRC = Path(__file__).resolve().parents[1] / "src"


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


def holds_callers_arrays(cleaned, data):
    """Whether ``cleaned`` is ``data`` passed through: the caller's own
    ``y``, ``x`` and ``z`` arrays and the same suspect set."""
    return (cleaned.y is data.y and cleaned.x is data.x and cleaned.z is data.z
            and cleaned.suspect == data.suspect)


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

    def test_rejects_theta_init_of_wrong_length(self):
        # was numpy's bare "matmul: ... mismatch in its core dimension"
        data, _ = synthetic(6)
        with pytest.raises(DimensionMismatch, match="^theta_init"):
            build_model(data, [1.0], theta_init=[1.0, 2.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_theta_init(self, value):
        # was OutOfRange("sigma must be finite"), naming the wrong input
        data, _ = synthetic(6)
        with pytest.raises(OutOfRange, match="^theta_init"):
            build_model(data, [1.0], theta_init=[value])


class TestIVData:
    @pytest.mark.parametrize("suspect, message", [
        ((1.5,), "integers"), ((True,), "integers"), ((np.True_,), "integers"),
        ((1, 1), "distinct"), ((3, np.int64(3)), "distinct"),
    ], ids=["fraction", "bool", "numpy_bool", "repeat", "numpy_repeat"])
    def test_rejects_suspect(self, suspect, message):
        # a fraction or a boolean was truncated to an index; a repeat failed
        # later as a b_mat without full column rank
        data, _ = synthetic(20)
        with pytest.raises(DimensionMismatch, match=f"^suspect indices must be {message}"):
            IVData(y=data.y, x=data.x, z=data.z, suspect=suspect)

    def test_keeps_numpy_integers(self):
        data, _ = synthetic(20)
        kept = IVData(y=data.y, x=data.x, z=data.z, suspect=(np.int64(3), np.int32(0)))
        assert kept.suspect == (0, 3)
        assert all(type(i) is int for i in kept.suspect)


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

    def test_full_rank_passthrough(self, monkeypatch):
        data, _ = synthetic(16)
        checked = []
        monkeypatch.setattr(iv, "_check_finite", lambda a, name: checked.append(name))
        assert holds_callers_arrays(drop_collinear_instruments(data), data)
        assert not checked  # the copy does not run the finiteness pass again


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
        assert holds_callers_arrays(cleaned, data) == (keep.size == 4)
        assert bool(caught) == (keep.size < 4)
        np.testing.assert_array_equal(cleaned.z, z[:, keep])
        if eps <= 1e-9 or scale == 1e160:
            # numerically singular (eps = 1e-9 is kept by the QR but not
            # certifiable) or an overflowing Gram: the QR must decide
            assert qr_calls
        if eps == 1e-3 and scale == 1.0:
            assert not qr_calls


def overflowing_design(n=500, d_g=4):
    """``TestGramCertificate``'s design at scale 1e160, eps 1e-3 (with more
    columns when ``d_g > 4``): full rank, but ``z'z`` overflows."""
    rng = np.random.default_rng(17)
    z0 = rng.normal(size=(n, d_g - 1))
    z = 1e160 * np.column_stack([z0, z0[:, 0] + z0[:, 1] + 1e-3 * rng.normal(size=n)])
    return IVData(y=rng.normal(size=n), x=z0[:, 0] + rng.normal(size=n), z=z,
                  suspect=(1, d_g - 1))


class TestOverflow:
    """An overflowing cross-product is a typed error naming ``z``, with no
    RuntimeWarning on the way, also from the worker threads of a parallel
    pass (those tests patch in 2 CPUs, so the pool runs on any machine)."""

    @staticmethod
    def raises_naming_z(data, variance):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OutOfRange, match="^z:"):
                build_model(data, [1.0], variance)
            with pytest.raises(OutOfRange, match="^z:"):
                tsls(data)
            with pytest.raises(OutOfRange, match="^z:"):
                build_b(data)

    @pytest.mark.parametrize("variance", ["robust", "homoskedastic"])
    def test_build_model(self, variance):
        self.raises_naming_z(overflowing_design(), variance)

    @pytest.mark.parametrize("variance", ["robust", "homoskedastic"])
    def test_build_model_parallel(self, monkeypatch, variance):
        monkeypatch.setattr(iv, "_usable_cpus", lambda: 2)
        self.raises_naming_z(overflowing_design(40_000, 30), variance)

    def test_resid_pass(self, monkeypatch):
        # a finite theta_init whose residuals overflow the robust variance
        monkeypatch.setattr(iv, "_usable_cpus", lambda: 2)
        data, _ = synthetic(21, n=40_000, d_g=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OutOfRange, match="^sigma"):
                build_model(data, [1.0], "robust", theta_init=[1e300])


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


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestCarriedCross:
    """The data ``drop_collinear_instruments`` returns carries ``[z'z z'x
    z'y]``; every call that reads it matches the same call on data carrying
    none, and the caller's data is never written to."""

    @pytest.mark.parametrize("n", [iv._CHUNK_ROWS - 1, iv._CHUNK_ROWS + 1,
                                   3 * iv._CHUNK_ROWS + 17])
    @pytest.mark.parametrize("variance", ["robust", "homoskedastic"])
    @pytest.mark.parametrize("collinear", [False, True], ids=["full_rank", "dropped"])
    def test_matches_uncarried(self, n, variance, collinear):
        data = dense_design(n, n)
        if collinear:
            # a combination of the two non-suspect columns 0 and 2
            z = np.column_stack([data.z, data.z[:, 0] - 2.0 * data.z[:, 2]])
            data = IVData(y=data.y, x=data.x, z=z, suspect=data.suspect)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cleaned = drop_collinear_instruments(data)
        assert bool(caught) == collinear
        assert cleaned.z.shape[1] == 5
        assert data._cross is None
        assert cleaned._cross is not None and not cleaned._cross.flags.writeable
        # the raw data, or for a dropped column the kept columns built afresh
        bare = IVData(y=cleaned.y, x=cleaned.x, z=cleaned.z,
                      suspect=cleaned.suspect) if collinear else data
        assert bare._cross is None

        h = [1.0, 0.0]
        carried, fresh = build_model(cleaned, h, variance), build_model(bare, h, variance)
        for name in ("gamma", "sigma", "h_init"):
            assert rel_err(getattr(carried, name), getattr(fresh, name)) <= 1e-14, name
        theta = tsls(bare)
        assert rel_err(tsls(cleaned), theta) <= 1e-14
        # g_init = z'(y - x theta)/n cancels, so its rounding is relative to
        # the terms it is the difference of (a sliced W and one formed from
        # the kept columns alone differ in the last bits)
        terms = np.abs(bare.z).T @ (np.abs(bare.y) + np.abs(bare.x) @ np.abs(theta)) / n
        assert np.max(np.abs(carried.g_init - fresh.g_init)) <= 1e-14 * np.max(terms)
        assert rel_err(build_b(cleaned), build_b(bare)) <= 1e-14
        si_g = np.linalg.solve(fresh.sigma, fresh.gamma)
        k = -si_g @ np.linalg.solve(fresh.gamma.T @ si_g, fresh.h_deriv)
        assert rel_err(linear_one_step(cleaned, k, h), linear_one_step(bare, k, h)) <= 1e-14
        assert data._cross is None


def wide_design(seed, n, d_g, collinear=False):
    """One regressor, ``d_g`` instruments and heteroskedastic errors. With
    ``collinear``, one more column, an exact combination of the non-suspect
    columns 0 and 2, so the QR drops one of the three."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d_g)) * np.linspace(1.0, 3.0, d_g)
    if collinear:
        z = np.column_stack([z, z[:, 0] - 2.0 * z[:, 2]])
    u = rng.normal(size=n)
    x = z[:, :d_g] @ np.linspace(1.0, 0.4, d_g) + u
    y = 0.7 * x + 0.8 * u + rng.normal(size=n) * (1.0 + z[:, 1] ** 2)
    return IVData(y=y, x=x, z=z, suspect=(1, d_g - 1))


def loop_model(data, w, variance):
    """``build_model``'s outputs, with ``W`` and the robust variance from the
    sequential loops of ``oracles``."""
    n, d = data.n, data.z.shape[1]
    zz, zx, zy = w[:, :d], w[:, d:-1], w[:, -1]
    theta = iv._tsls(zz, zx, zy)
    resid = data.y - data.x @ theta
    if variance == "robust":
        z_resid, meat = resid_sums_loop(data.z, resid, iv._CHUNK_ROWS)
        sigma = meat / n
    else:
        z_resid = data.z.T @ resid
        sigma = float(np.mean(resid**2)) * zz / n
    return {"gamma": -zx / n, "sigma": sigma, "g_init": z_resid / n,
            "h_init": float(theta[0])}


#: (n, d_g) with the work n d_g^2 just below, at and just above
#: ``_PARALLEL_WORK``, and a 200k x 30 pass of 49 blocks
PASS_SHAPES = [(7999, 25), (8000, 25), (8001, 25), (200_000, 30)]


class TestParallelPasses:
    """The threaded passes sum the same block partials in the same order as
    the sequential loops, so their outputs are bitwise equal to the loops'
    whatever the CPU count."""

    def test_shapes_straddle_the_threshold(self):
        works = [n * d * d for n, d in PASS_SHAPES[:3]]
        assert works[0] < iv._PARALLEL_WORK == works[1] < works[2]
        assert all(d in iv._PARALLEL_COLUMNS for _, d in PASS_SHAPES)

    @pytest.mark.parametrize("d_g", [22, 33])
    def test_columns_outside_the_range_stay_inline(self, monkeypatch, d_g):
        # below the range a block's Gram holds the GIL; above it OpenBLAS
        # threads the Gram itself
        monkeypatch.setattr(iv, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(iv, "_executor", lambda threads: pytest.fail("pooled"))
        data = wide_design(23, 50_000, d_g)
        assert d_g not in iv._PARALLEL_COLUMNS
        assert data.n * d_g**2 > iv._PARALLEL_WORK
        np.testing.assert_array_equal(
            iv._cross_matrix(data),
            cross_matrix_loop(data.z, data.x, data.y, iv._CHUNK_ROWS))

    @pytest.mark.parametrize("n, d_g", PASS_SHAPES,
                             ids=["below", "at", "above", "49_blocks"])
    @pytest.mark.parametrize("source", ["constructor", "drop_full_rank", "drop_dropped"])
    def test_bitwise_equal_to_loops(self, monkeypatch, n, d_g, source):
        raw = wide_design(n, n, d_g, collinear=source == "drop_dropped")
        w_raw = cross_matrix_loop(raw.z, raw.x, raw.y, iv._CHUNK_ROWS)
        pooled = []
        executor = iv._executor

        def counted(threads):
            pooled.append(threads)
            return executor(threads)

        monkeypatch.setattr(iv, "_executor", counted)
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(iv, "_usable_cpus", lambda: cpus)
            pooled.clear()
            if source == "constructor":
                data, w = raw, iv._cross_matrix(raw)
                w_loop = w_raw
            else:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    data = drop_collinear_instruments(raw)
                assert bool(caught) == (source == "drop_dropped")
                w = data._cross
                # the kept columns, found by their first entries
                keep = [int(np.flatnonzero(raw.z[0] == v)[0]) for v in data.z[0]]
                np.testing.assert_array_equal(data.z, raw.z[:, keep])
                w_loop = w_raw[np.ix_(keep, np.r_[keep, raw.z.shape[1]:w_raw.shape[1]])]
            assert data.z.shape[1] == d_g
            np.testing.assert_array_equal(w, w_loop)
            for variance in ("robust", "homoskedastic"):
                model = build_model(data, [1.0], variance)
                for name, want in loop_model(data, w_loop, variance).items():
                    np.testing.assert_array_equal(getattr(model, name), want,
                                                  err_msg=f"{name} {variance} {cpus}")
            if source == "constructor":
                # four passes: W above, W again in each build_model call on
                # data that carries none, and the robust variance
                parallel = cpus > 1 and n * d_g**2 > iv._PARALLEL_WORK
                assert pooled == ([cpus - 1] * 4 if parallel else [])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_pass_in_forked_child(self):
        # the child inherits the parent's pool but not its threads
        script = r"""
import os, signal, sys
import numpy as np
from momentguard import iv

iv._usable_cpus = lambda: 2
rng = np.random.default_rng(0)
n, d = 3 * iv._CHUNK_ROWS, 30
z = rng.normal(size=(n, d))
data = iv.IVData(y=rng.normal(size=n), x=z[:, 0] + rng.normal(size=n), z=z)
w = iv._cross_matrix(data)
assert iv._pool is not None
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a hung child ends itself rather than outlive the test
    os._exit(0 if np.array_equal(iv._cross_matrix(data), w) else 1)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_no_thread_leak(self, monkeypatch):
        cpus = 3
        monkeypatch.setattr(iv, "_usable_cpus", lambda: cpus)
        data, _ = synthetic(22, n=3 * iv._CHUNK_ROWS, d_g=30)
        before = threading.active_count()
        for _ in range(20):
            build_model(data, [1.0], "robust")
        assert threading.active_count() - before <= cpus - 1

    def test_caller_does_not_wait_for_a_busy_pool(self, monkeypatch):
        # the pool's one worker is held, so the caller computes every block
        # and cancels its task, which never started
        from concurrent.futures import ThreadPoolExecutor

        data, _ = synthetic(25, n=3 * iv._CHUNK_ROWS, d_g=30)
        release = threading.Event()
        with ThreadPoolExecutor(1) as pool:
            pool.submit(release.wait, 20)
            monkeypatch.setattr(iv, "_executor", lambda threads: pool)
            monkeypatch.setattr(iv, "_usable_cpus", lambda: 2)
            t0 = time.monotonic()
            try:
                w = iv._cross_matrix(data)
            finally:
                waited = time.monotonic() - t0
                release.set()
        assert waited < 10
        np.testing.assert_array_equal(
            w, cross_matrix_loop(data.z, data.x, data.y, iv._CHUNK_ROWS))

    @pytest.mark.parametrize("raiser", ["caller", "worker"])
    def test_error_in_a_block_outlives_no_block(self, monkeypatch, raiser):
        # the error propagates once no thread is in a block, and a worker
        # claims no block after the caller's error
        monkeypatch.setattr(iv, "_usable_cpus", lambda: 2)
        n, d = 49 * iv._CHUNK_ROWS, 30
        caller = threading.get_ident()
        worker_in = threading.Event()
        lock = threading.Lock()
        running, worker_blocks = [0], [0]

        def block(lo):
            with lock:
                running[0] += 1
            try:
                if threading.get_ident() == caller:
                    worker_in.wait(30)
                    if raiser == "caller":
                        raise ArithmeticError(f"block at {lo}")
                else:
                    worker_blocks[0] += 1
                    worker_in.set()
                    if raiser == "worker":
                        raise ArithmeticError(f"block at {lo}")
                    time.sleep(0.2)
                return (np.ones(1),)
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(ArithmeticError, match="block at"):
            iv._sum_blocks(block, n, d, (np.zeros(1),))
        assert running[0] == 0
        assert worker_blocks[0] == 1

    def test_concurrent_callers(self, monkeypatch):
        # callers that see different CPU counts share their blocks with
        # different numbers of tasks on the one shared pool
        local = threading.local()
        monkeypatch.setattr(iv, "_usable_cpus", lambda: getattr(local, "cpus", 2))
        data, _ = synthetic(24, n=3 * iv._CHUNK_ROWS, d_g=30)
        want = build_model(data, [1.0], "robust")
        results, errors = [], []

        def caller(cpus):
            local.cpus = cpus
            try:
                for _ in range(10):
                    results.append(build_model(data, [1.0], "robust"))
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(cpus,))
                       for cpus in (2, 3, 4, 2, 3, 4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(results) == 60
        for model in results:
            np.testing.assert_array_equal(model.sigma, want.sigma)
            np.testing.assert_array_equal(model.g_init, want.g_init)
