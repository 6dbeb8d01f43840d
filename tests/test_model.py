import math
import warnings

import numpy as np
import pytest

from momentguard.errors import (
    DimensionMismatch,
    OutOfRange,
    RankDeficiency,
    RankDeficientGamma,
    SingularSigma,
    ZeroH,
)
from momentguard.iv import IVData
from momentguard.model import (
    MisspecSet,
    MomentModel,
    sensitivity_constraint_residual,
    validate_model,
)


def scalar_model(**overrides):
    kwargs = dict(gamma=[[-1.0]], sigma=[[1.0]], h_deriv=[1.0],
                  g_init=[0.0], h_init=0.0, n=50)
    kwargs.update(overrides)
    return MomentModel(**kwargs)


class TestValidateModel:
    def test_valid_scalar(self):
        m = scalar_model()
        assert validate_model(m) is m

    def test_idempotent(self):
        m = scalar_model()
        assert validate_model(validate_model(m)) is m

    def test_singular_sigma(self):
        with pytest.raises(SingularSigma):
            MomentModel(gamma=[[-1.0], [0.5]], sigma=[[1.0, 1.0], [1.0, 1.0]],
                        h_deriv=[1.0], g_init=[0.0, 0.0], h_init=0.0, n=10)

    def test_rank_deficient_gamma(self):
        with pytest.raises(RankDeficientGamma):
            MomentModel(gamma=np.zeros((2, 2)), sigma=np.eye(2),
                        h_deriv=[1.0, 0.0], g_init=[0.0, 0.0], h_init=0.0, n=10)

    def test_zero_h(self):
        with pytest.raises(ZeroH):
            validate_model(scalar_model(h_deriv=[0.0]))

    @pytest.mark.parametrize("n", [10**400, math.inf, math.nan])
    def test_n_beyond_a_double_raises(self, n):
        # math.sqrt(n) and n * S would overflow downstream
        with pytest.raises(OutOfRange, match="n must"):
            scalar_model(n=n)

    @pytest.mark.parametrize("n", [1.5, 400.25, True, False, np.True_])
    def test_fractional_or_boolean_n_raises(self, n):
        with pytest.raises(OutOfRange, match="n must be an integer"):
            scalar_model(n=n)

    @pytest.mark.parametrize("n", [400.0, np.float64(400.0), np.int64(400)])
    def test_integral_n_is_stored_as_int(self, n):
        m = scalar_model(n=n)
        assert m.n == 400 and type(m.n) is int

    def test_dimension_mismatches_name_field(self):
        with pytest.raises(DimensionMismatch, match="g_init"):
            validate_model(scalar_model(g_init=[0.0, 1.0]))
        with pytest.raises(DimensionMismatch, match="h_deriv"):
            validate_model(scalar_model(h_deriv=[1.0, 2.0]))
        with pytest.raises(DimensionMismatch, match="sigma"):
            validate_model(scalar_model(sigma=np.eye(3)))
        with pytest.raises(DimensionMismatch, match="gamma"):
            scalar_model(gamma=np.ones((1, 1, 1)))

    def test_eigenvalue_floor_is_relative(self):
        sigma = np.diag([1.0, 1e-11])
        with pytest.raises(SingularSigma):
            MomentModel(gamma=[[-1.0], [0.5]], sigma=sigma, h_deriv=[1.0],
                        g_init=[0.0, 0.0], h_init=0.0, n=10)
        # same conditioning, larger scale: still rejected
        with pytest.raises(SingularSigma):
            MomentModel(gamma=[[-1.0], [0.5]], sigma=1e8 * sigma,
                        h_deriv=[1.0], g_init=[0.0, 0.0], h_init=0.0, n=10)


MODEL_ARGS = dict(gamma=[[-1.0], [0.5]], sigma=np.eye(2), h_deriv=[1.0],
                  g_init=[0.1, 0.2], h_init=0.3, n=10)
IV_ARGS = dict(y=np.arange(5.0), x=np.linspace(1.0, 2.0, 5)[:, None],
               z=np.column_stack([np.ones(5), np.arange(5.0) ** 2]))


def poisoned(args, field, value):
    """Copy of the constructor arguments with one entry of ``field`` set to value."""
    out = dict(args)
    a = np.array(out[field], dtype=float)
    a.flat[-1] = value
    out[field] = a if a.ndim else float(a)
    return out


class TestValidByConstruction:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make, args, field", [
        *[(MomentModel, MODEL_ARGS, f)
          for f in ("gamma", "sigma", "h_deriv", "g_init", "h_init")],
        (MisspecSet, dict(b_mat=[[0.0], [1.0]], p=2, m=1.0), "b_mat"),
        *[(IVData, IV_ARGS, f) for f in ("y", "x", "z")],
    ])
    def test_non_finite_field_raises(self, make, args, field, value):
        make(**args)
        with pytest.raises(OutOfRange, match=field):
            make(**poisoned(args, field, value))

    @pytest.mark.parametrize("make, args, field", [
        (MomentModel, MODEL_ARGS, "g_init"),
        (MomentModel, MODEL_ARGS, "h_init"),
        (IVData, IV_ARGS, "y"),
    ])
    def test_huge_finite_field_passes(self, make, args, field):
        # the sum of squares overflows here, so the entrywise test decides
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make(**poisoned(args, field, 1e200))

    @pytest.mark.parametrize("field", ["gamma", "sigma", "h_deriv", "g_init"])
    def test_arrays_are_read_only_copies(self, field):
        given = np.array(MODEL_ARGS[field], dtype=float)
        before = given.copy()
        model = MomentModel(**{**MODEL_ARGS, field: given})
        stored = getattr(model, field)
        with pytest.raises(ValueError, match="read-only"):
            stored.flat[0] = 7.0
        np.testing.assert_array_equal(stored, before)
        given.flat[0] = 7.0
        np.testing.assert_array_equal(getattr(model, field), before)


class TestMisspecSet:
    def test_invalid_p(self):
        with pytest.raises(OutOfRange):
            MisspecSet(np.eye(2), 1, 1.0)

    def test_negative_m(self):
        with pytest.raises(OutOfRange):
            MisspecSet(np.eye(2), 2, -0.5)

    def test_rank_deficient_b(self):
        with pytest.raises(RankDeficiency):
            MisspecSet(np.ones((3, 2)), 2, 1.0)

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_wider_than_tall_b(self, p):
        # its min(d_g, d_gamma) singular values are all well away from zero
        b = np.random.default_rng(0).normal(size=(3, 4))
        with pytest.raises(RankDeficiency, match="b_mat"):
            MisspecSet(b, p, 1.0)

    def test_scaled_keeps_shape(self):
        ms = MisspecSet(np.eye(3)[:, :2], np.inf, 1.0)
        ms2 = ms.scaled(4.0)
        assert ms2.m == 4.0 and ms2.p == ms.p
        np.testing.assert_array_equal(ms2.b_mat, ms.b_mat)


class TestConstraintResidual:
    def test_just_identified_inverse(self):
        rng = np.random.default_rng(0)
        gamma = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        h = rng.normal(size=3)
        m = MomentModel(gamma=gamma, sigma=np.eye(3), h_deriv=h,
                        g_init=np.zeros(3), h_init=0.0, n=10)
        k = -np.linalg.solve(gamma.T, h)
        assert sensitivity_constraint_residual(m, k) < 1e-12

    def test_zero_k_gives_h_norm(self):
        m = scalar_model(h_deriv=[2.5])
        assert sensitivity_constraint_residual(m, np.zeros(1)) == 2.5

    def test_efficient_gmm(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        sigma = a @ a.T + 0.5 * np.eye(4)
        gamma = rng.normal(size=(4, 2))
        h = rng.normal(size=2)
        m = MomentModel(gamma=gamma, sigma=sigma, h_deriv=h,
                        g_init=np.zeros(4), h_init=0.0, n=10)
        si = np.linalg.inv(sigma)
        k = -si @ gamma @ np.linalg.solve(gamma.T @ si @ gamma, h)
        assert sensitivity_constraint_residual(m, k) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sensitivity_constraint_residual(scalar_model(), np.zeros(3))
