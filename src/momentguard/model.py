"""Core value types: the reduced-form moment model and the misspecification set.

A :class:`MomentModel` carries the five estimated objects every downstream
solver consumes — the moment Jacobian, the moment variance, the derivative of
the target functional, and the sample moments/functional value at the initial
estimate — plus the sample size. A :class:`MisspecSet` describes the admissible
moment-condition violations ``{B @ gamma : ||gamma||_p <= m}`` with p in
{2, inf}.

Sensitivities (the influence weights `k` mapping moment perturbations to the
estimator's first-order behavior) are plain 1-d numpy arrays throughout the
package; :data:`Sensitivity` is an alias used in signatures. Any sensitivity
produced by a path solver satisfies ``h_deriv == -k @ gamma`` up to tolerance,
which :func:`sensitivity_constraint_residual` measures.

Both types are valid by construction: each constructor checks every invariant
once and raises a ``ValidationError`` naming the field, and a model's arrays
are read-only copies, so solvers take their inputs as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import RANK_RTOL, as_matrix, as_vector
from .errors import (
    DimensionMismatch,
    OutOfRange,
    RankDeficiency,
    RankDeficientGamma,
    SingularSigma,
    ZeroH,
)

#: Influence weights; a 1-d float array of length d_g.
Sensitivity = np.ndarray

#: Eigenvalue floor for the moment variance, relative to its largest eigenvalue.
SIGMA_EIG_FLOOR = 1e-10


@dataclass(frozen=True)
class MomentModel:
    """Reduced-form inputs of a locally misspecified moment-condition model.

    Invalid inputs raise at construction (:func:`validate_model`). The arrays
    are stored as read-only copies; the caller's arrays stay untouched.

    Attributes
    ----------
    gamma : (d_g, d_theta) array
        Jacobian of the moment map at the initial estimate.
    sigma : (d_g, d_g) array
        Asymptotic variance of ``sqrt(n)`` times the sample moments.
    h_deriv : (d_theta,) array
        Derivative of the scalar target functional.
    g_init : (d_g,) array
        Sample moments evaluated at the initial estimate.
    h_init : float
        Target functional evaluated at the initial estimate.
    n : int
        Sample size. An integral float is stored as an int; a fraction or a
        boolean raises OutOfRange.
    """

    gamma: np.ndarray
    sigma: np.ndarray
    h_deriv: np.ndarray
    g_init: np.ndarray
    h_init: float
    n: int

    def __post_init__(self):
        for name, convert in (("gamma", as_matrix), ("sigma", as_matrix),
                              ("h_deriv", as_vector), ("g_init", as_vector)):
            a = np.array(convert(getattr(self, name), name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "h_init", float(self.h_init))
        try:
            n = int(self.n)
            float(n)  # sqrt(n) and n * S need n as a double
        except (OverflowError, ValueError):
            raise OutOfRange(
                "n must be a finite integer that fits in a double") from None
        if isinstance(self.n, (bool, np.bool_)) or n != self.n:
            raise OutOfRange(f"n must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", n)
        validate_model(self)

    @property
    def d_g(self) -> int:
        return self.gamma.shape[0]

    @property
    def d_theta(self) -> int:
        return self.gamma.shape[1]


@dataclass(frozen=True)
class MisspecSet:
    """Misspecification set ``{b_mat @ gamma : ||gamma||_p <= m}``.

    ``p`` must be 2 or infinity; ``b_mat`` must be finite with full column
    rank and ``m`` must be nonnegative. Violations raise at construction.
    """

    b_mat: np.ndarray
    p: float
    m: float

    def __post_init__(self):
        b = as_matrix(self.b_mat, "b_mat")
        object.__setattr__(self, "b_mat", b)
        p = float(self.p)
        if p not in (2.0, math.inf):
            raise OutOfRange(f"p must be 2 or inf, got {self.p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", _check_m(self.m))
        if b.shape[1] < 1:
            raise DimensionMismatch("b_mat must have at least one column")
        _check_finite(b, "b_mat")
        if b.shape[1] > b.shape[0]:
            raise RankDeficiency(
                f"b_mat has {b.shape[1]} columns but only {b.shape[0]} rows, "
                "so it does not have full column rank")
        s = np.linalg.svd(b, compute_uv=False)
        if s[-1] <= RANK_RTOL * s[0]:
            raise RankDeficiency("b_mat does not have full column rank")

    @property
    def d_gamma(self) -> int:
        return self.b_mat.shape[1]

    def scaled(self, m: float) -> "MisspecSet":
        """Same shape (b_mat, p) with a different magnitude."""
        return MisspecSet(self.b_mat, self.p, m)


def _check_m(m) -> float:
    """A magnitude as a float; raises OutOfRange unless it is nonnegative and
    finite."""
    value = float(m)
    if not (value >= 0.0) or not math.isfinite(value):
        raise OutOfRange(f"m must be a nonnegative finite scalar, got {m}")
    return value


def _check_finite(a, name: str) -> None:
    # any NaN or Inf makes the sum of squares non-finite; the BLAS dot reads
    # the data twice as fast as isfinite, which runs only if that sum is not
    flat = np.ravel(a)
    with np.errstate(over="ignore", invalid="ignore"):
        sum_sq = flat @ flat
    if not math.isfinite(sum_sq) and not np.all(np.isfinite(flat)):
        raise OutOfRange(f"{name} must be finite")


def validate_model(model: MomentModel) -> MomentModel:
    """Check all model invariants and return the model unchanged.

    Raises
    ------
    DimensionMismatch
        If the array shapes are inconsistent; the message names the field.
    OutOfRange
        If an array or ``h_init`` is not finite; the message names the field.
    SingularSigma
        If sigma is asymmetric or its smallest eigenvalue falls below
        ``SIGMA_EIG_FLOOR`` times its largest.
    RankDeficientGamma
        If gamma lacks full column rank (relative tolerance 1e-10).
    ZeroH
        If h_deriv is identically zero.
    """
    d_g, d_theta = model.gamma.shape
    if d_theta < 1 or d_g < d_theta:
        raise DimensionMismatch(
            f"gamma must be d_g x d_theta with d_g >= d_theta >= 1, got {model.gamma.shape}")
    if model.sigma.shape != (d_g, d_g):
        raise DimensionMismatch(
            f"sigma must be {d_g} x {d_g}, got {model.sigma.shape}")
    if model.h_deriv.shape != (d_theta,):
        raise DimensionMismatch(
            f"h_deriv must have length d_theta={d_theta}, got {model.h_deriv.shape}")
    if model.g_init.shape != (d_g,):
        raise DimensionMismatch(
            f"g_init must have length d_g={d_g}, got {model.g_init.shape}")
    if model.n < 1:
        raise DimensionMismatch(f"n must be a positive integer, got {model.n}")
    for name in ("gamma", "sigma", "h_deriv", "g_init", "h_init"):
        _check_finite(getattr(model, name), name)

    asym = np.max(np.abs(model.sigma - model.sigma.T))
    if asym > 1e-8 * max(1.0, np.max(np.abs(model.sigma))):
        raise SingularSigma("sigma is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (model.sigma + model.sigma.T))
    if eigs[0] <= SIGMA_EIG_FLOOR * max(eigs[-1], 0.0) or eigs[-1] <= 0.0:
        raise SingularSigma(
            f"sigma smallest eigenvalue {eigs[0]:.3e} below floor "
            f"{SIGMA_EIG_FLOOR:.0e} * {eigs[-1]:.3e}")

    s = np.linalg.svd(model.gamma, compute_uv=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankDeficientGamma("gamma does not have full column rank")

    if np.all(model.h_deriv == 0.0):
        raise ZeroH("h_deriv is identically zero")
    return model


def sensitivity_constraint_residual(model: MomentModel, k: Sensitivity) -> float:
    """Max-norm residual of the regularity constraint ``h_deriv = -k @ gamma``.

    Zero exactly when the linear estimator with weights ``k`` has no local
    asymptotic bias from the parameter direction.
    """
    k = as_vector(k, "k")
    if k.shape[0] != model.d_g:
        raise DimensionMismatch(
            f"k must have length d_g={model.d_g}, got {k.shape[0]}")
    return float(np.max(np.abs(model.h_deriv + k @ model.gamma)))
