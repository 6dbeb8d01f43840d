"""Linear instrumental-variables front end.

Turns raw ``(y, x, z)`` data with a designated set of suspect instruments into
the reduced-form objects the rest of the package consumes: a 2SLS initial
estimate, the moment Jacobian ``-z'x/n``, a robust or homoskedastic variance
of the moments, and the suspect-column second-moment matrix ``z' z_I / n``
parameterizing direct effects of the suspect instruments on the outcome.

Because the moments are linear in the parameter, the one-step estimate
``k @ (z'y/n)`` does not depend on the initial estimator at all; this module
exposes that form directly so callers can verify the invariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr

from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    EmptySuspectSet,
    RankDeficiency,
)
from .model import MomentModel, Sensitivity, _check_finite


@dataclass(frozen=True)
class IVData:
    """Raw inputs: outcome ``y`` (n,), regressors ``x`` (n, d_theta),
    instruments ``z`` (n, d_g), and 0-based suspect instrument indices.
    Non-finite data or inconsistent shapes raise at construction."""

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    suspect: tuple[int, ...] = ()

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if z.ndim == 1:
            z = z[:, None]
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "suspect", tuple(sorted(int(i) for i in self.suspect)))
        n = y.shape[0]
        if x.shape[0] != n or z.shape[0] != n:
            raise DimensionMismatch("y, x and z must have the same number of rows")
        if not (n > z.shape[1] >= x.shape[1]):
            raise DimensionMismatch(
                f"need n > d_g >= d_theta, got n={n}, d_g={z.shape[1]}, "
                f"d_theta={x.shape[1]}")
        if any(i < 0 or i >= z.shape[1] for i in self.suspect):
            raise DimensionMismatch("suspect indices out of range")
        for name, a in (("y", y), ("x", x), ("z", z)):
            _check_finite(a, name)

    @property
    def n(self) -> int:
        return self.y.shape[0]


def drop_collinear_instruments(data: IVData) -> IVData:
    """Drop linearly dependent instrument columns, warning with their indices."""
    z = data.z
    _, r_mat, piv = qr(z, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(r_mat))
    rank = int(np.sum(diag > 1e-10 * diag[0]))
    if rank == z.shape[1]:
        return data
    keep = np.sort(piv[:rank])
    dropped = sorted(set(range(z.shape[1])) - set(keep.tolist()))
    warnings.warn(f"dropping collinear instrument columns {dropped}")
    remap = {old: new for new, old in enumerate(keep.tolist())}
    suspect = tuple(remap[i] for i in data.suspect if i in remap)
    return IVData(y=data.y, x=data.x, z=z[:, keep], suspect=suspect)


def tsls(data: IVData) -> np.ndarray:
    """Two-stage least squares estimate of the structural coefficients."""
    zx = data.z.T @ data.x
    zz = data.z.T @ data.z
    zy = data.z.T @ data.y
    try:
        a = zx.T @ np.linalg.solve(zz, zx)
        b = zx.T @ np.linalg.solve(zz, zy)
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiency(f"2SLS normal equations are singular: {exc}") from exc


def build_model(data: IVData, h_deriv, variance: str = "robust",
                theta_init: np.ndarray | None = None) -> MomentModel:
    """Reduced-form moment model from IV data.

    ``variance`` selects the moment-variance estimate: "robust" uses the
    heteroskedasticity-robust outer product of residual-weighted instruments,
    "homoskedastic" scales the instrument second moments by the mean squared
    residual. ``theta_init`` defaults to the 2SLS estimate.
    """
    if variance not in ("robust", "homoskedastic"):
        raise DimensionMismatch(
            f"variance must be 'robust' or 'homoskedastic', got {variance!r}")
    h = np.asarray(h_deriv, dtype=float).reshape(-1)
    if h.shape[0] != data.x.shape[1]:
        raise DimensionMismatch(
            f"h_deriv must have length d_theta={data.x.shape[1]}")
    theta = tsls(data) if theta_init is None else (
        np.asarray(theta_init, dtype=float).reshape(-1))
    n = data.n
    resid = data.y - data.x @ theta
    g_init = data.z.T @ resid / n
    gamma = -(data.z.T @ data.x) / n
    if variance == "robust":
        zr = data.z * resid[:, None]
        sigma = zr.T @ zr / n
    else:
        sigma = float(np.mean(resid**2)) * (data.z.T @ data.z) / n
    return MomentModel(gamma=gamma, sigma=sigma, h_deriv=h,
                       g_init=g_init, h_init=float(h @ theta), n=n)


def build_b(data: IVData, scale: np.ndarray | None = None) -> np.ndarray:
    """Sample second-moment matrix ``z' z_I / n`` of the suspect instruments.

    Columns follow the suspect indices in ascending order; ``scale``
    optionally multiplies each column (per-unit standardization of the
    corresponding direct effect).
    """
    if not data.suspect:
        raise EmptySuspectSet("no suspect instrument indices supplied")
    b = data.z.T @ data.z[:, list(data.suspect)] / data.n
    if scale is not None:
        scale = np.asarray(scale, dtype=float).reshape(-1)
        if scale.shape[0] != b.shape[1]:
            raise DimensionMismatch(
                f"scale must have one entry per suspect column ({b.shape[1]})")
        b = b * scale[None, :]
    return b


def linear_one_step(data: IVData, k: Sensitivity,
                    h_deriv=None) -> float:
    """One-step estimate ``k @ (z'y/n)``, free of the initial estimator.

    When ``h_deriv`` is supplied, verifies that ``k`` satisfies the
    regularity constraint against this data's Jacobian.
    """
    k = np.asarray(k, dtype=float).reshape(-1)
    if k.shape[0] != data.z.shape[1]:
        raise DimensionMismatch(
            f"k must have length d_g={data.z.shape[1]}, got {k.shape[0]}")
    if h_deriv is not None:
        h = np.asarray(h_deriv, dtype=float).reshape(-1)
        gamma = -(data.z.T @ data.x) / data.n
        resid = np.max(np.abs(h + k @ gamma))
        if resid > 1e-6 * max(1.0, float(np.max(np.abs(h)))):
            raise ConstraintViolated(
                f"k does not satisfy the constraint for this data "
                f"(residual {resid:.3e})")
    return float(k @ (data.z.T @ data.y) / data.n)
