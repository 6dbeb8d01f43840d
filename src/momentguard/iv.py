"""Linear instrumental-variables front end.

Turns raw ``(y, x, z)`` data with a designated set of suspect instruments into
the reduced-form objects the rest of the package consumes: a 2SLS initial
estimate, the moment Jacobian ``-z'x/n``, a robust or homoskedastic variance
of the moments, and the suspect-column second-moment matrix ``z' z_I / n``
parameterizing direct effects of the suspect instruments on the outcome.

Because the moments are linear in the parameter, the one-step estimate
``k @ (z'y/n)`` does not depend on the initial estimator at all; this module
exposes that form directly so callers can verify the invariance.

Each call makes its own pass over ``z`` and allocates nothing of its size.
:func:`build_model` forms ``z'z`` and ``z'[x y]`` once and sums the robust
variance over row blocks; :func:`build_b` reads the suspect columns out of
``z'z``; :func:`drop_collinear_instruments` runs a pivoted QR only when
``z'z`` cannot certify full rank. Nothing is cached between calls.

The pivoted QR (Businger and Golub 1965) is scipy's: numpy has none, and one
that breaks exact ties between collinear columns differently would keep
different columns. It is the package's only use of scipy, imported when the
certificate first fails, so ``import momentguard`` and every command on
certifiably full-rank data load no scipy. A cross-product that overflows
raises OutOfRange naming the array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import RANK_RTOL
from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    EmptySuspectSet,
    OutOfRange,
    RankDeficiency,
)
from .model import MomentModel, Sensitivity, _check_finite

#: Rows per block of the robust variance sum. A block of ``z`` and its
#: residual-weighted copy (4096 x 30 doubles, about 1 MB each) fit in L2.
_CHUNK_ROWS = 4096

#: The Gram certificate asks for ``sigma_min / sigma_max > 1e-6``: a margin of
#: 1e4 over the QR's ``RANK_RTOL`` test.
_GRAM_RTOL = (1e4 * RANK_RTOL) ** 2


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


def _gram_certifies_full_rank(gram: np.ndarray, n: int) -> bool:
    """Whether the computed ``gram = z'z`` proves that the pivoted QR of
    ``z`` keeps every column.

    Any QR of ``z`` has ``|r_ii| >= sigma_min(z)`` and ``|r_11| <=
    sigma_max(z)``: the diagonal of the triangular factor holds its
    eigenvalues. So ``sigma_min / sigma_max > RANK_RTOL`` passes the QR's
    test on every column (Businger and Golub 1965; Golub and Van Loan,
    Matrix Computations, 5.4). The computed Gram is an n-term dot product per
    entry, off by at most ``n eps |z_i|'|z_j|`` from rounding plus ``n``
    half-subnormals from underflow. The 2-norm of that error is at most
    ``n eps tr(z'z) + d n tiny``, and ``eigvalsh`` adds a backward error of
    order ``d eps ||gram||``. ``err = (n + d) d (eps tr(gram) + tiny)``
    covers both. A Gram that is not finite, or whose smallest eigenvalue does
    not clear ``err`` by ``_GRAM_RTOL`` of the largest, proves nothing. The
    margin of ``_GRAM_RTOL`` over ``RANK_RTOL**2`` leaves room for the QR's
    own rounding, a backward error of order ``n d eps ||z||``.
    """
    if not np.all(np.isfinite(gram)):
        return False
    d = gram.shape[0]
    vals = np.linalg.eigvalsh(gram)
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    with np.errstate(over="ignore"):
        err = (n + d) * d * (eps * np.trace(gram) + tiny)
    return bool(vals[0] - err > _GRAM_RTOL * vals[-1])


def _pivoted_qr(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(R, piv)`` of scipy's column-pivoted QR of ``z``, imported on the
    first call (see the module docstring)."""
    from scipy.linalg import qr

    _, r_mat, piv = qr(z, mode="economic", pivoting=True, check_finite=False)
    return r_mat, piv


def drop_collinear_instruments(data: IVData) -> IVData:
    """Drop linearly dependent instrument columns, warning with their indices.

    A column is dropped when the pivoted QR of ``z`` gives it a diagonal
    entry ``|r_ii| <= RANK_RTOL |r_11|``. The QR reads ``z`` many times and
    copies it twice, so it runs only when ``z'z`` (one pass, no copy) cannot
    certify that the QR would keep every column; see
    :func:`_gram_certifies_full_rank`. The certificate never changes which
    columns are kept: when it fails, or when ``z'z`` overflows, the QR
    decides.
    """
    z = data.z
    with np.errstate(over="ignore", invalid="ignore"):
        gram = z.T @ z
    if _gram_certifies_full_rank(gram, data.n):
        return data
    r_mat, piv = _pivoted_qr(z)
    diag = np.abs(np.diag(r_mat))
    rank = int(np.sum(diag > RANK_RTOL * diag[0]))
    if rank == z.shape[1]:
        return data
    keep = np.sort(piv[:rank])
    dropped = sorted(set(range(z.shape[1])) - set(keep.tolist()))
    warnings.warn(f"dropping collinear instrument columns {dropped}")
    remap = {old: new for new, old in enumerate(keep.tolist())}
    suspect = tuple(remap[i] for i in data.suspect if i in remap)
    return IVData(y=data.y, x=data.x, z=z[:, keep], suspect=suspect)


def _cross_products(data: IVData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(z'z, z'x, z'y)`` from two passes over ``z``: the Gram, then ``x``
    and ``y`` together. Raises OutOfRange, naming the array, when a product
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        zz = data.z.T @ data.z
        zxy = data.z.T @ np.column_stack([data.x, data.y])
    for name, prod in (("z", zz), ("x", zxy[:, :-1]), ("y", zxy[:, -1])):
        if not np.all(np.isfinite(prod)):
            raise OutOfRange(f"{name}: the cross-product z'{name} overflows; "
                             f"rescale the data")
    return zz, zxy[:, :-1], zxy[:, -1]


def _tsls(zz: np.ndarray, zx: np.ndarray, zy: np.ndarray) -> np.ndarray:
    try:
        a = zx.T @ np.linalg.solve(zz, zx)
        b = zx.T @ np.linalg.solve(zz, zy)
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiency(f"2SLS normal equations are singular: {exc}") from exc


def tsls(data: IVData) -> np.ndarray:
    """Two-stage least squares estimate of the structural coefficients."""
    return _tsls(*_cross_products(data))


def _robust_meat(z: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """``sum_i resid_i^2 z_i z_i'``, summed over blocks of ``_CHUNK_ROWS`` rows
    so that the residual-weighted ``z`` is never formed whole."""
    meat = np.zeros((z.shape[1], z.shape[1]))
    for lo in range(0, z.shape[0], _CHUNK_ROWS):
        zr = z[lo:lo + _CHUNK_ROWS] * resid[lo:lo + _CHUNK_ROWS, None]
        meat += zr.T @ zr
    return meat


def build_model(data: IVData, h_deriv, variance: str = "robust",
                theta_init: np.ndarray | None = None) -> MomentModel:
    """Reduced-form moment model from IV data.

    ``variance`` selects the moment-variance estimate: "robust" uses the
    heteroskedasticity-robust outer product of residual-weighted instruments,
    "homoskedastic" scales the instrument second moments by the mean squared
    residual. ``theta_init`` defaults to the 2SLS estimate.

    ``z'z``, ``z'x`` and ``z'y`` are formed once and shared by the 2SLS
    estimate, the Jacobian ``-z'x/n`` and the homoskedastic variance. The
    robust variance is summed over row blocks, so no temporary the size of
    ``z`` is allocated.
    """
    if variance not in ("robust", "homoskedastic"):
        raise DimensionMismatch(
            f"variance must be 'robust' or 'homoskedastic', got {variance!r}")
    h = np.asarray(h_deriv, dtype=float).reshape(-1)
    if h.shape[0] != data.x.shape[1]:
        raise DimensionMismatch(
            f"h_deriv must have length d_theta={data.x.shape[1]}")
    zz, zx, zy = _cross_products(data)
    theta = _tsls(zz, zx, zy) if theta_init is None else (
        np.asarray(theta_init, dtype=float).reshape(-1))
    n = data.n
    # an overflow below leaves a non-finite entry that MomentModel names
    with np.errstate(over="ignore", invalid="ignore"):
        resid = data.y - data.x @ theta
        # one more pass rather than z'y - z'x theta, which cancels
        g_init = data.z.T @ resid / n
        gamma = -zx / n
        if variance == "robust":
            sigma = _robust_meat(data.z, resid) / n
        else:
            sigma = float(np.mean(resid**2)) * zz / n
    return MomentModel(gamma=gamma, sigma=sigma, h_deriv=h,
                       g_init=g_init, h_init=float(h @ theta), n=n)


def build_b(data: IVData, scale: np.ndarray | None = None) -> np.ndarray:
    """Sample second-moment matrix ``z' z_I / n`` of the suspect instruments.

    The columns are read out of ``z'z``, so ``z_I`` is never copied out of
    ``z``. They follow the suspect indices in ascending order; ``scale``
    optionally multiplies each column (per-unit standardization of the
    corresponding direct effect).
    """
    if not data.suspect:
        raise EmptySuspectSet("no suspect instrument indices supplied")
    with np.errstate(over="ignore", invalid="ignore"):
        b = (data.z.T @ data.z)[:, list(data.suspect)] / data.n
    if not np.all(np.isfinite(b)):
        raise OutOfRange("z: the cross-product z'z overflows; rescale the data")
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
