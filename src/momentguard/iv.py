"""Linear instrumental-variables front end.

Turns raw ``(y, x, z)`` data with a designated set of suspect instruments into
the reduced-form objects the rest of the package consumes: a 2SLS initial
estimate, the moment Jacobian ``-z'x/n``, a robust or homoskedastic variance
of the moments, and the suspect-column second-moment matrix ``z' z_I / n``
parameterizing direct effects of the suspect instruments on the outcome.

Because the moments are linear in the parameter, the one-step estimate
``k @ (z'y/n)`` does not depend on the initial estimator at all; this module
exposes that form directly so callers can verify the invariance.

A large ``z`` is read twice per problem. :func:`drop_collinear_instruments`
forms the cross-products ``W = [z'z z'x z'y]`` in one pass over row blocks,
certifies full rank from its ``z'z`` block, and returns data that carries
``W`` (sliced to the kept columns when the QR drops some). :func:`build_model`,
:func:`tsls`, :func:`build_b` and :func:`linear_one_step` read the ``W`` their
data carries, or form it with the same pass when it carries none, as data
built by the ``IVData`` constructor does. :func:`build_model` then makes one
more blocked pass, summing ``z'resid`` and the robust variance together. No
call allocates a temporary the size of ``z``. The caller's ``IVData`` is
never written to, so nothing is cached between calls: to share ``W``, pass the
data that :func:`drop_collinear_instruments` returns on to the other calls.

Both passes run their row blocks on every usable CPU (the process's CPU
affinity, so ``taskset`` limits them) once a pass has enough rows and columns
to pay for it, on a thread pool made at the first such pass. Each block's partial sums
are still added to the totals in block order, so every result is bitwise the
same whatever the number of threads.

The pivoted QR (Businger and Golub 1965) is scipy's: numpy has none, and one
that breaks exact ties between collinear columns differently would keep
different columns. It is the package's only use of scipy, imported when the
certificate first fails, so ``import momentguard`` and every command on
certifiably full-rank data load no scipy. A cross-product that overflows
raises OutOfRange naming the array.
"""

from __future__ import annotations

import copy
import os
import threading
import warnings
from dataclasses import dataclass, field

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

#: Rows per block of the passes over ``z``. A block of ``z`` and its
#: residual-weighted copy (4096 x 30 doubles, about 1 MB each) fit in L2.
#: The blocks also fix the summation order: partial sums are added block by
#: block, so the results do not depend on how many threads computed them.
_CHUNK_ROWS = 4096

#: Work per pass, ``n * d_g**2``, above which the row blocks run on every
#: usable CPU (see :func:`_sum_blocks`); below it the pass stays on the
#: calling thread, where it was faster or as fast when measured.
_PARALLEL_WORK = 5_000_000

#: Instrument counts at which threads share a pass's work. numpy releases the
#: GIL around a matrix product only when its output has more than 500
#: entries, so below 23 columns a block's Gram holds the GIL and threads take
#: turns. From 33 columns OpenBLAS (0.3.31, 2 threads) splits each block's
#: Gram over its own threads, and a pool on top made the passes slower.
_PARALLEL_COLUMNS = range(23, 33)

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
    #: ``W = [z'z z'x z'y]``, read-only, on the data that
    #: :func:`drop_collinear_instruments` returns; ``None`` otherwise.
    _cross: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

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
        object.__setattr__(self, "suspect", _suspect_indices(self.suspect))
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


def _suspect_indices(values) -> tuple[int, ...]:
    """The sorted suspect indices; a fraction, a boolean or a repeat raises
    DimensionMismatch. An integral float is taken, as ``MomentModel`` takes
    its ``n``."""
    out = []
    for i in values:
        try:
            j = int(i)
        except (TypeError, ValueError, OverflowError):
            j = None
        if j is None or j != i or isinstance(i, (bool, np.bool_)):
            raise DimensionMismatch(f"suspect indices must be integers, got {i!r}")
        out.append(j)
    if len(set(out)) < len(out):
        raise DimensionMismatch(f"suspect indices must be distinct, got {sorted(out)}")
    return tuple(sorted(out))


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The worker threads of :func:`_sum_blocks`, one fewer than the usable CPUs,
#: made on the first parallel pass and shared by every later one.
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child inherits the pool but none of its threads, so a pass
    # there would wait for ever on work no thread picks up
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor(threads: int):
    """The module's pool, made with ``threads`` worker threads on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: it costs milliseconds that import and the CLI's
            # small problems need not pay
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(threads, "momentguard-iv")
        return _pool


def _shared_partials(block, starts: range, pool, tasks: int) -> list:
    """``[block(lo) for lo in starts]``, computed by the calling thread and
    ``tasks`` tasks on ``pool``, each claiming the next uncomputed block until
    none is left. A thread that runs slow, or starts late, computes fewer
    blocks, so the caller waits at most for the blocks the workers hold when
    the last one is claimed."""
    partials = [None] * len(starts)
    todo = iter(range(len(starts)))
    lock = threading.Lock()

    def take():
        # each thread sets its own errstate: a caller's does not reach workers
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                partials[i] = block(starts[i])

    futures = [pool.submit(take) for _ in range(tasks)]
    try:
        take()
    finally:
        # after an error here no block is left to start, and a task still
        # queued has nothing left to claim: no block outlives the call
        with lock:
            for _ in todo:
                pass
        for f in futures:
            if not f.cancel():
                f.exception()
    for f in futures:
        if not f.cancelled():
            f.result()
    return partials


def _sum_blocks(block, n: int, d: int, sums: tuple[np.ndarray, ...]) -> None:
    """Add ``block(lo)``, a tuple of partial sums over rows ``lo`` to ``lo +
    _CHUNK_ROWS``, into ``sums`` in place, for each block start ``lo`` in
    ascending order.

    With ``d`` in ``_PARALLEL_COLUMNS`` and ``n * d**2`` above
    ``_PARALLEL_WORK``, the calling thread and one task per further usable
    CPU share the blocks (see :func:`_shared_partials`), and the partials are
    then added in block order. So every sum is the sequential loop's, bit for
    bit, whatever the thread count. An overflow is left in the sums as a
    non-finite entry, with no warning.
    """
    starts = range(0, n, _CHUNK_ROWS)
    partials = map(block, starts)
    if d in _PARALLEL_COLUMNS and n * d * d > _PARALLEL_WORK:
        cpus = _usable_cpus()
        tasks = min(cpus, len(starts)) - 1
        if tasks > 0:
            partials = _shared_partials(block, starts, _executor(cpus - 1), tasks)
    with np.errstate(over="ignore", invalid="ignore"):
        for parts in partials:
            for total, part in zip(sums, parts):
                total += part


def _cross_matrix(data: IVData) -> np.ndarray:
    """``W = [z'z z'x z'y]``: the one ``data`` carries, else one pass over
    blocks of ``_CHUNK_ROWS`` rows (see :func:`_sum_blocks`). An overflow is
    left in ``W`` as a non-finite entry for the caller to check."""
    if data._cross is not None:
        return data._cross
    z, x, y = data.z, data.x, data.y
    d = z.shape[1]
    w = np.zeros((d, d + x.shape[1] + 1))

    def block(lo):
        hi = lo + _CHUNK_ROWS
        zb = z[lo:hi]
        return zb.T @ zb, zb.T @ np.column_stack([x[lo:hi], y[lo:hi]])

    _sum_blocks(block, data.n, d, (w[:, :d], w[:, d:]))
    return w


def _cross_products(data: IVData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(z'z, z'x, z'y)``, read out of :func:`_cross_matrix`, unchecked."""
    w = _cross_matrix(data)
    d = data.z.shape[1]
    return w[:, :d], w[:, d:-1], w[:, -1]


def _finite_cross_products(data: IVData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_cross_products`, raising OutOfRange, naming the array, when a
    product overflows."""
    prods = _cross_products(data)
    for name, prod in zip("zxy", prods):
        if not np.all(np.isfinite(prod)):
            raise OutOfRange(f"{name}: the cross-product z'{name} overflows; "
                             f"rescale the data")
    return prods


def _carrying(data: IVData, w: np.ndarray) -> IVData:
    """A shallow copy of ``data`` that carries ``w`` read-only. It holds the
    same arrays, so the constructor's finiteness pass is not run again."""
    w.flags.writeable = False
    out = copy.copy(data)
    object.__setattr__(out, "_cross", w)
    return out


def drop_collinear_instruments(data: IVData) -> IVData:
    """Drop linearly dependent instrument columns, warning with their indices.

    A column is dropped when the pivoted QR of ``z`` gives it a diagonal
    entry ``|r_ii| <= RANK_RTOL |r_11|``. The QR reads ``z`` many times and
    copies it twice, so it runs only when the ``z'z`` block of the
    cross-products ``W = [z'z z'x z'y]`` (one pass, no copy) cannot certify
    that the QR would keep every column; see
    :func:`_gram_certifies_full_rank`. The certificate never changes which
    columns are kept: when it fails, or when ``z'z`` overflows, the QR
    decides.

    The returned data carries ``W``, sliced to the kept columns when some are
    dropped, for the other calls of this module to read; ``data`` itself is
    left as it is.
    """
    z = data.z
    d = z.shape[1]
    w = _cross_matrix(data)
    if _gram_certifies_full_rank(w[:, :d], data.n):
        return _carrying(data, w)
    r_mat, piv = _pivoted_qr(z)
    diag = np.abs(np.diag(r_mat))
    rank = int(np.sum(diag > RANK_RTOL * diag[0]))
    if rank == d:
        return _carrying(data, w)
    keep = np.sort(piv[:rank])
    dropped = sorted(set(range(d)) - set(keep.tolist()))
    warnings.warn(f"dropping collinear instrument columns {dropped}")
    remap = {old: new for new, old in enumerate(keep.tolist())}
    suspect = tuple(remap[i] for i in data.suspect if i in remap)
    kept = IVData(y=data.y, x=data.x, z=z[:, keep], suspect=suspect)
    return _carrying(kept, w[np.ix_(keep, np.r_[keep, d:w.shape[1]])])


def _tsls(zz: np.ndarray, zx: np.ndarray, zy: np.ndarray) -> np.ndarray:
    try:
        a = zx.T @ np.linalg.solve(zz, zx)
        b = zx.T @ np.linalg.solve(zz, zy)
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiency(f"2SLS normal equations are singular: {exc}") from exc


def tsls(data: IVData) -> np.ndarray:
    """Two-stage least squares estimate of the structural coefficients."""
    return _tsls(*_finite_cross_products(data))


def _resid_sums(z: np.ndarray, resid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(z'resid, sum_i resid_i^2 z_i z_i')`` from one pass over blocks of
    ``_CHUNK_ROWS`` rows (see :func:`_sum_blocks`), so that the
    residual-weighted ``z`` is never formed whole."""
    d = z.shape[1]
    z_resid, meat = np.zeros(d), np.zeros((d, d))

    def block(lo):
        zb, rb = z[lo:lo + _CHUNK_ROWS], resid[lo:lo + _CHUNK_ROWS]
        zr = zb * rb[:, None]
        return rb @ zb, zr.T @ zr

    _sum_blocks(block, z.shape[0], d, (z_resid, meat))
    return z_resid, meat


def build_model(data: IVData, h_deriv, variance: str = "robust",
                theta_init: np.ndarray | None = None) -> MomentModel:
    """Reduced-form moment model from IV data.

    ``variance`` selects the moment-variance estimate: "robust" uses the
    heteroskedasticity-robust outer product of residual-weighted instruments,
    "homoskedastic" scales the instrument second moments by the mean squared
    residual. ``theta_init`` defaults to the 2SLS estimate.

    ``z'z``, ``z'x`` and ``z'y`` come from the cross-products ``data``
    carries (see :func:`drop_collinear_instruments`), else from one pass, and
    are shared by the 2SLS estimate, the Jacobian ``-z'x/n`` and the
    homoskedastic variance. One more pass over row blocks sums ``z'resid``
    and the robust variance, so no temporary the size of ``z`` is allocated.
    """
    if variance not in ("robust", "homoskedastic"):
        raise DimensionMismatch(
            f"variance must be 'robust' or 'homoskedastic', got {variance!r}")
    h = np.asarray(h_deriv, dtype=float).reshape(-1)
    if h.shape[0] != data.x.shape[1]:
        raise DimensionMismatch(
            f"h_deriv must have length d_theta={data.x.shape[1]}")
    zz, zx, zy = _finite_cross_products(data)
    if theta_init is None:
        theta = _tsls(zz, zx, zy)
    else:
        theta = np.asarray(theta_init, dtype=float).reshape(-1)
        if theta.shape[0] != data.x.shape[1]:
            raise DimensionMismatch(
                f"theta_init must have length d_theta={data.x.shape[1]}, "
                f"got {theta.shape[0]}")
        _check_finite(theta, "theta_init")
    n = data.n
    # an overflow below leaves a non-finite entry that MomentModel names
    with np.errstate(over="ignore", invalid="ignore"):
        resid = data.y - data.x @ theta
        # z'resid is a pass of its own rather than z'y - z'x theta, which cancels
        if variance == "robust":
            z_resid, meat = _resid_sums(data.z, resid)
            sigma = meat / n
        else:
            z_resid = data.z.T @ resid
            sigma = float(np.mean(resid**2)) * zz / n
        g_init = z_resid / n
        gamma = -zx / n
    return MomentModel(gamma=gamma, sigma=sigma, h_deriv=h,
                       g_init=g_init, h_init=float(h @ theta), n=n)


def build_b(data: IVData, scale: np.ndarray | None = None) -> np.ndarray:
    """Sample second-moment matrix ``z' z_I / n`` of the suspect instruments.

    The columns are read out of the ``z'z`` that ``data`` carries (else
    that one pass forms), so ``z_I`` is never copied out of ``z``. They
    follow the suspect indices in ascending order; ``scale`` optionally
    multiplies each column (per-unit standardization of the corresponding
    direct effect).
    """
    if not data.suspect:
        raise EmptySuspectSet("no suspect instrument indices supplied")
    b = _cross_products(data)[0][:, list(data.suspect)] / data.n
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
    _, zx, zy = _cross_products(data)
    if h_deriv is not None:
        h = np.asarray(h_deriv, dtype=float).reshape(-1)
        gamma = -zx / data.n
        resid = np.max(np.abs(h + k @ gamma))
        if resid > 1e-6 * max(1.0, float(np.max(np.abs(h)))):
            raise ConstraintViolated(
                f"k does not satisfy the constraint for this data "
                f"(residual {resid:.3e})")
    return float(k @ zy / data.n)
