"""Monte Carlo coverage of a robust CI in the Gaussian limiting experiment.

:func:`mc_coverage` counts how often a given two-sided interval covers
``H theta`` when the moments are perturbed by a member ``c`` of the set, such
as the bias-maximizing :func:`adversarial_c`; ``momentguard simulate`` runs
it on the interval that ``momentguard ci`` prints. The brute-force
validators of the solvers live with the tests.

Randomness is produced by numpy's Philox counter-based bit generator with an
explicit integer seed; normal deviates come from the inverse-cdf transform of
open-interval uniforms, so streams are bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import sym_sqrt_psd
from .errors import CNotInSet, OutOfRange
from .model import MisspecSet, MomentModel, Sensitivity
from .robust_ci import RobustCI


# -- reproducible normals ------------------------------------------------------

#: Wichura's AS241 (1988) rational approximations to the normal quantile,
#: (numerator, denominator) coefficients from the highest power down: for
#: ``|u - 1/2| <= 0.425`` in ``r = 0.180625 - (u - 1/2)^2``, then in
#: ``r = sqrt(-log min(u, 1 - u))`` up to 5 (shifted by 1.6) and beyond (by 5).
_AS241 = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
      1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
      4.6303378461565452959e+0, 1.4234371107496835773e+0),
     (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
      1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
      2.0531916266377588219e+0, 1.0)),
    ((2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
      2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
      5.4637849111641143699e+0, 6.6579046435011037772e+0),
     (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
      7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
      5.9983220655588793769e-1, 1.0)),
)


def _horner(coef: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    y = np.full_like(r, coef[0])
    for c in coef[1:]:
        y *= r
        y += c
    return y


def _normal_quantile(u: np.ndarray) -> np.ndarray:
    """AS241 elementwise for ``u`` in (0, 1), with the operations of
    ``statistics.NormalDist.inv_cdf`` in the same order."""
    (num, den), near, far = _AS241
    q = u - 0.5
    z = np.empty_like(u)
    mid = np.abs(q) <= 0.425
    qm = q[mid]
    r = 0.180625 - qm * qm
    z[mid] = _horner(num, r) * qm / _horner(den, r)
    tail = ~mid
    ut = u[tail]
    r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
    x = np.empty_like(r)
    for (num, den), part, shift in ((near, r <= 5.0, 1.6), (far, r > 5.0, 5.0)):
        rs = r[part] - shift
        x[part] = _horner(num, rs) / _horner(den, rs)
    z[tail] = np.where(ut < 0.5, -x, x)
    return z


def standard_normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic standard normals: Philox counters -> open uniforms -> AS241."""
    gen = np.random.Generator(np.random.Philox(int(seed)))
    u = gen.integers(1, 2**53, size=shape) / float(2**53)
    return _normal_quantile(u)


# -- Monte Carlo coverage in the limiting experiment -----------------------------

@dataclass(frozen=True)
class CoverageReport:
    coverage: float
    mc_stderr: float


def adversarial_c(mset: MisspecSet, k: Sensitivity) -> np.ndarray:
    """Boundary point of the set maximizing |k'c|, in closed form."""
    v = mset.b_mat.T @ np.asarray(k, dtype=float).reshape(-1)
    if math.isinf(mset.p):
        gamma = np.sign(v)
        gamma[gamma == 0.0] = 1.0
    else:
        nv = np.linalg.norm(v)
        gamma = v / nv if nv > 0 else np.ones_like(v) / math.sqrt(v.shape[0])
    return -mset.m * (mset.b_mat @ gamma)


def membership_gamma(mset: MisspecSet, c: np.ndarray) -> np.ndarray:
    """Coefficients representing ``c = B gamma``; raises CNotInSet otherwise."""
    c = np.asarray(c, dtype=float).reshape(-1)
    gamma, *_ = np.linalg.lstsq(mset.b_mat, c, rcond=None)
    resid = np.linalg.norm(mset.b_mat @ gamma - c)
    if resid > 1e-8 * max(1.0, np.linalg.norm(c)):
        raise CNotInSet("c is not in the column space of b_mat")
    norm = np.max(np.abs(gamma)) if math.isinf(mset.p) else np.linalg.norm(gamma)
    if norm > mset.m + 1e-9:
        raise CNotInSet(f"||gamma||_p = {norm:.6g} exceeds m = {mset.m:.6g}")
    return gamma


def mc_coverage(model: MomentModel, mset: MisspecSet, ci: RobustCI,
                c: np.ndarray, reps: int, seed: int,
                theta: np.ndarray | None = None) -> CoverageReport:
    """Empirical coverage of a two-sided robust CI in the Gaussian limit.

    Simulates ``Y = -Gamma theta + c + Sigma^{1/2} eps`` with seeded,
    platform-stable normals, centers the interval at ``k'Y`` with the
    sensitivity and half-length of ``ci`` (on the root-n scale), and reports
    the fraction of replications covering the target ``H theta``. The
    perturbation ``c`` must be a member of the set.
    """
    if reps < 1000:
        raise OutOfRange(f"reps must be at least 1000, got {reps}")
    if ci.half_length is None:
        raise OutOfRange(f"mc_coverage needs a two-sided CI, got {ci.side}")
    c = np.asarray(c, dtype=float).reshape(-1)
    membership_gamma(mset, c)
    theta = np.zeros(model.d_theta) if theta is None else (
        np.asarray(theta, dtype=float).reshape(-1))

    eps = standard_normals(seed, (int(reps), model.d_g))
    y = -model.gamma @ theta + c + eps @ sym_sqrt_psd(model.sigma)
    target = float(model.h_deriv @ theta)
    half = ci.half_length * math.sqrt(model.n)
    coverage = float(np.mean(np.abs(y @ ci.k - target) <= half))
    stderr = math.sqrt(max(coverage * (1.0 - coverage), 0.0) / reps)
    return CoverageReport(coverage=coverage, mc_stderr=stderr)
