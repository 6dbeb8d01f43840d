"""The runtime imports no scipy, and each in-package replacement of a scipy
routine matches it. The tests themselves may import scipy. Small IV problems
do not load ``concurrent.futures`` either, which only the IV passes' thread
pool needs."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.special import gammainc, gammaln, ndtr, ndtri, roots_legendre

from momentguard import critval, efficiency

SRC = Path(__file__).resolve().parents[1] / "src"

#: Run in a fresh interpreter: every command on a toy and a well-conditioned
#: IV problem, then an exactly collinear IV design through the lazy QR.
SCRIPT = r"""
import contextlib, io, json, sys, warnings
from pathlib import Path

import numpy as np

import momentguard
from momentguard import cli
from momentguard.iv import IVData, drop_collinear_instruments

tmp = Path(sys.argv[1])
toy = {"model": {"gamma": [[-1.0], [-0.8]], "sigma": [[1.0, 0.2], [0.2, 2.0]],
                 "h_deriv": [1.0], "g_init": [0.3, -0.2], "h_init": 0.47,
                 "n": 1000},
       "misspec": {"b_mat": [[0.0], [1.0]], "p": 2, "m_grid": [0.0, 1.0]},
       "alpha": 0.05}
(tmp / "toy.json").write_text(json.dumps(toy))
rng = np.random.default_rng(5)
n = 300
z = rng.normal(size=(n, 3))
x = z @ np.array([1.0, 0.5, 0.3]) + rng.normal(size=n)
y = 0.5 * x + rng.normal(size=n)
for name, arr in (("y", y[:, None]), ("x", x[:, None]), ("z", z)):
    np.savetxt(tmp / f"{name}.csv", arr, delimiter=",", comments="",
               header=",".join(f"c{i}" for i in range(arr.shape[1])))
iv = {"iv": {"y": "y.csv", "x": "x.csv", "z": "z.csv", "suspect": [2]},
      "misspec": {"p": "inf", "m_grid": [0.0, 0.5]}, "alpha": 0.05}
(tmp / "iv.json").write_text(json.dumps(iv))
for command in ("ci", "path", "efficiency", "spectest", "simulate"):
    for name in ("toy", "iv"):
        argv = [command, "--problem", str(tmp / f"{name}.json")]
        if command == "simulate":
            argv += ["--reps", "2000"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code == 0, (command, name, code)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
assert "concurrent.futures" not in sys.modules

collinear = IVData(y=y, x=x, z=np.column_stack([z, z[:, 0] - z[:, 1]]),
                   suspect=(2,))
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    cleaned = drop_collinear_instruments(collinear)
assert cleaned.z.shape[1] == 3, cleaned.z.shape
assert any("collinear" in str(w.message) for w in caught)
assert "scipy.linalg" in sys.modules
print("scipy-free")
"""


def test_commands_import_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "scipy-free"


class TestNormal:
    def test_cdf_matches_ndtr(self):
        x = np.linspace(-38.0, 9.0, 20001)
        ref = ndtr(x)
        ours = np.array([critval.norm_cdf(v) for v in x])
        # scipy flushes the cdf below the smallest normal double to 0
        normal = ref >= np.finfo(float).tiny
        assert np.all(ours[~normal] < 1e-300)
        # 1e-14 where the cdf is well conditioned; in the far left tail the
        # rounding of x / sqrt(2) alone moves either result by x^2 eps
        tol = 1e-14 + x[normal] ** 2 * np.finfo(float).eps
        assert np.all(np.abs(ours[normal] - ref[normal]) <= tol * ref[normal])
        assert np.all(np.abs(ours - ref)[np.abs(x) <= 10.0]
                      <= 1e-14 * ref[np.abs(x) <= 10.0])

    def test_quantile_matches_ndtri(self):
        p = np.concatenate([np.geomspace(1e-300, 0.49, 3000),
                            1.0 - np.geomspace(2.0**-53, 0.49, 3000),
                            [1e-300, 1.0 - 2.0**-53, 0.5, 0.975]])
        ref = ndtri(p)
        ours = np.array([critval.norm_quantile(v) for v in p])
        assert np.all(np.abs(ours - ref) <= 1e-14 * np.abs(ref))

    def test_standard_normals_are_the_quantiles_of_the_uniforms(self):
        from momentguard.oracle import standard_normals

        gen = np.random.Generator(np.random.Philox(3))
        u = gen.integers(1, 2**53, size=(400, 2)) / float(2**53)
        z = standard_normals(3, (400, 2))
        assert z.dtype == float and z.shape == (400, 2)
        assert np.all(np.abs(z - ndtri(u)) <= 1e-14 * np.abs(ndtri(u)))

    def test_array_quantile_is_the_scalar_one(self):
        from momentguard.oracle import _normal_quantile

        # AS241's branch points (|u - 1/2| = 0.425, r = 5), both extremes of
        # the uniforms and random points in each branch
        gen = np.random.Generator(np.random.Philox(4))
        u = np.concatenate([
            [2.0**-53, 1.0 - 2.0**-53, 0.5, 0.075, 0.925,
             np.nextafter(0.075, 0.0), np.nextafter(0.925, 1.0),
             math.exp(-25.0), np.nextafter(math.exp(-25.0), 0.0)],
            gen.uniform(size=2000), 10.0 ** -gen.uniform(1.0, 15.9, size=2000)])
        u = np.concatenate([u, 1.0 - u])
        z = _normal_quantile(u)
        ref = np.array([critval.norm_quantile(v) for v in u])
        # np.log and math.log may round differently in the last place
        assert np.all(np.abs(z - ref) <= 4e-16 * np.abs(ref))
        assert np.all(np.abs(z - ndtri(u)) <= 1e-14 * np.abs(ndtri(u)))


class TestPoissonMixture:
    NCPS = (1e-3, 0.5, 3.0, 10.0, 40.0, 150.0, 400.0, 1000.0)

    @pytest.mark.parametrize("ncp", NCPS)
    def test_weights_match_gammaln(self, ncp):
        first, w = critval._poisson_weights(0.5 * ncp)
        j = np.arange(first, first + w.shape[0])
        h = 0.5 * ncp
        ref = np.exp(j * math.log(h) - h - gammaln(j + 1.0))
        assert np.max(np.abs(w - ref)) <= 1e-12
        assert 1.0 - np.sum(w) <= 1e-14

    @pytest.mark.parametrize("ncp", (0.0,) + NCPS)
    def test_gamma_window_matches_gammainc(self, ncp):
        first, w = critval._poisson_weights(0.5 * ncp)
        n = w.shape[0]
        for df in range(1, 41):
            a = 0.5 * df + first + np.arange(n)
            # the mixture itself, and P(a_j, x/2) alone from unit weights
            cdfs = [(critval._series(df, first, w), w)]
            for j in sorted({*range(0, n, max(n // 8, 1)), n - 1}):
                e = np.zeros(n)
                e[j] = 1.0
                cdfs.append((critval._series(df, first, e), e))
            mean, sd = df + ncp, math.sqrt(2.0 * (df + 2.0 * ncp))
            for x in (1e-3, 0.5, mean - 3.0 * sd, mean, mean + 1.6 * sd,
                      mean + 10.0 * sd + 10.0, 5.0 * mean + 100.0):
                if x > 0.0:
                    ref = gammainc(a, 0.5 * x)
                    for cdf, weights in cdfs:
                        assert abs(cdf(x)[0] - weights @ ref) <= 1e-12, (df, x)


    def test_continued_fraction_side(self):
        # far above the window the top value comes from Q's continued fraction
        cdf = critval._series(3, 0, np.array([1.0]))
        for x in (40.0, 300.0, 1e4):
            assert cdf(x)[0] == pytest.approx(gammainc(1.5, 0.5 * x), abs=1e-15)
        assert cdf(math.inf)[0] == 1.0 and cdf(0.0)[0] == 0.0


def test_gauss_legendre_matches_roots_legendre():
    nodes, weights = efficiency._gauss_legendre()
    ref_nodes, ref_weights = roots_legendre(efficiency.QUAD_NODES)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
    assert np.max(np.abs(weights - ref_weights) / ref_weights) <= 1e-10
    assert efficiency._gauss_legendre() is efficiency._gauss_legendre()


#: (function, slope, bracket): smooth, flat, steep and tiny roots, and a
#: step. Keys are the test ids; 1 and 3, a decreasing function and a triple
#: root, were cases for Brent's method, which :func:`critval._newton` replaced.
BATTERY = {
    0: (lambda x: x * x - 2.0, lambda x: 2.0 * x, 0.0, 2.0),
    2: (lambda x: math.exp(x) - 5.0, math.exp, -1.0, 3.0),
    4: (lambda x: math.atan(x - 1.0), lambda x: 1.0 / (1.0 + (x - 1.0) ** 2), -10.0, 20.0),
    5: (lambda x: 1e-8 * (x - 0.3), lambda x: 1e-8, 0.0, 1.0),
    6: (lambda x: math.tanh(50.0 * (x - 0.123)),
        lambda x: 50.0 / math.cosh(50.0 * (x - 0.123)) ** 2, -1.0, 1.0),
    7: (lambda x: x - 1e-300, lambda x: 1.0, 0.0, 1.0),
    8: (math.log, lambda x: 1.0 / x, 0.5, 3.0),
    9: (lambda x: (x - 1.0) ** 5 + 1e-3 * (x - 1.0),
        lambda x: 5.0 * (x - 1.0) ** 4 + 1e-3, -4.0, 3.0),
    10: (lambda x: 1.0 if x > 0.7 else -1.0, lambda x: 0.0, 0.0, 1.0),
    11: (lambda x: critval.norm_cdf(x) - 0.975, critval.norm_pdf, -5.0, 5.0),
}


class TestBrentq:
    """:func:`critval._newton`, the package's one scalar root finder, against
    ``scipy.optimize.brentq`` at the same relative tolerance."""

    @pytest.mark.parametrize("case", list(BATTERY))
    @pytest.mark.parametrize("xtol,rtol", [(1e-12, 4 * np.finfo(float).eps),
                                           (1e-3, 1e-6), (5e-324, 1e-15)])
    def test_matches_scipy(self, case, xtol, rtol):
        f, slope, lo, hi = BATTERY[case]
        ours = critval._newton(lambda x: (f(x), slope(x)), lo, lo, hi, rtol=rtol)
        ref = scipy.optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol)
        assert abs(ours - ref) <= xtol + rtol * abs(ref)
