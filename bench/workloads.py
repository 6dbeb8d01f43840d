"""The four benchmark workloads: input generators, operations and output checks.

Every workload draws all of its random arrays from ``numpy.random.default_rng``
seeded by the run's seed, then builds the program's input objects from those
arrays. The draws are not part of set-up time; building the objects is.

Problems come in *blocks*: one block holds the workload's whole mix in fixed
proportions (only the draws inside it depend on the seed), so that every run,
whatever its seed, sees the same mix. The timed loop walks the blocks in
order and starts over when the pool is exhausted. The first block is also the
fixed set of operations that the traced run measures.

An operation is one problem handed to the program, or one command-line
invocation for ``cli``. ``check`` returns a list of error strings for one
operation's output; an empty list means the output is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The traced run patches functions in these module namespaces, so the calls
# below look them up at call time (``sensitivity.knot_at``), never through a
# name bound here.
import momentguard as mg
from momentguard import cli, iv, robust_ci, sensitivity

Z_975 = 1.959963984540054      # two-sided 95% normal critical value
ALPHA = 0.05
CI_M_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
SPEC_M_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)
KAPPA_FLOOR = 0.717            # dimension-free lower bound on kappa* at alpha=0.05
TOL = 1e-6
#: Seed of the fixed problem designs; the run's seed varies the data.
GEOMETRY_SEED = 1808_07387


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class Workload:
    """A pool of problems in blocks of ``block``; ``run`` one, ``check`` it."""

    name: str
    block: int
    problems: list

    def build(self) -> None:
        """Build the program's input objects from the drawn arrays."""

    def close(self) -> None:
        """Remove whatever ``build`` left on disk."""


# --------------------------------------------------------------------------- iv_ci

@dataclass
class IVProblem:
    arrays: tuple          # (y, x, z, suspect) as drawn
    p: float
    data: object = None    # IVData, built at set-up


@dataclass
class IVResult:
    model: object
    rows: list             # (m, RobustCI, k) per M in CI_M_GRID


def _draw_iv(design_rng, data_rng, n: int, d_g: int, n_suspect: int):
    """Linear IV data with one endogenous regressor and heteroskedastic
    errors; the suspect instruments have small direct effects on y.

    ``design_rng`` draws the coefficients and the suspect set, ``data_rng``
    the instruments and errors."""
    pi = design_rng.uniform(0.3, 0.8, d_g) / math.sqrt(d_g)
    suspect = tuple(int(i) for i in np.sort(design_rng.choice(d_g, n_suspect, replace=False)))
    direct = design_rng.uniform(-0.05, 0.05, n_suspect)
    z = data_rng.standard_normal((n, d_g))
    v = data_rng.standard_normal(n)
    u = 0.5 * v + data_rng.standard_normal(n) * (0.7 + 0.3 * np.abs(z[:, 0]))
    x = z @ pi + v
    y = x + z[:, list(suspect)] @ direct + u
    return y, x[:, None], z, suspect


class IVCIWorkload(Workload):
    """Raw ``(y, x, z)`` through the IV front end, the frontier and one CI per M.

    A block is 18 small designs (each d_g in {4, 12, 30} with each p in
    {2, inf}, three times with the suspect count drawn from the low, middle
    and high third of 1..min(15, d_g - 1); n in 2k-5k) and 2 large
    ones (n = 200k, d_g = 30, one per p), so 10% of operations are large. The
    large designs are shared: block b uses large data set b mod 2, which has
    1-7 suspect instruments for even b and 8-14 for odd b.

    The designs (n, the suspect set, the coefficients) come from
    ``GEOMETRY_SEED``, so every run has the same mix of problem sizes; the
    run's seed draws the data.
    """

    name = "iv_ci"

    def __init__(self, seed: int, tiny: bool = False):
        geo = np.random.default_rng([GEOMETRY_SEED, 1])
        rng = np.random.default_rng([seed, 1])
        n_blocks, n_large = (1, 20_000) if tiny else (6, 200_000)
        large = [_draw_iv(geo, rng, n_large, 30, int(geo.integers(lo, lo + 7)))
                 for lo in (1, 8)[:n_blocks]]
        self.problems: list[IVProblem] = []
        for b in range(n_blocks):
            block = []
            for d_g in (4, 12, 30):
                for p in (2.0, math.inf):
                    # one suspect count from each third of 1..min(15, d_g - 1)
                    cuts = np.linspace(1, min(15, d_g - 1) + 1, 4).astype(int)
                    for lo, hi in zip(cuts, cuts[1:]):
                        n = int(geo.integers(2000, 5001))
                        s = int(geo.integers(lo, max(hi, lo + 1)))
                        block.append(IVProblem(_draw_iv(geo, rng, n, d_g, s), p))
            for p in (2.0, math.inf):
                block.append(IVProblem(large[b % 2], p))
            self.problems += [block[i] for i in geo.permutation(len(block))]
        self.block = 20

    def build(self) -> None:
        for prob in self.problems:
            y, x, z, suspect = prob.arrays
            prob.data = mg.IVData(y=y, x=x, z=z, suspect=suspect)

    def run(self, prob: IVProblem) -> IVResult:
        """The library calls ``momentguard ci`` makes for a raw-IV problem."""
        data = iv.drop_collinear_instruments(prob.data)
        model = mg.validate_model(mg.build_model(data, [1.0], "robust"))
        b_mat = mg.build_b(data)
        front = mg.frontier(model, mg.MisspecSet(b_mat, prob.p, 1.0))
        rows = []
        for m in CI_M_GRID:
            choice = mg.select_lambda(front, m, ALPHA, "ci_length")
            kn = sensitivity.knot_at(front, choice.lambda_star)
            ci = robust_ci.ci_from_sensitivity(model, mg.MisspecSet(b_mat, prob.p, m), kn.k,
                                               ALPHA, lambda_star=choice.lambda_star)
            rows.append((m, ci, kn.k))
        return IVResult(model, rows)

    @staticmethod
    def check(prob: IVProblem, res: IVResult) -> list[str]:
        model = res.model
        gamma, sigma, h = model.gamma, model.sigma, model.h_deriv
        errors = []
        halves = []
        for m, ci, k in res.rows:
            vals = (ci.estimate, ci.half_length, ci.max_bias, ci.std_error)
            if not all(math.isfinite(v) for v in vals) or not np.all(np.isfinite(k)):
                errors.append(f"M={m}: non-finite output")
                continue
            resid = float(np.max(np.abs(h + k @ gamma)))
            if resid > TOL * max(1.0, float(np.max(np.abs(h)))):
                errors.append(f"M={m}: constraint residual {resid:.2e}")
            floor = max(Z_975 * ci.std_error, ci.max_bias)
            if ci.half_length < floor * (1.0 - 1e-9):
                errors.append(f"M={m}: half-length {ci.half_length:.6g} below {floor:.6g}")
            halves.append(ci.half_length)
        if any(b < a * (1.0 - TOL) for a, b in zip(halves, halves[1:])):
            errors.append(f"half-length decreases in M: {halves}")
        # efficient-GMM Wald interval, computed here from the model
        s_inv_g = np.linalg.solve(sigma, gamma)
        k0 = -s_inv_g @ np.linalg.solve(gamma.T @ s_inv_g, h)
        est0 = model.h_init + float(k0 @ model.g_init)
        half0 = Z_975 * math.sqrt(float(k0 @ sigma @ k0) / model.n)
        m0, ci0, _ = res.rows[0]
        if not (_rel_close(ci0.estimate, est0, 1e-7) or abs(ci0.estimate - est0) <= 1e-9):
            errors.append(f"M=0 estimate {ci0.estimate!r} != Wald {est0!r}")
        if not _rel_close(ci0.half_length, half0, 1e-7):
            errors.append(f"M=0 half-length {ci0.half_length!r} != Wald {half0!r}")
        return errors

    @staticmethod
    def length_ratios(res: IVResult) -> list[float]:
        """Robust half-length over the same problem's M=0 half-length, M > 0."""
        base = res.rows[0][1].half_length
        return [ci.half_length / base for m, ci, _ in res.rows if m > 0]


# --------------------------------------------------------------------- efficiency

@dataclass
class ReducedProblem:
    arrays: dict
    p: float
    m: float
    model: object = None
    mset: object = None
    expect_reject: bool | None = None   # spectest only: design of S at M=0


def _draw_moment_model(rng, d_g: int, n: int, d_theta: int = 1) -> dict:
    a = rng.standard_normal((d_g, d_g))
    return dict(gamma=rng.standard_normal((d_g, d_theta)),
                sigma=a @ a.T / d_g + 0.5 * np.eye(d_g),
                h_deriv=rng.standard_normal(d_theta),
                g_init=np.zeros(d_g), h_init=0.0, n=n)


def _rotate(rng, arr: dict) -> dict:
    """The same problem in a random orthonormal basis of the moment space.

    ``gamma``, ``g_init`` and ``b_mat`` become ``Q @ x`` and ``sigma`` becomes
    ``Q sigma Q'``. Every quantity the program reports (CIs, kappa, S, m_min)
    and the work its solvers do are invariant to Q, while every input number
    changes with the seed.
    """
    d_g = arr["sigma"].shape[0]
    q, r = np.linalg.qr(rng.standard_normal((d_g, d_g)))
    q = q * np.sign(np.diag(r))
    sigma = q @ arr["sigma"] @ q.T
    return dict(arr, gamma=q @ arr["gamma"], sigma=0.5 * (sigma + sigma.T),
                g_init=q @ arr["g_init"], b_mat=q @ arr["b_mat"])


def _build_reduced(problems) -> None:
    for prob in problems:
        arr = dict(prob.arrays)
        b_mat = arr.pop("b_mat")
        prob.model = mg.MomentModel(**arr)
        prob.mset = mg.MisspecSet(b_mat, prob.p, prob.m)


class EfficiencyWorkload(Workload):
    """``efficiency_report`` on reduced-form models at M = 1.

    A block is each d_g in {3, 4, 5} with each p in {2, inf} and each d_gamma
    in {1, 2}; d_theta = 1. The solver's cost depends strongly on the problem
    geometry (a few geometries take ten times the median), and a run has time
    for only about 50 operations, so the geometries are drawn once from
    ``GEOMETRY_SEED`` and the run's seed rotates each one (see ``_rotate``):
    runs with different seeds then do the same work on different numbers.
    """

    name = "efficiency"

    def __init__(self, seed: int, tiny: bool = False):
        geo = np.random.default_rng([GEOMETRY_SEED, 2])
        rng = np.random.default_rng([seed, 2])
        self.problems: list[ReducedProblem] = []
        for _ in range(1 if tiny else 8):
            block = []
            for d_g in (3, 4, 5):
                for p in (2.0, math.inf):
                    for d_gam in (1, 2):
                        arr = _draw_moment_model(geo, d_g, 400)
                        arr["b_mat"] = geo.standard_normal((d_g, d_gam))
                        block.append(ReducedProblem(_rotate(rng, arr), p, 1.0))
            self.problems += [block[i] for i in geo.permutation(len(block))]
        self.block = 12

    def build(self) -> None:
        _build_reduced(self.problems)

    def run(self, prob: ReducedProblem):
        return mg.efficiency_report(prob.model, prob.mset, ALPHA)

    @staticmethod
    def check(prob: ReducedProblem, rep) -> list[str]:
        k2, k1 = rep.kappa_two_sided, rep.kappa_one_sided
        errors = []
        if not (math.isfinite(k2) and KAPPA_FLOOR - 1e-3 <= k2 <= 1.0 + 1e-3):
            errors.append(f"kappa_two_sided {k2!r} outside [{KAPPA_FLOOR}, 1]")
        if not (math.isfinite(k1) and 0.0 < k1 <= 1.0 + 1e-3):
            errors.append(f"kappa_one_sided {k1!r} outside (0, 1]")
        return errors


# ----------------------------------------------------------------------- spectest

def _overid_stat(arr: dict, g: np.ndarray) -> float:
    """n g' (S^-1 - S^-1 G (G' S^-1 G)^-1 G' S^-1) g, computed independently."""
    sigma, gamma = arr["sigma"], arr["gamma"]
    s_inv_g = np.linalg.solve(sigma, g)
    s_inv_gam = np.linalg.solve(sigma, gamma)
    proj = s_inv_gam @ np.linalg.solve(gamma.T @ s_inv_gam, gamma.T @ s_inv_g)
    return arr["n"] * float(g @ (s_inv_g - proj))


def _chi2_q95_upper(df: int) -> float:
    """Upper bound on the 0.95 quantile of chi2(df) (Laurent-Massart)."""
    x = math.log(20.0)
    return df + 2.0 * math.sqrt(df * x) + 2.0 * x


class SpecTestWorkload(Workload):
    """``s_statistic``, ``m_lower_ci`` and ``test_at_m`` over a 5-point M grid.

    A block is each d_gamma in {2, 6, 10, 12, 14} with each p in {2, inf},
    twice, except d_gamma=14 with p=inf, once; d_g = d_gamma + 2..4 and
    d_theta = 1. ``g_init`` is scaled so the statistic S is a drawn multiple
    of a bound on the chi-square critical value: 14 of 19 problems reject at
    M=0 and run the root search, the other 5 accept and return m_min = 0. One
    problem per d_gamma accepts, at p=inf for d_gamma <= 10 and at p=2 above.

    The mix places the tail: a run has time for about 7 of the slowest
    operations (d_gamma=14, p=inf, about 1 s each) and 14 of the next
    (d_gamma=12, p=inf), so the operation with ten slower ones beyond it
    falls inside the second group rather than on the edge between groups.
    As for ``efficiency``, the geometries come from ``GEOMETRY_SEED`` and the
    run's seed rotates them.
    """

    name = "spectest"

    def __init__(self, seed: int, tiny: bool = False):
        geo = np.random.default_rng([GEOMETRY_SEED, 3])
        rng = np.random.default_rng([seed, 3])
        d_gammas = (2, 6) if tiny else (2, 6, 10, 12, 14)
        self.problems: list[ReducedProblem] = []
        for _ in range(1 if tiny else 6):
            block = []
            for d_gam in d_gammas:
                accept_p = 2.0 if d_gam >= 12 else math.inf
                for p in (2.0, math.inf):
                    for rep in range(1 if (d_gam, p) == (14, math.inf) else 2):
                        d_g = d_gam + int(geo.integers(2, 5))
                        arr = _draw_moment_model(geo, d_g, 500)
                        arr["b_mat"] = geo.standard_normal((d_g, d_gam))
                        g = geo.standard_normal(d_g)
                        df = d_g - 1
                        reject = not (p == accept_p and rep == 0)
                        target = (geo.uniform(1.5, 4.0) * _chi2_q95_upper(df) if reject
                                  else geo.uniform(0.2, 0.8) * df)
                        arr["g_init"] = g * math.sqrt(target / _overid_stat(arr, g))
                        block.append(ReducedProblem(_rotate(rng, arr), p, 1.0,
                                                    expect_reject=reject))
            self.problems += [block[i] for i in geo.permutation(len(block))]
        self.block = len(self.problems) // (1 if tiny else 6)

    def build(self) -> None:
        _build_reduced(self.problems)

    def run(self, prob: ReducedProblem):
        """The library calls ``momentguard spectest`` makes."""
        b_mat, p = prob.mset.b_mat, prob.p
        stat = mg.s_statistic(prob.model)
        m_min = mg.m_lower_ci(prob.model, b_mat, p, ALPHA)
        grid = [mg.test_at_m(prob.model, mg.MisspecSet(b_mat, p, m), ALPHA)
                for m in SPEC_M_GRID]
        return stat, m_min, grid

    @staticmethod
    def check(prob: ReducedProblem, out) -> list[str]:
        stat, m_min, grid = out
        errors = []
        want = _overid_stat(prob.arrays, prob.arrays["g_init"])
        if not _rel_close(stat, want, 1e-7):
            errors.append(f"statistic {stat!r} != {want!r}")
        if not (math.isfinite(m_min) and m_min >= 0.0):
            return errors + [f"m_min {m_min!r} is not a finite nonnegative number"]
        if grid[0].reject != prob.expect_reject:
            errors.append(f"M=0 test reject={grid[0].reject}, designed {prob.expect_reject}")
        flags = [r.reject for r in grid]
        if any(later and not earlier for earlier, later in zip(flags, flags[1:])):
            errors.append(f"rejection not monotone in M: {flags}")

        def rejects(m: float) -> bool:
            return mg.test_at_m(prob.model, mg.MisspecSet(prob.mset.b_mat, prob.p, m),
                                ALPHA).reject

        if m_min == 0.0:
            if grid[0].reject:
                errors.append("m_min = 0 but the M=0 test rejects")
        else:
            if not rejects(m_min * (1.0 - 1e-5)):
                errors.append(f"accepts below m_min={m_min!r}")
            if rejects(m_min * (1.0 + 1e-5)):
                errors.append(f"rejects above m_min={m_min!r}")
        return errors


# ---------------------------------------------------------------------------- cli

CLI_COMMANDS = ("ci", "path", "efficiency", "spectest", "simulate")
TOY_M_GRID = [0.0, 0.5, 1.0, 2.0]
IV_M_GRID = [0.0, 0.5, 1.0]


@dataclass
class CliOp:
    command: str
    problem: str      # "toy" or "iv"
    d_g: int
    n_grid: int


@dataclass
class CliResult:
    code: int
    stdout: str


class CliWorkload(Workload):
    """One ``python -m momentguard.cli <cmd> --problem <file>`` per operation.

    A block is each of ci, path, efficiency, spectest and ``simulate --reps
    100000`` on each of two problem files written at set-up: a 2x1
    reduced-form toy (p=2) and a raw-IV CSV problem (n=2000, d_g=4, p=inf).
    The traced run calls ``cli.main`` in-process with stdout captured instead.
    """

    name = "cli"

    def __init__(self, seed: int, workdir: Path, env: dict, tiny: bool = False):
        rng = np.random.default_rng([seed, 4])
        self.workdir, self.env = workdir, env
        self.in_process = False
        self.reps = 1000 if tiny else 100_000
        self.toy_g = rng.normal(0.0, 0.1, 2)
        y, x, z, _ = _draw_iv(rng, rng, 400 if tiny else 2000, 4, 1)
        self.iv_arrays = (y, x, z)
        self.problems = [CliOp(cmd, name, d_g, len(grid))
                         for name, d_g, grid in (("toy", 2, TOY_M_GRID),
                                                 ("iv", 4, IV_M_GRID))
                         for cmd in CLI_COMMANDS]
        self.block = len(self.problems)

    def build(self) -> None:
        """Write the two problem files (and the IV CSVs) into ``workdir``."""
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        toy = {"model": {"gamma": [[-1.0], [-0.8]], "sigma": [[1.0, 0.2], [0.2, 2.0]],
                         "h_deriv": [1.0], "g_init": self.toy_g.tolist(),
                         "h_init": 0.47, "n": 1000},
               "misspec": {"b_mat": [[0.0], [1.0]], "p": 2, "m_grid": TOY_M_GRID},
               "alpha": ALPHA}
        (self.workdir / "toy.json").write_text(json.dumps(toy))
        y, x, z = self.iv_arrays
        for name, arr, cols in (("y", y[:, None], ["y"]), ("x", x, ["x"]),
                                ("z", z, [f"z{i + 1}" for i in range(z.shape[1])])):
            np.savetxt(self.workdir / f"{name}.csv", arr, delimiter=",",
                       header=",".join(cols), comments="", fmt="%.17g")
        iv = {"iv": {"y": "y.csv", "x": "x.csv", "z": "z.csv", "suspect": [3],
                     "h_deriv": [1.0]},
              "misspec": {"p": "inf", "m_grid": IV_M_GRID}, "alpha": ALPHA}
        (self.workdir / "iv.json").write_text(json.dumps(iv))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def argv(self, op: CliOp) -> list[str]:
        args = [op.command, "--problem", str(self.workdir / f"{op.problem}.json")]
        if op.command == "simulate":
            args += ["--reps", str(self.reps), "--seed", "7"]
        return args

    def run(self, op: CliOp) -> CliResult:
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv(op))
            return CliResult(code, buf.getvalue())
        proc = subprocess.run([sys.executable, "-m", "momentguard.cli", *self.argv(op)],
                              capture_output=True, text=True, env=self.env,
                              timeout=120)
        return CliResult(proc.returncode, proc.stdout)

    @staticmethod
    def check(op: CliOp, res: CliResult) -> list[str]:
        what = f"{op.command} {op.problem}"
        if res.code != 0:
            return [f"{what}: exit code {res.code}"]
        lines = res.stdout.strip().splitlines()
        if len(lines) < 3 or not lines[0].startswith(f"# command={op.command} "):
            return [f"{what}: missing metadata line or rows"]
        header, rows = lines[1], lines[2:]
        ks = [f"k_{i + 1}" for i in range(op.d_g)]
        cs = [f"c_{i + 1}" for i in range(op.d_g)]
        expected = ",".join({
            "ci": ["m", "estimate", "lower", "upper", "max_bias", "std_error", "lambda_star"],
            "path": ["lambda", *ks, "bbar", "var"],
            "efficiency": ["kappa_two_sided", "kappa_one_sided", "universal_lower"],
            "spectest": ["m", "statistic", "df", "ncp_bar", "critical_value", "reject", "m_min"],
            "simulate": ["m", "replications", "nominal", "coverage", "mc_stderr", *cs],
        }[op.command])
        errors = []
        if header != expected:
            errors.append(f"{what}: header {header!r}")
        # one row per M, one for efficiency, at least one knot for path
        n_rows = {"efficiency": 1, "path": max(len(rows), 1)}.get(op.command, op.n_grid)
        if len(rows) != n_rows:
            errors.append(f"{what}: {len(rows)} rows")
        if "nan" in res.stdout.lower():
            errors.append(f"{what}: nan in output")
        return errors


# ------------------------------------------------------------------------- shared

def make(name: str, seed: int, root: Path, env: dict, tiny: bool = False) -> Workload:
    if name == "cli":
        workdir = root / "bench" / "out" / f"cli-problems-{os.getpid()}"
        return CliWorkload(seed, workdir, env, tiny)
    return {"iv_ci": IVCIWorkload, "efficiency": EfficiencyWorkload,
            "spectest": SpecTestWorkload}[name](seed, tiny)


def cold_import_seconds(env: dict) -> float:
    """``import momentguard`` timed inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import momentguard; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    return float(out.stdout.strip())


def interpreter_seconds(env: dict) -> float:
    """Wall time of a bare ``python -c pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, timeout=120, check=True)
    return time.perf_counter() - t0
