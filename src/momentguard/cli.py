"""Batch command-line front end.

Reads a JSON problem file describing either reduced-form matrices or raw IV
data (CSV references), runs one of the pipelines, and writes plot-ready CSV
to standard output with a ``#``-prefixed metadata header.

Subcommands: ``ci`` (robust CI per magnitude), ``path`` (frontier knots),
``efficiency`` (kappa bounds), ``spectest`` (S statistic and the lower bound
on the magnitude), ``simulate`` (Monte Carlo coverage of the interval that
``ci`` prints, in the limiting experiment).

Exit codes: 0 success, 2 input validation, 3 numerical failure,
4 dimension/feasibility.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .critval import _check_alpha
from .errors import (
    DimensionMismatch,
    FeasibilityError,
    MomentGuardError,
    NumericalError,
    ValidationError,
)
from .iv import IVData, build_b, build_model, drop_collinear_instruments
from .model import MisspecSet, MomentModel
from .oracle import adversarial_c, mc_coverage
from .robust_ci import ci_curve
from .efficiency import efficiency_report
from .sensitivity import frontier
from .spec_test import spec_test_grid

_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3
_EXIT_FEASIBILITY = 4

_array = partial(np.asarray, dtype=float)


@dataclass
class ProblemFile:
    """Parsed problem description; exactly one of ``model``/``iv_data`` is set."""

    alpha: float = 0.05
    model: MomentModel | None = None
    iv_data: IVData | None = None
    b_spec: object = None            # matrix, {"identity_columns":[...]}, "from-iv"
    p: float = 2.0
    m_grid: list[float] = field(default_factory=lambda: [1.0])
    variance: str | None = None      # an IV problem's; None is "robust"
    criterion: str = "ci_length"
    beta: float = 0.8
    mixed: bool = False
    h_deriv: np.ndarray | None = None


def _parse(convert, value, name: str):
    """``convert(value)``; a value that does not convert is a validation error."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name}: {exc}") from None


def _integer(value, name: str) -> int:
    """A JSON integer; neither a boolean nor a number with a fraction part
    counts as one."""
    if type(value) is not int:
        raise ValidationError(f"{name}: must be an integer, got {value!r}")
    return value


def _indices(values, name: str) -> list[int]:
    """A JSON list of column indices, each an integer (see :func:`_integer`)."""
    if not isinstance(values, list):
        raise ValidationError(f"{name}: must be a list of integers, got {values!r}")
    return [_integer(i, name) for i in values]


def _m_grid(values, name: str) -> list[float]:
    grid = _parse(lambda v: [float(m) for m in v], values, name)
    if not grid or sorted(grid) != grid or any(m < 0 for m in grid):
        raise ValidationError(f"{name} must be nonempty, ascending and nonnegative")
    return grid


def _read_matrix(value, base: Path, name: str) -> np.ndarray:
    """Inline row-major nested lists, or a CSV file reference with a header line."""
    if isinstance(value, str):
        path = base / value
        if not path.exists():
            raise ValidationError(f"{name}: referenced file {path} does not exist")
        return _parse(lambda f: np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2),
                      path, name)
    return _parse(_array, value, name)


def _section(doc: dict, name: str) -> dict:
    """The JSON object under ``name``; an absent section is empty."""
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ValidationError(f"'{name}' must be a JSON object, got {sec!r}")
    return sec


def parse_problem(path: str | Path) -> ProblemFile:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot parse problem file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("problem file must hold a JSON object")
    base = path.parent
    prob = ProblemFile()

    has_model = "model" in doc
    has_iv = "iv" in doc
    if has_model == has_iv:
        raise ValidationError(
            "problem file must contain exactly one of 'model' or 'iv'")

    prob.alpha = _parse(float, doc.get("alpha", 0.05), "alpha")
    opts = _section(doc, "options")
    prob.variance = opts.get("variance")
    prob.criterion = opts.get("criterion", "ci_length")
    if prob.criterion not in ("ci_length", "mse"):
        raise ValidationError(
            f"options.criterion must be 'ci_length' or 'mse', got {prob.criterion!r}")
    prob.beta = _parse(float, opts.get("beta", 0.8), "beta")
    prob.mixed = opts.get("mixed", False)
    if type(prob.mixed) is not bool:
        raise ValidationError(
            f"options.mixed: must be true or false, got {prob.mixed!r}")

    if has_model:
        sec = _section(doc, "model")
        for key in ("gamma", "sigma", "h_deriv", "g_init", "h_init", "n"):
            if key not in sec:
                raise ValidationError(f"model section missing field '{key}'")
        prob.model = MomentModel(
            gamma=_read_matrix(sec["gamma"], base, "gamma"),
            sigma=_read_matrix(sec["sigma"], base, "sigma"),
            h_deriv=_parse(_array, sec["h_deriv"], "h_deriv"),
            g_init=_parse(_array, sec["g_init"], "g_init"),
            h_init=_parse(float, sec["h_init"], "h_init"),
            n=_integer(sec["n"], "n"))
    else:
        sec = _section(doc, "iv")
        for key in ("y", "x", "z"):
            if key not in sec:
                raise ValidationError(f"iv section missing field '{key}'")
        y = _read_matrix(sec["y"], base, "y").reshape(-1)
        x = _read_matrix(sec["x"], base, "x")
        z = _read_matrix(sec["z"], base, "z")
        prob.iv_data = IVData(y=y, x=x, z=z,
                              suspect=_indices(sec.get("suspect", []), "suspect"))
        prob.h_deriv = _parse(_array, sec.get(
            "h_deriv", [1.0] + [0.0] * (x.shape[1] - 1 if x.ndim == 2 else 0)),
            "h_deriv")

    mis = _section(doc, "misspec")
    p_raw = mis.get("p", 2)
    prob.p = (math.inf if str(p_raw).lower() in ("inf", "infinity")
              else _parse(float, p_raw, "p"))
    if "m_grid" in mis:
        prob.m_grid = _m_grid(mis["m_grid"], "m_grid")
    elif "m" in mis:
        prob.m_grid = _m_grid([mis["m"]], "m")
    if "b_mat" not in mis and not has_iv:
        raise ValidationError("misspec section must specify 'b_mat'")
    prob.b_spec = _b_spec(mis.get("b_mat", "from-iv"), base, has_iv)
    _check_variance(prob)
    return prob


def _check_variance(prob: ProblemFile) -> None:
    """The variance options choose how an IV problem estimates Sigma; a
    ``model`` problem carries its one Sigma, so setting them there is an
    input error rather than a no-op."""
    if prob.variance not in (None, "robust", "homoskedastic"):
        raise ValidationError("options.variance must be 'robust' or "
                              f"'homoskedastic', got {prob.variance!r}")
    if prob.model is not None and (prob.variance is not None or prob.mixed):
        raise ValidationError("the variance options (options.variance, "
                              "options.mixed, --variance, --mixed) apply to an "
                              "'iv' problem; a 'model' problem carries one sigma")


def _b_spec(value, base: Path, has_iv: bool):
    """``misspec.b_mat``: a matrix (nested lists or a CSV path), an object
    holding ``identity_columns`` alone, or ``"from-iv"`` on an IV problem."""
    if value == "from-iv":
        if has_iv:
            return value
    elif isinstance(value, (list, str)):
        return _read_matrix(value, base, "b_mat")
    elif isinstance(value, dict) and value.keys() == {"identity_columns"}:
        return {"identity_columns": _indices(value["identity_columns"],
                                             "identity_columns")}
    raise ValidationError(
        "b_mat: must be a matrix, {\"identity_columns\": [...]} or, on an IV "
        f"problem, \"from-iv\"; got {value!r}")


def _resolve(prob: ProblemFile) -> tuple[MomentModel, MisspecSet, MomentModel]:
    """Materialize (model, unit set, model_for_ci) from the problem
    description; the unit set ``{B gamma : ||gamma||_p <= 1}`` is validated
    here, once."""
    data = None
    if prob.model is not None:
        model = model_ci = prob.model
    else:
        data = drop_collinear_instruments(prob.iv_data)
        variance_path = "homoskedastic" if prob.mixed else prob.variance or "robust"
        model = model_ci = build_model(data, prob.h_deriv, variance_path)
        if prob.mixed:
            model_ci = build_model(data, prob.h_deriv, "robust")
    if isinstance(prob.b_spec, np.ndarray):
        b_mat = prob.b_spec
    elif isinstance(prob.b_spec, dict):
        cols = prob.b_spec["identity_columns"]
        if not all(0 <= i < model.d_g for i in cols):
            raise DimensionMismatch(
                f"identity_columns must be integers in [0, {model.d_g}), got {cols!r}")
        b_mat = np.eye(model.d_g)[:, cols]
    else:
        b_mat = build_b(data)
    return model, MisspecSet(b_mat, prob.p, 1.0), model_ci


def _g(x: float) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0  # normalize negative zero
    return repr(v)


def _emit(command: str, args, header_cols: list[str], rows,
          extra_meta: str = "") -> None:
    meta = (f"# command={command} version={__version__} "
            f"alpha={_g(args.alpha)}{extra_meta}")
    out = [meta, ",".join(header_cols)]
    for row in rows:
        out.append(",".join(_g(v) if isinstance(v, float) else str(v)
                            for v in row))
    sys.stdout.write("\n".join(out) + "\n")


def cmd_ci(prob: ProblemFile, args) -> None:
    model, unit_set, model_ci = _resolve(prob)
    front = frontier(model, unit_set)
    rows = [(m, ci.estimate, ci.estimate - ci.half_length,
             ci.estimate + ci.half_length, ci.max_bias, ci.std_error,
             float(ci.lambda_star))
            for m, ci in ci_curve(model_ci, front, prob.m_grid, args.alpha,
                                  prob.criterion)]
    _emit("ci", args,
          ["m", "estimate", "lower", "upper", "max_bias", "std_error",
           "lambda_star"], rows)


def cmd_path(prob: ProblemFile, args) -> None:
    model, unit_set, _ = _resolve(prob)
    front = frontier(model, unit_set)
    cols = ["lambda"] + [f"k_{i+1}" for i in range(model.d_g)] + ["bbar", "var"]
    rows = [(kn.lam, *[float(v) for v in kn.k], kn.bbar, kn.var)
            for kn in front.knots]
    _emit("path", args, cols, rows)


def cmd_efficiency(prob: ProblemFile, args) -> None:
    model, unit_set, _ = _resolve(prob)
    mset = unit_set.scaled(prob.m_grid[-1])
    rep = efficiency_report(model, mset, args.alpha, prob.beta)
    _emit("efficiency", args,
          ["kappa_two_sided", "kappa_one_sided", "universal_lower"],
          [(rep.kappa_two_sided, rep.kappa_one_sided, rep.universal_lower)],
          extra_meta=f" beta={_g(prob.beta)} m={_g(mset.m)}")


def cmd_spectest(prob: ProblemFile, args) -> None:
    model, unit_set, _ = _resolve(prob)
    stat, m_min, grid = spec_test_grid(model, unit_set.b_mat, unit_set.p,
                                       prob.m_grid, args.alpha)
    rows = [(float(m), res.statistic, res.df, res.ncp_bar, res.critical_value,
             int(res.reject), m_min) for m, res in zip(prob.m_grid, grid)]
    _emit("spectest", args,
          ["m", "statistic", "df", "ncp_bar", "critical_value", "reject",
           "m_min"], rows, extra_meta=f" statistic={_g(stat)} m_min={_g(m_min)}")


def cmd_simulate(prob: ProblemFile, args) -> None:
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    model, unit_set, model_ci = _resolve(prob)
    front = frontier(model, unit_set)
    rows = []
    # the intervals `ci` prints, each simulated under the variance it was built on
    for m, ci in ci_curve(model_ci, front, prob.m_grid, args.alpha,
                          prob.criterion):
        mset = unit_set.scaled(m)
        c = adversarial_c(mset, ci.k)
        rep = mc_coverage(model_ci, mset, ci, c, args.reps, args.seed)
        rows.append((m, args.reps, 1.0 - args.alpha, rep.coverage,
                     rep.mc_stderr, *[float(v) for v in c]))
    cols = (["m", "replications", "nominal", "coverage", "mc_stderr"]
            + [f"c_{i+1}" for i in range(model.d_g)])
    _emit("simulate", args, cols, rows, extra_meta=f" seed={args.seed}")


_COMMANDS = {
    "ci": cmd_ci,
    "path": cmd_path,
    "efficiency": cmd_efficiency,
    "spectest": cmd_spectest,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentguard",
        description="Misspecification-robust CIs for moment condition models")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--problem", required=True, help="path to a problem file")
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--m-grid", type=str, default=None,
                        help="comma-separated ascending magnitudes")
    parser.add_argument("--variance", choices=["robust", "homoskedastic"],
                        default=None)
    parser.add_argument("--criterion", choices=["ci", "mse"], default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--mixed", action="store_true",
                        help="sensitivity from the homoskedastic variance, "
                             "final CI from the robust one")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=10000)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        prob = parse_problem(args.problem)
        args.alpha = _check_alpha(prob.alpha if args.alpha is None else args.alpha)
        if args.m_grid is not None:
            prob.m_grid = _m_grid(args.m_grid.split(","), "--m-grid")
        if args.variance is not None:
            prob.variance = args.variance
        if args.criterion is not None:
            prob.criterion = "ci_length" if args.criterion == "ci" else "mse"
        if args.beta is not None:
            prob.beta = args.beta
        if args.mixed:
            prob.mixed = True
        _check_variance(prob)
        _COMMANDS[args.command](prob, args)
        return 0
    except ValidationError as exc:
        print(f"momentguard: validation error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except FeasibilityError as exc:
        print(f"momentguard: infeasible: {exc}", file=sys.stderr)
        return _EXIT_FEASIBILITY
    except NumericalError as exc:
        print(f"momentguard: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except MomentGuardError as exc:
        print(f"momentguard: error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
