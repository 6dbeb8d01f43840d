"""Seeded fuzz of the CLI over small random and degenerate problem files."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentguard.cli import main


#: Entries that make a field degenerate: zero, non-finite, tiny, huge.
SPECIAL = [0.0, math.nan, math.inf, -math.inf, 1e-300, 1e12]

#: Levels outside (0, 1), which every command rejects with exit 2.
BAD_ALPHA = [math.nan, 0.0, 1.0, 1.5, -0.1]


@st.composite
def problem_docs(draw):
    """Small reduced-form problem files, about half of them degenerate."""
    num = st.floats(-2.0, 2.0)
    d_g = draw(st.integers(1, 3))
    d_th = draw(st.integers(1, d_g))

    def mat(rows, cols):
        return [[draw(num) for _ in range(cols)] for _ in range(rows)]

    a = np.array(mat(d_g, d_g))
    ridge = draw(st.sampled_from([0.0, 1e-12, 0.5]))
    model = {"gamma": mat(d_g, d_th), "sigma": (a @ a.T + ridge * np.eye(d_g)).tolist(),
             "h_deriv": mat(1, d_th)[0], "g_init": mat(1, d_g)[0],
             "h_init": draw(num), "n": draw(st.sampled_from([0, 1, 50, 10**6]))}
    if draw(st.booleans()):
        field = draw(st.sampled_from(["gamma", "sigma", "h_deriv", "g_init", "h_init"]))
        value = draw(st.sampled_from(SPECIAL))
        if field == "h_init":
            model[field] = value
        else:
            arr = np.array(model[field])
            arr.flat[draw(st.integers(0, arr.size - 1))] = value
            model[field] = arr.tolist()
    if draw(st.booleans()):
        rows = draw(st.sampled_from([d_g, d_g, d_g, d_g + 1]))
        b_mat = mat(rows, draw(st.integers(1, d_g)))
    else:
        b_mat = {"identity_columns": draw(st.lists(
            st.one_of(st.integers(-1, 3), st.booleans()), min_size=1, max_size=d_g))}
    m_grid = draw(st.lists(st.floats(0.0, 3.0), min_size=0, max_size=3))
    if draw(st.booleans()):
        m_grid.sort()
    misspec = {"b_mat": b_mat, "p": draw(st.sampled_from([2, "inf", 1])),
               "m_grid": m_grid}
    alpha = draw(st.one_of(st.floats(0.001, 0.5), st.sampled_from(BAD_ALPHA)))
    return {"model": model, "misspec": misspec, "alpha": alpha}


#: Just-identified, with a magnitude far below every other scale.
TINY_M = {"model": {"gamma": [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
                    "sigma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                    "h_deriv": [0.0, 0.0, 1.0], "g_init": [0.0, 0.0, 0.0],
                    "h_init": 0.0, "n": 1},
          "misspec": {"b_mat": {"identity_columns": [0]}, "p": 2, "m_grid": [1e-200]},
          "alpha": 0.05}


def subnormal_sigma(p):
    """Sigma so small that the whitened Gamma and B overflow when squared."""
    return {"model": {"gamma": [[1.0]], "sigma": [[2.03870434597526e-310]],
                      "h_deriv": [1.0], "g_init": [0.0], "h_init": 0.0, "n": 1},
            "misspec": {"b_mat": [[1.0]], "p": p, "m_grid": [0.0]}, "alpha": 0.05}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(doc=problem_docs())
@example(doc=TINY_M)
@example(doc=subnormal_sigma(2))
@example(doc=subnormal_sigma("inf"))
def test_fuzz_problem_files(doc):
    """Any problem file ends in a typed exit code, and exit 0 prints no NaN."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "prob.json")
        Path(path).write_text(json.dumps(doc))
        for command in ("ci", "path", "efficiency", "spectest", "simulate"):
            argv = [command, "--problem", path]
            if command == "simulate":
                argv += ["--reps", "1000", "--seed", "7"]  # the fewest it accepts
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3, 4), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code == 0:
                assert "nan" not in out.getvalue().lower()


@st.composite
def iv_problems(draw):
    """Small raw-IV problems: (arrays, problem section, seed), some
    degenerate: collinear or overflowing instruments, non-finite data,
    suspect sets that are empty or out of range, negative seeds."""
    n = draw(st.sampled_from([3, 20, 200, 400]))
    d_g = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    z = rng.normal(size=(n, d_g))
    x = z @ rng.normal(size=d_g) + rng.normal(size=n)
    y = 0.5 * x + rng.normal(size=n)
    flaw = draw(st.sampled_from([None, None, "duplicate", "combination", "scale",
                                 "scale_all", "nan"]))
    if flaw == "duplicate" and d_g > 1:
        z[:, -1] = z[:, 0]
    elif flaw == "combination" and d_g > 2:
        z[:, -1] = z[:, 0] - 2.0 * z[:, 1]
    elif flaw == "scale":
        z[:, draw(st.integers(0, d_g - 1))] *= draw(st.sampled_from([1e160, 1e-160]))
    elif flaw == "scale_all":
        z *= 1e160  # every entry of z'z overflows
    elif flaw == "nan":
        arr = draw(st.sampled_from([y, x, z]))
        arr.flat[draw(st.integers(0, arr.size - 1))] = math.nan
    suspect = draw(st.lists(st.integers(0, d_g - 1), min_size=1, max_size=d_g,
                            unique=True))
    bad_suspect = draw(st.sampled_from([None, None, None, "empty", "out_of_range"]))
    if bad_suspect == "empty":
        suspect = []
    elif bad_suspect == "out_of_range":
        suspect.append(draw(st.sampled_from([-1, d_g])))
    misspec = {"p": draw(st.sampled_from([2, "inf"])),
               "m_grid": sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=1,
                                               max_size=3)))}
    seed = draw(st.one_of(st.integers(0, 2**32), st.integers(-2**32, -1)))
    return {"y": y, "x": x, "z": z}, {"suspect": suspect, "misspec": misspec}, seed


def iv_example(flaw, seed=7):
    """``TestGramCertificate``'s design: ``z`` scaled to 1e160 (its cross-
    products overflow) or with an exactly duplicated column (dropped by the
    pivoted QR)."""
    rng = np.random.default_rng(17)
    n = 500
    z0 = rng.normal(size=(n, 3))
    last = z0[:, 0] if flaw == "duplicate" else (
        z0[:, 0] + z0[:, 1] + 1e-3 * rng.normal(size=n))
    z = np.column_stack([z0, last]) * (1e160 if flaw == "scale" else 1.0)
    arrays = {"y": rng.normal(size=n), "x": z0[:, 0] + rng.normal(size=n), "z": z}
    return arrays, {"suspect": [1, 3], "misspec": {"p": 2, "m_grid": [0.0, 1.0]}}, seed


@settings(max_examples=60, derandomize=True, deadline=None)
@given(problem=iv_problems())
@example(problem=iv_example("scale"))
@example(problem=iv_example("duplicate"))
@example(problem=iv_example("duplicate", seed=-1))
def test_fuzz_iv_problem_files(problem):
    """Any IV problem file ends in a typed exit code on every command without
    a traceback or a RuntimeWarning, and exit 0 prints no NaN."""
    arrays, spec, seed = problem
    with tempfile.TemporaryDirectory() as tmp:
        for name, arr in arrays.items():
            np.savetxt(Path(tmp) / f"{name}.csv", arr.reshape(arr.shape[0], -1),
                       delimiter=",", header=name, comments="", fmt="%.17g")
        doc = {"iv": {"y": "y.csv", "x": "x.csv", "z": "z.csv",
                      "suspect": spec["suspect"]},
               "misspec": spec["misspec"], "alpha": 0.05}
        path = str(Path(tmp) / "prob.json")
        Path(path).write_text(json.dumps(doc))
        for command in ("ci", "path", "efficiency", "spectest", "simulate"):
            argv = [command, "--problem", path, "--seed", str(seed)]
            if command == "simulate":
                argv += ["--reps", "1000"]
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            assert code in (0, 2, 3, 4), err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert "Warning" not in err.getvalue()
            # the one warning a command may give is the dropped columns'
            assert all(issubclass(w.category, UserWarning)
                       and "collinear" in str(w.message) for w in caught), caught
            if command == "simulate" and seed < 0:
                assert code == 2
            if code == 0:
                assert "nan" not in out.getvalue().lower()
