import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momentguard import cli
from momentguard.cli import main
from momentguard.critval import cv_alpha
from momentguard.model import MisspecSet, MomentModel
from momentguard.robust_ci import ci_curve
from momentguard.sensitivity import frontier
from momentguard.spec_test import noncentrality_sup


def write_problem(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def scalar_doc(**misspec):
    mis = {"b_mat": [[1.0]], "p": 2, "m_grid": [0.0, 1.0, 2.0]}
    mis.update(misspec)
    return {
        "model": {"gamma": [[-1.0]], "sigma": [[1.0]], "h_deriv": [1.0],
                  "g_init": [0.1], "h_init": 0.5, "n": 100},
        "misspec": mis,
        "alpha": 0.05,
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(stdout):
    lines = [l for l in stdout.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestCmdCi:
    def test_wald_row_at_zero(self, tmp_path, capsys):
        doc = scalar_doc(m_grid=[0.0])
        code, out, _ = run(capsys, ["ci", "--problem", write_problem(tmp_path, doc)])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["estimate"]) == pytest.approx(0.6)
        half = 1.959963984540054 * 0.1
        assert float(rows[0]["upper"]) - float(rows[0]["estimate"]) == \
            pytest.approx(half, rel=1e-9)

    def test_scalar_worked_example(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["ci", "--problem",
                                    write_problem(tmp_path, scalar_doc())])
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[1]  # m = 1
        assert float(row["m"]) == 1.0
        half = float(row["upper"]) - float(row["estimate"])
        assert half == pytest.approx(cv_alpha(1.0, 0.05) / 10.0, rel=1e-8)

    def test_half_lengths_monotone(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["ci", "--problem",
                                    write_problem(tmp_path, scalar_doc())])
        _, rows = parse_csv(out)
        halves = [float(r["upper"]) - float(r["estimate"]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(halves, halves[1:]))

    def test_m_grid_override(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["ci", "--problem",
                                    write_problem(tmp_path, scalar_doc()),
                                    "--m-grid", "0.25,0.75"])
        _, rows = parse_csv(out)
        assert [float(r["m"]) for r in rows] == [0.25, 0.75]

    def test_mse_criterion(self, tmp_path, capsys):
        doc = scalar_doc()
        doc["model"].update(gamma=[[-1.0], [-0.8]], sigma=[[1.0, 0.2], [0.2, 2.0]],
                            g_init=[0.05, -0.02])
        doc["misspec"]["b_mat"] = [[0.0], [1.0]]
        path = write_problem(tmp_path, doc)
        code, out, _ = run(capsys, ["ci", "--problem", path, "--criterion", "mse"])
        assert code == 0
        doc["options"] = {"criterion": "mse"}
        assert run(capsys, ["ci", "--problem",
                            write_problem(tmp_path, doc, "mse.json")])[1] == out
        model = MomentModel(**doc["model"])
        b = np.array(doc["misspec"]["b_mat"])
        curve = ci_curve(model, frontier(model, MisspecSet(b, 2, 1.0)),
                         doc["misspec"]["m_grid"], 0.05, "mse")
        _, rows = parse_csv(out)
        assert [float(r["lambda_star"]) for r in rows] == [
            ci.lambda_star for _, ci in curve]
        assert [float(r["upper"]) for r in rows] == [
            ci.estimate + ci.half_length for _, ci in curve]
        _, by_length = parse_csv(run(capsys, ["ci", "--problem", path])[1])
        assert rows[-1]["lambda_star"] != by_length[-1]["lambda_star"]


class TestCmdPath:
    def test_knot_columns(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["path", "--problem",
                                    write_problem(tmp_path, scalar_doc())])
        header, rows = parse_csv(out)
        assert header == ["lambda", "k_1", "bbar", "var"]
        assert float(rows[0]["lambda"]) == 0.0
        assert float(rows[0]["k_1"]) == pytest.approx(1.0)


class TestCmdEfficiency:
    def test_anchor_values(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["efficiency", "--problem",
                                    write_problem(tmp_path, scalar_doc())])
        assert code == 0
        _, rows = parse_csv(out)
        rec = rows[0]
        assert float(rec["universal_lower"]) == pytest.approx(0.717, abs=5e-4)
        assert 0.0 < float(rec["kappa_two_sided"]) <= 1.0 + 1e-9
        assert float(rec["kappa_one_sided"]) == pytest.approx(1.0, abs=1e-6)


class TestTinyMagnitude:
    """A magnitude far below every other scale exits 0 with the M = 0 values."""

    @pytest.mark.parametrize("mval", [1e-300, 1e-200, 2.2e-311])
    @pytest.mark.parametrize("p", [2, "inf"])
    @pytest.mark.parametrize("command", ["ci", "efficiency"])
    def test_zero_limit(self, tmp_path, capsys, command, p, mval):
        doc = {"model": {"gamma": np.fliplr(np.eye(3)).tolist(),
                         "sigma": np.eye(3).tolist(), "h_deriv": [0.0, 0.0, 1.0],
                         "g_init": [0.0, 0.0, 0.0], "h_init": 0.0, "n": 1},
               "misspec": {"b_mat": {"identity_columns": [0]}, "p": p,
                           "m_grid": [mval]}}
        code, out, err = run(capsys, [command, "--problem",
                                      write_problem(tmp_path, doc)])
        assert code == 0, err
        assert "nan" not in out.lower()
        row = parse_csv(out)[1][0]
        if command == "ci":
            assert float(row["upper"]) - float(row["estimate"]) == pytest.approx(
                1.959963984540054, rel=1e-12)
        else:
            assert float(row["kappa_two_sided"]) == pytest.approx(
                0.8498863239929236, rel=1e-12)
            assert float(row["kappa_one_sided"]) == pytest.approx(1.0, rel=1e-12)


class TestUnbiasedEfficientSensitivity:
    """Just identified with B'k = 0 for the only admissible k: no estimator
    can be biased, so every CI is the Wald interval at either p."""

    DOC = {"model": {"gamma": np.eye(2).tolist(), "sigma": np.eye(2).tolist(),
                     "h_deriv": [1.0, 0.0], "g_init": [0.0, 0.0], "h_init": 0.0,
                     "n": 1},
           "misspec": {"b_mat": {"identity_columns": [1]}, "m_grid": [0.0, 1.0, 4.0]}}

    @pytest.mark.parametrize("p", [2, "inf"])
    def test_ci_is_wald(self, tmp_path, capsys, p):
        doc = json.loads(json.dumps(self.DOC))
        doc["misspec"]["p"] = p
        code, out, err = run(capsys, ["ci", "--problem", write_problem(tmp_path, doc)])
        assert code == 0, err
        rows = parse_csv(out)[1]
        assert len(rows) == 3
        for row in rows:
            assert float(row["estimate"]) == 0.0
            assert float(row["upper"]) == pytest.approx(1.959963984540054, rel=1e-12)
            assert float(row["lower"]) == pytest.approx(-1.959963984540054, rel=1e-12)

    @pytest.mark.parametrize("p", [2, "inf"])
    def test_efficiency(self, tmp_path, capsys, p):
        doc = json.loads(json.dumps(self.DOC))
        doc["misspec"]["p"] = p
        code, out, err = run(capsys, ["efficiency", "--problem",
                                      write_problem(tmp_path, doc)])
        assert code == 0, err
        for row in parse_csv(out)[1]:
            assert float(row["kappa_two_sided"]) == pytest.approx(
                0.8498863239929236, rel=1e-12)
            assert float(row["kappa_one_sided"]) == pytest.approx(1.0, rel=1e-12)


class TestCmdSpectest:
    def overidentified_doc(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        sigma = (a @ a.T + 0.5 * np.eye(3)).tolist()
        return {
            "model": {"gamma": [[-1.0], [0.4], [0.2]], "sigma": sigma,
                      "h_deriv": [1.0], "g_init": [0.3, -0.5, 0.2],
                      "h_init": 0.0, "n": 500},
            "misspec": {"b_mat": {"identity_columns": [2]}, "p": 2,
                        "m_grid": [0.0, 1.0]},
            "alpha": 0.05,
        }

    def test_spectest_runs(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["spectest", "--problem",
                                    write_problem(tmp_path, self.overidentified_doc())])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m", "statistic", "df", "ncp_bar", "critical_value",
                          "reject", "m_min"]
        assert int(rows[0]["df"]) == 2
        # same statistic at every magnitude
        assert float(rows[0]["statistic"]) == float(rows[1]["statistic"])

    def test_metadata_floats_round_trip_shortest(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["spectest", "--problem",
                                    write_problem(tmp_path, self.overidentified_doc())])
        assert code == 0
        meta = out.splitlines()[0].split()
        assert "alpha=0.05" in meta
        stat = float(next(f for f in meta if f.startswith("statistic="))[10:])
        _, rows = parse_csv(out)
        assert repr(stat) == rows[0]["statistic"]

    def test_jacobian_span_b_exit_code(self, tmp_path, capsys):
        # B inside the Jacobian's span: no finite M explains the rejection
        gamma = [[-1.0], [-0.8], [0.3]]
        doc = {"model": {"gamma": gamma, "sigma": np.eye(3).tolist(),
                         "h_deriv": [1.0], "g_init": [0.5, -0.9, 0.7],
                         "h_init": 0.0, "n": 1000},
               "misspec": {"b_mat": gamma, "p": 2, "m_grid": [0.0, 1.0]},
               "alpha": 0.05}
        code, out, err = run(capsys, ["spectest", "--problem",
                                      write_problem(tmp_path, doc)])
        assert code == 4
        assert out == ""
        assert "span" in err and "Traceback" not in err

    def test_just_identified_exit_code(self, tmp_path, capsys):
        doc = scalar_doc()
        code, out, err = run(capsys, ["spectest", "--problem",
                                      write_problem(tmp_path, doc)])
        assert code == 4
        assert "identified" in err

    @pytest.mark.parametrize("p", [2, "inf"])
    @pytest.mark.parametrize("past", ["overflow", "ceiling"])
    def test_magnitude_past_the_series_exit_code(self, tmp_path, capsys, p, past):
        # M = 1e200 overflows M^2; a finite M^2 ncp(1) just above 1e10 would
        # ask the noncentral chi-square series for gigabytes
        doc = self.overidentified_doc()
        doc["misspec"]["p"] = p
        unit = noncentrality_sup(MomentModel(**doc["model"]),
                                 MisspecSet(np.eye(3)[:, [2]], float(p), 1.0))
        m = 1e200 if past == "overflow" else math.sqrt(1e10 / unit) * (1.0 + 1e-6)
        doc["misspec"]["m_grid"] = [0.0, m]
        code, out, err = run(capsys, ["spectest", "--problem",
                                      write_problem(tmp_path, doc)])
        assert code == 3
        assert out == ""
        assert "1e+10" in err and "Traceback" not in err


class TestCmdSimulate:
    def test_coverage_row(self, tmp_path, capsys):
        doc = {
            "model": {"gamma": [[-1.0], [0.4]], "sigma": [[1.0, 0.1], [0.1, 1.5]],
                      "h_deriv": [1.0], "g_init": [0.0, 0.0], "h_init": 0.0,
                      "n": 100},
            "misspec": {"b_mat": {"identity_columns": [1]}, "p": 2, "m": 1.0},
            "alpha": 0.05,
        }
        code, out, _ = run(capsys, ["simulate", "--problem",
                                    write_problem(tmp_path, doc),
                                    "--reps", "5000", "--seed", "42"])
        assert code == 0
        _, rows = parse_csv(out)
        cov = float(rows[0]["coverage"])
        se = float(rows[0]["mc_stderr"])
        assert cov >= 0.95 - 3.0 * se

    def test_deterministic_given_seed(self, tmp_path, capsys):
        doc = scalar_doc(m_grid=[0.5])
        path = write_problem(tmp_path, doc)
        _, out1, _ = run(capsys, ["simulate", "--problem", path,
                                  "--reps", "2000", "--seed", "7"])
        _, out2, _ = run(capsys, ["simulate", "--problem", path,
                                  "--reps", "2000", "--seed", "7"])
        assert out1 == out2

    @pytest.mark.parametrize("case", ["mse", "mixed"])
    def test_simulates_the_printed_intervals(self, tmp_path, capsys, monkeypatch, case):
        if case == "mse":
            doc = scalar_doc(m_grid=[0.0, 0.5, 1.0, 2.0])
            doc["model"].update(gamma=[[-1.0], [-0.8]], sigma=[[1.0, 0.2], [0.2, 2.0]],
                                g_init=[0.05, -0.02])
            doc["misspec"]["b_mat"] = [[0.0], [1.0]]
            flags = ["--criterion", "mse"]
        else:
            rng = np.random.default_rng(2)
            n = 400
            z = rng.normal(size=(n, 3))
            x = z @ np.array([1.0, 0.5, 0.3]) + rng.normal(size=n)
            y = 0.5 * x + rng.normal(size=n) * np.sqrt(0.5 + z[:, 0] ** 2)
            for name, arr in (("y.csv", y[:, None]), ("x.csv", x[:, None]), ("z.csv", z)):
                np.savetxt(tmp_path / name, arr, delimiter=",", comments="",
                           header=",".join(f"col{i}" for i in range(arr.shape[1])))
            doc = {"iv": {"y": "y.csv", "x": "x.csv", "z": "z.csv", "suspect": [2]},
                   "misspec": {"p": 2, "m_grid": [0.0, 1.0, 3.0]}, "alpha": 0.05}
            flags = ["--mixed"]
        path = write_problem(tmp_path, doc)
        code, out, _ = run(capsys, ["ci", "--problem", path] + flags)
        assert code == 0
        _, rows = parse_csv(out)
        # the flag changes the intervals, so the comparison below can fail
        assert parse_csv(run(capsys, ["ci", "--problem", path])[1])[1] != rows

        simulated = []
        real = cli.mc_coverage

        def recording(model, mset, ci, c, reps, seed):
            simulated.append((model, ci))
            return real(model, mset, ci, c, reps, seed)

        monkeypatch.setattr(cli, "mc_coverage", recording)
        code, _, _ = run(capsys, ["simulate", "--problem", path, "--reps", "1000"] + flags)
        assert code == 0
        assert len(simulated) == len(rows)
        for row, (model, ci) in zip(rows, simulated):
            assert float(row["estimate"]) == ci.estimate
            assert float(row["upper"]) == ci.estimate + ci.half_length
            assert float(row["max_bias"]) == ci.max_bias
            assert float(row["std_error"]) == ci.std_error
            assert float(row["lambda_star"]) == ci.lambda_star
            # simulated under the variance the interval was built on
            assert ci.std_error == pytest.approx(
                math.sqrt(ci.k @ model.sigma @ ci.k / model.n), rel=1e-12)

    def test_negative_seed_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_work(prob):
            raise AssertionError("work done before the seed was checked")

        monkeypatch.setattr(cli, "_resolve", no_work)
        code, out, err = run(capsys, ["simulate", "--problem",
                                      write_problem(tmp_path, scalar_doc()),
                                      "--seed", "-1"])
        assert code == 2
        assert "--seed" in err and "Traceback" not in err
        assert out == ""


COMMANDS = ["ci", "path", "efficiency", "spectest", "simulate"]


class TestProblemFile:
    def test_requires_exactly_one_source(self, tmp_path, capsys):
        doc = scalar_doc()
        doc["iv"] = {"y": "y.csv", "x": "x.csv", "z": "z.csv"}
        code, _, err = run(capsys, ["ci", "--problem",
                                    write_problem(tmp_path, doc)])
        assert code == 2
        assert "exactly one" in err

    def test_validation_exit_code_singular_sigma(self, tmp_path, capsys):
        doc = scalar_doc()
        doc["model"]["gamma"] = [[-1.0], [0.5]]
        doc["model"]["sigma"] = [[1.0, 1.0], [1.0, 1.0]]
        doc["model"]["g_init"] = [0.0, 0.0]
        doc["misspec"]["b_mat"] = [[1.0], [0.0]]
        code, _, err = run(capsys, ["ci", "--problem",
                                    write_problem(tmp_path, doc)])
        assert code == 2

    @pytest.mark.parametrize("command, case, field", [
        ("spectest", "nan_g_init", "g_init"),
        ("ci", "inf_sigma", "sigma"),
        ("ci", "nan_b_mat", "b_mat"),
        ("ci", "nan_iv_csv", "y must"),
        ("ci", "n_not_a_number", "n:"),
        ("spectest", "n_not_a_number", "n:"),
        ("efficiency", "n_not_a_number", "n:"),
        ("ci", "three_d_gamma", "gamma"),
        ("ci", "identity_column_out_of_range", "identity_columns"),
        ("ci", "identity_column_boolean", "identity_columns"),
        ("ci", "identity_column_fractional", "identity_columns"),
        ("ci", "suspect_boolean", "suspect"),
        ("spectest", "suspect_fractional", "suspect"),
        ("ci", "suspect_duplicate", "suspect indices must be distinct"),
        ("ci", "n_boolean", "n:"),
        ("efficiency", "n_fractional", "n:"),
        ("ci", "mixed_string", "options.mixed"),
        ("ci", "variance_bogus", "options.variance"),
        ("ci", "variance_on_model", "options.variance"),
        ("ci", "mixed_on_model", "options.mixed"),
        ("ci", "variance_flag_on_model", "--variance"),
        ("simulate", "mixed_flag_on_model", "--mixed"),
        ("ci", "one_sided_criterion", "options.criterion"),
        ("spectest", "m_grid_not_a_number", "--m-grid"),
        ("ci", "top_level_not_object", "JSON object"),
        ("ci", "model_not_object", "'model'"),
        ("ci", "iv_not_object", "'iv'"),
        ("ci", "options_not_object", "'options'"),
        ("ci", "misspec_not_object", "'misspec'"),
    ])
    def test_validation_exit_code(self, tmp_path, capsys, command, case, field):
        doc = scalar_doc()
        model, extra = doc["model"], []
        if case == "nan_g_init":
            model.update(gamma=[[-1.0], [0.4], [0.2]], sigma=np.eye(3).tolist(),
                         g_init=[math.nan, 0.1, 0.2])
            doc["misspec"]["b_mat"] = {"identity_columns": [2]}
        elif case == "inf_sigma":
            model.update(gamma=[[-1.0], [0.5]], sigma=[[math.inf, 0.0], [0.0, 1.0]],
                         g_init=[0.1, 0.1])
            doc["misspec"]["b_mat"] = [[1.0], [0.0]]
        elif case == "nan_b_mat":
            doc["misspec"]["b_mat"] = [[math.nan]]
        elif case in ("nan_iv_csv", "suspect_boolean", "suspect_fractional",
                      "suspect_duplicate"):
            rng = np.random.default_rng(3)
            z = rng.normal(size=(50, 3))
            x = z.sum(axis=1) + rng.normal(size=50)
            y = 0.5 * x + rng.normal(size=50)
            if case == "nan_iv_csv":
                y[7] = math.nan
            for name, arr in (("y.csv", y[:, None]), ("x.csv", x[:, None]),
                              ("z.csv", z)):
                np.savetxt(tmp_path / name, arr, delimiter=",",
                           header="h" + ",h" * (arr.shape[1] - 1), comments="")
            # true and 1.7 once selected column 1, as [1] does; [1, 1] once
            # failed later, as a b_mat without full column rank (exit 4)
            suspect = {"suspect_boolean": [True],
                       "suspect_fractional": [1.7],
                       "suspect_duplicate": [1, 1]}.get(case, [2])
            doc = {"iv": {"y": "y.csv", "x": "x.csv", "z": "z.csv",
                          "suspect": suspect},
                   "misspec": {"p": 2, "m": 1.0}}
        elif case == "n_not_a_number":
            model["n"] = "abc"
        elif case == "three_d_gamma":
            model["gamma"] = [[[-1.0]]]
        elif case == "identity_column_out_of_range":
            model.update(gamma=[[-1.0], [0.4], [0.2]], sigma=np.eye(3).tolist(),
                         g_init=[0.1, 0.1, 0.2])
            doc["misspec"]["b_mat"] = {"identity_columns": [5]}
        elif case == "identity_column_boolean":
            model.update(gamma=[[-1.0], [0.4], [0.2]], sigma=np.eye(3).tolist(),
                         g_init=[0.1, 0.1, 0.2])
            doc["misspec"]["b_mat"] = {"identity_columns": [True]}
        elif case == "identity_column_fractional":
            model.update(gamma=[[-1.0], [0.4], [0.2]], sigma=np.eye(3).tolist(),
                         g_init=[0.1, 0.1, 0.2])
            doc["misspec"]["b_mat"] = {"identity_columns": [1.0]}
        elif case == "n_boolean":
            model["n"] = True
        elif case == "n_fractional":
            model["n"] = 1000.9
        elif case == "mixed_string":
            doc["options"] = {"mixed": "false"}
        elif case == "variance_bogus":
            doc["options"] = {"variance": "bogus"}
        elif case == "variance_on_model":
            # a model problem carries one sigma: the option would be ignored
            doc["options"] = {"variance": "homoskedastic"}
        elif case == "mixed_on_model":
            doc["options"] = {"mixed": True}
        elif case == "variance_flag_on_model":
            extra = ["--variance", "homoskedastic"]
        elif case == "mixed_flag_on_model":
            extra = ["--mixed"]
        elif case == "one_sided_criterion":
            doc["options"] = {"criterion": "one_sided_quantile"}
        elif case == "m_grid_not_a_number":
            extra = ["--m-grid", "0,x"]
        elif case == "top_level_not_object":
            doc = [doc]
        elif case == "model_not_object":
            doc["model"] = 5
        elif case == "iv_not_object":
            del doc["model"]
            doc["iv"] = "y.csv"
        elif case == "options_not_object":
            doc["options"] = [1]
        elif case == "misspec_not_object":
            doc["misspec"] = [1]
        code, out, err = run(capsys, [command, "--problem",
                                      write_problem(tmp_path, doc), *extra])
        assert code == 2, err
        assert out == ""
        assert "validation error" in err and "Traceback" not in err
        assert field in err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flag, in_file", [
        ("nan", 0.05), ("0", 0.05), ("2", 0.05), (None, "nan"), ("0.5", 0.05),
        ("0.7", 0.05), (None, 0.999)])
    def test_invalid_alpha_exit_code(self, tmp_path, capsys, command, flag,
                                     in_file):
        doc = scalar_doc()
        doc["alpha"] = in_file
        extra = [] if flag is None else ["--alpha", flag]
        code, out, err = run(capsys, [command, "--problem",
                                      write_problem(tmp_path, doc), *extra])
        assert code == 2, err
        assert out == ""
        assert "alpha must lie in (0, 1/2)" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_empty_m_grid_exit_code(self, tmp_path, capsys, command):
        code, out, err = run(capsys, [command, "--problem",
                                      write_problem(tmp_path, scalar_doc(m_grid=[]))])
        assert code == 2, err
        assert out == ""
        assert "m_grid must be nonempty" in err and "Traceback" not in err

    def test_csv_matrix_reference(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        n = 300
        z = rng.normal(size=(n, 3))
        x = z @ np.array([1.0, 0.5, 0.3]) + rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n)
        for name, arr in (("y.csv", y[:, None]), ("x.csv", x[:, None]),
                          ("z.csv", z)):
            header = ",".join(f"col{i}" for i in range(arr.shape[1]))
            np.savetxt(tmp_path / name, arr, delimiter=",", header=header,
                       comments="")
        doc = {
            "iv": {"y": "y.csv", "x": "x.csv", "z": "z.csv", "suspect": [2],
                   "h_deriv": [1.0]},
            "misspec": {"p": "inf", "m_grid": [0.0, 0.5]},
            "alpha": 0.05,
        }
        code, out, err = run(capsys, ["ci", "--problem",
                                      write_problem(tmp_path, doc)])
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == 2

    def test_mixed_variance_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        n = 400
        z = rng.normal(size=(n, 3))
        x = z @ np.array([1.0, 0.5, 0.3]) + rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n) * np.sqrt(0.5 + z[:, 0] ** 2)
        for name, arr in (("y.csv", y[:, None]), ("x.csv", x[:, None]),
                          ("z.csv", z)):
            header = ",".join(f"col{i}" for i in range(arr.shape[1]))
            np.savetxt(tmp_path / name, arr, delimiter=",", header=header,
                       comments="")
        doc = {
            "iv": {"y": "y.csv", "x": "x.csv", "z": "z.csv", "suspect": [2],
                   "h_deriv": [1.0]},
            "misspec": {"p": 2, "m": 1.0},
            "alpha": 0.05,
        }
        path = write_problem(tmp_path, doc)
        code1, out1, _ = run(capsys, ["ci", "--problem", path])
        code2, out2, _ = run(capsys, ["ci", "--problem", path, "--mixed"])
        assert code1 == 0 and code2 == 0
        assert out1 != out2


class TestExtremeMagnitude:
    @pytest.mark.parametrize("m", ["1e155", "1e300", "1.7e308"])
    def test_mse_past_the_ratio_range_exits_0(self, tmp_path, capsys, m):
        # at M = 1e155 the "mse" ratio M^2 bbar / sd exceeds a double on this
        # p = inf path; it once escaped as an OverflowError (exit 1)
        doc = scalar_doc(p="inf", m_grid=[0.0, 1.0],
                         b_mat=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        doc["model"].update(gamma=[[-1.0], [0.4], [0.2]],
                            sigma=[[1.0, 0.2, 0.0], [0.2, 1.5, 0.1], [0.0, 0.1, 2.0]],
                            g_init=[0.1, 0.05, -0.02])
        code, out, err = run(capsys, ["ci", "--problem", write_problem(tmp_path, doc),
                                      "--criterion", "mse", "--m-grid", f"0,{m}"])
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert all(math.isfinite(float(v)) for row in rows for v in row.values())


class TestOverflowingIV:
    def test_ci_exits_2_without_warning(self, tmp_path):
        rng = np.random.default_rng(17)
        n = 500
        z0 = rng.normal(size=(n, 3))
        z = 1e160 * np.column_stack(
            [z0, z0[:, 0] + z0[:, 1] + 1e-3 * rng.normal(size=n)])
        y = rng.normal(size=n)
        x = z0[:, 0] + rng.normal(size=n)
        for name, arr in (("y.csv", y[:, None]), ("x.csv", x[:, None]),
                          ("z.csv", z)):
            np.savetxt(tmp_path / name, arr, delimiter=",", comments="",
                       header=",".join(f"c{i}" for i in range(arr.shape[1])),
                       fmt="%.17g")
        doc = {"iv": {"y": "y.csv", "x": "x.csv", "z": "z.csv", "suspect": [1, 3]},
               "misspec": {"p": 2, "m_grid": [0.0, 1.0]}, "alpha": 0.05}
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.run(
            [sys.executable, "-m", "momentguard.cli", "ci", "--problem",
             write_problem(tmp_path, doc)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert "z:" in proc.stderr
