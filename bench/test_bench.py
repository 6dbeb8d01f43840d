"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of the repository:

    python -m pytest bench/test_bench.py -q

Checks that each workload emits every metric named in BENCHMARK.json, in
both modes, with no failed operation, and that a deliberately corrupted
result is counted as a failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(name: str, trace: bool, corrupt=None) -> run.Outcome:
    env = run.child_env()
    wl = workloads.make(name, 3, ROOT, env, tiny=True)
    if corrupt is not None:
        honest = wl.run
        wl.run = lambda prob: corrupt(honest(prob))
    try:
        if trace:
            return run.traced(wl, 0.2, env, None)
        return run.end_to_end(wl, 0.5, env, setup_repeats=1)
    finally:
        wl.close()


def test_workload_names_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics_emitted(name):
    out = measure(name, trace=False)
    assert out.failed == 0, out.lines
    assert out.attempted >= 1
    assert set(out.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value, unit = out.metrics[metric["name"]]
        assert unit == metric["unit"]
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_layer_metrics_emitted(name):
    out = measure(name, trace=True)
    # includes the check that summed self times never exceed an op's wall time
    assert out.failed == 0, out.lines
    assert set(out.metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        value, unit = out.metrics[metric["name"]]
        assert unit == metric["unit"]
        assert math.isfinite(value) and value >= 0


def _halve_half_lengths(res):
    rows = [(m, dataclasses.replace(ci, half_length=0.5 * ci.half_length), k)
            for m, ci, k in res.rows]
    return dataclasses.replace(res, rows=rows)


def _shift_m_min(out):
    stat, m_min, grid = out
    return stat, 1.01 * m_min + 0.01, grid


CORRUPTIONS = {
    "iv_ci": _halve_half_lengths,
    "efficiency": lambda rep: dataclasses.replace(rep, kappa_two_sided=0.5),
    "spectest": _shift_m_min,
    "cli": lambda res: dataclasses.replace(res, stdout=res.stdout.rstrip("\n") + ",nan\n"),
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_result_counts_as_failure(name):
    out = measure(name, trace=False, corrupt=CORRUPTIONS[name])
    assert out.attempted >= 1
    assert out.failed == out.attempted
    assert any("error_rate 1 " in line for line in out.lines)
