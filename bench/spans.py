"""Span tracing around calls into momentguard's public functions.

``Tracer.install`` replaces each function listed in ``TRACED`` with a wrapper
in every ``momentguard`` module namespace that binds it (including
``from .x import y`` bindings and the values of module-level dicts such as the
CLI's command table), so calls between modules and module-global calls inside
a module are both recorded. ``uninstall`` puts the originals back. Nothing in
the package itself changes.

A span is ``(name, start, end, parent, op)``; spans are kept in memory and
written out once, when the run ends. A span's self time is its duration minus
the durations of its child spans (calls are nested and single-threaded, so
the children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED = {
    "iv": ("build_model", "build_b", "tsls", "drop_collinear_instruments"),
    "model": ("validate_model",),
    "sensitivity": ("frontier", "linf_path", "l2_sensitivity", "select_lambda", "knot_at"),
    "robust_ci": ("ci_from_sensitivity",),
    "critval": ("cv_alpha", "noncentral_chisq_quantile"),
    "efficiency": ("half_modulus", "kappa_two_sided", "kappa_one_sided"),
    "spec_test": ("s_statistic", "m_lower_ci", "test_at_m", "noncentrality_sup"),
    "oracle": ("mc_coverage",),
    "cli": ("parse_problem", "cmd_ci", "cmd_path", "cmd_efficiency", "cmd_spectest",
            "cmd_simulate"),
}

#: Passes over an n x d_g array that ``build_model(..., "robust")`` makes:
#: z'x, z'z, z'y in tsls; z'resid; z'x for gamma; read z and write z*resid;
#: (z*resid)'(z*resid).
BUILD_MODEL_PASSES = 8

#: Ratios and work counts derived from the spans, with their units.
DERIVED = {
    "iv.build_model.bytes_computed": "B",
    "model.validate_model.calls_per_op": "calls/op",
    "sensitivity.frontier.knots_per_call": "knots/call",
    "efficiency.half_modulus.calls_per_op": "calls/op",
    "spec_test.test_at_m.calls_per_m_lower_ci": "calls/call",
}

STATS = {"calls": "count", "total_ms": "ms", "self_ms": "ms"}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.{stat}": unit for name in span_names() for stat, unit in STATS.items()}
    units.update(DERIVED)
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["trace.throughput_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.bytes_computed = 0
        self.knots = 0
        self._stack: list[int] = []
        self._op = -1
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self._op)
            if name == "iv.build_model":
                z = (args[0] if args else kwargs["data"]).z
                self.bytes_computed += z.shape[0] * z.shape[1] * 8 * BUILD_MODEL_PASSES
            elif name == "sensitivity.frontier":
                self.knots += len(out.knots)
            return out

        return traced

    def install(self) -> None:
        import momentguard.cli  # noqa: F401  (not imported by the package itself)

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "momentguard" or key.startswith("momentguard."))]
        for mod, fns in TRACED.items():
            home = sys.modules[f"momentguard.{mod}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patches.append((m.__dict__, attr, orig))
                        elif isinstance(val, dict):
                            for key, v in list(val.items()):
                                if v is orig:
                                    val[key] = wrapper
                                    self._patches.append((val, key, orig))

    def uninstall(self) -> None:
        for namespace, key, orig in reversed(self._patches):
            namespace[key] = orig
        self._patches.clear()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """A root span named ``op`` around one operation."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = ("op", t0, t1, -1, op_id)
            self._op = -1

    def mark(self) -> tuple[int, int, int]:
        return len(self.spans), self.bytes_computed, self.knots

    def summarize(self, since: tuple[int, int, int], n_ops: int) -> tuple[dict, int]:
        """Per-layer stats of the spans recorded after ``since`` (one pass).

        Returns the metrics and the number of operations whose summed self
        times exceed the operation's wall time (always 0 if spans nest).
        """
        first, bytes0, knots0 = since
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, t0, t1, parent, op in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        calls = defaultdict(int)
        total = defaultdict(float)
        self_t = defaultdict(float)
        op_wall: dict[int, float] = {}
        op_self = defaultdict(float)
        inner_calls = 0
        for i, (name, t0, t1, parent, op) in enumerate(spans):
            if name == "op":
                op_wall[op] = t1 - t0
                continue
            dur = t1 - t0
            calls[name] += 1
            total[name] += dur
            self_t[name] += dur - child[i]
            op_self[op] += dur - child[i]
            if (name == "spec_test.test_at_m" and parent >= first
                    and spans[parent - first][0] == "spec_test.m_lower_ci"):
                inner_calls += 1
        overrun = sum(1 for op, wall in op_wall.items() if op_self[op] > wall)

        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_ms"] = total[name] * 1e3
            out[f"{name}.self_ms"] = self_t[name] * 1e3

        def ratio(a, b):
            return a / b if b else 0.0

        out["iv.build_model.bytes_computed"] = self.bytes_computed - bytes0
        out["model.validate_model.calls_per_op"] = ratio(calls["model.validate_model"], n_ops)
        out["sensitivity.frontier.knots_per_call"] = ratio(
            self.knots - knots0, calls["sensitivity.frontier"])
        out["efficiency.half_modulus.calls_per_op"] = ratio(
            calls["efficiency.half_modulus"], n_ops)
        out["spec_test.test_at_m.calls_per_m_lower_ci"] = ratio(
            inner_calls, calls["spec_test.m_lower_ci"])
        return out, overrun

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
