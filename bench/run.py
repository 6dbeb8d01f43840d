"""momentguard benchmark: one workload, closed loop, one caller.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 bench/run.py --workload iv_ci --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the workload's first block of operations repeatedly, alternating an
untraced pass with a traced one, and reports the per-layer metrics of one
pass plus the tracing overhead. Every operation's output is checked after the
timed phase. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it restate each metric with its unit, the environment and any failures.

BLAS threads are capped at the number of usable CPUs here, before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WARMUP_SECONDS = 1.0
TAIL_BEYOND = 10
WORKLOADS = ("iv_ci", "efficiency", "spectest", "cli")


@dataclass
class Record:
    prob: object
    latency: float
    result: object = None
    error: str | None = None


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict                       # name -> (value, unit)
    lines: list = field(default_factory=list)


def cap_blas_threads() -> int:
    n = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return n


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_op(wl, prob) -> Record:
    t0 = time.perf_counter()
    try:
        res = wl.run(prob)
    except Exception as exc:  # an operation that raises is a failed operation
        return Record(prob, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return Record(prob, time.perf_counter() - t0, res)


def warm_up(wl) -> None:
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < WARMUP_SECONDS:
        run_op(wl, wl.problems[i % len(wl.problems)])
        i += 1


def check_all(wl, records) -> list[str]:
    """Check every recorded output; one message per failed operation."""
    failures = []
    for i, rec in enumerate(records):
        errors = [rec.error] if rec.error else None
        if errors is None:
            try:
                errors = wl.check(rec.prob, rec.result)
            except Exception as exc:
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            failures.append(f"op {i}: " + "; ".join(errors))
    return failures


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); the maximum if there are too
    few samples for such a percentile.
    """
    lat = sorted(latencies)
    rank = len(lat) - TAIL_BEYOND
    if rank < 1:
        return lat[-1], 100.0, 0
    return lat[rank - 1], 100.0 * rank / len(lat), len(lat) - rank


def setup_seconds(wl, env: dict, repeats: int) -> float:
    """Median over ``repeats`` of a cold import plus building the inputs."""
    from workloads import cold_import_seconds

    samples = []
    for _ in range(repeats):
        t_import = cold_import_seconds(env)
        t0 = time.perf_counter()
        wl.build()
        samples.append(t_import + time.perf_counter() - t0)
    return statistics.median(samples)


def end_to_end(wl, seconds: float, env: dict, setup_repeats: int) -> Outcome:
    setup = setup_seconds(wl, env, setup_repeats)
    warm_up(wl)
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        records.append(run_op(wl, wl.problems[i % len(wl.problems)]))
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start

    failures = check_all(wl, records)
    lat = [r.latency for r in records]
    t_val, t_pct, t_beyond = tail(lat)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    n, nf = len(records), len(failures)
    metrics = {
        "throughput_ops_s": (n / wall, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (t_val * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {"latency_tail_ms": f" (p{t_pct:.1f}, {n} samples, {t_beyond} beyond)"}
    lines = [f"{wl.name} {k} {v:.6g} {u}{notes.get(k, '')}" for k, (v, u) in metrics.items()]
    lines.append(f"{wl.name} error_rate {nf / n:.6g} ratio ({nf} failed / {n} attempted)")
    if wl.name == "iv_ci":
        first = [rec.result for rec in records[:wl.block] if rec.error is None]
        ratios = [r for res in first for r in wl.length_ratios(res)]
        index = math.exp(statistics.fmean(map(math.log, ratios))) if ratios else math.nan
        lines.append(f"{wl.name} ci_length_index {index:.9g} ratio "
                     f"(geometric mean over the first {len(first)} problems, M > 0)")
    lines += [f"FAILED {msg}" for msg in failures]
    return Outcome(n, nf, metrics, lines)


def traced(wl, seconds: float, env: dict, trace_file: Path | None) -> Outcome:
    from spans import Tracer, layer_metric_units
    from workloads import cold_import_seconds, interpreter_seconds

    wl.build()
    if wl.name == "cli":
        wl.in_process = True
    warm_up(wl)
    ops = wl.problems[:wl.block]
    tracer = Tracer()
    records, plain_walls, traced_walls, passes = [], [], [], []
    overruns = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        records += [run_op(wl, prob) for prob in ops]
        plain_walls.append(time.perf_counter() - t0)

        tracer.install()
        try:
            mark = tracer.mark()
            t0 = time.perf_counter()
            for prob in ops:
                with tracer.op(len(records)):
                    records.append(run_op(wl, prob))
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        stats, overrun = tracer.summarize(mark, len(ops))
        passes.append(stats)
        overruns += overrun

    failures = check_all(wl, records)
    if overruns:
        failures.append(f"{overruns} operations whose summed self times exceed their wall time")
    units = layer_metric_units()
    metrics = {name: (statistics.median(p[name] for p in passes), units[name])
               for name in passes[0]}
    metrics["cli.interpreter_ms"] = (
        statistics.median(interpreter_seconds(env) for _ in range(SETUP_REPEATS)) * 1e3, "ms")
    metrics["cli.import_ms"] = (
        statistics.median(cold_import_seconds(env) for _ in range(SETUP_REPEATS)) * 1e3, "ms")
    metrics["trace.throughput_ratio"] = (
        statistics.median(plain_walls) / statistics.median(traced_walls), "ratio")
    if trace_file is not None:
        tracer.write(trace_file)
    lines = [f"{wl.name} {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"{wl.name} {len(passes)} traced passes of {len(ops)} operations"
                 + (f"; spans written to {trace_file.relative_to(ROOT)}" if trace_file else ""))
    lines += [f"FAILED {msg}" for msg in failures]
    return Outcome(len(records), len(failures), metrics, lines)


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16], "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}, "seed": seed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    if not (SRC / "momentguard" / "__init__.py").is_file():
        print(f"bench: no momentguard package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = child_env()
    wl = workloads.make(args.workload, args.seed, ROOT, env)
    try:
        if args.trace:
            out = traced(wl, args.seconds, env,
                         OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        else:
            out = end_to_end(wl, args.seconds, env, SETUP_REPEATS)
    finally:
        wl.close()

    print("# env " + json.dumps(environment(args.seed, nproc)))
    print("\n".join(out.lines))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
