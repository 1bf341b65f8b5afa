"""Time-to-certified-capacity benchmark for squeeze_aba.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload overlap-2x8 --seed 0 --seconds 20 --trace 0

Each run is one process.  It imports the package from ``src/``, builds the
workload's channels from ``--seed`` (set-up, repeated and reported as a
median), then runs passes over the workload's operations until ``--seconds``
have elapsed.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it first runs untraced passes, then the same passes with timing
shims installed, then warm per-step microbenchmarks, and prints the per-layer
metrics (spans go to ``.bench_out/``).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the environment.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-up is repeated this many times; ``setup_s`` is the median
SETUP_REPEATS = 11


def environment(args) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k)
                 for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "platform": platform.platform(),
    }


def setup(workload: str, seed: int):
    """Import the package afresh, generate and validate the channels; returns (sa, wl, seconds)."""
    import importlib

    t0 = time.perf_counter()
    for name in [n for n in sys.modules if n == "squeeze_aba" or n.startswith("squeeze_aba.")]:
        del sys.modules[name]
    sa = importlib.import_module("squeeze_aba")
    importlib.import_module("squeeze_aba.cli")  # the `squeeze-aba` entry point, as sa.cli
    wl = workloads.build(sa, workload, seed)
    return sa, wl, time.perf_counter() - t0


def validate_seconds(sa, wl) -> float:
    """Median time of ``validate_channel`` on the workload's channels, summed."""
    total = 0.0
    for st in wl.strata:
        for ch in st.channels:
            samples = []
            for _ in range(3):
                t0 = time.perf_counter()
                sa.validate_channel(ch.w)
                samples.append(time.perf_counter() - t0)
            total += statistics.median(samples)
    return total


def run_passes(sa, wl, tally, refs, seconds: float, on_op=None) -> None:
    deadline = time.perf_counter() + seconds
    while True:
        workloads.run_pass(sa, wl, tally, refs, on_op)
        if time.perf_counter() >= deadline:
            break


def harness_runs(sa, config) -> dict:
    """The seeded study through ``run_benchmark`` (serial) and through ``squeeze-aba bench``."""
    t0 = time.perf_counter()
    records, summary = sa.run_benchmark(config)
    serial = time.perf_counter() - t0

    out = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = sa.cli.main(["bench", "--m", str(config.m), "--n", str(config.n),
                            "--reps", str(config.replications), "--seed", str(config.seed)])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    cli_summary = json.loads(out.getvalue())
    agree = code == 0 and all(cli_summary["iterations"][m] == summary["iterations"][m]
                              for m in ("aba", "alg1", "alg2"))
    return {"records": records, "serial_s": serial, "cli_s": wall,
            "cpu_per_wall": cpu / wall, "agree": agree}


def harness_matches(records, tally) -> bool:
    """The harness counts equal the direct solves' counts on the same channels."""
    for rec in records:
        for method, count in rec.iterations.items():
            key = (tally.wl.strata[0].name, method, rec.replication_id)
            if count is not None and count != tally.outcomes[key][0]:
                return False
    return True


def exercised_layers(wl) -> set:
    """Span names that the traced run of ``wl`` must record."""
    layers = {"solve", "waterfill", "plan", "build", "bounds"}
    if wl.rate:
        layers |= {"matrix_rate", "eigh", "power"}
    if wl.name == "bench-2x8":
        layers.add("run_benchmark")
    return layers


def traced_metrics(sa, wl, tally, refs, seconds: float, seed: int, env: dict):
    """Untraced passes, traced passes, one pass under tracemalloc, microbenchmarks.

    Returns (per-layer metrics, whether the harness checks passed).
    """
    import tracemalloc

    metrics = dict.fromkeys(("bench_reps_per_s", "bench_reps_per_s.cli", "harness.cpu_per_wall",
                             "harness.rep_s", "harness.solve_share"), 0.0)
    correct = True
    study = sa.BenchConfig(m=2, n=8, replications=workloads.BENCH_REPS, seed=seed,
                           methods=("aba", "alg1", "alg2", "alg3"))
    if wl.name == "bench-2x8":
        harness = harness_runs(sa, study)
        correct = harness["agree"]
        metrics["bench_reps_per_s"] = workloads.BENCH_REPS / harness["serial_s"]
        metrics["bench_reps_per_s.cli"] = workloads.BENCH_REPS / harness["cli_s"]
        metrics["harness.cpu_per_wall"] = harness["cpu_per_wall"]
    run_passes(sa, wl, tally, refs, seconds / 2)
    if wl.name == "bench-2x8":
        correct &= harness_matches(harness["records"], tally)
    untraced = list(tally.pass_seconds)

    tracer = tracing.Tracer()
    op_methods: dict = {}

    def on_op(method):
        op_methods[len(op_methods) + 1] = method
        tracer.op = (len(op_methods), method)

    tracer.install(sa)
    try:
        run_passes(sa, wl, tally, refs, seconds / 2, on_op)
        traced = tally.pass_seconds[len(untraced):]
        metrics.update(tracing.layer_metrics(tracer, op_methods, workloads.METHODS, len(traced)))
        if wl.name == "bench-2x8":
            on_op("harness")
            first = len(tracer.spans)
            t0 = time.perf_counter()
            sa.run_benchmark(study)
            wall = time.perf_counter() - t0
            metrics["harness.rep_s"] = wall / workloads.BENCH_REPS
            metrics["harness.solve_share"] = sum(
                s[2] - s[1] for s in tracer.spans[first:] if s[0] == "solve") / wall
        # the first channel of each stratum once more, for the memory a solve holds at its peak
        first = len(tracer.spans)
        sample = workloads.Workload(wl.name, tuple(
            workloads.Stratum(st.name, st.channels[:1], st.timed) for st in wl.strata), wl.rate)
        tracemalloc.start()
        try:
            workloads.run_pass(sa, sample, workloads.Tally(sample), refs, on_op)
        finally:
            tracemalloc.stop()
        metrics["solvers.peak_alloc_mb"] = tracing.peak_alloc_mb(tracer, first)
        silent = tracing.silent_layers(tracer, exercised_layers(wl))
        if silent:
            print(f"error: no spans recorded for layers {silent}", file=sys.stderr)
            correct = False
    finally:
        tracer.uninstall()

    for method in workloads.METHODS:
        metrics.setdefault(f"solvers.us_per_iter.{method}", 0.0)
    timed = next(st for st in wl.strata if st.timed)
    metrics.update(tracing.step_microbench(sa, timed.channels[0]))
    for method in ("aba", "alg1", "alg2", "auto"):
        metrics[f"iters.{method}"] = tally.iters(method)
    metrics["rate_s"] = statistics.median(tally.rate_seconds[:len(untraced)])
    metrics["rate.boundary_failed"] = sum(
        n for key, n in tally.notes.items() if "BoundaryFixedPointError" in key)
    metrics["ops.wrong_output"] = tally.wrong
    metrics["channel.validate_s"] = validate_seconds(sa, wl)
    metrics["machine.calibration_ms"] = 1e3 * statistics.median(tally.calibration)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{wl.name}-seed{seed}.json", env)
    return metrics, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "squeeze_aba" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2

    env = environment(args)
    setups, setup_calibration = [], []
    for _ in range(SETUP_REPEATS):
        setup_calibration.append(workloads.calibration_loop())
        sa, wl, seconds = setup(args.workload, args.seed)
        setups.append(seconds)
    refs = workloads.references(wl)
    tally = workloads.Tally(wl)

    if args.trace:
        metrics, correct = traced_metrics(sa, wl, tally, refs, args.seconds, args.seed, env)
    else:
        run_passes(sa, wl, tally, refs, args.seconds)
        correct = True
        metrics = {"setup_s": statistics.median(setups) * workloads.CALIBRATION_NOMINAL_S
                   / statistics.median(setup_calibration)}
        for method in workloads.METHODS:
            metrics[f"cert_s.{method}"] = tally.cert_s(method)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_frac"] = 1.0 - tally.failed / tally.attempted

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 1
    env["calibration_ms"] = 1e3 * statistics.median(tally.calibration)
    print(json.dumps({"env": env, "passes": len(tally.pass_seconds), "notes": tally.notes}))
    print(json.dumps({
        "correct": bool(correct and tally.unstable == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
