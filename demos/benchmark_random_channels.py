"""Iteration-count benchmark on seeded random channels.

Draws 2 x 8 channels by row-normalizing uniform variates and counts the
iterations each method needs to reach the same capacity gap.  Randomness
is a counter-based Philox stream keyed per replication, so any subset of
the experiment reproduces bit-identically on any platform.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import squeeze_aba as sa

config = sa.BenchConfig(m=2, n=8, replications=100, seed=0, epsilon=1e-8)
records, summary = sa.run_benchmark(config)

print(f"{config.replications} replications of {config.m} x {config.n} channels, "
      f"epsilon {config.epsilon:g}\n")

iters = summary["iterations"]
print("iterations to convergence (median / min / max):")
for method in config.methods:
    st = iters[method]
    print(f"  {method:5s} {st['median']:6.1f} / {st['min']:4.0f} / {st['max']:4.0f}")

ratios = summary["log2_ratios"]
print("\nlog2 acceleration over the baseline (median / min / max):")
for method, st in ratios.items():
    print(f"  {method:5s} {st['median']:5.2f} / {st['min']:5.2f} / {st['max']:5.2f}")
print("  (median 2.0 means a typical 4x reduction in iterations)")

# Every replication is reproducible in isolation from its own stream.
k = int(np.argmax([rec.iterations["aba"] for rec in records]))
ch = sa.random_channel(config.m, config.n, sa.replication_rng(config.seed, k))
res = sa.solve(ch, "aba", config=sa.SolverConfig(epsilon=config.epsilon))
print(f"\nslowest baseline replication was #{k}: "
      f"{records[k].iterations['aba']} iterations (re-run: {res.iterations})")

# The same run is available from the command line, writing plot-ready CSV:
#   squeeze-aba bench --m 2 --n 8 --reps 100 --seed 0 --out results
out_prefix = str(Path(tempfile.mkdtemp()) / "bench")
csv_path, json_path = sa.io.write_bench_outputs(config, records, summary, out_prefix)
print(f"\nwrote {csv_path} and {json_path}")
print(json.dumps(json.loads(Path(json_path).read_text())["log2_ratios"], indent=2))
