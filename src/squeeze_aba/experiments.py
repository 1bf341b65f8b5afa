"""Seeded benchmark harness: iteration counts across methods on random channels.

Channels are drawn by row-normalizing independent uniform(0,1) variates.
Randomness comes from numpy's Philox counter-based generator, which is
stable across platforms; replication k of a run with master seed S uses
the stream ``SeedSequence(entropy=S, spawn_key=(k,))``, so replications
are independent and any subset can be reproduced in isolation.

Per replication the harness runs, with a common stopping threshold:

    aba    from the uniform start
    alg1   exponent gain at its upper bound, uniform start
    alg2   floor from the exact binary-input formula (m = 2) or the
           uniform-direction heuristic (m > 2), gain at its upper bound,
           start (1 - r_+) uniform + r

and records iteration counts plus log2 acceleration ratios against the
aba baseline.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelMatrix, uniform, validate_channel
from .errors import SqueezeAbaError, ValidationError
from .solvers import METHODS, SolverConfig, solve
from .squeeze_select import heuristic_r, lambda_upper_bound, optimal_r_m2

DEFAULT_METHODS = ("aba", "alg1", "alg2")


@dataclass(frozen=True)
class BenchConfig:
    m: int = 2
    n: int = 8
    replications: int = 100
    seed: int = 0
    epsilon: float = 1e-8
    methods: tuple[str, ...] = DEFAULT_METHODS
    max_iters: int = 1_000_000

    def __post_init__(self):
        for name, least in (("m", 2), ("n", 1), ("replications", 1), ("max_iters", 1)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {value!r}") from None
            if getattr(self, name) < least:
                raise ValidationError(f"{name} must be >= {least}, got {value}")
        if not (self.epsilon > 0):
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValidationError(f"unknown benchmark method(s) {unknown}; "
                                  f"expected some of {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValidationError(f"methods must not repeat, got {tuple(self.methods)}")
        if "aba" not in self.methods:
            raise ValidationError("methods must include the 'aba' baseline")


@dataclass(frozen=True)
class BenchRecord:
    """One replication: per-method iteration counts and log2 ratios.

    A method that failed has ``None`` in ``iterations`` and its error
    message in ``errors``; ratios are computed only from finite counts.
    """

    replication_id: int
    iterations: dict[str, int | None]
    log2_ratios: dict[str, float | None]
    errors: dict[str, str] = field(default_factory=dict)


def replication_rng(master_seed: int, replication: int) -> np.random.Generator:
    """The Philox stream for one replication (platform-stable, splittable)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(seq))


def random_channel(m: int, n: int, rng: np.random.Generator) -> ChannelMatrix:
    """Row-normalized uniform variates; rows with numerically zero mass redrawn."""
    u = rng.random((m, n))
    for _ in range(100):
        weak = u.sum(axis=1) < 1e-12
        if not weak.any():
            break
        u[weak] = rng.random((int(weak.sum()), n))
    return validate_channel(u / u.sum(axis=1, keepdims=True))


def _run_one(config: BenchConfig, k: int) -> BenchRecord:
    rng = replication_rng(config.seed, k)
    channel = random_channel(config.m, config.n, rng)
    solver_cfg = SolverConfig(epsilon=config.epsilon, max_iters=config.max_iters)
    counts: dict[str, int | None] = {}
    errors: dict[str, str] = {}
    for method in config.methods:
        try:
            if method == "aba":
                res = solve(channel, "aba", config=solver_cfg)
            elif method == "alg1":
                res = solve(channel, "alg1", lam=lambda_upper_bound(channel),
                            config=solver_cfg)
            else:  # alg2, alg3
                r = optimal_r_m2(channel) if config.m == 2 else heuristic_r(channel, uniform(config.m))
                res = solve(channel, method, r=r, lam=lambda_upper_bound(channel),
                            config=solver_cfg)
            counts[method] = res.iterations if res.converged else None
            if not res.converged:
                errors[method] = f"not converged within {config.max_iters} iterations"
        except SqueezeAbaError as exc:
            counts[method] = None
            errors[method] = str(exc)

    base = counts.get("aba")
    ratios: dict[str, float | None] = {}
    for method in config.methods:
        if method == "aba":
            continue
        cnt = counts.get(method)
        if base and cnt:
            ratios[method] = math.log2(base / cnt)
        else:
            ratios[method] = None
    return BenchRecord(k, counts, ratios, errors)


def run_benchmark(config: BenchConfig):
    """Run all replications in order; returns (records, summary).

    Each replication derives its own random stream, so output is
    deterministic for a given seed.  The replications run serially: the
    solver loop holds the interpreter lock, and a thread pool measured
    slower than one thread.
    """
    records = [_run_one(config, k) for k in range(config.replications)]
    return records, summarize(config, records)


def _stats(values) -> dict:
    vals = [v for v in values if v is not None]
    if not vals:
        return {"count": 0, "median": None, "min": None, "max": None}
    return {
        "count": len(vals),
        "median": float(np.median(vals)),
        "min": float(np.min(vals)),
        "max": float(np.max(vals)),
    }


def summarize(config: BenchConfig, records) -> dict:
    summary = {
        "m": config.m,
        "n": config.n,
        "replications": config.replications,
        "seed": config.seed,
        "epsilon": config.epsilon,
        "iterations": {},
        "log2_ratios": {},
        "failures": sum(1 for rec in records if rec.errors),
    }
    for method in config.methods:
        summary["iterations"][method] = _stats(rec.iterations.get(method) for rec in records)
        if method != "aba":
            summary["log2_ratios"][method] = _stats(rec.log2_ratios.get(method) for rec in records)
    return summary


def bench_csv_rows(config: BenchConfig, records):
    """CSV lines: replication_id, per-method counts, per-method log2 ratios."""
    others = [m for m in config.methods if m != "aba"]
    header = ["replication_id", "n_aba"]
    header += [f"n_{m}" for m in others]
    header += [f"log2_ratio_{m}" for m in others]
    yield ",".join(header)
    for rec in records:
        cells = [str(rec.replication_id), _cell(rec.iterations.get("aba"))]
        cells += [_cell(rec.iterations.get(m)) for m in others]
        cells += [_cell(rec.log2_ratios.get(m), fmt="{:.12g}") for m in others]
        yield ",".join(cells)


def _cell(value, fmt: str = "{}") -> str:
    return "" if value is None else fmt.format(value)


def write_bench_outputs(config: BenchConfig, records, summary, prefix: str) -> tuple[str, str]:
    """Write <prefix>.csv and <prefix>_summary.json; returns the two paths."""
    csv_path = f"{prefix}.csv"
    json_path = f"{prefix}_summary.json"
    with open(csv_path, "w", encoding="utf-8") as fh:
        for line in bench_csv_rows(config, records):
            fh.write(line + "\n")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
