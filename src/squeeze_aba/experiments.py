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
aba baseline.  ``summarize`` reduces the records to a summary dict.  The
module writes no file: ``io.write_bench_outputs`` writes the records as
CSV and the summary as JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelMatrix, _integer, uniform, validate_channel
from .errors import SqueezeAbaError, ValidationError
from .solvers import SolverConfig, solve
from .squeeze_select import heuristic_r, lambda_upper_bound, optimal_r_m2

#: the methods a replication runs, with parameters it builds itself; not
#: ``solve``'s "auto", which plans its own
METHODS = ("aba", "alg1", "alg2", "alg3")
DEFAULT_METHODS = ("aba", "alg1", "alg2")


@dataclass(frozen=True)
class BenchConfig:
    m: int = 2
    n: int = 8
    replications: int = 100
    seed: int = 0
    epsilon: float = 1e-8
    methods: tuple[str, ...] = DEFAULT_METHODS

    def __post_init__(self):
        for name, least in (("m", 2), ("n", 1), ("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        # the solvers' own check of epsilon, which also makes it a Python float
        object.__setattr__(self, "epsilon", SolverConfig(epsilon=self.epsilon).epsilon)
        if isinstance(self.methods, str):  # tuple() would split it into letters
            raise ValidationError(f"methods must be a sequence of names, got {self.methods!r}")
        object.__setattr__(self, "methods", tuple(self.methods))  # a list would not hash
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValidationError(f"unknown benchmark method(s) {unknown}; "
                                  f"expected some of {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValidationError(f"methods must not repeat, got {self.methods}")
        if "aba" not in self.methods:
            raise ValidationError("methods must include the 'aba' baseline")


@dataclass(frozen=True, eq=False)
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
    sums = u.sum(axis=1)
    for _ in range(100):
        weak = sums < 1e-12
        if not weak.any():
            break
        u[weak] = rng.random((int(weak.sum()), n))
        sums = u.sum(axis=1)
    return validate_channel(u / sums[:, None])


def _run_one(config: BenchConfig, k: int) -> BenchRecord:
    rng = replication_rng(config.seed, k)
    channel = random_channel(config.m, config.n, rng)
    solver_cfg = SolverConfig(epsilon=config.epsilon)
    counts: dict[str, int | None] = {}
    errors: dict[str, str] = {}
    for method in config.methods:
        try:
            kwargs = {}  # the floor first, then the gain: the study's order of bound calls
            if method in ("alg2", "alg3"):
                kwargs["r"] = (optimal_r_m2(channel) if config.m == 2
                               else heuristic_r(channel, uniform(config.m)))
            if method != "aba":
                kwargs["lam"] = lambda_upper_bound(channel)
            res = solve(channel, method, config=solver_cfg, **kwargs)
            counts[method] = res.iterations if res.converged else None
            if not res.converged:
                errors[method] = f"not converged within {solver_cfg.max_iters} iterations"
        except SqueezeAbaError as exc:
            counts[method] = None
            errors[method] = str(exc)

    base = counts["aba"]  # BenchConfig requires the baseline
    ratios = {method: math.log2(base / counts[method]) if base and counts[method] else None
              for method in config.methods if method != "aba"}
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
