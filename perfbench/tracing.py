"""Timing shims around the package's public functions, and the per-layer numbers.

The shims live here, not in the package: ``Tracer.install`` replaces a
function at a module boundary (the name the caller looks up) with a wrapper
that records a span (name, start, end, parent, operation id, extras) in
memory.  A layer's self time is its spans' duration minus the part covered
by their child spans.  A target missing from the package stops the traced
run, and a layer that the workload exercises but that records no span makes
it report ``"correct": false``: a change that renames or bypasses a layer
must update ``TARGETS``, not let the layer read 0.  The tracer is installed
only around serial code.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc

import numpy as np

# span name -> (module path relative to the package, attribute)
TARGETS = (
    ("solve", "", "solve"),
    ("solve", "experiments", "solve"),
    ("waterfill", "solvers", "waterfill"),
    ("plan", "", "plan"),
    ("build", "squeeze_select.SqueezePlan", "build"),
    ("build", "", "build_squeeze_params"),
    ("build", "solvers", "build_squeeze_params"),
    ("build", "solvers", "params_from_r_lambda"),
    ("bounds", "", "lambda_upper_bound"),
    ("bounds", "", "optimal_r_m2"),
    ("bounds", "", "heuristic_r"),
    ("bounds", "experiments", "lambda_upper_bound"),
    ("bounds", "experiments", "optimal_r_m2"),
    ("bounds", "experiments", "heuristic_r"),
    ("matrix_rate", "", "matrix_rate"),
    ("eigh", "rate_analysis", "jacobi_eigh"),
    ("power", "rate_analysis", "power_rate"),
    ("run_benchmark", "", "run_benchmark"),
    ("run_benchmark", "cli", "run_benchmark"),
)


def _extras(name: str, result) -> dict:
    if name == "solve":
        return {"iterations": result.iterations, "trace": len(getattr(result, "trace", ()) or ())}
    active = getattr(result, "active_floor", None)
    if name == "waterfill" and active is not None:
        return {"nobind": not bool(np.any(active))}
    return {}


class Tracer:
    """Records spans of serial code; ``op`` is the current operation (id, method)."""

    def __init__(self):
        self.spans: list = []
        self.op = (0, "")
        self._stack: list = []  # indices of the open spans
        self._saved: list = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    tracer.op[0], {}]
            tracer.spans.append(span)
            stack.append(index)
            peak0 = None
            if name == "solve" and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                peak0 = tracemalloc.get_traced_memory()[0]
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5].update(_extras(name, result))
            if peak0 is not None:
                span[5]["peak_bytes"] = tracemalloc.get_traced_memory()[1] - peak0
            return result

        return shim

    def install(self, sa) -> None:
        """Wrap every target; raises ``LookupError`` if any is missing."""
        found, missing = [], []
        for name, where, attr in TARGETS:
            owner = sa
            for part in filter(None, where.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(".".join(filter(None, ("squeeze_aba", where, attr))))
            found.append((name, owner, attr, original))
        if missing:
            raise LookupError(f"trace targets missing from the package: {missing}")
        for name, owner, attr, original in found:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def dump(self, path, env: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": self.spans}, fh)


def silent_layers(tracer: Tracer, expected) -> list:
    """The layers in ``expected`` that recorded no span."""
    seen = {span[0] for span in tracer.spans}
    return sorted(set(expected) - seen)


def layer_metrics(tracer: Tracer, op_methods: dict, methods, passes: int) -> dict:
    """Per-pass layer totals from the spans recorded so far.

    ``op_methods`` maps an operation id to its method; ``solvers.us_per_iter``
    is reported for each of ``methods`` that ran.
    """
    selfs = tracer.self_times()
    spans = tracer.spans
    total = {}
    calls = {}
    per_method = {}   # method -> [self seconds, iterations]
    nobind = failed_plans = trace_records = 0
    for i in range(len(spans)):
        name, extra = spans[i][0], spans[i][5]
        total[name] = total.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "solve" and "iterations" in extra:
            acc = per_method.setdefault(op_methods.get(spans[i][4], ""), [0.0, 0])
            acc[0] += selfs[i]
            acc[1] += extra["iterations"]
            trace_records += extra["trace"]
        elif name == "waterfill":
            nobind += extra.get("nobind", False)
        elif name == "plan" and "error" in extra:
            failed_plans += 1
    out = {f"solvers.us_per_iter.{m}": 1e6 * s / max(it, 1)
           for m, (s, it) in per_method.items() if m in methods}
    out.update({
        "solvers.trace_records": trace_records // passes,
        "waterfill.calls": calls.get("waterfill", 0) // passes,
        "waterfill.s": total.get("waterfill", 0.0) / passes,
        "waterfill.nobind_frac": nobind / max(calls.get("waterfill", 0), 1),
        "select.plan_s": total.get("plan", 0.0) / passes,
        "select.plan_calls": calls.get("plan", 0) // passes,
        "select.plan_failed": failed_plans // passes,
        "select.bounds_s": total.get("bounds", 0.0) / passes,
        "squeeze.build_s": total.get("build", 0.0) / passes,
        "squeeze.build_calls": calls.get("build", 0) // passes,
        "rate.matrix_rate_s": total.get("matrix_rate", 0.0) / passes,
        "rate.eigh_s": total.get("eigh", 0.0) / passes,
        "rate.power_s": total.get("power", 0.0) / passes,
    })
    return out


def peak_alloc_mb(tracer: Tracer, first_span: int) -> float:
    return max((s[5].get("peak_bytes", 0) for s in tracer.spans[first_span:] if s[0] == "solve"),
               default=0) / 2**20


# -- warm microbenchmarks -----------------------------------------------------------


def per_call_us(fn, *args, batches: int = 7, batch_s: float = 0.02) -> float:
    """Median per-call time after warm-up, in microseconds."""
    for _ in range(5):
        fn(*args)
    t0 = time.perf_counter()
    fn(*args)
    reps = max(1, int(batch_s / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        samples.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(samples)


def step_microbench(sa, channel) -> dict:
    """Public step functions and ``waterfill`` at the channel's size, from its start point."""
    m = channel.m
    lam = sa.lambda_upper_bound(channel)
    r = sa.optimal_r_m2(channel) if m == 2 else sa.heuristic_r(channel, sa.uniform(m))
    params = sa.params_from_r_lambda(channel, r, lam)
    p = sa.uniform(m)
    pf = sa.floored_uniform(r)
    x = np.linspace(1.0, 2.0, m)
    return {
        "solvers.step_us.aba": per_call_us(sa.aba_step, channel, p),
        "solvers.step_us.alg1": per_call_us(sa.alg1_step, channel, lam, p),
        "solvers.step_us.alg2": per_call_us(sa.alg2_step, channel, params, pf),
        "solvers.step_us.alg3": per_call_us(sa.alg3_step, params, pf),
        "waterfill.us_per_call": per_call_us(sa.waterfill, r, x),
    }
