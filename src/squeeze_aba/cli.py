"""Command-line front end: solve, params, rate, bench.

Exit codes: 0 success, 2 validation/infeasibility, 3 not converged,
4 boundary fixed point (rate analysis inapplicable), 1 unexpected runtime
failure.  JSON is the machine interface; the human-readable summary goes
to standard output.  Set SQUEEZE_ABA_LOG=error|warn|info|debug to control
diagnostics verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import io as sio
from .channel import make_distribution, uniform
from .errors import (
    BoundaryFixedPointError,
    NotAFixedPointError,
    NumericalBreakdownError,
    SqueezeAbaError,
    ValidationError,
)
from .experiments import BenchConfig, run_benchmark, write_bench_outputs
from .infotheory import LN2
from .rate_analysis import fixed_point_on_floor, matrix_rate
from .solvers import SolverConfig, solve, write_trace_csv
from .squeeze import build_squeeze_params
from .squeeze_select import STRATEGIES, plan

log = logging.getLogger("squeeze_aba")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_CONVERGED = 3
EXIT_BOUNDARY = 4


def _parse_vector(text: str | None):
    if text is None:
        return None
    try:
        return np.array([float(cell) for cell in text.split(",")])
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from None


def _resolve_method(args, channel):
    """Map CLI flags to (method, solve kwargs).  A params file overrides the
    flags; 'auto' plans the squeeze and takes none; every other method gets
    the flags as given, so ``solve`` applies its own rules to them."""
    method = args.method
    if args.params:
        params = sio.load_params_json(channel, args.params)
        return ("alg3" if method in ("auto", "alg3", "alg2") else method), {"params": params}
    flags = {"lam": args.lam, "r": _parse_vector(args.r), "f": _parse_vector(args.f)}
    kwargs = {name: value for name, value in flags.items() if value is not None}
    if method != "auto":
        return method, kwargs
    if kwargs:
        raise ValidationError("--method auto plans its own squeeze; "
                              "it takes no --lambda, --r or --f")
    chosen = plan(channel, "optimal-m2" if channel.m == 2 else "heuristic")
    log.info("auto plan: strategy=%s lambda=%.6g", chosen.strategy, chosen.lam)
    return "alg3", {"params": chosen.build(channel)}


def _scale(value: float, units: str) -> float:
    return value / LN2 if units == "bits" else value


def cmd_solve(args) -> int:
    channel = sio.load_channel(args.channel)
    method, kwargs = _resolve_method(args, channel)
    config = SolverConfig(
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        record_trace=args.trace is not None,
    )
    result = solve(channel, method, config=config, force=args.force, **kwargs)

    units = args.units
    doc = {
        "capacity": _scale(result.capacity, units),
        "capacity_lower": _scale(result.capacity_lower, units),
        "capacity_upper": _scale(result.capacity_upper, units),
        "units": units,
        "p_hat": result.p_hat.probs.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "method": result.method,
        "params": sio.params_to_dict(result.params),
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    if args.trace:
        write_trace_csv(result, args.trace)

    print(f"method      {result.method}")
    print(f"converged   {str(result.converged).lower()} ({result.iterations} iterations)")
    print(f"capacity    {doc['capacity']:.12g} {units} "
          f"[{doc['capacity_lower']:.12g}, {doc['capacity_upper']:.12g}]")
    print("p_hat       " + ", ".join(f"{v:.12g}" for v in result.p_hat.probs))
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_params(args) -> int:
    channel = sio.load_channel(args.channel)
    q = None
    if args.q and args.q != "uniform":
        q = make_distribution(_parse_vector(args.q))
    chosen = plan(channel, args.strategy, q=q)
    chosen.build(channel)  # validate before emitting
    print(json.dumps(chosen.to_dict(), indent=2))
    return EXIT_OK


def cmd_rate(args) -> int:
    channel = sio.load_channel(args.channel)
    method, kwargs = _resolve_method(args, channel)
    config = SolverConfig(epsilon=args.gap, max_iters=args.max_iters)
    result = solve(channel, method, config=config, **kwargs)
    if not result.converged:
        print(f"error: solver did not reach gap {args.gap:g} within "
              f"{args.max_iters} iterations", file=sys.stderr)
        return EXIT_NOT_CONVERGED

    params = result.params
    report = matrix_rate(params, fixed_point_on_floor(params, result.p_hat))
    doc = report.to_dict()
    doc["method"] = result.method
    doc["params"] = sio.params_to_dict(params)

    # overlap bound applies to the plain iteration; analyze it at the same optimizer
    if params.is_plain():
        plain = report
    else:
        trivial = build_squeeze_params(channel, np.zeros(channel.m), np.zeros(channel.n))
        plain = matrix_rate(trivial, fixed_point_on_floor(trivial, result.p_hat))
    doc["overlap_margin"] = plain.global_rate - plain.aba_lower_bound

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_bench(args) -> int:
    config = BenchConfig(m=args.m, n=args.n, replications=args.reps,
                         seed=args.seed, epsilon=args.epsilon)
    records, summary = run_benchmark(config)
    if args.out:
        csv_path, json_path = write_bench_outputs(config, records, summary, args.out)
        log.info("wrote %s and %s", csv_path, json_path)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeeze-aba",
        description="Capacity of discrete memoryless channels by squeezed "
                    "Arimoto-Blahut iterations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_method_flags(p):
        p.add_argument("channel", help="channel matrix file (CSV rows or JSON)")
        p.add_argument("--method", default="aba",
                       choices=["aba", "alg1", "alg2", "alg3", "auto"])
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="exponent gain (alg1/alg2/alg3; not auto)")
        p.add_argument("--r", default=None, help="floor vector, comma-separated (alg2/alg3)")
        p.add_argument("--f", default=None, help="offset vector, comma-separated (alg3)")
        p.add_argument("--params", default=None,
                       help="JSON file with r, f, lambda (overrides the flags)")
        p.add_argument("--max-iters", type=int, default=1_000_000)
        p.add_argument("--json", default=None, help="write result JSON here")

    p_solve = sub.add_parser("solve", help="compute capacity and the optimal input")
    add_method_flags(p_solve)
    p_solve.add_argument("--epsilon", type=float, default=1e-8,
                         help="stopping threshold on the capacity gap, nats")
    p_solve.add_argument("--units", choices=["nats", "bits"], default="nats")
    p_solve.add_argument("--trace", default=None, help="write per-iteration CSV here")
    p_solve.add_argument("--force", action="store_true",
                         help="allow out-of-range lambda or floor (no guarantees)")
    p_solve.set_defaults(func=cmd_solve)

    p_params = sub.add_parser("params", help="plan squeeze parameters")
    p_params.add_argument("channel")
    p_params.add_argument("--strategy", default="heuristic", choices=list(STRATEGIES))
    p_params.add_argument("--q", default="uniform",
                          help="reference distribution for the heuristic floor")
    p_params.set_defaults(func=cmd_params)

    p_rate = sub.add_parser("rate", help="local convergence-rate analysis")
    add_method_flags(p_rate)
    p_rate.add_argument("--gap", type=float, default=1e-13,
                        help="gap the solver must reach before rate analysis")
    p_rate.set_defaults(func=cmd_rate)

    p_bench = sub.add_parser("bench", help="seeded multi-method iteration benchmark")
    p_bench.add_argument("--m", type=int, default=2)
    p_bench.add_argument("--n", type=int, default=8)
    p_bench.add_argument("--reps", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--epsilon", type=float, default=1e-8)
    p_bench.add_argument("--out", default=None, help="output prefix for CSV/JSON")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("SQUEEZE_ABA_LOG", "warn").lower(),
                            logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoundaryFixedPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalBreakdownError, NotAFixedPointError, SqueezeAbaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
