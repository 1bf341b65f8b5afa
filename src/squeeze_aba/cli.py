"""Command-line front end: solve, params, rate, bench.

Exit codes: 0 success, 2 validation/infeasibility, 3 not converged,
4 boundary fixed point (rate analysis inapplicable), 1 unexpected runtime
failure.  JSON is the machine interface; the human-readable summary goes
to standard output.  Set SQUEEZE_ABA_LOG=error|warn|info|debug to control
diagnostics verbosity.

``--method`` takes ``solve``'s methods, and the CLI holds no policy of its
own: it turns ``--lambda``, ``--r``, ``--f`` and the ``--params`` file into
``solve``'s keywords, and ``io`` lays out every document it prints or writes.

    aba    no flags
    alg1   --lambda (defaults to its upper bound)
    alg2   --r, and --lambda (defaults to its upper bound)
    alg3   --r with --f or --lambda
    auto   no flags: ``solve`` plans the squeeze, and where the plan is
           refused it logs the reason as a warning on the ``squeeze_aba``
           logger and runs the plain iteration
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import io as sio
from .channel import make_distribution, uniform
from .errors import BoundaryFixedPointError, SqueezeAbaError, ValidationError
from .experiments import BenchConfig, run_benchmark
from .rate_analysis import fixed_point_on_floor, matrix_rate
from .solvers import METHODS, SolverConfig, solve
from .squeeze import SqueezeParams
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


def _solve_kwargs(args, channel) -> dict:
    """``solve``'s keywords for every flag given, as given, so the method's
    own rules apply to them: 'auto' plans its squeeze and takes no flag,
    and prebuilt params take no --lambda, --r or --f."""
    flags = {"lam": args.lam, "r": _parse_vector(args.r), "f": _parse_vector(args.f),
             "params": None if args.params is None else sio.load_params_json(channel, args.params)}
    return {name: value for name, value in flags.items() if value is not None}


def cmd_solve(args) -> int:
    channel = sio.load_channel(args.channel)
    config = SolverConfig(epsilon=args.epsilon, max_iters=args.max_iters,
                          record_trace=args.trace is not None)
    result = solve(channel, args.method, config=config, **_solve_kwargs(args, channel))

    doc = sio.solve_to_dict(result, args.units)
    if args.json:
        sio.write_json(args.json, doc)
    if args.trace:
        sio.write_trace_csv(result, args.trace)

    print(f"method      {result.method}")
    print(f"converged   {str(result.converged).lower()} ({result.iterations} iterations)")
    print(f"capacity    {doc['capacity']:.12g} {doc['units']} "
          f"[{doc['capacity_lower']:.12g}, {doc['capacity_upper']:.12g}]")
    print("p_hat       " + ", ".join(f"{v:.12g}" for v in result.p_hat.probs))
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_params(args) -> int:
    channel = sio.load_channel(args.channel)
    q = args.q
    if q is not None:
        q = uniform(channel.m) if q == "uniform" else make_distribution(_parse_vector(q))
    print(sio.json_text(sio.plan_to_dict(plan(channel, args.strategy, q=q))), end="")
    return EXIT_OK


def cmd_rate(args) -> int:
    channel = sio.load_channel(args.channel)
    config = SolverConfig(epsilon=args.gap, max_iters=args.max_iters)
    result = solve(channel, args.method, config=config, **_solve_kwargs(args, channel))
    if not result.converged:
        print(f"error: solver did not reach gap {args.gap:g} within "
              f"{args.max_iters} iterations", file=sys.stderr)
        return EXIT_NOT_CONVERGED

    params = result.params
    report = matrix_rate(params, fixed_point_on_floor(params, result.p_hat))
    # overlap bound applies to the plain iteration; analyze it at the same optimizer
    if params.is_plain():
        plain = report
    else:
        trivial = SqueezeParams(channel, 0.0, 0.0)
        plain = matrix_rate(trivial, fixed_point_on_floor(trivial, result.p_hat))
    doc = sio.rate_to_dict(result, report, plain)
    if args.json:
        sio.write_json(args.json, doc)
    print(sio.json_text(doc), end="")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = BenchConfig(m=args.m, n=args.n, replications=args.reps,
                         seed=args.seed, epsilon=args.epsilon)
    records, summary = run_benchmark(config)
    if args.out:
        csv_path, json_path = sio.write_bench_outputs(config, records, summary, args.out)
        log.info("wrote %s and %s", csv_path, json_path)
    print(sio.json_text(summary), end="")
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
        p.add_argument("--method", default="aba", choices=METHODS)
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="exponent gain (alg1/alg2/alg3; not auto)")
        p.add_argument("--r", default=None, help="floor vector, comma-separated (alg2/alg3)")
        p.add_argument("--f", default=None, help="offset vector, comma-separated (alg3)")
        p.add_argument("--params", default=None,
                       help="JSON file with r, f, lambda (alg2/alg3; no other flag)")
        p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
        p.add_argument("--json", default=None, help="write result JSON here")

    p_solve = sub.add_parser("solve", help="compute capacity and the optimal input")
    add_method_flags(p_solve)
    p_solve.add_argument("--epsilon", type=float, default=SolverConfig.epsilon,
                         help="stopping threshold on the capacity gap, nats")
    p_solve.add_argument("--units", choices=list(sio.UNITS), default="nats")
    p_solve.add_argument("--trace", default=None, help="write per-iteration CSV here; p is "
                         "the method's own iterate, on the floored simplex if floored, not p_hat")
    p_solve.set_defaults(func=cmd_solve)

    p_params = sub.add_parser("params", help="plan squeeze parameters")
    p_params.add_argument("channel")
    p_params.add_argument("--strategy", default="heuristic", choices=list(STRATEGIES))
    p_params.add_argument("--q", default=None, help="reference distribution for the "
                          "heuristic floor, comma-separated or 'uniform' (the default)")
    p_params.set_defaults(func=cmd_params)

    p_rate = sub.add_parser("rate", help="local convergence-rate analysis")
    add_method_flags(p_rate)
    p_rate.add_argument("--gap", type=float, default=1e-13,
                        help="gap the solver must reach before rate analysis")
    p_rate.set_defaults(func=cmd_rate)

    p_bench = sub.add_parser("bench", help="seeded multi-method iteration benchmark")
    p_bench.add_argument("--m", type=int, default=BenchConfig.m)
    p_bench.add_argument("--n", type=int, default=BenchConfig.n)
    p_bench.add_argument("--reps", type=int, default=BenchConfig.replications)
    p_bench.add_argument("--seed", type=int, default=BenchConfig.seed)
    p_bench.add_argument("--epsilon", type=float, default=BenchConfig.epsilon)
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
    except (SqueezeAbaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
