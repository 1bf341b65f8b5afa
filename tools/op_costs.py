"""Print what each operation behind a certified solve costs, in µs, on the
seed-0 ``bench-2x8`` channels of a checkout.

Usage, from the root of a checkout:

    python3 tools/op_costs.py [--checkout <checkout>] [--channels 80] [--number 20] [--repeat 7]

The package comes from ``<checkout>/src`` and the channels and ``certify``
from ``<checkout>/perfbench/workloads.py``, so two checkouts compare on the
same channels and the same parameter building as the benchmark's.  A row is
the mean, over the first ``channels`` channels, of each channel's
``timeit`` minimum of ``repeat`` rounds of ``number`` calls, divided by
``number``.  The rows are the parameter builders of ``alg2`` (the floor
``optimal_r_m2``, the gain bound ``lambda_upper_bound`` and
``params_from_r_lambda`` at both), ``aba``'s zero squeeze, the first
floored update's ``waterfill`` call on the weights an ``alg2`` solve passes
it, an ``alg2`` solve with those params prebuilt, and ``certify`` by each
method.  Nothing under ``perfbench/`` is edited; the tool only imports it.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import timeit
from pathlib import Path

SEED = 0


def operations(sa, workloads, channel) -> dict:
    """Name -> zero-argument callable, for one channel."""
    r, lam = sa.optimal_r_m2(channel), sa.lambda_upper_bound(channel)
    params = sa.params_from_r_lambda(channel, r, lam)
    config = sa.SolverConfig()
    # the weights the solve hands its first waterfill call, as the loop passes them
    calls = []
    solvers = importlib.import_module("squeeze_aba.solvers")
    waterfill = solvers.waterfill
    solvers.waterfill = lambda r, x: calls.append(x.copy()) or waterfill(r, x)
    try:
        sa.solve(channel, "alg2", params=params, config=config)
    finally:
        solvers.waterfill = waterfill
    ops = {
        "optimal_r_m2": lambda: sa.optimal_r_m2(channel),
        "lambda_upper_bound": lambda: sa.lambda_upper_bound(channel),
        "params_from_r_lambda": lambda: sa.params_from_r_lambda(channel, r, lam),
        "SqueezeParams(ch, 0, 0)": lambda: sa.SqueezeParams(channel, 0.0, 0.0),
        "waterfill (first update)": lambda: sa.waterfill(params.r, calls[0]),
        "solve alg2, params prebuilt": lambda: sa.solve(channel, "alg2", params=params,
                                                         config=config),
    }
    for method in workloads.METHODS:
        ops[f"certify {method}"] = (lambda method=method:
                                    workloads.certify(sa, channel, method, config))
    return ops


def costs(sa, workloads, channels, number: int, repeat: int) -> dict[str, float]:
    """Name -> mean over ``channels`` of the per-call timeit minimum, in µs."""
    totals: dict[str, float] = {}
    for channel in channels:
        for name, op in operations(sa, workloads, channel).items():
            best = min(timeit.Timer(op).repeat(repeat, number)) / number
            totals[name] = totals.get(name, 0.0) + best
    return {name: 1e6 * total / len(channels) for name, total in totals.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path("."),
                        help="checkout whose src/ and perfbench/ are timed")
    parser.add_argument("--channels", type=int, default=80)
    parser.add_argument("--number", type=int, default=20)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    if min(args.channels, args.number, args.repeat) < 1:
        raise SystemExit("error: --channels, --number and --repeat must be >= 1")

    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    sa = importlib.import_module("squeeze_aba")
    workloads = importlib.import_module("workloads")
    bench = workloads.build(sa, "bench-2x8", SEED).strata[0].channels[:args.channels]
    table = costs(sa, workloads, bench, args.number, args.repeat)
    print(f"# {root}: timeit min, mean over {len(bench)} seed-{SEED} bench-2x8 channels, "
          f"number={args.number}, repeat={args.repeat}")
    width = max(map(len, table))
    for name, us in table.items():
        print(f"{name:<{width}}  {us:8.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
