"""Run the benchmark in alternating parent/change pairs and write ``BENCH_<n>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent <parent checkout> --change . --number 34 \\
        --pairs bench-2x8=10 --pairs block-64x256=1 --seed 7

A pair runs ``perfbench/run.py --workload <w> --seed <s> --seconds <t> --trace 0``
once in each checkout, one process after the other, where ``t`` is the
``run_seconds`` that ``BENCHMARK.json`` sets, so both sides run as long as
the benchmark does.  The parent checkout is labelled by its git HEAD, so
make it with ``git clone`` (a ``git archive`` copy has no label).  The side that runs
first alternates from pair to pair, so a drift of the machine's speed
falls on both sides alike.  Each run's two output lines are kept whole:
the environment line and the result line.  For every end-to-end metric
that ``BENCHMARK.json`` lists, the summary gives each side's median, first
and third quartile and IQR, the change of the median, and the number of
pairs in which the change's run was better.  Nothing under ``perfbench/``
is edited; the runner only starts it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``: its environment and result lines."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {' '.join(command)} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return {"environment": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and IQR of one side's values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: both sides' spread, the median's relative change, and the
    pairs the change won (better by the metric's direction) or tied."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [by_pair[k] for k in sorted(by_pair)]
    summary = {
        "correct": {side: [p[side]["correct"] for p in pairs] for side in SIDES},
        "attempted_failed": {side: [[p[side]["attempted"], p[side]["failed"]] for p in pairs]
                             for side in SIDES},
        "metrics": {},
    }
    for name, better in metrics.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1.0 if better == "lower" else -1.0
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        parent, change = spread(values["parent"]), spread(values["change"])
        summary["metrics"][name] = {
            "better": better, "parent": parent, "change": change,
            "median_change": (change["median"] / parent["median"] - 1.0
                              if parent["median"] else None),
            "change_wins": sum(d < 0 for d in diffs), "ties": sum(d == 0 for d in diffs),
            "pairs": len(pairs),
        }
    return summary


def git_commit(checkout: Path) -> str | None:
    """The short git HEAD of ``checkout``, or None outside a git work tree."""
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def parse_pairs(items: list[str]) -> dict[str, int]:
    pairs = {}
    for item in items:
        workload, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise SystemExit(f"error: --pairs wants <workload>=<count >= 1>, got {item!r}")
        pairs[workload] = int(count)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    parser.add_argument("--number", type=int, required=True, help="n of the BENCH_<n>.json written")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=COUNT",
                        help="pairs to run on a workload; repeat for each workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    pairs = parse_pairs(args.pairs)

    runs, summary = [], {}
    for workload, count in pairs.items():
        mine = []
        for k in range(count):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                out = run_once(checkouts[side], workload, args.seed, seconds)
                mine.append({"workload": workload, "pair": k, "side": side, **out})
                value = out["result"]["metrics"]["setup_s"]["value"]
                print(f"{workload} pair {k} {side}: setup_s {value:.4f}", file=sys.stderr)
        runs += mine
        summary[workload] = summarize(mine, metrics)

    command = (f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
               f"--seconds {seconds:g} --trace 0")
    document = {
        "what": "alternating parent/change pairs of perfbench/run.py --trace 0 "
                "(the side that runs first alternates by pair); pairs per workload: "
                + ", ".join(f"{w} {n}" for w, n in pairs.items()),
        "parent_commit": git_commit(checkouts["parent"]),
        "command": command,
        "hardware": f"{os.cpu_count()} CPUs, {len(os.sched_getaffinity(0))} usable",
        "summary": summary,
        "runs": runs,
    }
    out = args.out_dir / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
