"""The pair runner's summary: spreads, wins by the metric's direction, ties."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _runs(values):
    """Result lines of alternating pairs; ``values`` holds (parent, change) per pair."""
    runs = []
    for k, pair in enumerate(values):
        for side, v in zip(("parent", "change"), pair):
            runs.append({"pair": k, "side": side, "result": {
                "correct": True, "attempted": 10, "failed": k,
                "metrics": {"t": {"value": v}, "ok": {"value": v}}}})
    return runs[::-1]  # the order of the runs does not matter, only their pair


def test_summary_counts_wins_by_direction():
    summary = bench_pairs.summarize(_runs([(2.0, 1.0), (3.0, 3.0), (4.0, 5.0), (5.0, 2.0)]),
                                    {"t": "lower", "ok": "higher"})
    lower, higher = summary["metrics"]["t"], summary["metrics"]["ok"]
    assert (lower["change_wins"], lower["ties"], lower["pairs"]) == (2, 1, 4)
    assert (higher["change_wins"], higher["ties"]) == (1, 1)
    assert lower["parent"] == {"median": 3.5, "q1": 2.75, "q3": 4.25, "iqr": 1.5, "n": 4}
    assert lower["median_change"] == pytest.approx(2.5 / 3.5 - 1.0)
    assert summary["attempted_failed"]["change"] == [[10, 0], [10, 1], [10, 2], [10, 3]]


def test_one_pair_has_no_spread():
    one = bench_pairs.summarize(_runs([(2.0, 1.0)]), {"t": "lower"})["metrics"]["t"]
    assert one["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "iqr": 0.0, "n": 1}


def test_pairs_argument():
    assert bench_pairs.parse_pairs(["bench-2x8=10", "rate-square=1"]) == {
        "bench-2x8": 10, "rate-square": 1}
    for bad in ("bench-2x8", "bench-2x8=0", "bench-2x8=x"):
        with pytest.raises(SystemExit):
            bench_pairs.parse_pairs([bad])
