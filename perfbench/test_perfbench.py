"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import squeeze_aba as sa  # noqa: E402
import squeeze_aba.cli  # noqa: E402,F401  (a trace target, as in run.py)
import tracing  # noqa: E402
import workloads  # noqa: E402

DEGENERATE = "DegenerateChannelError"
CONSTRAINT = "SqueezeConstraintError"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
QUIET = sa.SolverConfig(record_trace=False)


def iterations(channel, config=QUIET) -> dict:
    return {m: workloads.certify(sa, channel, m, config).iterations for m in workloads.METHODS}


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# -- iteration counts are deterministic: pin them -----------------------------------


def test_random_64x256_seed0_counts():
    channel = sa.random_channel(64, 256, sa.replication_rng(0, 0))
    counts = {m: workloads.certify(sa, channel, m, QUIET).iterations
              for m in ("aba", "alg1", "alg2")}
    assert counts == {"aba": 30451, "alg1": 29615, "alg2": 29603}


@pytest.mark.parametrize("workload, stratum, expected", [
    ("block-64x256", 0, {"aba": 96, "alg1": 94, "alg2": 94, "alg3": 94, "auto": 94}),
    ("overlap-2x8", 0, {"aba": 83, "alg1": 19, "alg2": 12, "alg3": 12, "auto": 12}),
    ("overlap-2x8", 1, {"aba": 614, "alg1": 57, "alg2": 8, "alg3": 8, "auto": 8}),
    ("overlap-2x8", 2, {"aba": 0, "alg1": CONSTRAINT, "alg2": CONSTRAINT, "alg3": CONSTRAINT,
                        "auto": CONSTRAINT}),
    ("overlap-2x8", 3, {"aba": 0, "alg1": DEGENERATE, "alg2": DEGENERATE, "alg3": DEGENERATE,
                        "auto": DEGENERATE}),
    ("overlap-2x8", 4, {"aba": 43576, "alg1": 522, "alg2": 5, "alg3": 5, "auto": 5}),
    ("bench-2x8", 0, {"aba": 36, "alg1": 16, "alg2": 10, "alg3": 10, "auto": 10}),
])
def test_first_channel_counts(workload, stratum, expected):
    channel = workloads.build(sa, workload, 0).strata[stratum].channels[0]
    got = {}
    for m in workloads.METHODS:
        try:
            got[m] = workloads.certify(sa, channel, m, QUIET).iterations
        except sa.SqueezeAbaError as exc:
            got[m] = type(exc).__name__
    assert got == expected


def test_bench_channels_are_the_study_channels():
    records, _ = sa.run_benchmark(sa.BenchConfig(m=2, n=8, replications=5, seed=3,
                                                 methods=("aba", "alg1", "alg2", "alg3")))
    channels = workloads.build(sa, "bench-2x8", 3).strata[0].channels
    for rec in records:
        got = iterations(channels[rec.replication_id])
        assert {m: got[m] for m in rec.iterations} == rec.iterations


# -- the rate workload: interior squares, boundary 8x32 ---------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rate_square_fixed_point_kinds(seed):
    wl = workloads.build(sa, "rate-square", seed)
    config = sa.SolverConfig(epsilon=workloads.RATE_GAP, record_trace=False)
    for st in wl.strata:
        for channel in st.channels:
            result = sa.solve(channel, "aba", config=config)
            if st.timed:
                assert result.p_hat.probs.min() > 1e-3
                (report,) = workloads.analyse_rate(sa, channel, result)
                assert report.global_rate == pytest.approx(report.global_rate_power, abs=1e-6)
            else:
                assert result.p_hat.probs.min() < 1e-6
                with pytest.raises(sa.BoundaryFixedPointError):
                    workloads.analyse_rate(sa, channel, result)


# -- the independent reference ------------------------------------------------------


def test_capacity_m2_matches_the_binary_symmetric_channel():
    eps = 0.11
    bsc = sa.validate_channel([[1 - eps, eps], [eps, 1 - eps]])
    h = -(eps * math.log(eps) + (1 - eps) * math.log(1 - eps))
    assert workloads.capacity_m2(bsc.w) == pytest.approx(math.log(2) - h, abs=1e-14)


@pytest.mark.xfail(strict=True, reason="known defect: at spreads 3e-5..1e-8 alg2 returns a "
                                       "bracket that misses the capacity (ROADMAP item 3); "
                                       "overlap-2x8 counts these operations as failed")
def test_tiny_spread_brackets_hold():
    for k in range(24):
        channel = workloads.overlap_channel(sa, 1e-6, sa.replication_rng(0, k))
        try:
            result = workloads.certify(sa, channel, "alg2", QUIET)
        except sa.SqueezeAbaError:
            continue
        reference = workloads.capacity_m2(channel.w)
        assert result.capacity_lower - 1e-12 <= reference <= result.capacity_upper + 1e-12


# -- failures and the aba fallback ------------------------------------------------


def test_failed_operations_are_charged_the_aba_solve():
    wl = workloads.build(sa, "overlap-2x8", 0)
    st = wl.strata[3]  # s = 1e-9: every squeezed method raises
    outcomes = workloads.run_channel(sa, wl, st.channels[0], sa.SolverConfig(), None)
    base = outcomes["aba"]
    assert base.note == ""
    for method in ("alg1", "alg2", "alg3", "auto"):
        out = outcomes[method]
        assert out.note == DEGENERATE
        assert out.iterations == base.iterations
        assert out.seconds > base.seconds
    tally = workloads.Tally(wl)
    tally.add(st, 0, outcomes)
    tally.add(st, 0, outcomes)
    # the repeat is checked against the first run but not counted again
    assert (tally.attempted, tally.failed, tally.wrong, tally.unstable) == (5, 4, 0, 0)


def test_a_wrong_bracket_counts_as_failed():
    wl = workloads.build(sa, "overlap-2x8", 0)
    st = wl.strata[2]  # s = 1e-6
    refs = workloads.references(wl)
    tally = workloads.Tally(wl)
    for k, channel in enumerate(st.channels[:48]):
        tally.add(st, k, workloads.run_channel(sa, wl, channel, QUIET, refs[(st.name, k)]))
    assert tally.wrong > 0
    assert any("reference outside bracket" in key for key in tally.notes)


# -- the tracer --------------------------------------------------------------------


def test_a_missing_trace_target_stops_the_traced_run(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("eigh", "", "no_such_layer"),))
    tracer = tracing.Tracer()
    with pytest.raises(LookupError, match="no_such_layer"):
        tracer.install(sa)
    assert sa.solve.__name__ == "solve" and not tracer.spans


def test_a_layer_without_spans_is_reported():
    tracer = tracing.Tracer()
    tracer.install(sa)
    try:
        sa.solve(sa.random_channel(2, 8, sa.replication_rng(0, 0)), "aba", config=QUIET)
    finally:
        tracer.uninstall()
    assert tracing.silent_layers(tracer, {"solve", "waterfill"}) == ["waterfill"]


# -- names, output format, and the empty-directory contract ------------------------


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_are_well_formed_and_unique():
    doc = spec()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert set(w["name"] for w in doc["workloads"]) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric(trace, section):
    proc = run("--workload", "overlap-2x8", "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and 0 < result["failed"] < result["attempted"]
    expected = {m["name"]: m["unit"] for m in spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        ok = result["metrics"]["ok_frac"]["value"]
        assert ok == pytest.approx(1 - result["failed"] / result["attempted"])


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "overlap-2x8", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
