import dataclasses
import json

import numpy as np
import pytest

import squeeze_aba as sa
from squeeze_aba import experiments


def test_random_channel_deterministic_across_calls():
    a = sa.random_channel(2, 8, sa.replication_rng(1234, 0))
    b = sa.random_channel(2, 8, sa.replication_rng(1234, 0))
    assert np.array_equal(a.w, b.w)
    c = sa.random_channel(2, 8, sa.replication_rng(1234, 1))
    assert not np.array_equal(a.w, c.w)


def test_random_channel_known_stream():
    # Philox with SeedSequence(entropy=seed, spawn_key=(k,)) is a stable,
    # documented stream; pin one value to catch accidental RNG changes.
    rng = sa.replication_rng(1234, 0)
    expected = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=1234, spawn_key=(0,)))
    ).random((2, 8))
    expected = expected / expected.sum(axis=1, keepdims=True)
    expected = expected / expected.sum(axis=1, keepdims=True)  # validation renormalizes
    got = sa.random_channel(2, 8, rng)
    assert np.array_equal(got.w, expected)


def test_random_channel_validates(rng):
    for _ in range(20):
        ch = sa.random_channel(int(rng.integers(2, 6)), int(rng.integers(1, 9)),
                               sa.replication_rng(7, int(rng.integers(1000))))
        assert np.allclose(ch.w.sum(axis=1), 1.0, atol=1e-12)
        assert ch.w.min() >= 0.0


class _Draws:
    """A stand-in generator: ``random(shape)`` returns the queued draws in
    order, then ``fill`` for ever; the shapes asked for are kept."""

    def __init__(self, draws, fill):
        self.draws, self.fill, self.shapes = list(draws), np.asarray(fill), []

    def random(self, shape):
        self.shapes.append(shape)
        return np.array(self.draws.pop(0)) if self.draws else np.tile(self.fill, (shape[0], 1))


def test_random_channel_redraws_rows_of_no_mass():
    tiny = [1e-14, 2e-14, 3e-14, 4e-14]  # sums to 1e-13, under the 1e-12 cut
    first = [tiny, [0.1, 0.2, 0.3, 0.4], tiny]
    again = [[0.5, 0.5, 0.5, 0.5], tiny]  # row 2 stays weak for one more round
    last = [[0.4, 0.3, 0.2, 0.1]]
    stub = _Draws([first, again, last], tiny)
    got = sa.random_channel(3, 4, stub)
    assert stub.shapes == [(3, 4), (2, 4), (1, 4)]
    u = np.array([again[0], first[1], last[0]])
    expected = sa.validate_channel(u / u.sum(axis=1, keepdims=True))
    assert got.w.tobytes() == expected.w.tobytes()


def test_random_channel_stops_redrawing_after_100_rounds():
    tiny = [1e-14, 2e-14, 3e-14, 4e-14]
    stub = _Draws([[tiny, [0.1, 0.2, 0.3, 0.4]]], tiny)  # row 0 never gains mass
    got = sa.random_channel(2, 4, stub)
    assert stub.shapes == [(2, 4)] + [(1, 4)] * 100
    u = np.array([tiny, [0.1, 0.2, 0.3, 0.4]])
    expected = sa.validate_channel(u / u.sum(axis=1, keepdims=True))
    assert got.w.tobytes() == expected.w.tobytes()


def test_random_2x8_overlap_mass_band():
    # Monte Carlo: mean row-overlap mass of these channels sits well inside
    # (0.4, 0.9), so they leave real squeezing room
    vals = [sa.random_channel(2, 8, sa.replication_rng(99, k)).column_minima().sum()
            for k in range(300)]
    assert 0.4 < float(np.mean(vals)) < 0.9


def test_bench_config_validation():
    with pytest.raises(sa.ValidationError):
        sa.BenchConfig(replications=0)
    with pytest.raises(sa.ValidationError):
        sa.BenchConfig(methods=("alg1",))


@pytest.mark.parametrize("kwargs, match", [
    ({"methods": ("aba", "alg9")}, "unknown benchmark method"),
    ({"methods": ("aba", "auto")}, "unknown benchmark method"),
    ({"methods": ("aba", "alg2", "aba")}, "must not repeat"),
    ({"m": 1}, "m must be >= 2"),
    ({"n": 0}, "n must be >= 1"),
    ({"replications": 2.5}, "replications must be an integer"),
    ({"epsilon": 0.0}, "epsilon must be positive"),
    ({"epsilon": float("nan")}, "epsilon must be positive"),
    ({"m": 2.0}, "m must be an integer"),
    ({"n": "8"}, "n must be an integer"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"seed": 2.0}, "seed must be an integer"),
    ({"epsilon": None}, "epsilon must be a real number, got None"),
    ({"epsilon": "1e-8"}, "epsilon must be a real number, got '1e-8'"),
    ({"methods": "aba"}, "methods must be a sequence of names, got 'aba'"),
])
def test_bench_config_rejects_at_construction(kwargs, match):
    # rejected at construction, not by every replication at run time
    with pytest.raises(sa.ValidationError, match=match):
        sa.BenchConfig(**kwargs)


def test_bench_config_normalises_integers():
    cfg = sa.BenchConfig(m=np.int64(3), n=np.int32(4), replications=np.int64(2),
                         seed=np.uint32(7))
    assert (cfg.m, cfg.n, cfg.replications, cfg.seed) == (3, 4, 2, 7)
    assert all(type(v) is int for v in (cfg.m, cfg.n, cfg.replications, cfg.seed))
    # epsilon goes through SolverConfig's check, which stores a Python float
    for epsilon in (np.float32(1e-6), 1, True):
        assert type(sa.BenchConfig(epsilon=epsilon).epsilon) is float


def test_single_replication_deterministic():
    cfg = sa.BenchConfig(m=2, n=8, replications=1, seed=5, epsilon=1e-8)
    rec1, _ = sa.run_benchmark(cfg)
    rec2, _ = sa.run_benchmark(cfg)
    assert rec1[0].iterations == rec2[0].iterations
    assert rec1[0].log2_ratios == rec2[0].log2_ratios
    assert all(v >= 1 for v in rec1[0].iterations.values())


def test_benchmark_bands_2x8():
    cfg = sa.BenchConfig(m=2, n=8, replications=100, seed=0, epsilon=1e-8)
    records, summary = sa.run_benchmark(cfg)
    assert summary["failures"] == 0
    it = summary["iterations"]
    lr = summary["log2_ratios"]
    assert it["alg1"]["max"] <= 60
    assert it["alg2"]["max"] <= 24
    assert 1.3 <= lr["alg1"]["median"] <= 2.7
    assert 2.1 <= lr["alg2"]["median"] <= 3.5
    # the squeezed methods dominate the baseline almost uniformly
    dominant = sum(
        1 for rec in records
        if rec.iterations["alg1"] <= rec.iterations["aba"]
        and rec.iterations["alg2"] <= rec.iterations["alg1"]
    )
    assert dominant >= 95
    # acceleration never drops anywhere near break-even
    assert 2.0 ** lr["alg1"]["min"] > 1.5
    assert 2.0 ** lr["alg2"]["min"] > 1.5


def test_methods_agree_on_capacity_per_replication():
    cfg = sa.BenchConfig(m=2, n=8, replications=10, seed=11, epsilon=1e-8)
    for k in range(cfg.replications):
        ch = sa.random_channel(2, 8, sa.replication_rng(cfg.seed, k))
        caps = []
        for method, kw in (("aba", {}), ("alg1", {}),
                           ("alg2", {"r": sa.optimal_r_m2(ch)})):
            res = sa.solve(ch, method, config=sa.SolverConfig(epsilon=cfg.epsilon), **kw)
            caps.append(res.capacity)
        assert max(caps) - min(caps) <= 2 * cfg.epsilon


def test_bench_outputs(tmp_path):
    cfg = sa.BenchConfig(m=2, n=8, replications=5, seed=21)
    records, summary = sa.run_benchmark(cfg)
    from squeeze_aba.io import write_bench_outputs

    csv_path, json_path = write_bench_outputs(cfg, records, summary, str(tmp_path / "bench"))
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "replication_id,n_aba,n_alg1,n_alg2,log2_ratio_alg1,log2_ratio_alg2"
    assert len(lines) == 6
    doc = json.loads((tmp_path / "bench_summary.json").read_text())
    assert doc["replications"] == 5
    assert set(doc["iterations"]) == {"aba", "alg1", "alg2"}
    # byte-identical rerun
    write_bench_outputs(cfg, *sa.run_benchmark(cfg), str(tmp_path / "bench2"))
    assert (tmp_path / "bench.csv").read_bytes() == (tmp_path / "bench2.csv").read_bytes()


def test_failed_and_unconverged_methods_are_recorded(monkeypatch):
    """A method that raises or stops at the cap records None and its reason,
    and a method that failed on every replication summarises as empty."""
    real = experiments.solve

    def flaky(channel, method, **kwargs):
        if method == "alg1":
            raise sa.NumericalBreakdownError("monotone ascent lost")
        res = real(channel, method, **kwargs)
        return dataclasses.replace(res, converged=False) if method == "alg2" else res

    monkeypatch.setattr(experiments, "solve", flaky)
    records, summary = sa.run_benchmark(sa.BenchConfig(replications=2))
    cap = sa.SolverConfig().max_iters
    for rec in records:
        assert rec.iterations["aba"] > 0
        assert (rec.iterations["alg1"], rec.iterations["alg2"]) == (None, None)
        assert rec.errors == {"alg1": "monotone ascent lost",
                              "alg2": f"not converged within {cap} iterations"}
        assert rec.log2_ratios == {"alg1": None, "alg2": None}
    empty = {"count": 0, "median": None, "min": None, "max": None}
    for method in ("alg1", "alg2"):
        assert summary["iterations"][method] == empty
        assert summary["log2_ratios"][method] == empty
    assert summary["failures"] == 2
