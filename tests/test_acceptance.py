"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks the criterion FAILED via pytest.
"""

import time

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import (
    GOLDEN_CAPACITY,
    GOLDEN_LAMBDA,
    GOLDEN_R_OPT,
    alg3_posterior_step,
    bisect_waterfill_delta,
    draw_interior_channel,
    golden_channel,
    golden_section_capacity,
    polish_fixed_point,
    random_channel,
    random_floor,
    random_offset,
    rate_at,
    reference_lambda_bounds,
)

FLIP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS {text}", flush=True)


@pytest.fixture(scope="module")
def shared_channels():
    """200 interior-optimum channels with random feasible (r, f), shared by
    the rate-identity and overlap-bound criteria."""
    rng = np.random.default_rng(424242)
    sample = []
    while len(sample) < 200:
        try:
            channel, p_hat = draw_interior_channel(rng, m_choices=(2, 3, 4),
                                                   n_lo=3, n_hi=10, margin=1e-3)
        except AssertionError:
            continue
        r = random_floor(rng, channel)
        f = random_offset(rng, channel, r, scale=float(rng.uniform(0.05, 1.0)))
        sample.append((channel, p_hat, r, f))
    return sample


def test_c01_golden_channel_solves():
    start_time = time.monotonic()
    channel = golden_channel()
    skew = sa.make_distribution([1 / 3, 2 / 3])
    p1_star, oracle_capacity = golden_section_capacity(channel)
    assert p1_star == pytest.approx(0.5, abs=1e-7)
    assert oracle_capacity == pytest.approx(GOLDEN_CAPACITY, abs=1e-12)

    for method, kw in (
        ("aba", {}),
        ("alg1", {"lam": GOLDEN_LAMBDA}),
        ("alg2", {"r": GOLDEN_R_OPT, "lam": GOLDEN_LAMBDA}),
        ("alg3", {"r": GOLDEN_R_OPT, "f": np.array([0.0, 0.25, 0.0])}),
    ):
        result = sa.solve(channel, method,
                          config=sa.SolverConfig(epsilon=1e-8, initial=skew), **kw)
        assert result.converged, method
        assert np.abs(result.p_hat.probs - 0.5).max() < 1e-6, method
        assert result.capacity == pytest.approx(oracle_capacity, abs=1e-7)

    rng = np.random.default_rng(1)
    for method in ("alg2", "alg3"):
        for _ in range(20):
            q0 = sa.make_distribution(rng.dirichlet([1.0, 1.0]))
            result = sa.solve(channel, method, r=GOLDEN_R_OPT, lam=GOLDEN_LAMBDA,
                              config=sa.SolverConfig(epsilon=1e-8, initial=q0))
            assert result.converged and result.iterations == 1, (method, q0.probs)
            assert np.abs(result.p_hat.probs - 0.5).max() < 1e-9

    elapsed = time.monotonic() - start_time
    assert elapsed < 1.0
    _report(1, f"golden channel: 4 methods reach (1/2, 1/2); floored methods "
               f"converge in exactly 1 step from 20 random starts ({elapsed:.2f}s)")


def test_c02_golden_rate_values():
    start_time = time.monotonic()
    channel = golden_channel()
    p_hat = [0.5, 0.5]

    plain = sa.build_squeeze_params(channel, [0, 0], [0, 0, 0])
    rep0 = sa.matrix_rate(plain, sa.fixed_point_on_floor(plain, p_hat))
    assert np.abs(rep0.R - 0.275 * FLIP).max() < 1e-6
    assert rep0.global_rate == pytest.approx(0.55, abs=1e-6)

    shifted = sa.build_squeeze_params(channel, [0, 0], [1 / 6, 1 / 3, 1 / 6])
    rep1 = sa.matrix_rate(shifted, sa.fixed_point_on_floor(shifted, p_hat))
    assert np.abs(rep1.R - 0.125 * FLIP).max() < 1e-6
    assert rep1.global_rate == pytest.approx(0.25, abs=1e-6)

    double = sa.build_squeeze_params(channel, GOLDEN_R_OPT, [0, 0.25, 0])
    rep2 = sa.matrix_rate(double, sa.fixed_point_on_floor(double, p_hat))
    assert rep2.global_rate <= 1e-8

    elapsed = time.monotonic() - start_time
    assert elapsed < 1.0
    _report(2, f"matrix rates 0.275/0.125 patterns, global rates 0.55/0.25, "
               f"double squeeze rate {rep2.global_rate:.1e} ({elapsed:.2f}s)")


def test_c03_shift_rate_affine_identity(shared_channels):
    start_time = time.monotonic()
    worst = 0.0
    for channel, p_hat, r, f in shared_channels:
        params = sa.build_squeeze_params(channel, r, f)
        report = sa.matrix_rate(params, sa.fixed_point_on_floor(params, p_hat))
        worst = max(worst, report.shift_identity_residual())
        # the report's zero-offset companion equals an independently built one
        companion = sa.build_squeeze_params(channel, r, np.zeros(channel.n))
        rep0 = sa.matrix_rate(companion, sa.fixed_point_on_floor(companion, p_hat))
        worst = max(worst, abs(report.rate_r0 - rep0.global_rate))
        # and the two spectral routes agree on the shifted rate itself
        worst = max(worst, abs(report.global_rate - report.global_rate_power))
    elapsed = time.monotonic() - start_time
    assert worst <= 1e-7
    assert elapsed < 120.0
    _report(3, f"rate(r, f) = (1 + f_+) rate(r, 0) - f_+ on 200 channels, "
               f"worst residual {worst:.2e} ({elapsed:.1f}s)")


def test_c04_overlap_lower_bound(shared_channels):
    worst_margin = np.inf
    for channel, p_hat, _, _ in shared_channels:
        plain = rate_at(channel, np.zeros(channel.m), np.zeros(channel.n), p_hat)
        worst_margin = min(worst_margin, plain.global_rate - plain.aba_lower_bound)
    assert worst_margin >= -1e-9
    _report(4, f"plain rate >= row-overlap mass on 200 channels, "
               f"smallest margin {worst_margin:.3e}")


def test_c05_floor_rate_ordering():
    rng = np.random.default_rng(31415)
    checked = 0
    while checked < 100:
        try:
            channel, p_hat = draw_interior_channel(rng, m_choices=(2,), n_lo=3, n_hi=10)
        except AssertionError:
            continue
        r = sa.optimal_r_m2(channel)
        # at the top gain the builder's offset is that of the one combined squeeze g
        rates = [rate_at(channel, floor, sa.params_from_r_lambda(channel, floor).f,
                         p_hat).global_rate
                 for floor in (r, r / 2, np.zeros(2))]
        assert rates[0] <= rates[1] + 1e-9
        assert rates[1] <= rates[2] + 1e-9
        checked += 1
    _report(5, "rate(r, g) <= rate(r/2, g) <= rate(0, g) on 100 binary-input channels")


def test_c06_monotone_ascent_500_draws():
    rng = np.random.default_rng(271828)
    methods = ("aba", "alg1", "alg2", "alg3")
    for trial in range(500):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 11))
        channel = random_channel(rng, m, n)
        method = methods[trial % 4]
        kwargs = {}
        if method == "alg1":
            kwargs["lam"] = float(rng.uniform(1.0, sa.lambda_upper_bound(channel)))
        elif method in ("alg2", "alg3"):
            r = random_floor(rng, channel)
            lo, hi = reference_lambda_bounds(channel, r)
            kwargs = {"r": r, "lam": float(rng.uniform(lo, hi))}
        start = sa.make_distribution(rng.dirichlet(np.ones(m)))
        result = sa.solve(
            channel, method,
            config=sa.SolverConfig(epsilon=1e-9, max_iters=2000, initial=start,
                                   record_trace=True),
            **kwargs)
        assert len(result.trace) == result.iterations + 1, (trial, method)
        objectives = np.array([rec.objective for rec in result.trace])
        gaps = np.array([rec.gap for rec in result.trace])
        assert np.all(np.diff(objectives) >= -1e-12), (trial, method)
        assert np.all(gaps >= 0.0), (trial, method)
    _report(6, "objective nondecreasing (1e-12/step) and gap nonnegative "
               "across 500 random solver runs")


def test_c07_waterfill_oracle_and_complexity():
    rng = np.random.default_rng(161803)
    worst = 0.0
    for trial in range(10_000):
        m = int(rng.integers(1, 60))
        x = rng.uniform(1e-2, 10.0, m)
        r = rng.uniform(0.0, 1.0, m)
        r *= rng.uniform(0.0, 0.98) / max(r.sum(), 1e-300)
        if trial % 3 == 0 and m >= 4:
            r[:4] = rng.uniform(0.05, 0.5) * x[:4]  # exact sort-key ties
            if r.sum() >= 0.98:
                r *= 0.95 / r.sum()
        result = sa.waterfill(r, x)
        delta = bisect_waterfill_delta(r, x)
        worst = max(worst, float(np.abs(result.p - np.maximum(r, delta * x)).max()))
    assert worst <= 1e-10

    def timed(m: int) -> float:
        x = rng.uniform(0.1, 10.0, m)
        r = rng.uniform(0, 1, m)
        r *= 0.5 / r.sum()
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            sa.waterfill(r, x)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = timed(2 ** 10), timed(2 ** 14)
    ratio = large / small
    # 16x the size: O(m log m) predicts ~22x; quadratic would be 256x
    assert ratio < 128.0
    _report(7, f"waterfilling matches bisection oracle on 10^4 cases "
               f"(worst {worst:.1e}); 2^10 to 2^14 time ratio {ratio:.1f}")


def test_c08_floored_step_equivalence():
    rng = np.random.default_rng(662607)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 9))
        channel = random_channel(rng, m, n)
        r = random_floor(rng, channel)
        lo, hi = reference_lambda_bounds(channel, r)
        params = sa.params_from_r_lambda(channel, r, float(rng.uniform(lo, hi)))
        for _ in range(20):
            p = params.r + (1 - params.r_plus) * rng.dirichlet(np.ones(m))
            via_posterior = alg3_posterior_step(params, p)
            for via_gain in (sa.alg2_step(channel, params, p), sa.alg3_step(params, p)):
                worst = max(worst, float(np.abs(via_gain.probs - via_posterior).max()))
    assert worst <= 1e-10
    _report(8, f"exponent-gain and posterior step forms agree on 1000 points "
               f"across 50 configurations (worst {worst:.1e})")


def test_c09_benchmark_distribution():
    start_time = time.monotonic()
    for seed in (0, 1, 2):
        config = sa.BenchConfig(m=2, n=8, replications=100, seed=seed, epsilon=1e-8)
        _, summary = sa.run_benchmark(config)
        assert summary["failures"] == 0
        iters = summary["iterations"]
        ratios = summary["log2_ratios"]
        assert iters["alg1"]["max"] <= 60, seed
        assert iters["alg2"]["max"] <= 24, seed
        assert 1.3 <= ratios["alg1"]["median"] <= 2.7, seed
        assert 2.1 <= ratios["alg2"]["median"] <= 3.5, seed
    elapsed = time.monotonic() - start_time
    assert elapsed < 30.0
    _report(9, f"2x8 benchmark bands hold at seeds 0, 1, 2 "
               f"(100 replications each, {elapsed:.1f}s)")


def test_c10_empirical_rate_matches_theory():
    rng = np.random.default_rng(602214)
    measured = draws = 0
    worst_rel = 0.0
    while measured < 50:
        # at this seed every one of the first 50 draws is measured; a cap of
        # 10x that turns a regression (say, an empty trace) into a failure
        draws += 1
        assert draws <= 500, f"only {measured} of 50 channels measured in 500 draws"
        try:
            channel, _ = draw_interior_channel(rng, m_choices=(2, 3), margin=1e-3)
        except AssertionError:
            continue
        result = sa.solve(channel, "aba",
                          config=sa.SolverConfig(epsilon=1e-12, max_iters=100_000,
                                                 record_trace=True))
        if not result.converged:
            continue
        params = result.params
        report = sa.matrix_rate(params, sa.fixed_point_on_floor(params, result.p_hat))
        if report.global_rate <= 0.05:
            continue
        p_star = polish_fixed_point(params, result.p_hat.probs)
        dists = np.array([np.linalg.norm(rec.p - p_star) for rec in result.trace])
        usable = np.nonzero((dists > 1e-8) & (dists < 1e-4))[0]
        if len(usable) < 4:
            continue
        ratios = dists[usable[1:]] / dists[usable[:-1]]
        observed = float(np.exp(np.mean(np.log(ratios[-5:]))))
        rel = abs(observed - report.global_rate) / report.global_rate
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.05, (observed, report.global_rate)
        measured += 1
    _report(10, f"terminal contraction factor matches global rate on 50 "
                f"channels, worst relative error {worst_rel:.2e}")


def test_c11_linearization_residual_decay():
    rng = np.random.default_rng(137035)
    halvings = 1e-3 * 0.5 ** np.arange(11)  # 1e-3 down to ~1e-6
    checked = 0
    while checked < 20:
        try:
            channel, p_hat = draw_interior_channel(rng, margin=5e-3)
        except AssertionError:
            continue
        params = sa.build_squeeze_params(channel, np.zeros(channel.m),
                                         np.zeros(channel.n))
        p_star = polish_fixed_point(params, p_hat.probs, tol=1e-16)
        if np.abs(sa.alg3_step(params, p_star).probs - p_star).max() > 2e-15:
            continue
        report = sa.matrix_rate(params, p_star)
        for _ in range(10):
            v = rng.standard_normal(channel.m)
            v -= v.mean()
            v /= np.linalg.norm(v)
            residuals = np.array([
                np.linalg.norm(sa.alg3_step(params, p_star + h * v).probs
                               - p_star - h * (v @ report.R)) / h
                for h in halvings
            ])
            # o(h): shrinks with h until it reaches the double-precision floor
            assert residuals[-1] <= max(residuals[0] / 20.0, 5e-9)
            assert residuals[-1] < 1e-5
        checked += 1
    _report(11, "linearization residual decays superlinearly on 20 channels "
                "x 10 zero-sum directions")
