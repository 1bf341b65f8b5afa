import numpy as np
import pytest

import squeeze_aba as sa
from helpers import bisect_waterfill_delta


def test_zero_floor_is_plain_normalization():
    x = np.array([2.0, 3.0, 5.0])
    res = sa.waterfill(np.zeros(3), x)
    assert res.delta == pytest.approx(0.1, abs=1e-15)
    assert np.allclose(res.p, [0.2, 0.3, 0.5])
    assert not res.active_floor.any()


def test_slack_floor_does_not_bind():
    res = sa.waterfill([0.5, 0.0], [1.0, 1.0])
    assert res.delta == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(res.p, [0.5, 0.5])


def test_binding_floor_derived_case():
    # oracle (bisection) gives delta = 0.4/9 with the first floor active
    res = sa.waterfill([0.6, 0.0], [1.0, 9.0])
    assert res.delta == pytest.approx(0.4 / 9.0, abs=1e-15)
    assert np.allclose(res.p, [0.6, 0.4])
    assert res.active_floor.tolist() == [True, False]


def test_feasibility_errors():
    for r in ([0.7, 0.4], [0.5, 0.5]):
        with pytest.raises(sa.InfeasibleFloorError, match="leaves no room"):
            sa.waterfill(r, [1.0, 1.0])
    for x in ([1.0, 0.0], [1.0, -1.0], [1.0, np.nan], [1.0, np.inf], [np.nan, np.inf]):
        with pytest.raises(sa.NonpositiveWeightError, match="finite and strictly positive"):
            sa.waterfill([0.1, 0.1], x)
        with pytest.raises(sa.NonpositiveWeightError):
            sa.waterfill([0.0, 0.0], x)  # no floor would bind
    for r in ([-0.1, 0.2], [-1e-300, 0.0], [np.nan, 0.1]):
        with pytest.raises(sa.InfeasibleFloorError, match="nonnegative"):
            sa.waterfill(r, [1.0, 1.0])
    with pytest.raises(sa.DimensionMismatchError):
        sa.waterfill([0.1, 0.1], [1.0, 1.0, 1.0])


def test_weight_sum_overflow_rejected():
    # each weight is finite, but their sum is not
    for r in ([0.0, 0.0], [0.3, 0.3]):
        with np.errstate(over="ignore"), pytest.raises(sa.NonpositiveWeightError, match="overflow"):
            sa.waterfill(r, [1e308, 1e308])


def test_no_binding_floor_matches_bisection_randomized(rng):
    for trial in range(2000):
        m = int(rng.integers(1, 80))
        x = rng.uniform(1e-3, 10.0, m)
        r = rng.uniform(0.0, 1.0, m) * x / x.sum()  # every floor below x_i / sum(x)
        if trial % 2:
            r[rng.uniform(size=m) < 0.5] = 0.0
        res = sa.waterfill(r, x)
        delta = bisect_waterfill_delta(r, x)
        assert res.delta == pytest.approx(delta, rel=1e-12)
        assert res.delta == pytest.approx(1.0 / x.sum(), rel=1e-15)
        assert np.abs(res.p - np.maximum(r, delta * x)).max() < 1e-12
        assert not res.active_floor.any()
        assert abs(res.p.sum() - 1.0) < 1e-12


def test_floor_exactly_at_plain_share_is_active(rng):
    # r_i == x_i / sum(x) in floating point: the floor touches but does not
    # lift p_i, and it is reported active (r_i >= delta x_i)
    for _ in range(200):
        m = int(rng.integers(2, 30))
        x = rng.uniform(0.1, 10.0, m)
        share = (1.0 / x.sum()) * x
        r = 0.5 * share
        tie = rng.uniform(size=m) < 0.3
        r[tie] = share[tie]
        if r.sum() >= 1.0:
            continue
        res = sa.waterfill(r, x)
        assert res.active_floor.tolist() == tie.tolist()
        assert np.array_equal(res.p[tie], r[tie])
        assert np.all(res.p >= r)
        assert abs(res.p.sum() - 1.0) < 1e-12
        delta = bisect_waterfill_delta(r, x)
        assert np.abs(res.p - np.maximum(r, delta * x)).max() < 1e-12


def test_matches_bisection_oracle_randomized(rng):
    for trial in range(3000):
        m = int(rng.integers(1, 50))
        x = rng.uniform(1e-2, 10.0, m)
        r = rng.uniform(0.0, 1.0, m)
        r *= rng.uniform(0.0, 0.98) / max(r.sum(), 1e-300)
        if trial % 3 == 0 and m >= 4:
            # exact ties in the sort key r_i / x_i
            k = rng.uniform(0.01, 0.5)
            r[:4] = k * x[:4]
            if r.sum() >= 0.98:
                r *= 0.95 / r.sum()
        res = sa.waterfill(r, x)
        delta = bisect_waterfill_delta(r, x)
        assert np.abs(res.p - np.maximum(r, delta * x)).max() < 1e-10
        assert abs(res.p.sum() - 1.0) < 1e-12
        assert np.all(res.p >= r)


def test_scale_invariance(rng):
    for _ in range(100):
        m = int(rng.integers(2, 20))
        x = rng.uniform(0.1, 5.0, m)
        r = rng.uniform(0, 1, m)
        r *= 0.7 / max(r.sum(), 1e-300)
        c = float(rng.uniform(0.01, 100.0))
        a = sa.waterfill(r, x)
        b = sa.waterfill(r, c * x)
        assert b.delta == pytest.approx(a.delta / c, rel=1e-12)
        assert np.allclose(a.p, b.p, atol=1e-14)


def test_monotone_in_weights(rng):
    for _ in range(100):
        m = int(rng.integers(2, 12))
        x = rng.uniform(0.1, 5.0, m)
        r = rng.uniform(0, 1, m)
        r *= 0.6 / max(r.sum(), 1e-300)
        i = int(rng.integers(m))
        x2 = x.copy()
        x2[i] *= 1.0 + rng.uniform(0.01, 2.0)
        p1 = sa.waterfill(r, x).p
        p2 = sa.waterfill(r, x2).p
        assert p2[i] >= p1[i] - 1e-12
