import warnings

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import bisect_waterfill_delta, reference_waterfill, under_every_filter


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
    for r, mass in (([0.7, 0.4], "1.1"), ([0.5, 0.5], "1"),
                    ([1e308, 1e308], "inf")):  # the last mass overflows
        assert under_every_filter(lambda: sa.waterfill(r, [1.0, 1.0])) == (
            sa.InfeasibleFloorError, f"floor mass r_+ = {mass} must be < 1")
    for x in ([1.0, 0.0], [1.0, -1.0], [1.0, np.nan], [1.0, np.inf], [np.nan, np.inf]):
        with pytest.raises(sa.NonpositiveWeightError, match="finite and strictly positive"):
            sa.waterfill([0.1, 0.1], x)
        with pytest.raises(sa.NonpositiveWeightError):
            sa.waterfill([0.0, 0.0], x)  # no floor would bind
    # the floor's entries before its mass and before the weights, under the
    # package's one entry rule
    for r, x, error, message in (
            ([-0.1, 0.2], [1.0, 1.0], sa.NegativeEntryError, "nonnegative (min -1.000e-01 at 0)"),
            ([0.0, -1e-300], [1.0, 0.0], sa.NegativeEntryError, "nonnegative (min -1.000e-300 at 1)"),
            ([np.nan, 0.1], [1.0, 1.0], sa.ValidationError, "finite"),
            ([np.inf, 0.0], [1.0, 1.0], sa.ValidationError, "finite"),
            ([-np.inf, 2.0], [1.0, -1.0], sa.ValidationError, "finite")):
        assert under_every_filter(lambda: sa.waterfill(r, x)) == (error, f"r must be {message}")
    with pytest.raises(sa.DimensionMismatchError):
        sa.waterfill([0.1, 0.1], [1.0, 1.0, 1.0])


def test_weight_sum_overflow_rejected():
    # each weight is finite, but their sum is not
    for r in ([0.0, 0.0], [0.1, 0.1], [0.3, 0.3]):
        assert under_every_filter(lambda: sa.waterfill(r, [1e308, 1e308])) == (
            sa.NonpositiveWeightError,
            "weights overflow the float range when summed; scale them down")


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


def _outcome(fn, r, x, strict):
    """What ``fn(r, x)`` gives: its exception's class and message, or the
    bytes of delta, active_floor and p.  ``strict`` turns numpy's warnings
    into errors, so they must match too; otherwise overflow is ignored."""
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error")
        try:
            with np.errstate(over="warn" if strict else "ignore"):
                res = fn(r, x)
        except (sa.SqueezeAbaError, RuntimeWarning) as exc:
            return type(exc), str(exc)
    return float(res.delta).hex(), res.active_floor.tobytes(), res.p.tobytes()


class TestMatchesReference:
    """``waterfill`` against its form before the cheap input reductions
    (``helpers.reference_waterfill``): bytewise the same delta, active_floor
    and p, and the same exception class and message on every invalid input."""

    def _same(self, r, x):
        for strict in (False, True):
            expected = _outcome(reference_waterfill, r, x, strict)
            assert _outcome(sa.waterfill, r, x, strict) == expected, (r, x, strict)
        return expected

    def test_no_floor_binds(self, rng):
        for trial in range(500):
            m = int(rng.integers(1, 80))
            x = rng.uniform(1e-3, 10.0, m)
            r = rng.uniform(0.0, 1.0, m) * x / x.sum()
            if trial % 2:
                r[rng.uniform(size=m) < 0.5] = 0.0
            assert not any(self._same(r, x)[1])

    def test_binding_floors(self, rng):
        for _ in range(500):
            m = int(rng.integers(2, 50))
            x = np.exp(rng.uniform(-20.0, 0.0, m))
            r = rng.uniform(0.0, 1.0, m)
            r *= rng.uniform(0.0, 0.98) / r.sum()
            self._same(r, x)
        # a key r_i / x_i, or its product with a prefix sum, past the float range
        # marks a floor that binds: the reference's bytes with its overflow
        # ignored, and no warning under any filter
        for r, x, p in (([0.3, 0.3], [1e-310, 1.0], [0.3, 0.7]),
                        ([0.5, 0.3], [1e20, 1e-290], [0.7, 0.3])):
            expected = _outcome(reference_waterfill, r, x, False)
            assert _outcome(sa.waterfill, r, x, True) == expected, (r, x)
            assert under_every_filter(lambda: sa.waterfill(r, x).p.tolist()) == p

    def test_exact_ties(self, rng):
        for _ in range(300):
            m = int(rng.integers(2, 30))
            x = rng.uniform(0.1, 10.0, m)
            share = (1.0 / x.sum()) * x
            r = rng.uniform(0.0, 0.5) * share
            tie = rng.uniform(size=m) < 0.3
            r[tie] = share[tie]
            if r.sum() < 1.0:
                self._same(r, x)

    def test_weight_underflowing_to_zero(self, rng):
        # delta x_i underflows to 0, so a zero floor touches: active, not binding
        for _ in range(100):
            m = int(rng.integers(3, 20))
            x = rng.uniform(0.5, 2.0, m)
            x[0] = 1e300
            x[1:3] = 1e-30
            r = np.where(rng.uniform(size=m) < 0.5, 0.0, 1e-9)
            r[1:3] = 0.0
            res = self._same(r, x)
            assert np.frombuffer(res[1], dtype=bool)[1]
        # a subnormal sum would make delta infinite: the one input where waterfill
        # departs from the reference, which returns p = [inf, inf]
        for strict in (False, True):
            assert _outcome(sa.waterfill, [0.0, 0.0], [1e-320, 1e-320], strict) == (
                sa.NonpositiveWeightError,
                "weights underflow the float range when summed; scale them up")

    @pytest.mark.parametrize("r", [[0.0, 0.0], [0.1, 0.1], [0.6, 0.0], [0.0, 0.6]])
    def test_invalid_weights(self, r):
        # the inputs of test_feasibility_errors and test_weight_sum_overflow_rejected,
        # under floors that would bind and floors that would not, and weights
        # whose sum alone looks valid
        for x in ([1.0, 0.0], [1.0, -1.0], [1.0, np.nan], [1.0, np.inf], [np.nan, np.inf],
                  [1e308, 1e308], [0.0, 0.0], [-1.0, 3.0], [1e-320, 0.0], [np.inf, -np.inf],
                  [1e10, -1e10, 1e-300], [1e308, 1e308, -1.0], [1e308, 1e308, np.inf]):
            r_full = np.resize(r, len(x)) * (2 / len(x))
            outcome = self._same(r_full, x)
            assert outcome[0] is sa.NonpositiveWeightError, (r, x)

    def test_invalid_floors(self):
        # each fault of the floor raises the class of the rule it breaks, whatever the weights
        for x in ([1.0, 1.0], [1.0, 9.0], [1.0, 0.0], [1e308, 1e308]):
            for r, error in (([0.7, 0.4], sa.InfeasibleFloorError),
                             ([0.5, 0.5], sa.InfeasibleFloorError),
                             ([-0.1, 0.2], sa.NegativeEntryError),
                             ([-1e-300, 0.0], sa.NegativeEntryError),
                             ([np.nan, 0.1], sa.ValidationError),
                             ([0.1, np.inf], sa.ValidationError)):
                assert self._same(r, x)[0] is error, (r, x)
        assert self._same([0.1, 0.1], [1.0, 1.0, 1.0])[0] is sa.DimensionMismatchError
