import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import squeeze_aba as sa
from squeeze_aba import squeeze
from helpers import (
    GOLDEN_F_OPT,
    GOLDEN_G_OPT,
    GOLDEN_LAMBDA,
    GOLDEN_R_OPT,
    GOLDEN_WTILDE,
    drawn_offset,
    entropy_offsets,
    random_channel,
    random_floor,
    random_offset,
    reference_build_squeeze_params,
    reference_lambda_bounds,
    reference_params_from_r_lambda,
    under_every_filter,
)


class TestBuildSqueezeParams:
    def test_golden_doubly_squeezed(self, golden):
        params = sa.build_squeeze_params(golden, [1 / 8, 1 / 8], [0.0, 0.25, 0.0])
        assert np.allclose(params.w_tilde, GOLDEN_WTILDE, atol=1e-12)
        assert params.lam == pytest.approx(GOLDEN_LAMBDA, abs=1e-15)
        assert params.feasible

    def test_trivial_params_recover_channel(self, golden):
        params = sa.build_squeeze_params(golden, [0, 0], [0, 0, 0])
        assert np.allclose(params.w_tilde, golden.w)
        assert np.allclose(entropy_offsets(params), 0.0)
        assert params.lam == 1.0
        assert params.is_plain()

    def test_offset_only_squeeze_direct_evaluation(self, golden):
        # independent evaluation: w_tilde = (1 + f_+) W - 1_m f elementwise
        f = np.array([1 / 6, 1 / 3, 1 / 6])
        params = sa.build_squeeze_params(golden, [0, 0], f)
        expected = (1 + f.sum()) * golden.w - f[None, :]
        assert np.allclose(params.w_tilde, expected, atol=1e-15)
        assert np.allclose(params.w_tilde, GOLDEN_WTILDE, atol=1e-12)
        assert params.lam == pytest.approx(GOLDEN_LAMBDA, abs=1e-15)

    def test_floor_too_large_rejected(self, golden):
        with pytest.raises(sa.FloorConstraintError):
            sa.build_squeeze_params(golden, [0.3, 0.3], [0, 0, 0])

    def test_offset_too_large_rejected(self, golden):
        with pytest.raises(sa.SqueezeConstraintError):
            sa.build_squeeze_params(golden, [0, 0], [0.5, 0.5, 0.5])

    def test_floor_mass_at_least_one_rejected(self, golden):
        with pytest.raises(sa.InfeasibleFloorError):
            sa.build_squeeze_params(golden, [0.6, 0.6], [0, 0, 0])

    def test_nonfinite_vectors_rejected(self, golden):
        with pytest.raises(sa.ValidationError, match="r must be finite"):
            sa.build_squeeze_params(golden, [np.nan, 0.0], [0, 0, 0])
        with pytest.raises(sa.ValidationError, match="f must be finite"):
            sa.build_squeeze_params(golden, [0, 0], [np.inf, 0, 0])

    def test_heavy_overlap_plan_is_feasible(self):
        # rows 1e-7 apart: lambda is about 4.5e7 and rounds far above the
        # absolute slack of a separate lambda-range check, but both column
        # constraints hold, so the build is feasible
        rng = np.random.default_rng(11)
        b = rng.random(8)
        u = rng.random((2, 8))
        w = (1 - 1e-7) * b / b.sum() + 1e-7 * u / u.sum(axis=1, keepdims=True)
        ch = sa.validate_channel(w)
        assert sa.plan(ch, "lambda-only").build(ch).feasible

    def test_column_verdict_matches_matrix_form(self, rng):
        # the per-column checks accept, reject and locate exactly what the
        # m x n form does: floor on W - 1_m rW, offset on W~ built from W*
        tol = sa.squeeze.CONSTRAINT_TOL
        for _ in range(300):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 10))
            spread = 10.0 ** -rng.uniform(0, 8)
            b, u = rng.random(n), rng.random((m, n))
            ch = sa.validate_channel((1 - spread) * b / b.sum()
                                     + spread * u / u.sum(axis=1, keepdims=True))
            r = sa.heuristic_r(ch, rng.dirichlet(np.ones(m))) * rng.choice([0.0, 0.5, 1.0, 1.3])
            if r.sum() >= 1.0:  # no simplex left: InfeasibleFloorError, not a column test
                continue
            slack = ch.w - r @ ch.w
            w_star = np.maximum(slack, 0.0) / (1.0 - r.sum())
            col_min = w_star.min(axis=0)
            f = col_min / (1.0 - col_min.sum())  # the optimal offset: ties in many columns
            if rng.random() < 0.5:
                f = f * rng.uniform(0.5, 1.5, n)
            w_tilde = (1.0 + float(f.sum())) * w_star - f
            floor_ok = slack.min() >= -tol
            offset_ok = w_tilde.min() >= -tol

            if not floor_ok:
                i, j = np.unravel_index(np.argmin(slack), slack.shape)
                with pytest.raises(sa.FloorConstraintError, match=rf"W\[{i},{j}\]"):
                    sa.build_squeeze_params(ch, r, f)
            elif not offset_ok:
                i, j = np.unravel_index(np.argmin(w_tilde), w_tilde.shape)
                with pytest.raises(sa.SqueezeConstraintError, match=rf"\({i},{j}\)"):
                    sa.build_squeeze_params(ch, r, f)
            else:
                assert sa.build_squeeze_params(ch, r, f).feasible
            # a direct build takes what the builder refuses, and clamps its W* and W~
            params = sa.SqueezeParams(ch, r, f)
            assert params.feasible == (floor_ok and offset_ok)
            assert np.array_equal(params.w_star, w_star)
            assert np.array_equal(params.w_tilde, np.maximum(w_tilde, 0.0))

    def test_row_sums_of_squeezed_matrix(self, rng):
        for _ in range(100):
            ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 9)))
            r = random_floor(rng, ch)
            f = random_offset(rng, ch, r)
            params = sa.build_squeeze_params(ch, r, f)
            assert np.allclose(params.w_tilde.sum(axis=1), 1.0, atol=1e-10)
            # mixing identity: p~ W~ + f = (1 + f_+) p W for p~ = (1-r_+) p + r
            p = rng.dirichlet(np.ones(ch.m))
            p_tilde = (1 - params.r_plus) * p + params.r
            lhs = p_tilde @ params.w_tilde + params.f
            assert np.allclose(lhs, (1 + params.f_plus) * (p @ ch.w), atol=1e-12)
            # equivalent form on the floored simplex
            lhs2 = p_tilde @ params.w_tilde + params.f
            rhs2 = params.lam * ((p_tilde - params.r) @ ch.w)
            assert np.allclose(lhs2, rhs2, atol=1e-12)

    def test_lambda_within_bounds_for_valid_inputs(self, rng):
        for _ in range(50):
            ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 8)))
            r = random_floor(rng, ch)
            f = random_offset(rng, ch, r)
            params = sa.build_squeeze_params(ch, r, f)
            lo, hi = reference_lambda_bounds(ch, r)
            assert lo - 1e-9 <= params.lam <= hi + 1e-9
            # floor mass never exceeds the row-overlap mass
            assert params.r_plus <= ch.column_minima().sum() + 1e-12 < 1.0


class TestParamsFromRLambda:
    def test_golden_offset_only(self, golden):
        params = sa.params_from_r_lambda(golden, [0, 0], GOLDEN_LAMBDA)
        assert np.allclose(params.f, GOLDEN_G_OPT, atol=1e-12)

    def test_golden_doubly_squeezed(self, golden):
        params = sa.params_from_r_lambda(golden, GOLDEN_R_OPT, GOLDEN_LAMBDA)
        assert np.allclose(params.f, GOLDEN_F_OPT, atol=1e-12)
        assert params.lam == pytest.approx(GOLDEN_LAMBDA, abs=1e-12)

    def test_unit_gain_gives_zero_offset(self, rng):
        ch = random_channel(rng, 3, 5)
        params = sa.params_from_r_lambda(ch, np.zeros(3), 1.0)
        assert np.allclose(params.f, 0.0)

    def test_gain_consistency_exact(self, rng):
        for _ in range(50):
            ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 8)))
            r = random_floor(rng, ch)
            lo, hi = reference_lambda_bounds(ch, r)
            lam = float(rng.uniform(lo, hi))
            params = sa.params_from_r_lambda(ch, r, lam)
            assert params.lam == pytest.approx(lam, abs=1e-12)

    def test_out_of_range_gain_rejected(self, golden):
        with pytest.raises(sa.LambdaRangeError):
            sa.params_from_r_lambda(golden, [0, 0], 2.5)
        with pytest.raises(sa.LambdaRangeError):
            sa.params_from_r_lambda(golden, [1 / 8, 1 / 8], 1.0)  # below 1/(1 - r_+)

    def test_infeasible_floor_named(self, golden):
        # W[1,0] = 0.1 is below (rW)[0] = 0.14; lambda is inside its interval
        with pytest.raises(sa.FloorConstraintError, match=r"W\[1,0\]"):
            sa.params_from_r_lambda(golden, [0.2, 0.0], 1.5)
        # the params it refused, built directly from the offset it drew
        params = sa.SqueezeParams(golden, [0.2, 0.0], drawn_offset(golden, [0.2, 0.0], 1.5))
        assert not params.feasible
        assert params.f.min() >= 0.0 and params.lam == pytest.approx(1.5)


def _resolution(fn, channel, *args):
    """What ``fn(channel, *args)`` gives: the params' bytes, or its
    exception's class and message; and every warning's class and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sp = fn(channel, *args)
            out = (sp.r.tobytes(), sp.f.tobytes(), float(sp.lam).hex(), float(sp.r_plus).hex(),
                   float(sp.f_plus).hex(), sp.feasible, sp.channel is channel)
        except (sa.SqueezeAbaError, TypeError, ValueError) as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


BAD_VECTORS = ([np.nan, 0.1], [np.inf, 0.1], [-np.inf, 0.1], [0.1, -0.1], [np.nan, -1.0],
               [-1.0, np.inf], [0.1, 0.1, 0.1], [[0.1, 0.1]], np.nan, -0.1)


class TestResolutionMatchesReference:
    """Single-pass parameter resolution against its form before it
    (``helpers.reference_params_from_r_lambda`` and
    ``reference_build_squeeze_params``): bytewise the same r, f, lambda,
    r_+, f_+ and verdict, or the same exception, and no warning."""

    def _same(self, channel, *args):
        fn, ref = ((sa.params_from_r_lambda, reference_params_from_r_lambda)
                   if np.ndim(args[1]) == 0 or isinstance(args[1], str)
                   else (sa.build_squeeze_params, reference_build_squeeze_params))
        expected = _resolution(ref, channel, *args)
        assert _resolution(fn, channel, *args) == expected, args
        return expected

    def test_seeded_floors_and_gains(self, rng):
        verdicts = set()
        for _ in range(300):
            ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 10)))
            # a scale above 1 can break the floor constraint
            r = random_floor(rng, ch, float(rng.choice([0.0, 0.5, 1.0, 1.5])))
            if r.sum() >= 1.0:
                self._same(ch, r, 1.5)
                continue
            lo, hi = reference_lambda_bounds(ch, r)
            for lam in (lo, hi, rng.uniform(lo, max(lo, hi)), lo * (1 - 1e-10), hi * (1 + 1e-10),
                        lo - 2e-12, hi + 2e-12):
                out, caught = self._same(ch, r, lam)
                verdicts.add((out[0] if isinstance(out[0], type) else out[5],
                              tuple(c for c, _ in caught)))
            f = random_offset(rng, ch, np.zeros(ch.m), float(rng.choice([0.5, 1.0, 1.5])))
            out, caught = self._same(ch, r, f)
            verdicts.add((out[0] if isinstance(out[0], type) else out[5],
                          tuple(c for c, _ in caught)))
        # every error and feasible results occur, and no builder returns
        # infeasible params or warns
        assert {v[0] for v in verdicts} == {True, sa.LambdaRangeError, sa.FloorConstraintError,
                                            sa.SqueezeConstraintError}
        assert not any(v[1] for v in verdicts)

    def test_invalid_vectors(self, golden):
        for bad in BAD_VECTORS:
            self._same(golden, bad, 1.2)
            self._same(golden, bad, [0.0, 0.0, 0.0])
            self._same(golden, [0.0, 0.0], bad)
            self._same(golden, [0.0, 0.0], [0.0, 0.0, bad] if np.ndim(bad) == 0 else bad)
        # the first bad input wins, and r, its entries and then its mass, is
        # checked before lambda is converted
        for lam in ("abc", "1.5", [1.5], np.array([1.5]), np.array(1.5), 1 + 2j, 10**400,
                    -10**400, None, np.nan, np.inf, 2, np.float32(1.25), Fraction(5, 4)):
            self._same(golden, [np.nan, 0.0], lam)
            self._same(golden, [0.6, 0.6], lam)
            self._same(golden, [0.0, 0.0], lam)

    def test_floor_mass_at_least_one(self, golden):
        for r in ([0.5, 0.5], [0.7, 0.6], [1.0, 0.0]):
            for outcome in (self._same(golden, r, 1.2), self._same(golden, r, [0.0, 0.0, 0.0])):
                assert outcome[0][0] is sa.InfeasibleFloorError

    def test_gain_just_outside_its_interval(self, golden):
        for r in ([0.0, 0.0], [0.1, 0.05]):
            lo, hi = reference_lambda_bounds(golden, r)
            edges = (lo - 1e-12, hi + 1e-12)  # the slack
            outside = [np.nextafter(edges[0], 0.0), np.nextafter(edges[1], np.inf), lo - 1e-9, hi + 1e-9]
            for lam in outside:
                assert self._same(golden, r, lam)[0] == (sa.LambdaRangeError, (
                    f"lambda = {lam:.15g} outside feasible interval [{lo:.15g}, {hi:.15g}]"))
            for lam in edges:
                assert not self._same(golden, r, lam)[1]

    def test_channel_without_squeezing_room(self):
        # no overlap, and an overlap that the floor takes up exactly: lo = hi
        for entries, r in (([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]),
                           ([[0.75, 0.25], [0.25, 0.75]], [0.25, 0.25])):
            ch = sa.validate_channel(entries)
            lo, hi = reference_lambda_bounds(ch, r)
            assert lo == hi
            # inside the slack the gain asks for an offset there is no room for
            out = self._same(ch, r, lo + 5e-13)[0]
            assert out[0] is sa.LambdaRangeError and "no squeezing room" in out[1]
            assert "outside feasible interval" in self._same(ch, r, 1.5 * lo)[0][1]
            assert self._same(ch, r, lo)[0][5]

    def test_all_rows_equal_channel(self):
        ch = sa.validate_channel([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
        with pytest.raises(sa.DegenerateChannelError, match="all rows equal"):
            sa.lambda_upper_bound(ch)
        for r in ([0.0, 0.0], [0.1, 0.3]):
            for lam in (None, 1.0, 1.5, 1e6, 1e308, np.inf, np.nan):
                self._same(ch, r, lam)
            self._same(ch, r, [0.1, 0.0, 0.2])
        assert self._same(ch, [0.0, 0.0], np.inf)[0] == (sa.ValidationError, "f must be finite")


def test_default_gain_resolves_in_one_pass(golden, monkeypatch):
    """Without lambda, alg2 checks f once, at construction, and r twice: to
    resolve the gain, then at construction, as every SqueezeParams checks its
    entries.  It reads the stored column minima twice: for the gain's bounds,
    then for the room its offset is drawn from, which construction takes
    rather than form again.  Its params are those of the explicit upper
    bound."""
    _, hi = reference_lambda_bounds(golden, GOLDEN_R_OPT)
    explicit = _resolution(sa.params_from_r_lambda, golden, GOLDEN_R_OPT, hi)
    assert _resolution(sa.params_from_r_lambda, golden, GOLDEN_R_OPT, None) == explicit
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(squeeze, "_check_vector", counted("check", squeeze._check_vector))
    monkeypatch.setattr(sa.ChannelMatrix, "column_minima",
                        counted("colmin", sa.ChannelMatrix.column_minima))
    resolved = _resolution(lambda ch, r: sa.solve(ch, "alg2", r=r).params, golden, GOLDEN_R_OPT)
    assert (counts["check"], counts["colmin"]) == (3, 2)
    assert resolved == explicit


def test_directly_built_params_derive_the_gain(golden):
    """SqueezeParams keeps (r, f); r_+, f_+ and lambda follow from them,
    bitwise as the builders compute them."""
    params = sa.SqueezeParams(golden, GOLDEN_R_OPT, GOLDEN_F_OPT)
    built = sa.build_squeeze_params(golden, GOLDEN_R_OPT, GOLDEN_F_OPT)
    assert params.lam == (1.0 + params.f_plus) / (1.0 - params.r_plus)
    assert (params.lam, params.r_plus, params.f_plus) == (built.lam, built.r_plus, built.f_plus)
    assert params.lam == pytest.approx(GOLDEN_LAMBDA, abs=1e-15)
    np.testing.assert_allclose(sa.alg3_step(params, [0.2, 0.8]).probs, [0.5, 0.5], atol=1e-12)


def test_builders_take_each_mass_once(golden, rng):
    """The column tests read the params' own r_+ and f_+, so a returned params
    holds both already, bitwise the reductions of r and f.  The r_+, room
    and star_min that ``params_from_r_lambda`` hands construction give the
    verdict a direct construction of its (r, f) gives: the builder returns
    the direct build's params where that is feasible, and raises its column
    error where it is not."""
    for sp in (sa.build_squeeze_params(golden, GOLDEN_R_OPT, GOLDEN_F_OPT),
               sa.params_from_r_lambda(golden, GOLDEN_R_OPT)):
        assert {"r_plus", "f_plus"} <= vars(sp).keys()
        assert (sp.r_plus, sp.f_plus) == (float(np.add.reduce(sp.r)), float(np.add.reduce(sp.f)))

    def fields(sp):
        return (sp.r.tobytes(), sp.f.tobytes(), float(sp.r_plus).hex(), float(sp.f_plus).hex(),
                float(sp.lam).hex(), sp.feasible)

    verdicts = set()
    for _ in range(200):
        ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 10)))
        r = random_floor(rng, ch, float(rng.choice([0.0, 0.5, 1.0, 1.5])))
        if r.sum() >= 1.0:
            continue
        lo, hi = reference_lambda_bounds(ch, r)
        for lam in (lo, hi, 0.5 * (lo + hi)):
            try:
                built = sa.params_from_r_lambda(ch, r, lam)
            except sa.LambdaRangeError:  # no squeezing room
                continue
            except (sa.FloorConstraintError, sa.SqueezeConstraintError):
                f = drawn_offset(ch, r, lam) if lam > lo else 0.0
                assert not sa.SqueezeParams(ch, r, f).feasible
                verdicts.add(False)
                continue
            assert fields(built) == fields(sa.SqueezeParams(ch, built.r, built.f))
            verdicts.add(built.feasible)
    assert verdicts == {True, False}


def test_direct_construction_checks_the_lengths(golden):
    """SqueezeParams refuses an r or f whose length is not the channel's m
    or n, before any solve can broadcast or silently accept it, with the
    message of the vector it refuses, r before f; a scalar fills its vector."""
    for r, f, msg in ((np.zeros(2), np.zeros(2), "f must have length 3, got shape (2,)"),
                      (np.zeros(3), np.zeros(3), "r must have length 2, got shape (3,)"),
                      (np.zeros(2), np.zeros((1, 3)), "f must have length 3, got shape (1, 3)"),
                      (0.0, np.zeros(2), "f must have length 3, got shape (2,)")):
        with pytest.raises(sa.DimensionMismatchError) as caught:
            sa.SqueezeParams(golden, r, f)
        assert str(caught.value) == msg
    filled = sa.SqueezeParams(golden, 0.125, 0.0)
    assert filled.r.tolist() == [0.125, 0.125] and filled.f.tolist() == [0.0, 0.0, 0.0]


def test_direct_construction_checks_the_entries(golden):
    """SqueezeParams refuses every entry the builders refuse, with their
    error, and a floor or offset whose mass overflows, however the params
    are built, without a numpy overflow warning."""
    def refusal(call):
        with pytest.raises(sa.ValidationError) as caught:
            call()
        return type(caught.value), str(caught.value)

    zeros_r, zeros_f = np.zeros(2), np.zeros(3)
    for bad in BAD_VECTORS[:6]:  # the ones of length m = 2
        for r, f in ((np.array(bad), zeros_f), (zeros_r, np.array(bad + [0.0]))):
            assert refusal(lambda: sa.SqueezeParams(golden, r, f)) == \
                refusal(lambda: sa.build_squeeze_params(golden, r, f)), (r, f)
    huge_r, huge_f = np.full(2, 1e308), np.full(3, 1e308)  # finite entries whose sum overflows
    for call, error, msg in (
            (lambda: sa.SqueezeParams(golden, zeros_r, huge_f),
             sa.ValidationError, "offset mass f_+ = inf must be finite"),
            (lambda: sa.build_squeeze_params(golden, zeros_r, huge_f),
             sa.ValidationError, "offset mass f_+ = inf must be finite"),
            (lambda: sa.SqueezeParams(golden, huge_r, zeros_f),
             sa.InfeasibleFloorError, "floor mass r_+ = inf must be < 1"),
            (lambda: sa.build_squeeze_params(golden, huge_r, zeros_f),
             sa.InfeasibleFloorError, "floor mass r_+ = inf must be < 1"),
            (lambda: sa.params_from_r_lambda(golden, huge_r, 1.2),
             sa.InfeasibleFloorError, "floor mass r_+ = inf must be < 1")):
        assert refusal(call) == (error, msg)


@pytest.mark.parametrize("through_solve", [False, True])
def test_the_floor_is_judged_first(golden, through_solve):
    """With two bad inputs the floor's entries, then its mass, are refused
    before the gain and before the offset, by the builders called directly
    or through ``solve``, under every warnings filter."""
    if through_solve:
        def from_lam(r, lam):
            return sa.solve(golden, "alg2", r=r, lam=lam).params

        def from_f(r, f):
            return sa.solve(golden, "alg3", r=r, f=f).params
    else:
        def from_lam(r, lam):
            return sa.params_from_r_lambda(golden, r, lam)

        def from_f(r, f):
            return sa.build_squeeze_params(golden, r, f)
    lam_cases = (
        ([np.nan, 0.1], "abc", sa.ValidationError, "r must be finite"),
        ([0.6, 0.5], "abc", sa.InfeasibleFloorError, "floor mass r_+ = 1.1 must be < 1"),
        ([np.nan, 0.1], 100.0, sa.ValidationError, "r must be finite"),
        ([np.nan, 0.1], 0.5, sa.ValidationError, "r must be finite"),
        ([-0.1, 0.1], 100.0, sa.NegativeEntryError, "r must be nonnegative (min -1.000e-01 at 0)"),
        ([0.6, 0.5], 100.0, sa.InfeasibleFloorError, "floor mass r_+ = 1.1 must be < 1"),
        ([0.6, 0.5], 0.5, sa.InfeasibleFloorError, "floor mass r_+ = 1.1 must be < 1"))
    for r, lam, error, msg in lam_cases:
        assert under_every_filter(lambda: from_lam(r, lam)) == (error, msg)
    f_cases = (
        ([np.nan, 0.1], [-1.0, 0.0, 0.0], sa.ValidationError, "r must be finite"),
        ([-0.1, 0.1], [np.nan, 0.0, 0.0], sa.NegativeEntryError,
         "r must be nonnegative (min -1.000e-01 at 0)"),
        ([0.1, 0.1, 0.1], [-1.0, 0.0], sa.DimensionMismatchError,
         "r must have length 2, got shape (3,)"))
    for r, f, error, msg in f_cases:
        assert under_every_filter(lambda: from_f(r, f)) == (error, msg)


def test_the_two_doors_agree(golden):
    """A direct build and ``build_squeeze_params`` accept and refuse the same
    (r, f), with the same params or the same error and message, and
    ``SqueezeParams(channel, 0.0, 0.0)`` is bitwise the zero squeeze of
    every builder."""
    r, f = [0.125, 0.125], [0.0, 0.25, 0.0]
    table = (
        (0.125, 0.0), (r, f), (tuple(r), tuple(f)), (np.array(r), np.array(f)),  # accepted
        ([0.1, 0.1, 0.1], f), (r, [0.1, 0.1]),  # wrong length
        (np.zeros((1, 2)), f), (r, np.zeros((1, 3))),  # 2-d
        ([np.nan, 0.1], f), (r, [0.0, np.nan, 0.0]), (np.nan, np.nan),
        ([np.inf, 0.1], f), (r, [0.0, np.inf, 0.0]),
        ([-0.1, 0.1], f), (r, [0.0, -0.25, 0.0]), (-0.1, -0.1),
        ([0.5, 0.5], f), ([0.7, 0.6], f),  # r_+ >= 1
        (r, np.full(3, 1e308)))  # f_+ overflows
    outcomes = set()
    for r_in, f_in in table:
        direct = _resolution(sa.SqueezeParams, golden, r_in, f_in)
        assert direct == _resolution(sa.build_squeeze_params, golden, r_in, f_in), (r_in, f_in)
        outcomes.add(direct[0][0] if isinstance(direct[0][0], type) else True)
    assert outcomes == {True, sa.DimensionMismatchError, sa.ValidationError,
                        sa.NegativeEntryError, sa.InfeasibleFloorError}

    def fields(sp):
        return (sp.r.tobytes(), sp.f.tobytes(), float(sp.r_plus).hex(), float(sp.f_plus).hex(),
                float(sp.lam).hex(), sp.feasible)

    for ch in (golden, sa.validate_channel(np.full((3, 4), 0.25)), random_channel(
            np.random.default_rng(5), 4, 6)):
        zero = fields(sa.SqueezeParams(ch, 0.0, 0.0))
        assert zero == fields(sa.params_from_r_lambda(ch, np.zeros(ch.m), 1.0))
        assert zero == fields(sa.plan(ch, "none").params)
        assert zero == fields(sa.solve(ch, "aba").params)


def test_builders_raise_under_every_filter(golden):
    """Feasibility has one way past it, a direct ``SqueezeParams``: every
    builder, called directly or through ``solve`` or ``alg1_step``, raises
    the same error with the same message on an infeasible floor, an
    infeasible offset and a gain outside its interval, and warns of none,
    whatever the warnings filter.  An offset drawn from a gain is feasible
    whenever the floor and the gain are, so offsets go through the two
    doors that take one."""
    r = [0.2, 0.0]  # W[1,0] = 0.1 is below (rW)[0] = 0.14
    floor = (sa.FloorConstraintError, "floor constraint violated: W[1,0] = 0.1 is below "
             "the floor mixture (rW)[0] = 0.14 by 4.000e-02")
    for call in (lambda: sa.build_squeeze_params(golden, r, [0.0, 0.0, 0.0]),
                 lambda: sa.params_from_r_lambda(golden, r, 1.5),
                 lambda: sa.solve(golden, "alg2", r=r),
                 lambda: sa.solve(golden, "alg3", r=r, f=[0.0, 0.1, 0.0])):
        assert under_every_filter(call) == floor
    f = [0.5, 0.5, 0.5]
    offset = (sa.SqueezeConstraintError, "offset constraint violated: squeezed entry (1,0) = "
              "-2.500e-01 is negative; reduce f or r")
    for call in (lambda: sa.build_squeeze_params(golden, [0.0, 0.0], f),
                 lambda: sa.solve(golden, "alg3", r=[0.0, 0.0], f=f)):
        assert under_every_filter(call) == offset
    for r, lam in (([0.0, 0.0], 2.5), ([0.0, 0.0], 0.5), ([0.1, 0.1], 1.2),
                   ([0.0, 0.0], np.nan), ([0.1, 0.1], np.nan), ([0.0, 0.0], np.inf)):
        lo, hi = reference_lambda_bounds(golden, r)
        gain = (sa.LambdaRangeError,
                f"lambda = {lam:.15g} outside feasible interval [{lo:.15g}, {hi:.15g}]")
        calls = [lambda: sa.params_from_r_lambda(golden, r, lam),
                 lambda: sa.solve(golden, "alg2", r=r, lam=lam),
                 lambda: sa.solve(golden, "alg3", r=r, lam=lam)]
        if not any(r):
            calls += [lambda: sa.solve(golden, "alg1", lam=lam),
                      lambda: sa.alg1_step(golden, lam, [0.5, 0.5])]
        for call in calls:
            assert under_every_filter(call) == gain, (r, lam)


@pytest.mark.parametrize("lam, message", [
    ("abc", "lam must be a real number, got 'abc'"),
    ("1.5", "lam must be a real number, got '1.5'"),
    ([1.5], "lam must be a real number, got [1.5]"),
    (1 + 2j, "lam must be a real number, got (1+2j)"),
    (np.array([1.5]), "lam must be a real number, got array([1.5])"),
    (np.array(1.5), "lam must be a real number, got array(1.5)"),
    (10**400, f"lam must fit a float, got {10**400}"),
    (Fraction(-10**400, 3), f"lam must fit a float, got {Fraction(-10**400, 3)}")])
def test_the_gain_is_a_real_number(golden, lam, message):
    """Every door that takes a gain refuses one that is not a real number a
    float holds, with the same ValidationError, under every warnings filter;
    a real number of another type is the float it equals."""
    for call in (lambda: sa.params_from_r_lambda(golden, [0.0, 0.0], lam),
                 lambda: sa.alg1_step(golden, lam, [0.5, 0.5]),
                 lambda: sa.solve(golden, "alg1", lam=lam),
                 lambda: sa.solve(golden, "alg2", r=[0.1, 0.1], lam=lam),
                 lambda: sa.solve(golden, "alg3", r=[0.1, 0.1], lam=lam)):
        assert under_every_filter(call) == (sa.ValidationError, message)
    as_float = sa.params_from_r_lambda(golden, [0.0, 0.0], 1.5)
    for same in (Fraction(3, 2), np.float32(1.5), np.float64(1.5)):
        got = sa.params_from_r_lambda(golden, [0.0, 0.0], same)
        assert (got.f.tobytes(), got.lam) == (as_float.f.tobytes(), as_float.lam)
