import warnings
from collections import Counter

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
    entropy_offsets,
    random_channel,
    random_floor,
    random_offset,
    reference_build_squeeze_params,
    reference_lambda_bounds,
    reference_params_from_r_lambda,
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

    def test_force_clamps_and_flags(self, golden):
        with pytest.warns(RuntimeWarning):
            params = sa.build_squeeze_params(golden, [0, 0], [0.5, 0.5, 0.5], force=True)
        assert not params.feasible
        assert params.w_tilde.min() >= 0.0

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
            assert sa.SqueezeParams(ch, r, f).feasible == (floor_ok and offset_ok)

            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                params = sa.build_squeeze_params(ch, r, f, force=True)
            assert len(caught) == (not floor_ok) + (not offset_ok)
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
        with pytest.warns(RuntimeWarning, match="floor constraint violated"):
            params = sa.params_from_r_lambda(golden, [0.2, 0.0], 1.5, force=True)
        assert not params.feasible
        assert params.f.min() >= 0.0 and params.lam == pytest.approx(1.5)

    def test_force_permits_overshoot(self, golden):
        with pytest.warns(RuntimeWarning):
            params = sa.params_from_r_lambda(golden, [0, 0], 2.5, force=True)
        assert not params.feasible


def _resolution(fn, channel, *args, force):
    """What ``fn(channel, *args, force=force)`` gives: the params' bytes, or
    its exception's class and message; and every warning's class and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sp = fn(channel, *args, force=force)
            out = (sp.r.tobytes(), sp.f.tobytes(), float(sp.lam).hex(), float(sp.r_plus).hex(),
                   float(sp.f_plus).hex(), sp.feasible, sp.channel is channel)
        except (sa.SqueezeAbaError, TypeError, ValueError) as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


def _refused_under_force(channel, args, plain) -> bool:
    """Whether a forced ``params_from_r_lambda(channel, *args)`` refuses its gain
    where the reference replaced it: the unforced call found the gain out of
    range, and it is not above the upper bound (below the lower bound, or NaN).
    No offset f >= 0 gives a gain below 1/(1 - r_+)."""
    out = plain[0]
    return (out[0] is sa.LambdaRangeError and "outside feasible interval" in out[1]
            and not float(args[1]) > reference_lambda_bounds(channel, args[0])[1])


BAD_VECTORS = ([np.nan, 0.1], [np.inf, 0.1], [-np.inf, 0.1], [0.1, -0.1], [np.nan, -1.0],
               [-1.0, np.inf], [0.1, 0.1, 0.1], [[0.1, 0.1]], np.nan, -0.1)


class TestResolutionMatchesReference:
    """Single-pass parameter resolution against its form before it
    (``helpers.reference_params_from_r_lambda`` and
    ``reference_build_squeeze_params``): bytewise the same r, f, lambda,
    r_+, f_+ and verdict, and the same exception and warnings, forced or not.
    One departure is deliberate: a forced gain below the lower bound, or NaN,
    is refused with the unforced error, where the reference warned and ran
    the lower bound (or failed later on a NaN offset) instead."""

    def _same(self, channel, *args):
        outcomes = []
        fn, ref = ((sa.params_from_r_lambda, reference_params_from_r_lambda)
                   if np.ndim(args[1]) == 0 or isinstance(args[1], str)
                   else (sa.build_squeeze_params, reference_build_squeeze_params))
        for force in (False, True):
            expected = _resolution(ref, channel, *args, force=force)
            if force and fn is sa.params_from_r_lambda and _refused_under_force(
                    channel, args, outcomes[0]):
                expected = outcomes[0]
            assert _resolution(fn, channel, *args, force=force) == expected, (args, force)
            outcomes.append(expected)
        return outcomes

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
                for out, caught in self._same(ch, r, lam):
                    verdicts.add((out[0] if isinstance(out[0], type) else out[5],
                                  tuple(c for c, _ in caught)))
            f = random_offset(rng, ch, np.zeros(ch.m), float(rng.choice([0.5, 1.0, 1.5])))
            for out, caught in self._same(ch, r, f):
                verdicts.add((out[0] if isinstance(out[0], type) else out[5],
                              tuple(c for c, _ in caught)))
        # every error, warnings, and feasible and infeasible results all occur
        assert {v[0] for v in verdicts} >= {True, False, sa.LambdaRangeError,
                                            sa.FloorConstraintError, sa.SqueezeConstraintError}
        assert any(v[1] for v in verdicts)

    def test_invalid_vectors(self, golden):
        for bad in BAD_VECTORS:
            self._same(golden, bad, 1.2)
            self._same(golden, bad, [0.0, 0.0, 0.0])
            self._same(golden, [0.0, 0.0], bad)
            self._same(golden, [0.0, 0.0], [0.0, 0.0, bad] if np.ndim(bad) == 0 else bad)
        # the first bad input wins, and r is checked before lambda is converted
        for lam in ("abc", None, np.nan, np.inf):
            self._same(golden, [np.nan, 0.0], lam)
            self._same(golden, [0.6, 0.6], lam)
            self._same(golden, [0.0, 0.0], lam)

    def test_floor_mass_at_least_one(self, golden):
        for r in ([0.5, 0.5], [0.7, 0.6], [1.0, 0.0]):
            for outcome in self._same(golden, r, 1.2) + self._same(golden, r, [0.0, 0.0, 0.0]):
                assert outcome[0][0] is sa.InfeasibleFloorError

    def test_gain_just_outside_its_interval(self, golden):
        for r in ([0.0, 0.0], [0.1, 0.05]):
            lo, hi = reference_lambda_bounds(golden, r)
            edges = (lo - 1e-12, hi + 1e-12)  # the slack
            outside = [np.nextafter(edges[0], 0.0), np.nextafter(edges[1], np.inf), lo - 1e-9, hi + 1e-9]
            for lam in outside:
                plain, forced = self._same(golden, r, lam)
                assert plain[0][0] is sa.LambdaRangeError
                if lam > hi:
                    assert "outside feasible interval" in forced[1][0][1]
                else:  # below the lower bound, force does not help
                    assert forced == plain and not forced[1]
            for lam in edges:
                assert not self._same(golden, r, lam)[0][1]

    def test_channel_without_squeezing_room(self):
        # no overlap, and an overlap that the floor takes up exactly: lo = hi
        for entries, r in (([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]),
                           ([[0.75, 0.25], [0.25, 0.75]], [0.25, 0.25])):
            ch = sa.validate_channel(entries)
            lo, hi = reference_lambda_bounds(ch, r)
            assert lo == hi
            # inside the slack the gain asks for an offset there is no room for
            for outcome in self._same(ch, r, lo + 5e-13):
                assert outcome[0][0] is sa.LambdaRangeError and "no squeezing room" in outcome[0][1]
            plain, forced = self._same(ch, r, 1.5 * lo)
            assert "outside feasible interval" in plain[0][1]
            assert "no squeezing room" in forced[0][1] and forced[1]
            assert self._same(ch, r, lo)[0][0][5]

    def test_all_rows_equal_channel(self):
        ch = sa.validate_channel([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
        with pytest.raises(sa.DegenerateChannelError, match="all rows equal"):
            sa.lambda_upper_bound(ch)
        for r in ([0.0, 0.0], [0.1, 0.3]):
            for lam in (None, 1.0, 1.5, 1e6, 1e308, np.inf, np.nan):
                self._same(ch, r, lam)
            self._same(ch, r, [0.1, 0.0, 0.2])
        assert self._same(ch, [0.0, 0.0], np.inf)[0][0] == (sa.ValidationError, "f must be finite")


def test_default_gain_resolves_in_one_pass(golden, monkeypatch):
    """Without lambda, alg2 checks f once, at construction, and r twice: to
    resolve the gain, then at construction, as every SqueezeParams checks its
    entries.  It reads the stored column minima twice: to resolve the gain
    and its offset, then at construction, as every SqueezeParams runs the
    column tests.  Its params are those of the explicit upper bound."""
    _, hi = reference_lambda_bounds(golden, GOLDEN_R_OPT)
    explicit = _resolution(sa.params_from_r_lambda, golden, GOLDEN_R_OPT, hi, force=False)
    assert _resolution(sa.params_from_r_lambda, golden, GOLDEN_R_OPT, None,
                       force=False) == explicit
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(squeeze, "_check_vector", counted("check", squeeze._check_vector))
    monkeypatch.setattr(sa.ChannelMatrix, "column_minima",
                        counted("colmin", sa.ChannelMatrix.column_minima))
    resolved = _resolution(lambda ch, r, force: sa.solve(ch, "alg2", r=r, force=force).params,
                           golden, GOLDEN_R_OPT, force=False)
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


def test_builders_take_each_mass_once(golden):
    """The column tests read the params' own r_+ and f_+, so a returned params
    holds both already, bitwise the reductions of r and f."""
    for sp in (sa.build_squeeze_params(golden, GOLDEN_R_OPT, GOLDEN_F_OPT),
               sa.params_from_r_lambda(golden, GOLDEN_R_OPT)):
        assert {"r_plus", "f_plus"} <= vars(sp).keys()
        assert (sp.r_plus, sp.f_plus) == (float(np.add.reduce(sp.r)), float(np.add.reduce(sp.f)))


def test_forced_gain_below_lower_bound_refused(golden):
    """No offset f >= 0 gives lambda < 1/(1 - r_+), so force does not turn
    such a gain into a warning: every path refuses it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: sa.solve(golden, "alg1", lam=0.5, force=True),
                     lambda: sa.alg1_step(golden, 0.5, [0.5, 0.5], force=True),
                     lambda: sa.params_from_r_lambda(golden, [0.1, 0.1], 1.2, force=True),
                     lambda: sa.solve(golden, "alg2", r=[0.1, 0.1], lam=np.nan, force=True)):
            with pytest.raises(sa.LambdaRangeError, match="outside feasible interval"):
                call()


def test_forced_violations_warn_at_the_caller(golden):
    """A forced violation is reported at the line that called the public
    function, not inside the package."""
    short = sa.SolverConfig(max_iters=20)
    calls = (lambda: sa.build_squeeze_params(golden, [0, 0], [0.5, 0.5, 0.5], force=True),
             lambda: sa.params_from_r_lambda(golden, [0.2, 0.0], 1.5, force=True),
             lambda: sa.params_from_r_lambda(golden, [0, 0], 2.5, force=True),
             lambda: sa.alg1_step(golden, 2.5, [0.5, 0.5], force=True),
             lambda: sa.solve(golden, "alg1", lam=3.0, config=short, force=True),
             lambda: sa.solve(golden, "alg3", r=[0, 0], f=[0.5, 0.5, 0.5], config=short,
                              force=True))
    for call in calls:
        with pytest.warns(RuntimeWarning) as caught:
            call()
        assert {w.filename for w in caught} == {__file__}


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


def _direct(channel, r, f, *, force):
    return sa.SqueezeParams(channel, r, f)


def test_the_two_doors_agree(golden, monkeypatch):
    """A direct build and ``build_squeeze_params`` accept and refuse the same
    (r, f), with the same params or the same error and message; a caller's
    writeable array is copied once, never aliased, and an array the package
    made is shared; and ``SqueezeParams(channel, 0.0, 0.0)`` is bitwise the
    zero squeeze of every builder."""
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
        direct = _resolution(_direct, golden, r_in, f_in, force=False)
        assert direct == _resolution(sa.build_squeeze_params, golden, r_in, f_in,
                                     force=False), (r_in, f_in)
        outcomes.add(direct[0][0] if isinstance(direct[0][0], type) else True)
    assert outcomes == {True, sa.DimensionMismatchError, sa.ValidationError,
                        sa.NegativeEntryError, sa.InfeasibleFloorError}

    copies = []
    readonly = sa.channel._readonly

    def spy(a):
        b = readonly(a)
        if b is not a:
            copies.append(a)
        return b

    monkeypatch.setattr(sa.channel, "_readonly", spy)
    mine_r, mine_f = np.array(r), np.array(f)
    for build in (sa.SqueezeParams, sa.build_squeeze_params):
        copies.clear()
        sp = build(golden, mine_r, mine_f)
        assert [id(a) for a in copies] == [id(mine_r), id(mine_f)]
        assert not (np.shares_memory(sp.r, mine_r) or np.shares_memory(sp.f, mine_f))
        assert not (sp.r.flags.writeable or sp.f.flags.writeable)
    made = sa.params_from_r_lambda(golden, GOLDEN_R_OPT)
    copies.clear()
    shared = sa.SqueezeParams(golden, made.r, made.f)
    assert copies == [] and shared.r is made.r and shared.f is made.f

    def fields(sp):
        return (sp.r.tobytes(), sp.f.tobytes(), float(sp.r_plus).hex(), float(sp.f_plus).hex(),
                float(sp.lam).hex(), sp.feasible)

    for ch in (golden, sa.validate_channel(np.full((3, 4), 0.25)), random_channel(
            np.random.default_rng(5), 4, 6)):
        zero = fields(sa.SqueezeParams(ch, 0.0, 0.0))
        assert zero == fields(sa.params_from_r_lambda(ch, np.zeros(ch.m), 1.0))
        assert zero == fields(sa.plan(ch, "none").params)
        assert zero == fields(sa.solve(ch, "aba").params)
