import warnings

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import (
    GOLDEN_F_OPT,
    GOLDEN_G_OPT,
    GOLDEN_LAMBDA,
    GOLDEN_R_OPT,
    golden_channel,
    heavy_overlap_channel,
    offset_from_g,
    optimal_g,
    random_channel,
)


def test_lambda_upper_bound_golden(golden):
    assert sa.lambda_upper_bound(golden) == pytest.approx(GOLDEN_LAMBDA, abs=1e-15)


def test_lambda_upper_bound_identity():
    ch = sa.validate_channel(np.eye(3))
    assert sa.lambda_upper_bound(ch) == 1.0


def test_lambda_upper_bound_degenerate():
    # validated or built directly, with no numpy warning on the way
    w = [[0.5, 0.5], [0.5, 0.5]]
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        for ch in (sa.validate_channel(w), sa.ChannelMatrix(np.array(w))):
            for call in (lambda: sa.lambda_upper_bound(ch), lambda: sa.plan(ch, "optimal-m2"),
                         lambda: sa.plan(ch, "heuristic")):
                with pytest.raises(sa.DegenerateChannelError):
                    call()


def test_lambda_upper_bound_recomputation(rng):
    for _ in range(30):
        ch = random_channel(rng, 2, 8)
        expected = 1.0 / (1.0 - sum(min(ch.w[0][j], ch.w[1][j]) for j in range(8)))
        assert sa.lambda_upper_bound(ch) == pytest.approx(expected, rel=1e-12)
        assert sa.lambda_upper_bound(ch) > 1.0


# optimal_g is the tests' oracle for the combined squeeze; these pin it
def test_optimal_g_golden(golden):
    assert np.allclose(optimal_g(golden), GOLDEN_G_OPT, atol=1e-15)


def test_optimal_g_identity_zero():
    assert np.allclose(optimal_g(sa.validate_channel(np.eye(4))), 0.0)


def test_optimal_g_total_matches_gain_bound(rng):
    for _ in range(40):
        ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 10)))
        g = optimal_g(ch)
        assert 1.0 + g.sum() == pytest.approx(sa.lambda_upper_bound(ch), abs=1e-12)


def test_optimal_r_m2_golden(golden):
    assert np.allclose(sa.optimal_r_m2(golden), GOLDEN_R_OPT, atol=1e-15)


def test_optimal_r_m2_orthogonal_rows():
    ch = sa.validate_channel([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(sa.optimal_r_m2(ch), 0.0)


def test_optimal_r_m2_tightness_randomized(rng):
    for _ in range(50):
        ch = random_channel(rng, 2, 8)
        r = sa.optimal_r_m2(ch)
        w1, w2 = ch.w
        scale = 1.0 - r.sum()
        a = np.min(w2[w1 > w2] / (w1 - w2)[w1 > w2])
        b = np.min(w1[w2 > w1] / (w2 - w1)[w2 > w1])
        assert r[0] / scale == pytest.approx(a, rel=1e-12)
        assert r[1] / scale == pytest.approx(b, rel=1e-12)
        # feasibility of the floor mixture
        assert (ch.w - (r @ ch.w)[None, :]).min() >= -1e-12


def test_optimal_r_m2_shape_guards(golden, rng):
    ch3 = random_channel(rng, 3, 4)
    with pytest.raises(sa.NotTwoByNError):
        sa.optimal_r_m2(ch3)
    eq = sa.validate_channel([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(sa.DegenerateChannelError):
        sa.optimal_r_m2(eq)


def test_heuristic_r_golden(golden):
    r = sa.heuristic_r(golden, [0.5, 0.5])
    assert np.allclose(r, GOLDEN_R_OPT, atol=1e-15)


def test_heuristic_r_rejects_non_finite_reference(golden):
    with pytest.raises(sa.ValidationError, match="q must be finite"):
        sa.heuristic_r(golden, [np.nan, 1.0])


def test_heuristic_r_zero_entry_forces_zero():
    ch = sa.validate_channel([[1.0, 0.0], [0.2, 0.8]])
    assert np.allclose(sa.heuristic_r(ch, [0.5, 0.5]), 0.0)


def test_heuristic_r_feasible_with_tight_entry(rng):
    for _ in range(30):
        ch = random_channel(rng, 3, int(rng.integers(3, 9)))
        r = sa.heuristic_r(ch, rng.dirichlet(np.ones(3)))
        slack = ch.w - (r @ ch.w)[None, :]
        assert slack.min() >= -1e-12
        assert slack.min() <= 1e-9  # the cap binds somewhere


def _plan_channels() -> list:
    """The golden channel and seeded 2x8, 3x8, 64x256 and spread-1e-6 channels."""
    rng, heavy = np.random.default_rng(20250101), np.random.default_rng(7)
    # the first spread-1e-6 draw builds under both strategies, the second under one only
    return [golden_channel(), random_channel(rng, 2, 8), random_channel(rng, 3, 8),
            random_channel(rng, 64, 256), heavy_overlap_channel(heavy, spread=1e-6),
            heavy_overlap_channel(heavy, spread=1e-6)]


def _floor(channel, strategy: str) -> np.ndarray:
    if strategy == "lambda-only":
        return np.zeros(channel.m)
    if strategy == "optimal-m2":
        return sa.optimal_r_m2(channel)
    return sa.heuristic_r(channel, sa.uniform(channel.m))


class TestPlan:
    def test_none_strategy(self, golden):
        pl = sa.plan(golden, "none")
        sp = pl.build(golden)
        assert np.allclose(sp.r, 0) and np.allclose(sp.f, 0) and sp.lam == 1.0

    def test_lambda_only_sets_offset_to_g(self, golden):
        sp = sa.plan(golden, "lambda-only").params
        assert np.allclose(sp.r, 0)
        assert np.allclose(sp.f, GOLDEN_G_OPT, atol=1e-15)
        assert sp.lam == pytest.approx(GOLDEN_LAMBDA, abs=1e-12)

    def test_optimal_m2_golden(self, golden):
        params = sa.plan(golden, "optimal-m2").build(golden)
        assert np.allclose(params.r, GOLDEN_R_OPT, atol=1e-14)
        assert np.allclose(params.f, GOLDEN_F_OPT, atol=1e-14)
        assert params.lam == pytest.approx(GOLDEN_LAMBDA, abs=1e-12)
        # resulting squeezed rows no longer overlap
        assert np.abs(params.w_tilde[0] * params.w_tilde[1]).max() < 1e-12

    def test_every_plan_validates(self, rng):
        for strategy in ("none", "lambda-only", "heuristic"):
            for _ in range(20):
                ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 9)))
                params = sa.plan(ch, strategy).build(ch)
                assert params.feasible
                assert params.channel is ch

    def test_plan_params_are_the_builders(self):
        # a plan picks the floor; offset and gain are params_from_r_lambda's, bit for bit
        built = 0
        for ch in _plan_channels():
            strategies = ("lambda-only", "heuristic") + (("optimal-m2",) if ch.m == 2 else ())
            for strategy in strategies:
                r = _floor(ch, strategy)
                try:
                    expected = sa.params_from_r_lambda(ch, r)
                except sa.SqueezeConstraintError:  # the known tiny-spread defect
                    with pytest.raises(sa.SqueezeConstraintError):
                        sa.plan(ch, strategy)
                    continue
                got = sa.plan(ch, strategy).build(ch)
                for name in ("r", "f"):
                    assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
                assert got.lam == expected.lam
                built += 1
            plain = sa.plan(ch, "none").build(ch)
            expected = sa.params_from_r_lambda(ch, np.zeros(ch.m), 1.0)
            assert (plain.r.tobytes(), plain.f.tobytes()) == (expected.r.tobytes(),
                                                              expected.f.tobytes())
        assert built >= 13

    def test_g_form_oracle_matches_the_builder(self):
        # f = g - (1 + g_+) rW at the optimal g is the builder's offset at the top gain
        for ch in _plan_channels()[:4]:
            g = optimal_g(ch)
            strategies = ("lambda-only", "heuristic") + (("optimal-m2",) if ch.m == 2 else ())
            for strategy in strategies:
                sp = sa.plan(ch, strategy).params
                assert np.abs(offset_from_g(ch, g, sp.r) - sp.f).max() <= 1e-14
                assert 1.0 + g.sum() == pytest.approx(sp.lam, rel=1e-14)

    def test_build_rejects_another_channel(self, golden):
        pl = sa.plan(golden, "optimal-m2")
        other = sa.validate_channel([[0.2, 0.7, 0.1], [0.1, 0.7, 0.2]])
        with pytest.raises(sa.ValidationError, match="different channel"):
            pl.build(other)
        # an equal matrix in another object is the same channel
        assert pl.build(golden_channel()) is pl.params

    def test_round_trip_offset_and_combined_squeeze(self, rng):
        from helpers import random_floor, random_offset

        for _ in range(60):
            ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 9)))
            r = random_floor(rng, ch)
            f = random_offset(rng, ch, r)
            params = sa.build_squeeze_params(ch, r, f)
            g = (1 + params.f_plus) / (1 - params.r_plus) * (r @ ch.w) + f
            back = g - (1 + g.sum()) * (r @ ch.w)
            assert np.allclose(back, f, atol=1e-12)
            # mass identity between the squeeze vectors
            assert params.f_plus == pytest.approx(
                (1 + g.sum()) * (1 - params.r_plus) - 1, abs=1e-12)

    def test_unsqueezable_channel_warns(self):
        ch = sa.validate_channel(np.eye(3))
        with pytest.warns(RuntimeWarning):
            sp = sa.plan(ch, "lambda-only").params
        assert sp.lam == 1.0
        assert np.allclose(sp.f, 0.0)

    def test_plan_serialization(self, golden):
        doc = sa.plan(golden, "optimal-m2").to_dict()
        assert set(doc) == {"r", "g", "f", "lambda", "strategy"}
        assert doc["strategy"] == "optimal-m2"
        assert doc["lambda"] == pytest.approx(GOLDEN_LAMBDA, abs=1e-12)
        assert np.allclose(doc["g"], GOLDEN_G_OPT, atol=1e-14)


def test_heuristic_r_rejects_a_zero_reference(golden):
    with pytest.raises(sa.ValidationError, match="zero output mass"):
        sa.heuristic_r(golden, [0.0, 0.0])


def test_plan_rejects_an_unknown_strategy(golden):
    with pytest.raises(sa.ValidationError, match="unknown strategy 'newton'"):
        sa.plan(golden, "newton")
