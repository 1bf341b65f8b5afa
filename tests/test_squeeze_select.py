import warnings

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import (
    GOLDEN_F_OPT,
    GOLDEN_G_OPT,
    GOLDEN_LAMBDA,
    GOLDEN_R_OPT,
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


def test_optimal_g_golden(golden):
    assert np.allclose(sa.optimal_g(golden), GOLDEN_G_OPT, atol=1e-15)


def test_optimal_g_identity_zero():
    assert np.allclose(sa.optimal_g(sa.validate_channel(np.eye(4))), 0.0)


def test_optimal_g_total_matches_gain_bound(rng):
    for _ in range(40):
        ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 10)))
        g = sa.optimal_g(ch)
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


def test_offset_from_g_checks_its_vectors(golden):
    for g, r, error in (([np.nan, 0.0, 0.0], [0.0, 0.0], sa.ValidationError),
                        (GOLDEN_G_OPT, [-0.5, 0.0], sa.NegativeEntryError),
                        ([0.1, 0.1], [0.0, 0.0], sa.DimensionMismatchError)):
        with pytest.raises(error):
            sa.offset_from_g(golden, g, r)


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


class TestPlan:
    def test_none_strategy(self, golden):
        pl = sa.plan(golden, "none")
        assert np.allclose(pl.r, 0) and np.allclose(pl.f, 0) and pl.lam == 1.0

    def test_lambda_only_sets_offset_to_g(self, golden):
        pl = sa.plan(golden, "lambda-only")
        assert np.allclose(pl.r, 0)
        assert np.allclose(pl.f, GOLDEN_G_OPT, atol=1e-15)
        assert pl.lam == pytest.approx(GOLDEN_LAMBDA, abs=1e-12)

    def test_optimal_m2_golden(self, golden):
        pl = sa.plan(golden, "optimal-m2")
        assert np.allclose(pl.r, GOLDEN_R_OPT, atol=1e-14)
        assert np.allclose(pl.f, GOLDEN_F_OPT, atol=1e-14)
        assert pl.lam == pytest.approx(GOLDEN_LAMBDA, abs=1e-12)
        # resulting squeezed rows no longer overlap
        params = pl.build(golden)
        assert np.abs(params.w_tilde[0] * params.w_tilde[1]).max() < 1e-12

    def test_every_plan_validates(self, rng):
        for strategy in ("none", "lambda-only", "heuristic"):
            for _ in range(20):
                ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 9)))
                pl = sa.plan(ch, strategy)
                params = pl.build(ch)
                assert params.feasible
                assert params.lam == pytest.approx(pl.lam, abs=1e-9)

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
            pl = sa.plan(ch, "lambda-only")
        assert pl.lam == 1.0
        assert np.allclose(pl.f, 0.0)

    def test_plan_serialization(self, golden):
        doc = sa.plan(golden, "optimal-m2").to_dict()
        assert set(doc) == {"r", "g", "f", "lambda", "strategy"}
        assert doc["strategy"] == "optimal-m2"
        assert doc["lambda"] == pytest.approx(GOLDEN_LAMBDA, abs=1e-12)
