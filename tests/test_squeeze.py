import warnings

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import (
    GOLDEN_F_OPT,
    GOLDEN_G_OPT,
    GOLDEN_LAMBDA,
    GOLDEN_R_OPT,
    GOLDEN_WTILDE,
    golden_channel,
    random_channel,
    random_floor,
    random_offset,
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
        assert np.allclose(params.c, 0.0)
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
            lo, hi = sa.lambda_bounds(ch, r)
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
            lo, hi = sa.lambda_bounds(ch, r)
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
