import hashlib
import logging
import re
import struct
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import (
    ABA_STEP_P1_FROM_THIRD,
    GOLDEN_CAPACITY,
    GOLDEN_LAMBDA,
    GOLDEN_R_OPT,
    UNSHIFTED_MAX_Z,
    alg3_posterior_step,
    block_channel,
    golden_channel,
    golden_section_capacity,
    heavy_overlap_channel,
    log_domain_step,
    mutual_information,
    random_channel,
    random_floor,
    random_offset,
    reference_divergences,
    reference_lambda_bounds,
    reference_solve,
    reference_update,
    shifted_update,
    spread_rows,
    spy_calls,
    two_step_divergences,
    under_every_filter,
)


class TestSteps:
    def test_aba_fixed_point_on_identity(self):
        ch = sa.validate_channel(np.eye(4))
        p = np.full(4, 0.25)
        assert np.allclose(sa.aba_step(ch, p).probs, p, atol=1e-15)

    def test_aba_step_from_skewed_start(self, golden):
        nxt = sa.aba_step(golden, [1 / 3, 2 / 3])
        assert nxt.probs[0] == pytest.approx(ABA_STEP_P1_FROM_THIRD, abs=1e-14)
        assert 1 / 3 < nxt.probs[0] < 0.5

    def test_aba_step_degenerate_rows_is_identity_map(self):
        ch = sa.validate_channel([[0.4, 0.6], [0.4, 0.6]])
        p = np.array([0.3, 0.7])
        assert np.allclose(sa.aba_step(ch, p).probs, p, atol=1e-15)

    def test_aba_step_checks_no_parameters(self, golden, monkeypatch):
        # lambda = 1 with no floor is always feasible, so aba_step builds and
        # checks no params
        p = np.array([0.3, 0.7])
        plain = sa.aba_step(golden, p).probs.tobytes()
        calls = {"column_minima": 0, "_check_vector": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sa.ChannelMatrix, "column_minima",
                            counted("column_minima", sa.ChannelMatrix.column_minima))
        monkeypatch.setattr(sa.squeeze, "_check_vector",
                            counted("_check_vector", sa.squeeze._check_vector))
        assert sa.aba_step(golden, p).probs.tobytes() == plain
        assert calls == {"column_minima": 0, "_check_vector": 0}

    def test_aba_requires_interior(self, golden):
        with pytest.raises(sa.NonInteriorStartError):
            sa.aba_step(golden, [1.0, 0.0])

    def test_steps_and_solve_reject_non_finite_start(self, golden):
        for bad in ([np.nan, 0.5], [np.inf, 0.5]):
            with pytest.raises(sa.ValidationError, match="finite"):
                sa.aba_step(golden, bad)
        with pytest.raises(sa.ValidationError, match="finite"):
            sa.solve(golden, "aba", config=sa.SolverConfig(initial=[np.nan, np.nan]))

    def test_config_and_steps_refuse_the_same_starts(self, golden):
        # one validator checks a start wherever it enters, so each bad start
        # raises the same class from the config as from a step
        # under every warnings filter, a sum that overflows included
        for bad in ([-0.5, 1.5], [0.0, 1.0], [np.nan, 0.5], [0.3, 0.3], [[0.5, 0.5]],
                    [1e308, 1e308]):
            from_config = under_every_filter(lambda: sa.SolverConfig(initial=bad))
            from_step = under_every_filter(lambda: sa.aba_step(golden, bad))
            assert issubclass(from_config[0], sa.ValidationError), bad
            assert from_config[0] is from_step[0], bad

    def test_alg1_unit_gain_equals_aba(self, golden, rng):
        for _ in range(20):
            p = rng.dirichlet([1, 1])
            a = sa.aba_step(golden, p).probs
            b = sa.alg1_step(golden, 1.0, p).probs
            assert np.allclose(a, b, atol=1e-15)

    def test_alg2_step_rejects_params_of_another_channel(self, golden):
        params = sa.params_from_r_lambda(golden, GOLDEN_R_OPT, GOLDEN_LAMBDA)
        other = sa.validate_channel([[0.2, 0.7, 0.1], [0.1, 0.7, 0.2]])
        with pytest.raises(sa.ValidationError, match="different channel"):
            sa.alg2_step(other, params, [0.5, 0.5])
        # an equal matrix in another object is the same channel
        same = golden_channel()
        assert same is not golden
        assert np.array_equal(sa.alg2_step(same, params, [0.3, 0.7]).probs,
                              sa.alg2_step(golden, params, [0.3, 0.7]).probs)

    def test_solve_rejects_params_of_another_channel(self, golden):
        other = sa.validate_channel([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]])
        params = sa.plan(other, "optimal-m2").params
        for method in ("alg2", "alg3"):
            with pytest.raises(sa.ValidationError, match="different channel"):
                sa.solve(golden, method, params=params)
        # an equal matrix in another object is the same channel
        res = sa.solve(golden_channel(), "alg3", params=sa.plan(golden, "optimal-m2").params)
        assert res.converged
        # equal means bitwise: a re-validated copy can differ in the last bit
        rng = np.random.default_rng(3)
        ch = next(c for c in (random_channel(rng, 4, 8) for _ in range(200))
                  if not np.array_equal(sa.ChannelMatrix(c.w).w, c.w))
        with pytest.raises(sa.ValidationError, match="different channel"):
            sa.solve(sa.ChannelMatrix(ch.w), "alg2", params=sa.plan(ch, "heuristic").params)

    def test_alg1_out_of_range_gain(self, golden):
        with pytest.raises(sa.LambdaRangeError):
            sa.alg1_step(golden, 3.0, [0.5, 0.5])
        with pytest.raises(sa.LambdaRangeError):
            sa.alg1_step(golden, 1.0 - 1e-9, [0.5, 0.5])
        # the params_from_r_lambda that solve calls: forced, it warns about the
        # gain and about the offset it implies, and steps
        with pytest.warns(RuntimeWarning) as caught:
            p = sa.alg1_step(golden, 3.0, [0.4, 0.6], force=True)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2 and "outside feasible interval" in messages[0]
        assert messages[1].startswith("offset constraint violated")
        assert all(w.filename == __file__ for w in caught)
        assert p.probs.sum() == pytest.approx(1.0)
        with pytest.warns(RuntimeWarning):
            # forced mode still computes (no convergence guarantee)
            sa.solve(golden, "alg1", lam=3.0, force=True,
                     config=sa.SolverConfig(max_iters=50))

    def test_alg1_moves_faster_than_aba(self, golden):
        # per-iterate distance to the optimizer shrinks faster at the
        # largest feasible gain
        target = np.array([0.5, 0.5])
        p_a = np.array([1 / 3, 2 / 3])
        p_1 = p_a.copy()
        for _ in range(5):
            p_a = sa.aba_step(golden, p_a).probs
            p_1 = sa.alg1_step(golden, GOLDEN_LAMBDA, p_1).probs
        assert np.abs(p_1 - target).max() < np.abs(p_a - target).max()

    def test_alg1_symmetric_channel_uniform_fixed(self, rng):
        # rows that are permutations of each other keep uniform fixed
        row = rng.dirichlet(np.ones(4))
        ch = sa.validate_channel([row, row[::-1]])
        p = np.array([0.5, 0.5])
        nxt = sa.alg1_step(ch, sa.lambda_upper_bound(ch), p).probs
        assert np.allclose(nxt, p, atol=1e-14)

    def test_alg2_zero_floor_equals_alg1(self, golden, rng):
        # bitwise, so params built once can stand in for alg1_step's per-call build
        for floor in ([0, 0], 0.0):
            params = sa.params_from_r_lambda(golden, floor, GOLDEN_LAMBDA)
            for _ in range(20):
                p = rng.dirichlet([1, 1])
                a = sa.alg1_step(golden, GOLDEN_LAMBDA, p).probs
                b = sa.alg2_step(golden, params, p).probs
                assert a.tobytes() == b.tobytes()

    def test_alg2_one_step_convergence(self, golden, rng):
        params = sa.params_from_r_lambda(golden, GOLDEN_R_OPT, GOLDEN_LAMBDA)
        for _ in range(20):
            q = rng.uniform(0.05, 0.95)
            p0 = params.r + (1 - params.r_plus) * np.array([q, 1 - q])
            p1 = sa.alg2_step(golden, params, p0).probs
            assert np.allclose(p1, [0.5, 0.5], atol=1e-12)

    def test_alg3_trivial_params_equal_aba(self, golden, rng):
        params = sa.build_squeeze_params(golden, [0, 0], [0, 0, 0])
        for _ in range(20):
            p = rng.dirichlet([1, 1])
            a = sa.aba_step(golden, p).probs
            b = sa.alg3_step(params, p).probs
            assert np.allclose(a, b, atol=1e-13)

    def test_alg3_posterior_shortcut_on_orthogonal_rows(self, golden):
        # with the optimal double squeeze the posterior is the squeezed
        # matrix transposed, and one step lands on the optimizer
        params = sa.build_squeeze_params(golden, GOLDEN_R_OPT, [0, 0.25, 0])
        p1 = sa.alg3_step(params, [0.3, 0.7]).probs
        assert np.allclose(p1, [0.5, 0.5], atol=1e-12)

    def test_alg2_equals_alg3_randomized(self, rng):
        # offsets both proportional (from lambda) and arbitrary feasible,
        # each step checked against the literal posterior form
        worst = 0.0
        for trial in range(60):
            ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 9)))
            r = random_floor(rng, ch)
            if trial % 2:
                params = sa.build_squeeze_params(ch, r, random_offset(rng, ch, r))
            else:
                lo, hi = reference_lambda_bounds(ch, r)
                params = sa.params_from_r_lambda(ch, r, float(rng.uniform(lo, hi)))
            for _ in range(20):
                p = params.r + (1 - params.r_plus) * rng.dirichlet(np.ones(ch.m))
                oracle = alg3_posterior_step(params, p)
                for step in (sa.alg2_step(ch, params, p), sa.alg3_step(params, p)):
                    worst = max(worst, float(np.abs(step.probs - oracle).max()))
        assert worst < 1e-10

    def test_steps_leave_the_callers_p_unchanged(self, rng):
        # the update kernel works in place, but only on its own buffer
        for _ in range(10):
            ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 9)))
            r = random_floor(rng, ch)
            params = sa.params_from_r_lambda(ch, r, reference_lambda_bounds(ch, r)[1])
            p = params.r + (1 - params.r_plus) * rng.dirichlet(np.ones(ch.m))
            before = p.copy()
            for step in (sa.aba_step(ch, p), sa.alg2_step(ch, params, p)):
                assert not np.shares_memory(step.probs, p)
            assert np.array_equal(p, before)


class TestSolve:
    def test_golden_channel_aba(self, golden):
        res = sa.solve(golden, "aba",
                       config=sa.SolverConfig(initial=sa.make_distribution([1 / 3, 2 / 3])))
        assert res.converged
        assert np.allclose(res.p_hat.probs, [0.5, 0.5], atol=1e-6)
        p1, cap = golden_section_capacity(golden)
        assert p1 == pytest.approx(0.5, abs=1e-6)
        assert res.capacity == pytest.approx(cap, abs=1e-7)
        assert res.capacity == pytest.approx(GOLDEN_CAPACITY, abs=1e-7)

    def test_golden_channel_alg2_one_iteration(self, golden):
        res = sa.solve(golden, "alg2", r=GOLDEN_R_OPT, lam=GOLDEN_LAMBDA,
                       config=sa.SolverConfig(initial=sa.make_distribution([0.2, 0.8])))
        assert res.converged
        assert res.iterations == 1
        assert np.allclose(res.p_hat.probs, [0.5, 0.5], atol=1e-12)

    def test_identity_channel_all_methods(self):
        ch = sa.validate_channel(np.eye(3))
        for method, kw in [("aba", {}), ("alg1", {}),
                           ("alg2", {"r": np.zeros(3)}),
                           ("alg3", {"r": np.zeros(3), "f": np.zeros(3)})]:
            res = sa.solve(ch, method, **kw)
            assert res.converged
            assert res.capacity == pytest.approx(np.log(3.0), abs=1e-8)
            assert np.allclose(res.p_hat.probs, 1 / 3, atol=1e-6)

    def test_equal_rows_stop_the_loop_at_iteration_0(self):
        ch = sa.validate_channel([[0.5, 0.5], [0.5, 0.5]])
        res = sa.solve(ch, "aba")
        assert res.converged and res.iterations == 0
        assert res.capacity == 0.0
        assert np.allclose(res.p_hat.probs, [0.5, 0.5])
        assert res.trace == ()  # the trace is opt-in
        traced = sa.solve(ch, "aba", config=sa.SolverConfig(record_trace=True))
        assert traced.converged and len(traced.trace) == 1

    def test_degenerate_channel_checks_the_start_length(self):
        # the length is checked before the loop starts, as on any channel
        ch = sa.validate_channel([[0.4, 0.6], [0.4, 0.6]])
        config = sa.SolverConfig(initial=[0.2, 0.3, 0.5])
        for method in ("aba", "alg1"):
            with pytest.raises(sa.DimensionMismatchError, match="start must have length 2"):
                sa.solve(ch, method, config=config)

    def test_alg2_and_alg3_solves_agree(self):
        # the same params through either method name: same iterate sequence
        for m, n, seed in ((2, 8, 0), (8, 32, 1)):
            for k in range(4):
                ch = sa.random_channel(m, n, sa.replication_rng(seed, k))
                r = sa.optimal_r_m2(ch) if m == 2 else sa.heuristic_r(ch, sa.uniform(m))
                params = sa.params_from_r_lambda(ch, r, sa.lambda_upper_bound(ch))
                cfg = sa.SolverConfig(record_trace=False)
                a = sa.solve(ch, "alg2", params=params, config=cfg)
                b = sa.solve(ch, "alg3", r=r, f=params.f, config=cfg)
                assert a.converged and b.converged
                assert a.iterations == b.iterations
                assert abs(a.capacity_lower - b.capacity_lower) <= 1e-12
                assert abs(a.capacity_upper - b.capacity_upper) <= 1e-12

    def test_trace_leaves_the_iterates_unchanged(self, golden):
        # the trace only copies p and z, so recording it may not move any
        # output by a single bit, for any method
        rng = np.random.default_rng(4)
        b = 0.9 + 0.2 * rng.random(8)
        rows = np.zeros((3, 8))
        for i, part in enumerate(np.array_split(np.arange(8), 3)):
            rows[i, part] = 0.9 + 0.2 * rng.random(len(part))
        overlap = sa.validate_channel(0.988 * b / b.sum()  # heavy overlap: rows 1.2% apart
                                      + 0.012 * rows / rows.sum(axis=1, keepdims=True))
        channels = [golden, overlap] + [sa.random_channel(m, n, sa.replication_rng(seed, 0))
                                        for m, n, seed in ((2, 8, 0), (8, 32, 1))]
        for ch in channels:
            r = sa.optimal_r_m2(ch) if ch.m == 2 else sa.heuristic_r(ch, sa.uniform(ch.m))
            params = sa.params_from_r_lambda(ch, r, sa.lambda_upper_bound(ch))
            for method, kw in (("aba", {}), ("alg1", {}), ("alg2", {"params": params}),
                               ("alg3", {"r": r, "f": params.f})):
                off, on = (sa.solve(ch, method, config=sa.SolverConfig(record_trace=traced), **kw)
                           for traced in (False, True))
                assert off.converged and off.trace == ()
                assert len(on.trace) == on.iterations + 1
                assert off.iterations == on.iterations, (ch.m, ch.n, method)
                assert off.capacity_lower == on.capacity_lower
                assert off.capacity_upper == on.capacity_upper
                assert np.array_equal(off.p_hat.probs, on.p_hat.probs)

    def test_bounds_bracket_capacity(self, golden):
        res = sa.solve(golden, "aba", config=sa.SolverConfig(epsilon=1e-4))
        assert res.capacity_lower <= res.capacity_upper
        assert res.capacity_upper - res.capacity_lower <= 1e-4
        mi = mutual_information(golden, res.p_hat)
        assert res.capacity_lower - 1e-9 <= mi <= res.capacity_upper + 1e-9

    def test_not_converged_reported_not_raised(self, rng):
        ch = random_channel(rng, 2, 6)
        res = sa.solve(ch, "aba", config=sa.SolverConfig(epsilon=1e-12, max_iters=3))
        assert not res.converged
        assert res.iterations == 3

    def test_every_iterate_brackets_true_capacity(self, rng):
        # lower/upper from any iterate bracket the capacity itself, not
        # just the final mutual information; oracle: golden-section search
        for _ in range(5):
            ch = random_channel(rng, 2, int(rng.integers(3, 8)))
            _, true_capacity = golden_section_capacity(ch)
            start = sa.make_distribution(rng.dirichlet([1.0, 1.0]))
            res = sa.solve(ch, "aba", config=sa.SolverConfig(epsilon=1e-10, initial=start,
                                                             record_trace=True))
            assert len(res.trace) == res.iterations + 1
            for rec in res.trace:
                assert rec.objective <= true_capacity + 1e-9
                assert rec.objective + rec.gap >= true_capacity - 1e-9

    def test_zero_output_mass_breaks_loudly(self):
        # a start on the floor boundary can zero out an output letter that
        # some row still uses; the update must refuse to continue
        ch = sa.validate_channel([[0.5, 0.5], [1.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            params = sa.build_squeeze_params(ch, [0.2, 0.0], [0.0, 0.0], force=True)
        with pytest.raises(sa.NumericalBreakdownError):
            sa.alg2_step(ch, params, [0.2, 0.8])

    def test_zero_output_mass_breaks_loudly_in_solve(self):
        # the same breakdown reached inside the solve loop, where the check is
        # a non-finite max z under the loop's own errstate
        ch = sa.validate_channel([[0.5, 0.5], [1.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            params = sa.params_from_r_lambda(ch, [0.2, 0.0], 50.0, force=True)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sa.NumericalBreakdownError,
                               match="output letter 1 has zero probability"):
                sa.solve(ch, "alg2", params=params, force=True)
        assert np.geterr() == before
        sa.solve(ch, "aba")
        sa.alg2_step(ch, params, [0.6, 0.4])
        assert np.geterr() == before

    def test_zero_output_mass_names_an_inner_letter(self):
        # only input 1 reaches output 2, so q_1 = 0 zeroes that letter alone; the
        # locator reads ln s in place, where the zero mass is the one -inf
        ch = sa.validate_channel([[0.5, 0.5, 0.0, 0.0], [0.0, 0.25, 0.5, 0.25],
                                  [0.2, 0.2, 0.0, 0.6]])
        r = [0.0, 0.2, 0.0]
        with pytest.warns(RuntimeWarning):
            params = sa.params_from_r_lambda(ch, r, 50.0, force=True)
        match = "output letter 2 has zero probability"
        with pytest.raises(sa.NumericalBreakdownError, match=match):
            sa.alg2_step(ch, params, [0.4, 0.2, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sa.NumericalBreakdownError, match=match):
                sa.solve(ch, "alg2", params=params, force=True)

    def test_methods_agree_on_capacity(self, rng):
        for _ in range(15):
            ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(3, 9)))
            eps = 1e-9
            caps, phats = [], []
            for method, kw in [("aba", {}), ("alg1", {}),
                               ("alg2", {"r": random_floor(rng, ch)})]:
                res = sa.solve(ch, method, config=sa.SolverConfig(epsilon=eps), **kw)
                assert res.converged
                caps.append(res.capacity)
                phats.append(res.p_hat.probs)
            assert max(caps) - min(caps) <= 2 * eps
            if sa.solve(ch, "aba", config=sa.SolverConfig(epsilon=1e-11)).p_hat.probs.min() > 1e-3:
                for other in phats[1:]:
                    assert np.allclose(phats[0], other, atol=1e-4)

    def test_trace_contents(self, golden):
        res = sa.solve(golden, "alg2", r=GOLDEN_R_OPT, lam=GOLDEN_LAMBDA,
                       config=sa.SolverConfig(initial=sa.make_distribution([0.3, 0.7]),
                                              record_trace=True))
        assert len(res.trace) == res.iterations + 1
        for rec in res.trace:
            assert abs(rec.p.sum() - 1.0) < 1e-12
            assert np.all(rec.p >= GOLDEN_R_OPT - 1e-15)
            assert rec.gap >= 0.0
        objs = [rec.objective for rec in res.trace]
        assert np.all(np.diff(objs) >= -1e-12)

    def test_monotone_ascent_randomized(self, rng):
        for trial in range(80):
            ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 10)))
            method = ("aba", "alg1", "alg2", "alg3")[trial % 4]
            kw = {}
            if method in ("alg2", "alg3"):
                r = random_floor(rng, ch)
                lo, hi = reference_lambda_bounds(ch, r)
                kw = {"r": r, "lam": float(rng.uniform(lo, hi))}
            elif method == "alg1":
                kw = {"lam": float(rng.uniform(1.0, sa.lambda_upper_bound(ch)))}
            start = sa.make_distribution(rng.dirichlet(np.ones(ch.m)))
            res = sa.solve(ch, method,
                           config=sa.SolverConfig(epsilon=1e-9, max_iters=2500, initial=start,
                                                  record_trace=True),
                           **kw)
            assert len(res.trace) == res.iterations + 1
            objs = np.array([rec.objective for rec in res.trace])
            gaps = np.array([rec.gap for rec in res.trace])
            assert np.all(np.diff(objs) >= -1e-12)
            assert np.all(gaps >= 0.0)

    def test_solver_config_validation(self):
        with pytest.raises(sa.ValidationError):
            sa.SolverConfig(epsilon=0.0)
        with pytest.raises(sa.ValidationError):
            sa.SolverConfig(max_iters=0)
        # a float cap used to pass here and fail later in range() with TypeError
        for bad in (10.0, 1e6, "10", None):
            with pytest.raises(sa.ValidationError, match="integer"):
                sa.SolverConfig(max_iters=bad)
        assert sa.SolverConfig(max_iters=np.int64(7)).max_iters == 7
        # the update cannot move a zero entry off zero, so the config refuses it
        with pytest.raises(sa.NonInteriorStartError):
            sa.SolverConfig(initial=[0.0, 1.0])

    def test_config_start_is_validated_once(self, golden, monkeypatch):
        config = sa.SolverConfig(initial=[0.3, 0.7])
        checked = spy_calls(monkeypatch, "_check_start")
        made = spy_calls(monkeypatch, "make_distribution")
        for method, kw in (("aba", {}), ("alg2", {"r": GOLDEN_R_OPT})):
            assert sa.solve(golden, method, config=config, **kw).converged
        assert (checked, made) == ([], [])
        with pytest.raises(sa.DimensionMismatchError, match="start must have length 3"):
            sa.solve(sa.validate_channel(np.eye(3)), "aba", config=config)

    def test_unnormalized_start_rejected(self, golden):
        # a start off the simplex would shift both bounds of the bracket:
        # scaled up, it certified a capacity below the true one at iteration 0
        for factor in (1 + 1e-7, 1 - 1e-7):
            with pytest.raises(sa.ValidationError):
                sa.SolverConfig(initial=np.array([0.5, 0.5]) * factor)
        res = sa.solve(golden, "aba", config=sa.SolverConfig(initial=np.array([0.5, 0.5])))
        assert res.converged
        assert res.capacity_lower - 1e-12 <= GOLDEN_CAPACITY <= res.capacity_upper + 1e-12
        # the single steps check the sum too
        params = sa.params_from_r_lambda(golden, GOLDEN_R_OPT, GOLDEN_LAMBDA)
        for step, p in ((lambda p: sa.aba_step(golden, p), [0.5, 0.6]),
                        (lambda p: sa.alg1_step(golden, 1.2, p), [0.5, 0.6]),
                        (lambda p: sa.alg2_step(golden, params, p), [0.3, 0.3]),
                        (lambda p: sa.alg3_step(params, p), [0.3, 0.3])):
            total = f"{sum(p):.15g}"
            assert under_every_filter(lambda: step(p)) == (
                sa.DimensionMismatchError, f"start must sum to 1 +/- 1e-12, got {total}")
        # finite entries whose sum overflows: the config, the four steps and
        # matrix_rate, which checks its p*, all refuse it under every filter
        huge = [1e308, 1e308]
        for name, refuse in (("start", lambda: sa.SolverConfig(initial=huge)),
                             ("start", lambda: sa.aba_step(golden, huge)),
                             ("start", lambda: sa.alg1_step(golden, 1.2, huge)),
                             ("start", lambda: sa.alg2_step(golden, params, huge)),
                             ("start", lambda: sa.alg3_step(params, huge)),
                             ("p_star", lambda: sa.matrix_rate(params, huge))):
            assert under_every_filter(refuse) == (
                sa.DimensionMismatchError, f"{name} must sum to 1 +/- 1e-12, got inf")

    def test_method_parameter_validation(self, golden):
        with pytest.raises(sa.ValidationError):
            sa.solve(golden, "aba", lam=1.5)
        with pytest.raises(sa.ValidationError):
            sa.solve(golden, "alg2")
        with pytest.raises(sa.ValidationError):
            sa.solve(golden, "nope")

    def test_alg3_rejects_lambda_with_offset(self):
        # lambda is fixed by (r, f); a second value would be silently ignored
        ch = sa.validate_channel([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        r, f = np.zeros(2), np.array([0.0, 0.1, 0.0])
        assert sa.solve(ch, "alg3", r=r, f=f).params.lam == pytest.approx(1.1, abs=1e-15)
        with pytest.raises(sa.ValidationError, match="not both"):
            sa.solve(ch, "alg3", r=r, f=f, lam=99.0)

    def test_degenerate_channel_default_lambda_is_finite(self):
        w = [[0.5, 0.5], [0.5, 0.5]]
        # built directly or validated, a channel with equal rows has an
        # infinite gain bound, so the default gain is the finite lower bound
        for ch in (sa.validate_channel(w), sa.ChannelMatrix(np.array(w))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for method, kw in (("alg1", {}), ("alg2", {"r": [0.1, 0.1]})):
                    res = sa.solve(ch, method, **kw)
                    assert res.converged and res.iterations == 0 and res.capacity == 0.0
                    assert np.isfinite(res.params.lam) and res.params.feasible
                    assert np.all(np.isfinite(res.params.w_tilde))

    def test_trace_csv_roundtrip(self, golden, tmp_path):
        res = sa.solve(golden, "aba",
                       config=sa.SolverConfig(initial=sa.make_distribution([0.3, 0.7]),
                                              record_trace=True))
        path = tmp_path / "trace.csv"
        sa.write_trace_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,objective_nats,gap_nats,lower_nats,upper_nats,p_1,p_2"
        assert len(lines) == len(res.trace) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[5]) == pytest.approx(0.3, abs=1e-15)

    def test_trace_csv_rows_exported(self):
        assert sa.trace_csv_rows is sa.io.trace_csv_rows

    def test_trace_csv_rejects_untraced_result(self, golden, tmp_path):
        # the trace is opt-in; an untraced result used to give a header-only file
        res = sa.solve(golden, "aba")
        assert res.trace == ()
        with pytest.raises(sa.ValidationError, match="record_trace=True"):
            list(sa.trace_csv_rows(res))
        path = tmp_path / "trace.csv"
        with pytest.raises(sa.ValidationError, match="record_trace=True"):
            sa.write_trace_csv(res, path)
        assert not path.exists()


PINNED = [
    ("2x8", lambda: sa.random_channel(2, 8, sa.replication_rng(0, 0)),
     {"aba": 36, "alg1": 16, "alg2": 10, "alg3": 10}),
    ("8x32", lambda: sa.random_channel(8, 32, sa.replication_rng(0, 0)),
     {"aba": 1399, "alg1": 1127, "alg2": 1092, "alg3": 1092}),
    ("3x8 s=0.012", lambda: heavy_overlap_channel(sa.replication_rng(0, 4000)),
     {"aba": 43576, "alg1": 522, "alg2": 5, "alg3": 5}),
]


class TestUpdateKernel:
    """The kernel p_i exp(lambda (z_i - max z)) against the log-domain form
    exp(ln p_i + lambda z_i - max), which it replaced, and the iteration counts
    that form gave."""

    def test_steps_match_log_domain_form(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 6))
            ch = random_channel(rng, m, int(rng.integers(m, 12)))
            p = rng.dirichlet(np.ones(m))
            np.testing.assert_allclose(sa.aba_step(ch, p).probs,
                                       log_domain_step(ch, 1.0, None, p), rtol=1e-13)
            lam = sa.lambda_upper_bound(ch)
            np.testing.assert_allclose(sa.alg1_step(ch, lam, p).probs,
                                       log_domain_step(ch, lam, None, p), rtol=1e-13)
            r = random_floor(rng, ch)
            pf = (1.0 - r.sum()) * p + r
            floored = sa.params_from_r_lambda(ch, r, reference_lambda_bounds(ch, r)[1])
            np.testing.assert_allclose(sa.alg2_step(ch, floored, pf).probs,
                                       log_domain_step(ch, floored.lam, r, pf), rtol=1e-13)
            offset = sa.build_squeeze_params(ch, r, random_offset(rng, ch, r))
            np.testing.assert_allclose(sa.alg3_step(offset, pf).probs,
                                       log_domain_step(ch, offset.lam, r, pf), rtol=1e-13)

    @pytest.mark.parametrize("name, make, expected", PINNED)
    def test_iteration_counts_pinned(self, name, make, expected):
        ch = make()
        lam = sa.lambda_upper_bound(ch)
        r = sa.optimal_r_m2(ch) if ch.m == 2 else sa.heuristic_r(ch, sa.uniform(ch.m))
        results = {"aba": sa.solve(ch, "aba"), "alg1": sa.solve(ch, "alg1", lam=lam)}
        for method in ("alg2", "alg3"):
            results[method] = sa.solve(ch, method, r=r, lam=lam)
        assert all(res.converged for res in results.values())
        assert {m: res.iterations for m, res in results.items()} == expected

    @pytest.mark.parametrize("name, make, expected", PINNED)
    def test_floored_iterates_dominate_the_floor(self, name, make, expected):
        # p >= r holds exactly on every iterate, so solve forms q = (p - r)/(1 - r_+)
        # without clamping it at 0
        ch = make()
        r = sa.optimal_r_m2(ch) if ch.m == 2 else sa.heuristic_r(ch, sa.uniform(ch.m))
        for method in ("alg2", "alg3"):
            res = sa.solve(ch, method, r=r, lam=sa.lambda_upper_bound(ch),
                           config=sa.SolverConfig(record_trace=True))
            assert res.iterations == expected[method]
            assert len(res.trace) == res.iterations + 1
            assert all(np.all(rec.p >= res.params.r) for rec in res.trace)

    def test_divergence_max_finds_a_nan(self):
        # the loop takes max z as z[z.argmax()]: argmax returns the first NaN,
        # so a NaN beside a larger finite z is still a breakdown
        q = np.full(3, 1.0 / 3.0)
        for row_ll in ([np.nan, 5.0, 0.0], [5.0, 0.0, np.nan], [0.0, np.nan, 5.0]):
            channel = types.SimpleNamespace(w=np.eye(3), _row_loglikes=np.array(row_ll))
            with pytest.raises(sa.NumericalBreakdownError, match="not finite"):
                sa.solvers._iterate(channel, None, q)

    @pytest.mark.parametrize("shape", ["2x8", "3x8", "64x256"])
    def test_solve_buffers_alias_nothing(self, shape):
        # the loop reuses its buffers and swaps the plain iterate between two
        # of them; every record must still be the public step's iterate, bit
        # for bit, and nothing it returned or was given may change later.
        # alg1_step takes the requested lam and resolves it as solve does
        rng = np.random.default_rng(7)
        if shape == "2x8":
            ch = sa.random_channel(2, 8, sa.replication_rng(0, 0))
        elif shape == "3x8":
            ch = heavy_overlap_channel(sa.replication_rng(0, 4000))
        else:  # the benchmark's block channel
            ch = block_channel(rng)
        lam = sa.lambda_upper_bound(ch)
        r = sa.optimal_r_m2(ch) if ch.m == 2 else sa.heuristic_r(ch, sa.uniform(ch.m))
        config = sa.SolverConfig(max_iters=25, record_trace=True,
                                 initial=rng.dirichlet(np.ones(ch.m)))
        start = config.initial.probs.copy()
        runs = {"aba": ({}, lambda res, p: sa.aba_step(ch, p)),
                "alg1": ({"lam": lam}, lambda res, p: sa.alg1_step(ch, lam, p)),
                "alg2": ({"r": r, "lam": lam}, lambda res, p: sa.alg2_step(ch, res.params, p)),
                "alg3": ({"r": r, "lam": lam}, lambda res, p: sa.alg3_step(res.params, p))}
        for method, (kw, step) in runs.items():
            res = sa.solve(ch, method, config=config, **kw)
            assert len(res.trace) == res.iterations + 1 >= 2
            p = res.trace[0].p
            for rec in res.trace[1:]:
                p = step(res, p).probs
                assert p.tobytes() == rec.p.tobytes(), (method, rec.iter)
            kept = [res.p_hat.probs.tobytes()] + [rec.p.tobytes() for rec in res.trace]
            for _ in range(2):
                sa.solve(ch, method, config=config, **kw)
            assert kept == [res.p_hat.probs.tobytes()] + [rec.p.tobytes() for rec in res.trace]
            assert config.initial.probs.tobytes() == start.tobytes()


class TestMonotoneAscentCheck:
    """An infeasible gain makes the objective fall; the loop warns under
    force and raises otherwise."""

    @staticmethod
    def _overdriven():
        ch = sa.random_channel(2, 4, np.random.default_rng(0))
        return ch, 10 * sa.lambda_upper_bound(ch)

    def test_forced_solve_warns_at_the_caller(self):
        ch, lam = self._overdriven()
        with pytest.warns(RuntimeWarning) as caught:
            sa.solve(ch, "alg1", lam=lam, force=True, config=sa.SolverConfig(max_iters=200))
        first = [w for w in caught if "objective decreased" in str(w.message)][0]
        assert "objective decreased from 0.12801616446244096" in str(first.message)
        assert str(first.message).endswith("at iteration 1")
        assert first.filename == __file__

    def test_infeasible_direct_params_solve_as_forced(self):
        # a direct build runs the column tests too, so its verdict is the
        # forced builder's: the loop is forced and the lost ascent warns
        ch, lam = self._overdriven()
        f = np.full(4, (lam - 1) / 4)
        direct = sa.SqueezeParams(ch, np.zeros(2), f)
        with pytest.warns(RuntimeWarning, match="offset constraint violated"):
            built = sa.build_squeeze_params(ch, np.zeros(2), f, force=True)
        assert not direct.feasible and not built.feasible
        outcomes = []
        for params in (direct, built):
            with pytest.warns(RuntimeWarning) as caught:
                res = sa.solve(ch, "alg3", params=params, config=sa.SolverConfig(max_iters=200))
            messages = [str(w.message) for w in caught]
            assert any("objective decreased" in msg for msg in messages)
            outcomes.append((res.p_hat.probs.tobytes(), res.capacity_lower.hex(),
                             res.capacity_upper.hex(), res.iterations, res.converged, messages))
        assert outcomes[0] == outcomes[1]


def test_parameter_resolution_refusals(golden):
    prebuilt = sa.plan(golden, "heuristic").params
    cases = ((lambda: sa.solve(golden, "alg1", params=prebuilt), "does not accept prebuilt"),
             (lambda: sa.solve(golden, "alg1", r=[0, 0]), "'alg1' takes only lambda"),
             (lambda: sa.solve(golden, "alg2", r=[0, 0], f=[0, 0, 0]), "'alg2' takes (r, lambda)"),
             (lambda: sa.solve(golden, "alg3", r=[0, 0]), "requires the offset vector f"),
             (lambda: sa.solve(golden, "auto", params=prebuilt), "does not accept prebuilt"),
             (lambda: sa.solve(golden, "auto", lam=1.5), "'auto' takes no squeeze parameters"),
             (lambda: sa.solve(golden, "auto", f=[0, 0, 0]), "'auto' takes no squeeze parameters"))
    for call, match in cases:
        with pytest.raises(sa.ValidationError, match=re.escape(match)):
            call()


@pytest.mark.parametrize("keyword, value", [("lam", 1.5), ("r", [0.0, 0.0]),
                                            ("f", [0.0] * 8)])
@pytest.mark.parametrize("method", ["alg2", "alg3"])
def test_prebuilt_params_refuse_a_squeeze_keyword(method, keyword, value):
    # the params fix r, f and lambda; a keyword beside them is refused, not dropped
    ch = sa.random_channel(2, 8, sa.replication_rng(0, 3))
    params = sa.plan(ch, "optimal-m2").params
    with pytest.raises(sa.ValidationError, match="prebuilt params fix r, f and lambda"):
        sa.solve(ch, method, params=params, **{keyword: value})


@pytest.mark.parametrize("shape", ["2x8", "3x8", "8x32", "rows-equal"])
def test_aba_params_are_the_trivial_build(shape):
    # solve builds aba's params directly; they must be bitwise what the
    # general builder gives for r = 0 and lambda = 1
    if shape == "2x8":
        ch = sa.random_channel(2, 8, sa.replication_rng(0, 3))
    elif shape == "3x8":
        ch = heavy_overlap_channel(sa.replication_rng(0, 4000))
    elif shape == "8x32":
        ch = sa.random_channel(8, 32, np.random.default_rng(11))
    else:
        ch = sa.validate_channel(np.full((3, 4), 0.25))
        with pytest.raises(sa.DegenerateChannelError, match="all rows equal"):
            sa.lambda_upper_bound(ch)
    got = sa.solve(ch, "aba").params
    want = sa.params_from_r_lambda(ch, np.zeros(ch.m), 1.0)
    assert got.channel is ch
    for name in ("r", "f"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert getattr(got, name).shape == getattr(want, name).shape, name
    for name in ("r_plus", "f_plus", "lam", "feasible"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert got.is_plain()


def test_step_start_checks(golden):
    with pytest.raises(sa.DimensionMismatchError, match="start must have length 2"):
        sa.aba_step(golden, [1 / 3, 1 / 3, 1 / 3])
    params = sa.params_from_r_lambda(golden, GOLDEN_R_OPT, GOLDEN_LAMBDA)
    # a start below its floor is refused as any point below its floor is
    with pytest.raises(sa.NegativeEntryError, match=r"^start must dominate the floor: "
                       r"component 0 is 0\.05, below its floor 0\.125$"):
        sa.alg2_step(golden, params, [0.05, 0.95])


def oracle_channels(family: str) -> list:
    if family == "2x8":
        return [sa.random_channel(2, 8, sa.replication_rng(0, k)) for k in range(100)]
    if family == "8x32":
        return [sa.random_channel(8, 32, np.random.default_rng(k)) for k in range(5)]
    if family == "3x8":
        return [heavy_overlap_channel(sa.replication_rng(0, k)) for k in (4000, 4001)]
    return [block_channel(np.random.default_rng(7))]


def oracle_kwargs(ch: sa.ChannelMatrix) -> dict:
    """alg1 and alg2 at the pinned tests' gain and floor; alg3 with the plan
    that auto builds, and auto, which builds it itself."""
    lam = sa.lambda_upper_bound(ch)
    r = sa.optimal_r_m2(ch) if ch.m == 2 else sa.heuristic_r(ch, sa.uniform(ch.m))
    chosen = sa.plan(ch, "optimal-m2" if ch.m == 2 else "heuristic")
    return {"aba": {}, "alg1": {"lam": lam}, "alg2": {"r": r, "lam": lam},
            "alg3": {"params": chosen.params}, "auto": {}}


@pytest.mark.parametrize("family", ["2x8", "8x32", "3x8", "64x256"])
def test_solve_matches_the_reference_bitwise(family):
    # a plain restatement of the map, in the loop's order of numpy calls, must
    # give every p_hat, bound and count bit for bit: a change to the loop's
    # arithmetic, even in the last bit, fails here rather than passing unseen
    mismatched = []
    for k, ch in enumerate(oracle_channels(family)):
        for method, kw in oracle_kwargs(ch).items():
            res = sa.solve(ch, method, **kw)
            r = res.params.r if res.params.r_plus else None  # as the loop picks its update
            p_hat, lower, upper, t = reference_solve(ch, res.params.lam, r)
            got = (res.p_hat.probs.tobytes(), res.capacity_lower.hex(),
                   res.capacity_upper.hex(), res.iterations)
            if got != (p_hat.tobytes(), lower.hex(), upper.hex(), t):
                mismatched.append((k, method))
    assert mismatched == []


#: SHA-256 of every squeezed solve's output on the seeded 2x8 study.  A change
#: that moves any of these bits on purpose restates it and says why
FLOORED_PATH_DIGEST = "eba5d87d73a03058d50439788cf63b2d78c4dce70e2bc46406654d2fd0014c4a"


def test_floored_path_matches_its_digest():
    # the benchmark's 400 seed-0 2x8 channels under the squeezed methods, with
    # the parameters the benchmark builds: the iteration pins count iterations,
    # which a last-bit change of a bound, a point or a parameter can leave alone
    digest = hashlib.sha256()
    for k in range(400):
        ch = sa.random_channel(2, 8, sa.replication_rng(0, k))
        r, lam = sa.optimal_r_m2(ch), sa.lambda_upper_bound(ch)
        for method, kw in (("alg1", {"lam": lam}), ("alg2", {"r": r, "lam": lam}),
                           ("alg3", {"r": r, "lam": lam}),
                           ("alg3", {"params": sa.plan(ch, "optimal-m2").build(ch)})):
            res = sa.solve(ch, method, **kw)
            for a in (res.p_hat.probs, res.params.r, res.params.f):
                digest.update(a.tobytes())
            digest.update(struct.pack("<3dq", res.capacity_lower, res.capacity_upper,
                                      res.params.lam, res.iterations))
    assert digest.hexdigest() == FLOORED_PATH_DIGEST


def auto_warnings(caplog) -> list[str]:
    return [rec.getMessage() for rec in caplog.records
            if rec.name == "squeeze_aba" and rec.levelno == logging.WARNING]


@pytest.mark.parametrize("rows, error", [
    ([[0.4, 0.6], [0.4, 0.6]], sa.DegenerateChannelError),
    (spread_rows(np.random.default_rng(1), 1e-6), sa.SqueezeConstraintError),
])
def test_auto_falls_back_to_aba_where_the_plan_is_refused(rows, error, caplog):
    # equal rows have no finite squeeze, and at spread 1e-6 the optimal squeeze
    # breaks an offset constraint by about 1e-11: plan raises on both, and
    # auto logs why, once, and then runs aba's map bit for bit
    ch = sa.validate_channel(rows)
    with pytest.raises(error) as refused:
        sa.plan(ch, "optimal-m2")
    aba = sa.solve(ch, "aba")
    assert auto_warnings(caplog) == []
    auto = sa.solve(ch, "auto")
    assert auto_warnings(caplog) == [f"method 'auto' runs the plain iteration: {refused.value}"]
    assert auto.method == "auto" and auto.params.is_plain()
    assert solve_bits(auto) == solve_bits(aba)


def test_auto_returns_wherever_aba_does(caplog):
    # (1 - s) b + s N 2x8 channels from heavy overlap down to rows that count
    # as equal; only that auto returns where aba does is asserted, not that
    # the bracket holds, which at s = 1e-6 it does not always do
    rng = np.random.default_rng(31)
    for spread in (0.3, 0.1, 1e-6, 1e-9):
        fell_back = 0
        for _ in range(25):
            ch = sa.validate_channel(spread_rows(rng, spread))
            try:
                aba = sa.solve(ch, "aba")
            except sa.SqueezeAbaError:
                continue
            caplog.clear()
            auto = sa.solve(ch, "auto")  # raises if auto fails where aba succeeds
            assert auto.converged == aba.converged, spread
            if auto_warnings(caplog):
                fell_back += 1
                assert solve_bits(auto) == solve_bits(aba), spread
        if spread == 1e-9:  # every column spans at most 1e-9: plan refuses them all
            assert fell_back == 25


@pytest.mark.parametrize("family", ["2x8", "8x32", "3x8", "64x256"])
def test_steps_match_the_reference_update(family):
    rng = np.random.default_rng(3)
    for ch in oracle_channels(family)[:5]:
        q = rng.dirichlet(np.ones(ch.m))
        kw = oracle_kwargs(ch)
        lam, params = kw["alg1"]["lam"], kw["alg3"]["params"]
        r, scale = params.r, 1.0 - params.r_plus
        p = scale * q + r
        z, z_floored = reference_divergences(ch, q), reference_divergences(ch, (p - r) / scale)
        assert sa.aba_step(ch, q).probs.tobytes() == reference_update(1.0, None, q, z).tobytes()
        gain = sa.params_from_r_lambda(ch, np.zeros(ch.m), lam).lam
        assert sa.alg1_step(ch, lam, q).probs.tobytes() == reference_update(gain, None, q, z).tobytes()
        floored = reference_update(params.lam, r, p, z_floored).tobytes()
        assert sa.alg2_step(ch, params, p).probs.tobytes() == floored
        assert sa.alg3_step(params, p).probs.tobytes() == floored
        # a start 5e-13 below its floor, which the step accepts: its q is clamped at 0
        i = int(np.argmax(r))
        j = (i + 1) % ch.m  # takes the mass that entry i gives up
        low = p.copy()
        low[i], low[j] = r[i] - 5e-13, low[j] + (low[i] - (r[i] - 5e-13))
        z_low = reference_divergences(ch, np.maximum((low - r) / scale, 0.0))
        floored = reference_update(params.lam, r, low, z_low).tobytes()
        assert sa.alg2_step(ch, params, low).probs.tobytes() == floored
        assert sa.alg3_step(params, low).probs.tobytes() == floored


@pytest.mark.parametrize("family", ["2x8", "8x32", "3x8", "64x256"])
def test_the_one_product_divergences_agree_with_the_two_step_form(family):
    # z = [-W | l] [ln s; 1] sums the terms of l - W ln s in another order, so
    # the two agree within 4 ulps of the largest |W ln s|; and neither that
    # order nor the unshifted plain update moves any solve's stopping
    # iteration from that of the two-step, always-shifted reference
    rng = np.random.default_rng(13)
    eps = np.finfo(float).eps
    mismatched = []
    for k, ch in enumerate(oracle_channels(family)):
        for q in rng.dirichlet(np.ones(ch.m), 5):
            scale = np.abs(np.dot(ch.w, np.log(np.dot(q, ch.w)))).max()
            gap = np.abs(reference_divergences(ch, q) - two_step_divergences(ch, q)).max()
            assert gap <= 4 * eps * scale, (k, gap / (eps * scale))
        for method, kw in oracle_kwargs(ch).items():
            res = sa.solve(ch, method, **kw)
            r = res.params.r if res.params.r_plus else None  # as the loop picks its update
            if res.iterations != reference_solve(ch, res.params.lam, r, two_step=True)[3]:
                mismatched.append((k, method))
    assert mismatched == []


#: channels with zero entries; in the identity channels a start entry of
#: 5e-324 gives max z = 744 > 700, past which e^z_i alone could overflow
ZERO_ENTRY_CHANNELS = (np.eye(2), np.eye(3), [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]],
                       [[0.3, 0.3, 0.4], [0.0, 0.5, 0.5]],
                       [[0.7, 0.2, 0.1, 0.0], [0.0, 0.1, 0.2, 0.7], [0.25, 0.25, 0.25, 0.25]])


def test_the_plain_update_from_tiny_starts_neither_overflows_nor_warns():
    # the plain unit-gain update skips the shift by max z: s_j >= p_i W_ij
    # gives z_i <= -ln p_i, so each weight p_i e^{z_i} is at most 1.  From
    # starts with an entry at 5e-324 or 1e-300 it must warn under no filter,
    # and agree with the shifted update within 2 ulp per entry, plus the
    # shifted update's own rounding of z_i - max z, eps |z_i - max z| relative
    eps = np.finfo(float).eps
    seen = set()
    for w in ZERO_ENTRY_CHANNELS:
        ch = sa.validate_channel(w)
        for tiny in (5e-324, 1e-300):
            for i in range(ch.m):
                p = np.full(ch.m, (1.0 - tiny) / (ch.m - 1))
                p[i] = tiny
                got = under_every_filter(lambda: sa.aba_step(ch, p).probs.tobytes())
                solved = under_every_filter(lambda: sa.solve(
                    ch, "aba", config=sa.SolverConfig(initial=p, max_iters=3)).iterations)
                if not isinstance(got, bytes):  # a zero output mass: the step raises
                    assert got[0] is sa.NumericalBreakdownError and solved == got, (w, tiny, i)
                    seen.add("breakdown")
                    continue
                got, z = np.frombuffer(got), reference_divergences(ch, p)
                seen.add("shifted" if z.max() > UNSHIFTED_MAX_Z else "unshifted")
                want = shifted_update(1.0, None, p, z)
                slack = (2 * np.spacing(np.maximum(got, want))
                         + want * eps * np.abs(z - z.max()).max())
                assert (np.abs(got - want) <= slack).all(), (w, tiny, i, got, want)
    assert seen == {"breakdown", "shifted", "unshifted"}


def test_a_floored_unit_gain_update_still_shifts():
    # a floor whose mass rounds 1 - r_+ to 1 gives lam == 1.0, but
    # q = (p - r)/(1 - r_+) is not p, so z_i <= -ln q_i does not bound
    # p_i e^{z_i}: the floored update keeps the shift, bitwise, where the
    # unshifted weights differ in the last bits or overflow
    unshifted_differs = 0
    ch = golden_channel()
    r = np.array([1e-17, 0.0])
    params = sa.SqueezeParams(ch, r, np.zeros(ch.n))
    assert params.lam == 1.0 and params.r_plus > 0.0 and params.feasible
    for p in np.random.default_rng(17).dirichlet(np.ones(2), 20):
        z = reference_divergences(ch, p - r)
        want = shifted_update(1.0, r, p, z)
        assert sa.alg3_step(params, p).probs.tobytes() == want.tobytes()
        assert sa.alg2_step(ch, params, p).probs.tobytes() == want.tobytes()
        unshifted_differs += sa.waterfill(r, np.exp(z) * p).p.tobytes() != want.tobytes()
    assert unshifted_differs > 0
    ch = sa.validate_channel(np.eye(2))
    r = np.array([0.0, 1e-17])
    params = sa.SqueezeParams(ch, r, np.zeros(ch.n))
    p = np.array([3e-309, 1.0 - 3e-309])
    z = reference_divergences(ch, p)
    assert params.lam == 1.0 and z.max() > np.log(np.finfo(float).max)  # e^z_0 overflows
    got = under_every_filter(lambda: sa.alg3_step(params, p).probs.tobytes())
    assert got == shifted_update(1.0, r, p, z).tobytes()


def test_the_loop_makes_no_dispatched_dot_call(monkeypatch):
    # the loop's products go through ndarray.dot, numpy's C routine without the
    # Python-level __array_function__ dispatch that every np.dot call pays
    ch = sa.random_channel(3, 8, np.random.default_rng(19))
    kw = oracle_kwargs(ch)
    params = kw["alg3"]["params"]
    lam, p = kw["alg1"]["lam"], (1.0 - params.r_plus) * np.full(ch.m, 1.0 / ch.m) + params.r
    calls = []
    dot = np.dot

    def counting_dot(*args, **kwargs):
        calls.append(args)
        return dot(*args, **kwargs)

    monkeypatch.setattr(np, "dot", counting_dot)
    np.dot(p, p)
    assert len(calls) == 1  # the wrapper counts
    calls.clear()
    for method, method_kw in kw.items():
        assert sa.solve(ch, method, **method_kw).converged, method
    sa.aba_step(ch, p)
    sa.alg1_step(ch, lam, p)
    sa.alg2_step(ch, params, p)
    sa.alg3_step(params, p)
    assert calls == []


def solve_bits(res: sa.SolveResult) -> tuple:
    return (res.p_hat.probs.tobytes(), res.capacity_lower.hex(), res.capacity_upper.hex(),
            res.iterations)


def chain_channels() -> list:
    return [sa.random_channel(2, 8, sa.replication_rng(0, k)) for k in range(200)]


def test_the_methods_chain_bitwise_in_solve():
    # aba is alg1 at lambda = 1 and alg1 is alg2 at r = 0: the resolved floor,
    # not the method name, picks the update, so a zero floor is the plain map
    # under every name, and the lambda-only plan is alg1 at its upper bound
    mismatched = []
    for k, ch in enumerate(chain_channels()):
        r, f = np.zeros(ch.m), np.zeros(ch.n)
        plain = (sa.solve(ch, "aba"), sa.solve(ch, "alg1", lam=1.0),
                 sa.solve(ch, "alg2", r=r, lam=1.0), sa.solve(ch, "alg3", r=r, f=f),
                 sa.solve(ch, "alg3", params=sa.plan(ch, "none").params))
        gained = (sa.solve(ch, "alg1", lam=sa.lambda_upper_bound(ch)),
                  sa.solve(ch, "alg3", params=sa.plan(ch, "lambda-only").params))
        for name, chain in (("plain", plain), ("gained", gained)):
            if len({solve_bits(res) for res in chain}) != 1:
                mismatched.append((k, name))
    assert mismatched == []


def test_the_methods_chain_bitwise_in_one_step():
    rng = np.random.default_rng(5)
    mismatched = []
    for k, ch in enumerate(chain_channels()):
        p = rng.dirichlet(np.ones(ch.m))
        r, f = np.zeros(ch.m), np.zeros(ch.n)
        lambda_only = sa.plan(ch, "lambda-only").params
        plain = (sa.aba_step(ch, p), sa.alg1_step(ch, 1.0, p),
                 sa.alg2_step(ch, sa.params_from_r_lambda(ch, r, 1.0), p),
                 sa.alg3_step(sa.build_squeeze_params(ch, r, f), p),
                 sa.alg3_step(sa.plan(ch, "none").params, p))
        gained = (sa.alg1_step(ch, sa.lambda_upper_bound(ch), p),
                  sa.alg2_step(ch, lambda_only, p), sa.alg3_step(lambda_only, p))
        for name, chain in (("plain", plain), ("gained", gained)):
            if len({x.probs.tobytes() for x in chain}) != 1:
                mismatched.append((k, name))
    assert mismatched == []


def test_alg1_step_reproduces_the_alg1_solve():
    # the step resolves lam through params_from_r_lambda, as solve does, so
    # it iterates with the solve's gain to the last bit
    ch = heavy_overlap_channel(sa.replication_rng(0, 4000))
    lam = sa.lambda_upper_bound(ch)
    config = sa.SolverConfig(record_trace=True,
                             initial=np.random.default_rng(7).dirichlet(np.ones(ch.m)))
    res = sa.solve(ch, "alg1", lam=lam, config=config)
    assert res.converged and len(res.trace) == res.iterations + 1 > 100
    p = res.trace[0].p
    for rec in res.trace[1:]:
        p = sa.alg1_step(ch, lam, p).probs
        assert p.tobytes() == rec.p.tobytes(), rec.iter


# -- when the floored update calls waterfill ----------------------------------------


def floored_kwargs(ch: sa.ChannelMatrix) -> dict:
    kw = oracle_kwargs(ch)
    return {"alg2": kw["alg2"], "alg3": kw["alg3"]}


@pytest.mark.parametrize("family", ["2x8", "64x256"])
def test_a_floored_solve_where_no_floor_binds_calls_waterfill_once(family, monkeypatch):
    # the first update checks the floor through waterfill; every later one
    # keeps waterfill's no-bind answer without calling it
    calls = spy_calls(monkeypatch, "waterfill")
    for k, ch in enumerate(oracle_channels(family)):
        for method, kw in floored_kwargs(ch).items():
            calls.clear()
            res = sa.solve(ch, method, **kw)
            assert res.converged and res.iterations > 1, (k, method)
            assert len(calls) == 1, (k, method, len(calls))


def test_each_floored_step_calls_waterfill_once(monkeypatch):
    ch = oracle_channels("2x8")[0]
    params = floored_kwargs(ch)["alg3"]["params"]
    p = (1.0 - params.r_plus) * np.full(ch.m, 1.0 / ch.m) + params.r
    calls = spy_calls(monkeypatch, "waterfill")
    sa.aba_step(ch, p)
    sa.alg1_step(ch, sa.lambda_upper_bound(ch), p)
    assert calls == []
    sa.alg2_step(ch, params, p)
    assert len(calls) == 1
    sa.alg3_step(params, p)
    assert len(calls) == 2


def test_binding_steps_call_waterfill_and_match_the_reference(monkeypatch):
    # on the random 8x32 channels floors bind on most steps: waterfill is
    # called on the first update and on each binding one (an update whose
    # iterate meets the floor, p_i = r_i), and the solve stays bitwise the
    # reference's, which calls waterfill on every update
    calls = spy_calls(monkeypatch, "waterfill")
    binding_total = kept_total = 0
    for k, ch in enumerate(oracle_channels("8x32")):
        for method, kw in floored_kwargs(ch).items():
            calls.clear()
            res = sa.solve(ch, method, config=sa.SolverConfig(record_trace=True), **kw)
            r = res.params.r
            binding = sum(bool(np.any(rec.p == r)) for rec in res.trace[2:])
            assert len(calls) == 1 + binding, (k, method, len(calls), binding)
            binding_total += binding
            kept_total += res.iterations - len(calls)  # no-bind answers kept
            p_hat, lower, upper, t = reference_solve(ch, res.params.lam, r)
            assert solve_bits(res) == (p_hat.tobytes(), lower.hex(), upper.hex(), t), (k, method)
    assert binding_total > 0 and kept_total > 0


def test_bad_entries_in_direct_params_are_refused_at_construction():
    # a direct build checks the entries, so none of these reaches a solve or a
    # step: a NaN in f used to surface in the loop as NonpositiveWeightError, a
    # NaN in r as NumericalBreakdownError, a negative floor in waterfill, and a
    # negative offset gave a gain below the builders' floor 1/(1 - r_+) with
    # feasible=True, and its solve converged
    ch = sa.random_channel(2, 8, sa.replication_rng(0, 3))
    r, f = sa.optimal_r_m2(ch), np.zeros(ch.n)
    for bad_r, bad_f, error, match in (
            (r, np.r_[np.nan, f[1:]], sa.ValidationError, "f must be finite"),
            (np.r_[np.nan, r[1:]], f, sa.ValidationError, "r must be finite"),
            (np.r_[-0.1, r[1:]], f, sa.NegativeEntryError, "r must be nonnegative"),
            (r, np.r_[-0.5, f[1:]], sa.NegativeEntryError, "f must be nonnegative")):
        with pytest.raises(error, match=match):
            sa.SqueezeParams(ch, bad_r, bad_f)


def test_weights_that_underflow_mid_solve_raise(monkeypatch):
    # three times the gain bound drives the zero-floor input's weight down
    # geometrically until it underflows to 0 hundreds of updates in.  The
    # no-bind answer then has q_0 = 0, which the strict test refuses, and
    # waterfill raises as it does when called on every update; a warning
    # other than the forced gain's would be numpy's, from the shortcut
    rng = np.random.default_rng(107)
    ch = sa.random_channel(3, 4, rng)
    r = np.zeros(3)
    r[1:] = rng.uniform(0.0, 0.2, 2)
    lam = 3 * sa.lambda_upper_bound(ch)
    forced = ("outside feasible interval", "offset constraint violated", "objective decreased")
    calls = spy_calls(monkeypatch, "waterfill")
    with pytest.warns(RuntimeWarning) as caught:
        res = sa.solve(ch, "alg2", r=r, lam=lam, force=True,
                       config=sa.SolverConfig(max_iters=500))
        assert not res.converged and len(calls) == 1  # still no bind, no underflow
        calls.clear()
        with pytest.raises(sa.NonpositiveWeightError, match="finite and strictly positive"):
            sa.solve(ch, "alg2", r=r, lam=lam, force=True)
    assert len(calls) == 2  # the first update, then the refused answer's fallback
    assert all(any(text in str(w.message) for text in forced) for w in caught), \
        [str(w.message) for w in caught]


@pytest.mark.parametrize("method", [None, "none", "ALG2", "Aba", "auto "])
def test_solve_matches_method_names_exactly(method):
    # None used to be read as "none", and "ALG2" as "alg2"
    assert under_every_filter(lambda: sa.solve(golden_channel(), method)) == (
        sa.ValidationError, f"unknown method {method!r}; expected one of {sa.solvers.METHODS}")


def test_solver_config_epsilon_is_a_real_number():
    # None and "1e-8" used to raise TypeError, an array numpy's ambiguous-truth
    # ValueError, and True was stored as True
    for bad in (None, "1e-8", [1e-8], np.array([1e-8, 1e-9]), np.array(1e-8), 1e-8j):
        with pytest.raises(sa.ValidationError, match="^epsilon must be a real number, got "):
            sa.SolverConfig(epsilon=bad)
    for epsilon in (np.float64(1e-9), np.float32(1e-6), np.int64(2), 1, True, Fraction(1, 8),
                    float("inf"), 10**308):
        stored = sa.SolverConfig(epsilon=epsilon).epsilon
        assert type(stored) is float and stored == float(epsilon)
    # a real number past the float range used to raise OverflowError
    for huge in (10**400, Fraction(10**400), Fraction(10**400, 3)):
        for config in (sa.SolverConfig, sa.BenchConfig):
            with pytest.raises(sa.ValidationError) as caught:
                config(epsilon=huge)
            assert str(caught.value) == f"epsilon must fit a float, got {huge}"
