import warnings

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import (
    ABA_STEP_P1_FROM_THIRD,
    GOLDEN_CAPACITY,
    GOLDEN_LAMBDA,
    GOLDEN_R_OPT,
    alg3_posterior_step,
    golden_channel,
    golden_section_capacity,
    heavy_overlap_channel,
    log_domain_step,
    random_channel,
    random_floor,
    random_offset,
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

    def test_plain_steps_check_the_zero_floor_once_at_most(self, golden, monkeypatch):
        # lambda = 1 is always feasible, so aba_step checks nothing; alg1_step
        # takes the column minima once and checks no floor vector
        p = np.array([0.3, 0.7])
        plain = sa.aba_step(golden, p).probs.tobytes()
        gained = sa.alg1_step(golden, 1.5, p).probs.tobytes()
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
        assert sa.alg1_step(golden, 1.5, p).probs.tobytes() == gained
        assert calls == {"column_minima": 1, "_check_vector": 0}
        assert sa.alg1_step(golden, 1.0, p).probs.tobytes() == plain

    def test_aba_requires_interior(self, golden):
        with pytest.raises(sa.NonInteriorStartError):
            sa.aba_step(golden, [1.0, 0.0])

    def test_steps_and_solve_reject_non_finite_start(self, golden):
        for bad in ([np.nan, 0.5], [np.inf, 0.5]):
            with pytest.raises(sa.ValidationError, match="finite"):
                sa.aba_step(golden, bad)
        with pytest.raises(sa.ValidationError, match="finite"):
            sa.solve(golden, "aba", config=sa.SolverConfig(initial=[np.nan, np.nan]))

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

    def test_alg1_out_of_range_gain(self, golden):
        with pytest.raises(sa.LambdaRangeError):
            sa.alg1_step(golden, 3.0, [0.5, 0.5])
        with pytest.raises(sa.LambdaRangeError):
            sa.alg1_step(golden, 1.0 - 1e-9, [0.5, 0.5])
        # the same check as params_from_r_lambda: forced, it warns and steps
        with pytest.warns(RuntimeWarning, match="outside feasible interval"):
            p = sa.alg1_step(golden, 3.0, [0.4, 0.6], force=True)
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
        params = sa.params_from_r_lambda(golden, [0, 0], GOLDEN_LAMBDA)
        for _ in range(20):
            p = rng.dirichlet([1, 1])
            a = sa.alg1_step(golden, GOLDEN_LAMBDA, p).probs
            b = sa.alg2_step(golden, params, p).probs
            assert np.allclose(a, b, atol=1e-13)

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
                lo, hi = sa.lambda_bounds(ch, r)
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
            params = sa.params_from_r_lambda(ch, r, sa.lambda_bounds(ch, r)[1])
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

    def test_degenerate_channel_short_circuits(self):
        ch = sa.validate_channel([[0.5, 0.5], [0.5, 0.5]])
        res = sa.solve(ch, "aba")
        assert res.converged and res.iterations == 0
        assert res.capacity == 0.0
        assert np.allclose(res.p_hat.probs, [0.5, 0.5])
        assert res.trace == ()  # the trace is opt-in
        traced = sa.solve(ch, "aba", config=sa.SolverConfig(record_trace=True))
        assert traced.converged and len(traced.trace) == 1

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
        mi = sa.mutual_information(golden, res.p_hat)
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
                lo, hi = sa.lambda_bounds(ch, r)
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
            with pytest.raises(sa.DimensionMismatchError, match="start sums to"):
                step(p)

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
        # built directly or validated, the channel flags its equal rows, and
        # the default gain is the finite lower bound
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
        assert sa.trace_csv_rows is sa.solvers.trace_csv_rows

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
            floored = sa.params_from_r_lambda(ch, r, sa.lambda_bounds(ch, r)[1])
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
        w = np.eye(3)
        q = np.full(3, 1.0 / 3.0)
        for row_ll in ([np.nan, 5.0, 0.0], [5.0, 0.0, np.nan], [0.0, np.nan, 5.0]):
            with pytest.raises(sa.NumericalBreakdownError, match="not finite"):
                sa.solvers._divergences(w, np.array(row_ll), q)
