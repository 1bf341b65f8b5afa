import numpy as np
import pytest

import squeeze_aba as sa
from helpers import (
    GOLDEN_R_OPT,
    draw_interior_channel,
    offset_from_g,
    optimal_g,
    polish_fixed_point,
    posterior_jacobian,
    random_channel,
    random_floor,
    random_offset,
    rate_at,
    solve_tight,
    spy_calls,
)

FLIP = np.array([[1.0, -1.0], [-1.0, 1.0]])


class TestJacobiEigh:
    def test_matches_lapack_randomized(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 10))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2.0
            # (a + a^T)/2 is a itself for a symmetric a, so the values are LAPACK's bit for bit
            assert np.array_equal(sa.jacobi_eigh(a), np.linalg.eigvalsh(a))

    def test_diagonal_input(self):
        vals = sa.jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(vals, [-1.0, 2.0, 3.0])

    def test_rejects_nonsymmetric(self):
        # the tolerance is absolute, so an asymmetry of 5e-6 between entries near 1 counts
        for a in ([[1.0, 2.0], [0.0, 1.0]], [[1.0, 1.0 + 5e-6], [1.0, 1.0]]):
            with pytest.raises(sa.DimensionMismatchError, match="not symmetric"):
                sa.jacobi_eigh(a)
        # and what is not a square matrix at all (a scalar raised IndexError)
        for bad in (1.0, np.ones(3), np.ones((2, 3)), np.ones((0, 0))):
            with pytest.raises(sa.DimensionMismatchError, match="square"):
                sa.jacobi_eigh(bad)

    def test_rejects_nonfinite(self):
        # LAPACK would return NaN eigenvalues here without an error
        for a in ([[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
                  [[1.0, 0.0], [0.0, -np.inf]]):
            with pytest.raises(sa.ValidationError, match="non-finite"):
                sa.jacobi_eigh(a)


def near_diagonal_channel(rng, m, n):
    """A seeded channel whose input i mostly hits its own block of outputs,
    so the capacity-achieving input is interior."""
    block = np.zeros((m, n))
    for i, cols in enumerate(np.array_split(np.arange(n), m)):
        block[i, cols] = 1.0 / len(cols)
    noise = rng.random((m, n))
    return sa.validate_channel(0.6 * block + 0.4 * noise / noise.sum(axis=1, keepdims=True))


def stepwise_power_rate(R, p_star, steps):
    """Reference: the 1/p*-weighted Rayleigh quotient after ``steps``
    single re-centred steps of gamma <- gamma R from a seeded generic
    zero-sum start, i.e. plain left power iteration on R."""
    dinv = 1.0 / p_star
    y = np.random.default_rng(0).standard_normal(R.shape[0])
    y -= y.mean()
    y /= np.linalg.norm(y)
    for _ in range(steps):
        y = y @ R
        y -= y.mean()
        y /= np.linalg.norm(y)
    return float((y @ R) @ (dinv * y) / (y @ (dinv * y)))


class TestPowerRate:
    @pytest.mark.parametrize("m, n", [(2, 5), (2, 12), (8, 32), (32, 32)])
    def test_agrees_with_eigh_floored_and_offset(self, m, n):
        rng = np.random.default_rng(1000 + 100 * m + n)
        for _ in range(3):
            if m == 2:
                ch, p_hat = draw_interior_channel(rng, m_choices=(2,), n_lo=n, n_hi=n)
            else:
                ch = near_diagonal_channel(rng, m, n)
                res = solve_tight(ch)
                assert res.converged
                p_hat = res.p_hat
            r = random_floor(rng, ch, scale=0.5)
            f = random_offset(rng, ch, r, scale=0.5)
            for rr, ff in ((np.zeros(m), np.zeros(n)), (r, np.zeros(n)), (r, f)):
                params = sa.build_squeeze_params(ch, rr, ff)
                rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, p_hat))
                assert abs(rep.global_rate - rep.global_rate_power) <= 1e-12

    def test_zero_spectrum(self, golden):
        # the golden double squeeze has R = 0 up to roundoff (entries <= 3e-16)
        params = sa.build_squeeze_params(golden, GOLDEN_R_OPT, [0, 0.25, 0])
        p_star = sa.fixed_point_on_floor(params, [0.5, 0.5]).probs
        R = sa.iteration_jacobian(params, p_star)
        assert 0.0 <= sa.power_rate(R) <= 1e-15
        # an exactly nilpotent zero-sum map: in the basis e_k - e_1 its
        # restriction is [[0, 0], [-4, 0]], triangular with a zero diagonal
        u, v = np.array([1.0, 1.0, 5.0]), np.array([1.0, -1.0, 0.0])
        assert sa.power_rate(np.outer(u, v)) == 0.0

    def test_small_radius_does_not_underflow(self):
        # R = D^{-1/2} S D^{1/2} with S symmetric and S sqrt(p) = 0 is
        # self-adjoint under 1/p, has zero row sums, and its spectrum on the
        # zero-sum subspace is that of S on sqrt(p)-perp; a radius of 1e-6
        # must come back as itself, not as 0
        rng = np.random.default_rng(77)
        m = 6
        p = rng.dirichlet(np.ones(m))
        half = np.sqrt(p)
        basis, _ = np.linalg.qr(np.column_stack([half, rng.standard_normal((m, m - 1))]))
        Q = basis[:, 1:]
        S = (Q * (1e-6 * np.array([1.0, 0.7, -0.5, 0.3, 0.1]))) @ Q.T
        R = (S / half[:, None]) * half[None, :]
        assert np.abs(R.sum(axis=1)).max() < 1e-20
        assert sa.power_rate(R) == pytest.approx(1e-6, abs=1e-12)

    def test_matches_stepwise_power_iteration(self):
        rng = np.random.default_rng(5)
        ch = near_diagonal_channel(rng, 8, 32)
        res = solve_tight(ch)
        params = sa.build_squeeze_params(ch, np.zeros(8), np.zeros(32))
        p_star = sa.fixed_point_on_floor(params, res.p_hat).probs
        R = sa.matrix_rate(params, p_star).R
        # the eigenvalue power iteration converges to, and not another one
        assert abs(sa.power_rate(R) - stepwise_power_rate(R, p_star, 2000)) <= 1e-12
        assert abs(sa.power_rate(R) - stepwise_power_rate(R, p_star, 1)) > 1e-6

    def test_input_checks(self):
        for bad in (1.0, np.ones(3), np.ones((2, 3)), np.ones((0, 0))):
            with pytest.raises(sa.DimensionMismatchError, match="square"):
                sa.power_rate(bad)
        for bad in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [np.inf, 1.0]]):
            with pytest.raises(sa.ValidationError, match="non-finite"):
                sa.power_rate(bad)
        # a single input has no zero-sum direction to contract
        assert sa.power_rate([[0.5]]) == 0.0

    def test_symmetric_channel_regression(self):
        # inputs 1 and 2 are swapped by permuting outputs 1 and 2, so e_1 - e_2
        # is an exact eigenvector of R, but not the dominant one (0.849 vs 0.928)
        ch = sa.validate_channel([[0.0637, 0.3348, 0.2798, 0.3217],
                                  [0.3348, 0.0637, 0.2798, 0.3217],
                                  [0.1423, 0.1423, 0.5733, 0.1421]])
        res = solve_tight(ch)
        assert res.converged
        params = sa.build_squeeze_params(ch, np.zeros(3), np.zeros(4))
        rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, res.p_hat))
        assert rep.global_rate == pytest.approx(0.928, abs=1e-3)
        assert abs(rep.global_rate - rep.global_rate_power) <= 1e-12

    def test_close_leading_eigenvalues(self):
        # the two largest eigenvalues of R on the zero-sum subspace, 0.993336
        # and 0.993428, are 1e-4 apart: 10,000 steps of power iteration were
        # 1.7e-6 off, while an eigensolve does not depend on the gap
        w = np.array([[0.34183, 0.26444, 0.20462, 0.18911],
                      [0.26444, 0.34183, 0.20462, 0.18911],
                      [0.29512, 0.29512, 0.26663, 0.14313]])
        ch = sa.validate_channel(w / w.sum(axis=1, keepdims=True))
        res = solve_tight(ch)
        assert res.converged
        params = sa.build_squeeze_params(ch, np.zeros(3), np.zeros(4))
        p_star = polish_fixed_point(params, res.p_hat.probs)
        rep = sa.matrix_rate(params, p_star)
        assert rep.global_rate == pytest.approx(0.993428, abs=1e-6)
        assert abs(rep.global_rate - rep.global_rate_power) <= 1e-12


class TestGoldenRates:
    def test_plain_rate_matrix(self, golden):
        params = sa.build_squeeze_params(golden, [0, 0], [0, 0, 0])
        rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, [0.5, 0.5]))
        assert np.allclose(rep.R, 0.275 * FLIP, atol=1e-12)
        assert rep.global_rate == pytest.approx(0.55, abs=1e-12)
        assert rep.global_rate_power == pytest.approx(0.55, abs=1e-12)
        assert rep.aba_lower_bound == pytest.approx(0.4, abs=1e-12)

    def test_offset_only_rate_matrix(self, golden):
        params = sa.build_squeeze_params(golden, [0, 0], [1 / 6, 1 / 3, 1 / 6])
        rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, [0.5, 0.5]))
        assert np.allclose(rep.R, 0.125 * FLIP, atol=1e-12)
        assert rep.global_rate == pytest.approx(0.25, abs=1e-12)
        assert rep.rate_r0 == pytest.approx(0.55, abs=1e-12)
        assert rep.shift_identity_residual() < 1e-12

    def test_double_squeeze_rate_zero(self, golden):
        params = sa.build_squeeze_params(golden, GOLDEN_R_OPT, [0, 0.25, 0])
        rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, [0.5, 0.5]))
        assert np.abs(rep.R).max() < 1e-12
        assert rep.global_rate <= 1e-12
        assert rep.global_rate_power <= 1e-12

    def test_identity_channel_rate_zero(self):
        ch = sa.validate_channel(np.eye(3))
        params = sa.build_squeeze_params(ch, np.zeros(3), np.zeros(3))
        rep = sa.matrix_rate(params, np.full(3, 1 / 3))
        assert np.abs(rep.R).max() < 1e-12
        assert rep.global_rate <= 1e-12


class TestGuards:
    def test_fixed_point_validated_once(self, golden, monkeypatch):
        # fixed_point_on_floor checks p_hat, matrix_rate checks p_star, and
        # neither the floored image, the step's start or its output, nor the
        # report's p* is checked again
        params = sa.build_squeeze_params(golden, GOLDEN_R_OPT, [0, 0.25, 0])
        made = spy_calls(monkeypatch, "make_distribution")
        checked = spy_calls(monkeypatch, "_check_start")
        points = spy_calls(monkeypatch, "_check_point")
        rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, [0.5, 0.5]))
        assert (len(made), len(checked)) == (0, 0)
        assert [args[1] for args in points] == ["p_hat", "p_star"]
        assert np.allclose(rep.p_star.probs, [0.5, 0.5], atol=1e-15)
        assert not rep.p_star.probs.flags.writeable

    def test_boundary_fixed_point_refused(self, golden):
        params = sa.build_squeeze_params(golden, GOLDEN_R_OPT, [0, 0.25, 0])
        with pytest.raises(sa.BoundaryFixedPointError,
                           match="^component 0 of p\\* is within 1e-09 of its floor"):
            sa.matrix_rate(params, [0.125, 0.875])
        # p* is checked as a point before the interior test, so a NaN is
        # reported as p_star's, beside a boundary component or not
        for bad in ([np.nan, 0.125], [np.nan, 0.5]):
            with pytest.raises(sa.ValidationError, match="^p_star must be finite$"):
                sa.matrix_rate(params, bad)

    def test_non_fixed_point_refused(self, golden):
        params = sa.build_squeeze_params(golden, [0, 0], [0, 0, 0])
        with pytest.raises(sa.NotAFixedPointError):
            sa.matrix_rate(params, [0.3, 0.7])


class TestStructure:
    def test_row_sums_and_spectrum_randomized(self, rng):
        for _ in range(25):
            ch, p_hat = draw_interior_channel(rng)
            r = random_floor(rng, ch)
            f = random_offset(rng, ch, r)
            params = sa.build_squeeze_params(ch, r, f)
            rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, p_hat))
            # rows of R sum to zero
            assert np.abs(rep.R @ np.ones(ch.m)).max() < 1e-10
            # eigenvalues real, within [0, 1] up to tolerance
            eig = np.linalg.eigvals(rep.R)
            assert np.abs(eig.imag).max() < 1e-9
            assert eig.real.min() > -1e-9 and eig.real.max() < 1.0 + 1e-9
            assert -1e-9 <= rep.gamma_spectrum.min()
            assert rep.gamma_spectrum.max() <= 1.0 + 1e-9
            # the two spectral routes agree
            assert rep.global_rate == pytest.approx(rep.global_rate_power, abs=1e-6)

    def test_square_32_floored_and_offset(self):
        rng = np.random.default_rng(2024)
        noise = rng.random((32, 32))
        ch = sa.validate_channel(0.7 * np.eye(32) + 0.3 * noise / noise.sum(axis=1, keepdims=True))
        res = solve_tight(ch)
        assert res.converged
        r = random_floor(rng, ch, scale=0.5)
        f = random_offset(rng, ch, r, scale=0.5)
        params = sa.build_squeeze_params(ch, r, f)
        assert params.r_plus > 0 and params.f_plus > 0
        rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, res.p_hat))
        assert rep.global_rate == pytest.approx(rep.global_rate_power, abs=1e-6)
        assert rep.gamma_spectrum.shape == (31,)
        assert 0.0 <= rep.gamma_spectrum.min() and rep.gamma_spectrum.max() <= 1.0
        assert rep.shift_identity_residual() <= 1e-7

    def test_jacobian_matches_posterior_form(self):
        # the W* form of R equals the paper's I - W~ Psi at every point of
        # Omega(r): at the fixed point and at random points off it
        rng = np.random.default_rng(515)
        for _ in range(40):
            ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 10)))
            res = solve_tight(ch)
            r = random_floor(rng, ch)
            params = sa.build_squeeze_params(ch, r, random_offset(rng, ch, r))
            assert params.r_plus > 0 and params.f_plus > 0
            points = [sa.fixed_point_on_floor(params, res.p_hat).probs]
            points += [params.r + (1 - params.r_plus) * rng.dirichlet(np.ones(ch.m))
                       for _ in range(5)]
            for p in points:
                R = sa.iteration_jacobian(params, p)
                assert isinstance(R, np.ndarray) and R.shape == (ch.m, ch.m)
                assert np.abs(R - posterior_jacobian(params, p)).max() <= 1e-13

    def test_zero_offset_diagonalizable_real(self, rng):
        # reconstruct R from the symmetric eigendecomposition (numpy's eigh, the
        # test's own oracle) through the similarity transform and compare entrywise
        for _ in range(15):
            ch, p_hat = draw_interior_channel(rng)
            r = random_floor(rng, ch)
            params = sa.build_squeeze_params(ch, r, np.zeros(ch.n))
            p_star = sa.fixed_point_on_floor(params, p_hat)
            rep = sa.matrix_rate(params, p_star)
            p = p_star.probs
            half = np.sqrt(p)
            B = params.w_star * half[:, None]
            M = (B / (p @ params.w_star)[None, :]) @ B.T
            vals, vecs = np.linalg.eigh(M)
            K = (vecs * vals) @ vecs.T
            R_rebuilt = np.eye(ch.m) - (K / half[:, None]) * half[None, :]
            assert np.allclose(R_rebuilt, rep.R, atol=1e-8)

    def test_local_linearization_finite_difference(self, rng):
        ch, p_hat = draw_interior_channel(rng, m_choices=(2, 3), margin=5e-3)
        params = sa.build_squeeze_params(ch, np.zeros(ch.m), np.zeros(ch.n))
        p = polish_fixed_point(params, p_hat.probs)
        rep = sa.matrix_rate(params, p)
        hs = 1e-3 * 0.5 ** np.arange(8)
        v = rng.standard_normal(ch.m)
        v -= v.mean()
        v /= np.linalg.norm(v)
        resid = np.array([
            np.linalg.norm(sa.alg3_step(params, p + h * v).probs - p - h * (v @ rep.R)) / h
            for h in hs
        ])
        assert resid[-1] <= max(resid[0] / 10.0, 5e-9)

    def test_empirical_contraction_matches_rate(self, rng):
        seen = draws = 0
        while seen < 5:
            # at this seed each of the first 5 draws is used; cap at 10x
            draws += 1
            assert draws <= 50, f"only {seen} of 5 channels usable in 50 draws"
            ch, _ = draw_interior_channel(rng, m_choices=(2, 3))
            res = sa.solve(ch, "aba", config=sa.SolverConfig(epsilon=1e-12, max_iters=100_000,
                                                             record_trace=True))
            if not res.converged:
                continue
            params = res.params
            rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, res.p_hat))
            if rep.global_rate <= 0.05:
                continue
            p_star = polish_fixed_point(params, res.p_hat.probs)
            dists = np.array([np.linalg.norm(rec.p - p_star) for rec in res.trace])
            usable = np.nonzero((dists > 1e-8) & (dists < 1e-4))[0]
            if len(usable) < 4:
                continue
            ratios = dists[usable[1:]] / dists[usable[:-1]]
            observed = float(np.exp(np.mean(np.log(ratios[-5:]))))
            assert observed == pytest.approx(rep.global_rate, rel=0.05)
            seen += 1


class TestComparisons:
    """The rate guarantees, stated through one matrix_rate report per parameter set."""

    def test_shift_comparison_golden(self, golden):
        rep = rate_at(golden, [0, 0], [1 / 6, 1 / 3, 1 / 6], [0.5, 0.5])
        rep_alt = rate_at(golden, [0, 0], [0, 0, 0], [0.5, 0.5])
        assert rep.global_rate == pytest.approx(0.25, abs=1e-9)
        assert rep_alt.global_rate == pytest.approx(0.55, abs=1e-9)
        # affine identity: 0.25 = (5/3) 0.55 - 2/3
        assert rep.shift_identity_residual() < 1e-9

    def test_shift_ordering_randomized(self, rng):
        for _ in range(15):
            ch, p_hat = draw_interior_channel(rng, m_choices=(3,), n_lo=5, n_hi=5)
            r = random_floor(rng, ch)
            f_hi = random_offset(rng, ch, r, scale=float(rng.uniform(0.5, 1.0)))
            f_lo = f_hi * float(rng.uniform(0.0, 1.0))
            rep_hi = rate_at(ch, r, f_hi, p_hat)
            rep_lo = rate_at(ch, r, f_lo, p_hat)
            assert rep_hi.global_rate <= rep_lo.global_rate + 1e-9
            assert max(rep_hi.shift_identity_residual(),
                       rep_lo.shift_identity_residual()) < 1e-7

    def test_overlap_bound_golden(self, golden):
        rep = rate_at(golden, [0, 0], [0, 0, 0], [0.5, 0.5])
        assert rep.global_rate == pytest.approx(0.55, abs=1e-9)
        assert rep.aba_lower_bound == pytest.approx(0.4, abs=1e-12)

    def test_overlap_bound_identity(self):
        ch = sa.validate_channel(np.eye(3))
        rep = rate_at(ch, np.zeros(3), np.zeros(3), np.full(3, 1 / 3))
        assert rep.global_rate == pytest.approx(0.0, abs=1e-12)
        assert rep.aba_lower_bound == 0.0

    def test_overlap_bound_randomized(self, rng):
        for _ in range(20):
            ch, p_hat = draw_interior_channel(rng)
            rep = rate_at(ch, np.zeros(ch.m), np.zeros(ch.n), p_hat)
            assert rep.global_rate >= rep.aba_lower_bound - 1e-9

    def test_floor_comparison_golden(self, golden):
        # at the optimal combined squeeze, the optimal floor against no floor
        rep = rate_at(golden, GOLDEN_R_OPT,
                      sa.params_from_r_lambda(golden, GOLDEN_R_OPT).f, [0.5, 0.5])
        rep_alt = rate_at(golden, np.zeros(2),
                          sa.params_from_r_lambda(golden, np.zeros(2)).f, [0.5, 0.5])
        assert rep.global_rate <= 1e-9
        assert rep_alt.global_rate == pytest.approx(0.25, abs=1e-9)

    def test_floor_ordering_randomized(self, rng):
        for _ in range(15):
            ch, p_hat = draw_interior_channel(rng, m_choices=(2,))
            r = sa.optimal_r_m2(ch)
            rates = [rate_at(ch, floor, sa.params_from_r_lambda(ch, floor).f, p_hat).global_rate
                     for floor in (r, r / 2, np.zeros(2))]
            assert rates[0] <= rates[1] + 1e-9
            assert rates[1] <= rates[2] + 1e-9

    def test_rate_decreases_in_combined_squeeze_mass(self, rng):
        # at a fixed floor, moving the combined squeeze down from its
        # optimum toward the zero-offset minimum never speeds things up
        for _ in range(10):
            ch, p_hat = draw_interior_channel(rng, m_choices=(2,))
            r = sa.optimal_r_m2(ch) * 0.5
            g_full = optimal_g(ch)
            g_lo = (r @ ch.w) / (1.0 - r.sum())  # smallest feasible: zero offset
            prev = None
            for t in (1.0, 0.6, 0.3, 0.0):
                g = g_lo + t * (g_full - g_lo)
                rep = rate_at(ch, r, offset_from_g(ch, g, r), p_hat)
                if prev is not None:
                    assert prev <= rep.global_rate + 1e-9
                prev = rep.global_rate


def test_each_report_solves_for_eigenvalues_once(monkeypatch):
    # no eigenvectors anywhere, one jacobi_eigh call per report, and each
    # report's R is iteration_jacobian's at p* bit for bit
    rng = np.random.default_rng(31)
    ch = near_diagonal_channel(rng, 6, 12)
    p_hat = solve_tight(ch).p_hat
    r = random_floor(rng, ch, scale=0.5)
    f = random_offset(rng, ch, r, scale=0.5)
    param_sets = [sa.build_squeeze_params(ch, rr, ff)
                  for rr, ff in ((np.zeros(6), np.zeros(12)), (r, np.zeros(12)), (r, f))]

    def no_eigh(*args, **kwargs):
        raise AssertionError("rate analysis formed eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    calls = []
    real = sa.rate_analysis.jacobi_eigh
    monkeypatch.setattr(sa.rate_analysis, "jacobi_eigh", lambda a: calls.append(a) or real(a))
    for k, params in enumerate(param_sets, start=1):
        p_star = sa.fixed_point_on_floor(params, p_hat)
        rep = sa.matrix_rate(params, p_star)
        assert len(calls) == k
        assert np.array_equal(rep.R, sa.iteration_jacobian(params, p_star))
        assert abs(rep.global_rate - rep.global_rate_power) <= 1e-12


def test_matrix_rate_refuses_a_fixed_point_of_another_length(golden):
    wrong_length = (
        lambda params: sa.matrix_rate(params, [0.2, 0.3, 0.5]),
        # a length-1 p_hat used to broadcast, and the rest failed inside numpy
        lambda params: sa.fixed_point_on_floor(params, [0.5]),
        lambda params: sa.fixed_point_on_floor(params, [0.2, 0.3, 0.5]),
        lambda params: sa.iteration_jacobian(params, [0.2, 0.3, 0.5]),
        lambda params: sa.iteration_jacobian(params, [1.0]),
    )
    for params in (sa.build_squeeze_params(golden, [0, 0], [0, 0, 0]),
                   sa.plan(golden, "optimal-m2").params):
        for call in wrong_length:
            with pytest.raises(sa.DimensionMismatchError, match="must have length 2"):
                call(params)
        # a non-finite point gave NaN entries in R
        for bad in ([np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.5]):
            with pytest.raises(sa.ValidationError, match="non-finite"):
                sa.iteration_jacobian(params, bad)


def test_matrix_rate_refuses_forced_params(golden):
    # a direct build over the floor constraint, which the builders refuse:
    # W* is clamped, its rows sum above 1 and R is not the map's Jacobian, so
    # the two rate routes would disagree; (1/2, 1/2) is still a fixed point
    # by symmetry
    params = sa.SqueezeParams(golden, [0.2, 0.2], [0, 0, 0])
    assert not params.feasible
    assert params.w_star.sum(axis=1).max() > 1.0 + 1e-3
    p_star = sa.fixed_point_on_floor(params, [0.5, 0.5])
    with pytest.raises(sa.ValidationError, match="only for feasible params"):
        sa.matrix_rate(params, p_star)
    # a direct build over the offset constraint is refused too, at its own
    # fixed point, where its clamped W* would otherwise give a rate
    ch = sa.validate_channel([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
    direct = sa.SqueezeParams(ch, np.zeros(2), np.full(3, 0.3))
    assert not direct.feasible
    p_hat = sa.solve(ch, config=sa.SolverConfig(epsilon=1e-14)).p_hat
    with pytest.raises(sa.ValidationError, match="only for feasible params"):
        sa.matrix_rate(direct, sa.fixed_point_on_floor(direct, p_hat))
    feasible = sa.build_squeeze_params(golden, GOLDEN_R_OPT, [0, 0, 0])
    assert sa.matrix_rate(feasible, sa.fixed_point_on_floor(feasible, [0.5, 0.5])).global_rate >= 0
