import numpy as np
import pytest

import squeeze_aba as sa
from helpers import (
    GOLDEN_G_OPT,
    GOLDEN_R_OPT,
    draw_interior_channel,
    golden_channel,
    random_channel,
    random_floor,
    random_offset,
    solve_tight,
)

FLIP = np.array([[1.0, -1.0], [-1.0, 1.0]])


class TestJacobiEigh:
    def test_matches_lapack_randomized(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 10))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2.0
            vals, vecs = sa.jacobi_eigh(a)
            assert np.allclose(vals, np.linalg.eigvalsh(a), atol=1e-11)
            assert np.allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-11)
            assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)

    def test_diagonal_input(self):
        vals, _ = sa.jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(vals, [-1.0, 2.0, 3.0])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(sa.DimensionMismatchError):
            sa.jacobi_eigh([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonfinite(self):
        # LAPACK would return NaN eigenvalues here without an error
        for a in ([[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
            with pytest.raises(sa.ValidationError, match="non-finite"):
                sa.jacobi_eigh(a)


class TestGoldenRates:
    def test_plain_rate_matrix(self, golden):
        params = sa.build_squeeze_params(golden, [0, 0], [0, 0, 0])
        rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, [0.5, 0.5]))
        assert np.allclose(rep.R, 0.275 * FLIP, atol=1e-12)
        assert rep.global_rate == pytest.approx(0.55, abs=1e-12)
        assert rep.global_rate_power == pytest.approx(0.55, abs=1e-9)
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
        assert rep.global_rate_power <= 1e-9

    def test_identity_channel_rate_zero(self):
        ch = sa.validate_channel(np.eye(3))
        params = sa.build_squeeze_params(ch, np.zeros(3), np.zeros(3))
        rep = sa.matrix_rate(params, np.full(3, 1 / 3))
        assert np.abs(rep.R).max() < 1e-12
        assert rep.global_rate <= 1e-12


class TestGuards:
    def test_boundary_fixed_point_refused(self, golden):
        params = sa.build_squeeze_params(golden, GOLDEN_R_OPT, [0, 0.25, 0])
        with pytest.raises(sa.BoundaryFixedPointError):
            sa.matrix_rate(params, [0.125, 0.875])

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

    def test_zero_offset_diagonalizable_real(self, rng):
        # reconstruct R from the symmetric eigendecomposition through the
        # similarity transform and compare entrywise
        for _ in range(15):
            ch, p_hat = draw_interior_channel(rng)
            r = random_floor(rng, ch)
            params = sa.build_squeeze_params(ch, r, np.zeros(ch.n))
            p_star = sa.fixed_point_on_floor(params, p_hat)
            rep = sa.matrix_rate(params, p_star)
            p = p_star.probs
            half = np.sqrt(p)
            B = params.w_star * half[:, None]
            M = (B / rep.s[None, :]) @ B.T
            vals, vecs = sa.jacobi_eigh(M)
            K = (vecs * vals) @ vecs.T
            R_rebuilt = np.eye(ch.m) - (K / half[:, None]) * half[None, :]
            assert np.allclose(R_rebuilt, rep.R, atol=1e-8)

    def test_local_linearization_finite_difference(self, rng):
        ch, p_hat = draw_interior_channel(rng, m_choices=(2, 3), margin=5e-3)
        params = sa.build_squeeze_params(ch, np.zeros(ch.m), np.zeros(ch.n))
        p = sa.polish_fixed_point(params, p_hat.probs)
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
            p_star = sa.polish_fixed_point(params, res.p_hat.probs)
            dists = np.array([np.linalg.norm(rec.p - p_star) for rec in res.trace])
            usable = np.nonzero((dists > 1e-8) & (dists < 1e-4))[0]
            if len(usable) < 4:
                continue
            ratios = dists[usable[1:]] / dists[usable[:-1]]
            observed = float(np.exp(np.mean(np.log(ratios[-5:]))))
            assert observed == pytest.approx(rep.global_rate, rel=0.05)
            seen += 1


class TestComparisons:
    def test_shift_comparison_golden(self, golden):
        cmp = sa.compare_shift_rates(golden, [0, 0], [1 / 6, 1 / 3, 1 / 6],
                                     [0, 0, 0], [0.5, 0.5])
        assert cmp.rate == pytest.approx(0.25, abs=1e-9)
        assert cmp.rate_alt == pytest.approx(0.55, abs=1e-9)
        # affine identity: 0.25 = (5/3) 0.55 - 2/3
        assert cmp.affine_residual < 1e-9
        assert cmp.ordering_ok

    def test_shift_comparison_equal_offsets(self, golden):
        f = np.array([1 / 6, 1 / 3, 1 / 6])
        cmp = sa.compare_shift_rates(golden, [0, 0], f, f, [0.5, 0.5])
        assert cmp.rate == pytest.approx(cmp.rate_alt, abs=1e-12)
        assert cmp.affine_residual < 1e-12

    def test_shift_ordering_randomized(self, rng):
        for _ in range(15):
            ch, p_hat = draw_interior_channel(rng, m_choices=(3,), n_lo=5, n_hi=5)
            r = random_floor(rng, ch)
            f_hi = random_offset(rng, ch, r, scale=float(rng.uniform(0.5, 1.0)))
            f_lo = f_hi * float(rng.uniform(0.0, 1.0))
            cmp = sa.compare_shift_rates(ch, r, f_hi, f_lo, p_hat)
            assert cmp.ordering_ok
            assert cmp.rate <= cmp.rate_alt + 1e-9
            assert max(cmp.affine_residual, cmp.affine_residual_alt) < 1e-7

    def test_overlap_bound_golden(self, golden):
        rec = sa.overlap_rate_bound(golden, [0.5, 0.5])
        assert rec.rate == pytest.approx(0.55, abs=1e-9)
        assert rec.overlap == pytest.approx(0.4, abs=1e-12)
        assert rec.ok

    def test_overlap_bound_identity(self):
        ch = sa.validate_channel(np.eye(3))
        rec = sa.overlap_rate_bound(ch, np.full(3, 1 / 3))
        assert rec.rate == pytest.approx(0.0, abs=1e-12)
        assert rec.overlap == 0.0
        assert rec.ok

    def test_overlap_bound_randomized(self, rng):
        for _ in range(20):
            ch, p_hat = draw_interior_channel(rng)
            assert sa.overlap_rate_bound(ch, p_hat).ok

    def test_floor_comparison_golden(self, golden):
        cmp = sa.compare_floor_rates(golden, GOLDEN_G_OPT, GOLDEN_R_OPT,
                                     np.zeros(2), [0.5, 0.5])
        assert cmp.rate <= 1e-9
        assert cmp.rate_alt == pytest.approx(0.25, abs=1e-9)
        assert cmp.ok

    def test_floor_comparison_equal_floors(self, golden):
        cmp = sa.compare_floor_rates(golden, GOLDEN_G_OPT, GOLDEN_R_OPT,
                                     GOLDEN_R_OPT, [0.5, 0.5])
        assert cmp.rate == pytest.approx(cmp.rate_alt, abs=1e-12)

    def test_floor_ordering_randomized(self, rng):
        for _ in range(15):
            ch, p_hat = draw_interior_channel(rng, m_choices=(2,))
            g = sa.optimal_g(ch)
            r = sa.optimal_r_m2(ch)
            assert sa.compare_floor_rates(ch, g, r, r / 2, p_hat).ok
            assert sa.compare_floor_rates(ch, g, r / 2, np.zeros(2), p_hat).ok

    def test_rate_decreases_in_combined_squeeze_mass(self, rng):
        # at a fixed floor, moving the combined squeeze down from its
        # optimum toward the zero-offset minimum never speeds things up
        for _ in range(10):
            ch, p_hat = draw_interior_channel(rng, m_choices=(2,))
            r = sa.optimal_r_m2(ch) * 0.5
            g_full = sa.optimal_g(ch)
            g_lo = (r @ ch.w) / (1.0 - r.sum())  # smallest feasible: zero offset
            prev = None
            for t in (1.0, 0.6, 0.3, 0.0):
                g = g_lo + t * (g_full - g_lo)
                f = sa.offset_from_g(ch, g, r)
                params = sa.build_squeeze_params(ch, r, f)
                rep = sa.matrix_rate(params, sa.fixed_point_on_floor(params, p_hat))
                if prev is not None:
                    assert prev <= rep.global_rate + 1e-9
                prev = rep.global_rate
