import numpy as np
import pytest

import squeeze_aba as sa
from helpers import (
    ENTROPY_721,
    GOLDEN_CAPACITY,
    entropy_offsets,
    generalized_objective,
    generalized_objective_kl_form,
    golden_channel,
)


def test_entropy_point_mass():
    assert sa.entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_uniform_pair():
    assert sa.entropy([0.5, 0.5]) == pytest.approx(np.log(2.0), abs=1e-15)


def test_entropy_high_precision_value():
    assert sa.entropy([0.7, 0.2, 0.1]) == pytest.approx(ENTROPY_721, abs=1e-15)


def test_entropy_unnormalized_input_allowed():
    # weights need not sum to one
    assert sa.entropy([2.0, 3.0]) == pytest.approx(-2 * np.log(2) - 3 * np.log(3), rel=1e-14)


def test_entropy_rejects_negative():
    with pytest.raises(sa.NegativeEntryError):
        sa.entropy([0.5, -0.1])


def test_entropy_rejects_non_finite():
    with pytest.raises(sa.ValidationError, match="finite"):
        sa.entropy([np.nan, 1.0])


def test_row_entropies_match_per_row_entropy(rng):
    for _ in range(50):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        w = rng.uniform(0.0, 3.0, (m, n))
        w[rng.uniform(size=(m, n)) < 0.3] = 0.0  # rows with zeros, some all zero
        expected = np.array([sa.entropy(row) for row in w])
        assert np.allclose(sa.row_entropies(w), expected, rtol=1e-13, atol=1e-14)
    assert sa.row_entropies([[1.0, 0.0], [0.0, 0.0]]).tolist() == [0.0, 0.0]


def test_row_entropies_rejects_bad_input():
    with pytest.raises(sa.NegativeEntryError):
        sa.row_entropies([[0.5, -0.1]])
    with pytest.raises(sa.DimensionMismatchError):
        sa.row_entropies([0.5, 0.5])


def test_kl_identical_is_zero():
    q = np.array([0.3, 0.3, 0.4])
    assert sa.kl_divergence(q, q) == 0.0


def test_kl_disjoint_support_infinite():
    assert sa.kl_divergence([1.0, 0.0], [0.0, 1.0]) == np.inf


def test_kl_zero_weight_ignores_zero_reference():
    # 0 * log(0/0) counts as 0
    assert sa.kl_divergence([0.0, 1.0], [0.0, 1.0]) == 0.0


def test_kl_high_precision_value():
    got = sa.kl_divergence([0.7, 0.2, 0.1], [0.4, 0.2, 0.4])
    assert got == pytest.approx(GOLDEN_CAPACITY, abs=1e-15)


def test_kl_length_mismatch():
    with pytest.raises(sa.DimensionMismatchError):
        sa.kl_divergence([0.5, 0.5], [1.0, 0.0, 0.0])


def test_kl_nonnegative_and_zero_iff_equal(rng):
    for _ in range(200):
        k = int(rng.integers(2, 8))
        q = rng.dirichlet(np.ones(k))
        s = rng.dirichlet(np.ones(k))
        d = sa.kl_divergence(q, s)
        assert d >= 0.0
        if d < 1e-15:
            assert np.allclose(q, s, atol=1e-7)


def test_mutual_information_noiseless():
    for m in (2, 3, 5):
        ch = sa.validate_channel(np.eye(m))
        assert sa.mutual_information(ch, np.full(m, 1 / m)) == pytest.approx(np.log(m), abs=1e-14)


def test_mutual_information_golden_value():
    ch = golden_channel()
    assert sa.mutual_information(ch, [0.5, 0.5]) == pytest.approx(GOLDEN_CAPACITY, abs=1e-14)


def test_mutual_information_checks_the_distribution():
    with pytest.raises(sa.DimensionMismatchError, match="sum to 6"):
        sa.mutual_information(golden_channel(), [3.0, 3.0])


def test_mutual_information_degenerate_rows():
    ch = sa.validate_channel([[0.5, 0.5], [0.5, 0.5]])
    assert sa.mutual_information(ch, [1.0, 0.0]) == 0.0


def test_mutual_information_permutation_invariance(rng):
    for _ in range(50):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        u = rng.random((m, n))
        w = u / u.sum(axis=1, keepdims=True)
        p = rng.dirichlet(np.ones(m))
        base = sa.mutual_information(sa.validate_channel(w), p)
        cols = rng.permutation(n)
        rows = rng.permutation(m)
        assert sa.mutual_information(sa.validate_channel(w[:, cols]), p) == pytest.approx(base, abs=1e-12)
        assert sa.mutual_information(sa.validate_channel(w[rows]), p[rows]) == pytest.approx(base, abs=1e-12)


def test_generalized_objective_reduces_to_mi(rng):
    for _ in range(20):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        u = rng.random((m, n))
        ch = sa.validate_channel(u / u.sum(axis=1, keepdims=True))
        p = rng.dirichlet(np.ones(m))
        got = generalized_objective(ch, np.zeros(n), np.zeros(m), p)
        assert got == pytest.approx(sa.mutual_information(ch, p), abs=1e-12)


def test_generalized_objective_two_forms_agree(rng):
    for _ in range(100):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        u = rng.random((m, n))
        v = u / u.sum(axis=1, keepdims=True)
        f = rng.uniform(0, 0.5, n)
        c = rng.standard_normal(m)
        p = rng.dirichlet(np.ones(m))
        a = generalized_objective(v, f, c, p)
        b = generalized_objective_kl_form(v, f, c, p)
        assert a == pytest.approx(b, abs=1e-10)


def test_objective_affine_relation_under_squeeze(rng):
    # The plain objective equals an affine transform of the squeezed one:
    # I(p) = [I(p~ | W~, f, c) + H(f)]/(1 + f_+) + ln(1 + f_+)
    #        + sum_i r_i H(W_i)/(1 - r_+)  with p~ = (1 - r_+) p + r.
    from helpers import random_channel, random_floor, random_offset

    for _ in range(60):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 8))
        ch = random_channel(rng, m, n)
        r = random_floor(rng, ch)
        f = random_offset(rng, ch, r)
        params = sa.build_squeeze_params(ch, r, f)
        p = rng.dirichlet(np.ones(m))
        p_tilde = (1 - params.r_plus) * p + r
        lhs = sa.mutual_information(ch, p)
        row_ent = np.array([sa.entropy(ch.w[i]) for i in range(m)])
        rhs = (
            (generalized_objective(params.w_tilde, f, entropy_offsets(params), p_tilde)
             + sa.entropy(f))
            / (1 + params.f_plus)
            + np.log(1 + params.f_plus)
            + float(r @ row_ent) / (1 - params.r_plus)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_nats_to_bits():
    assert sa.nats_to_bits(np.log(2.0)) == pytest.approx(1.0, abs=1e-15)
    assert sa.nats_to_bits(np.log(8.0)) == pytest.approx(3.0, abs=1e-13)


def test_shape_errors():
    with pytest.raises(sa.DimensionMismatchError, match="q must be a 1-d vector"):
        sa.entropy(np.full((2, 2), 0.25))
    with pytest.raises(sa.DimensionMismatchError, match=r"channel is \(2, 3\), p has length 3"):
        sa.mutual_information(golden_channel(), [0.2, 0.3, 0.5])
