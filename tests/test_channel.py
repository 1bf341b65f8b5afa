import warnings

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import GOLDEN


def test_golden_channel_validates():
    ch = sa.validate_channel(GOLDEN)
    assert (ch.m, ch.n) == (2, 3)
    assert not ch.all_rows_equal
    assert np.allclose(ch.w.sum(axis=1), 1.0, atol=1e-15)


def test_identity_channel_validates():
    ch = sa.validate_channel(np.eye(3))
    assert not ch.all_rows_equal
    assert ch.column_minima().sum() == 0.0


def test_all_rows_equal_flagged_not_rejected():
    ch = sa.validate_channel([[0.5, 0.5], [0.5, 0.5]])
    assert ch.all_rows_equal
    # the flag is worked out from w, so a directly built channel has it too
    assert sa.ChannelMatrix(ch.w).all_rows_equal
    assert not sa.ChannelMatrix(np.array(GOLDEN)).all_rows_equal


def test_row_renormalization_within_window():
    w = np.array([[0.7, 0.2, 0.1 + 3e-10], [0.1, 0.2, 0.7]])
    ch = sa.validate_channel(w)
    assert abs(ch.w[0].sum() - 1.0) < 1e-15


def test_row_sum_out_of_window_rejected():
    with pytest.raises(sa.RowSumToleranceError):
        sa.validate_channel([[0.7, 0.2, 0.2], [0.1, 0.2, 0.7]])


def test_negative_entry_rejected():
    with pytest.raises(sa.NegativeEntryError):
        sa.validate_channel([[1.1, -0.1], [0.5, 0.5]])


def test_zero_column_rejected_by_default():
    with pytest.raises(sa.ZeroColumnError, match=r"^column\(s\) \[2\] are identically zero$"):
        sa.validate_channel([[0.5, 0.5, 0.0], [0.7, 0.3, 0.0]])


def test_empty_and_single_row_rejected():
    with pytest.raises(sa.EmptyMatrixError):
        sa.validate_channel(np.empty((0, 3)))
    with pytest.raises(sa.EmptyMatrixError):
        sa.validate_channel([[0.5, 0.5]])


def test_direct_construction_rejects_a_vector():
    with pytest.raises(sa.EmptyMatrixError, match="2-d"):
        sa.ChannelMatrix(np.array([0.5, 0.5]))


def test_direct_construction_rejects_an_empty_matrix():
    with pytest.raises(sa.EmptyMatrixError):
        sa.ChannelMatrix(np.empty((0, 3)))


def test_direct_construction_rejects_a_non_stochastic_matrix():
    with pytest.raises(sa.RowSumToleranceError, match="row 0 sums to 1.1"):
        sa.ChannelMatrix(np.array([[0.5, 0.6], [0.1, 0.9]]))


def test_channel_is_immutable():
    ch = sa.validate_channel(GOLDEN)
    with pytest.raises(ValueError):
        ch.w[0, 0] = 0.9


def test_caller_arrays_stay_writeable():
    """Results hold frozen copies: the caller's arrays stay writeable, and
    writing to them afterwards changes no result."""
    ch = sa.validate_channel(GOLDEN)
    r, f = np.array([0.125, 0.125]), np.array([0.0, 0.25, 0.0])
    p, start = np.array([0.25, 0.75]), np.array([0.3, 0.7])
    built = sa.build_squeeze_params(ch, r, f)
    from_gain = sa.params_from_r_lambda(ch, r, 5 / 3)
    solved = sa.solve(ch, "alg2", r=r)
    dist = sa.make_distribution(p)
    config = sa.SolverConfig(initial=start)
    held = [built.r, built.f, from_gain.r, from_gain.f, solved.params.r, solved.p_hat.probs,
            dist.probs, config.initial.probs]
    values = [a.copy() for a in held]
    for a in (r, f, p, start):
        assert a.flags.writeable
        a[:] = 0.5
    for a, v in zip(held, values):
        assert not a.flags.writeable
        assert np.array_equal(a, v)


def test_package_made_arrays_are_shared_not_copied(monkeypatch):
    """Arrays the package makes are frozen where they are made, so the
    frozen results share them: no call of ``_readonly`` copies."""
    copies = []
    readonly = sa.channel._readonly

    def spy(a):
        b = readonly(a)
        if b is not a:
            copies.append(np.shape(a))
        return b

    monkeypatch.setattr(sa.channel, "_readonly", spy)
    monkeypatch.setattr(sa.squeeze, "_readonly", spy)
    ch = sa.validate_channel(np.array(GOLDEN))
    r = np.array([0.125, 0.125])
    r.setflags(write=False)
    assert copies == []
    for run in (lambda: sa.solve(ch, "aba"), lambda: sa.solve(ch, "alg2", r=r),
                lambda: sa.aba_step(ch, [0.3, 0.7]),
                lambda: sa.build_squeeze_params(ch, [0.125, 0.125], [0, 0.25, 0])):
        run()
        assert copies == []


def test_make_distribution_checks():
    d = sa.make_distribution([0.25, 0.75])
    assert d.m == 2
    with pytest.raises(sa.NegativeEntryError):
        sa.make_distribution([1.25, -0.25])
    with pytest.raises(sa.DimensionMismatchError):
        sa.make_distribution([0.5, 0.6])
    # a NaN sum passes both the sign and the sum test unless the compare is negated
    for bad in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(sa.ValidationError, match="probabilities must be finite"):
            sa.make_distribution(bad)
    # a NaN does not hide a negative entry from the sign test
    with pytest.raises(sa.NegativeEntryError, match="negative probability"):
        sa.make_distribution([np.nan, -1.0])
    # a sum past the float range is an error about the sum, with no numpy warning
    with warnings.catch_warnings(), np.errstate(over="warn"):
        warnings.simplefilter("error")
        with pytest.raises(sa.DimensionMismatchError,
                           match=r"^probabilities sum to inf, not 1 \+/- 1e-12$"):
            sa.make_distribution([1e308, 1e308])


def test_distribution_floor_membership():
    sa.make_distribution([0.3, 0.7], floor=[0.2, 0.1])
    with pytest.raises(sa.NegativeEntryError):
        sa.make_distribution([0.15, 0.85], floor=[0.2, 0.0])


def test_floored_uniform_layout():
    d = sa.floored_uniform([0.125, 0.125])
    assert np.allclose(d.probs, [0.5, 0.5])
    assert d.probs.min() > 0.125


def test_floored_uniform_rejects_floors_outside_omega():
    # [0.6, 0.6] used to give [0.5, 0.5], below its own floor
    for r, error in (([0.6, 0.6], sa.InfeasibleFloorError), ([0.5, 0.5], sa.InfeasibleFloorError),
                     ([-0.1, 0.2], sa.NegativeEntryError), ([np.nan, 0.1], sa.ValidationError),
                     ([np.inf, 0.1], sa.ValidationError), ([[0.1, 0.1]], sa.DimensionMismatchError),
                     ([], sa.DimensionMismatchError)):
        with pytest.raises(error):
            sa.floored_uniform(r)


def test_non_finite_entry_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(sa.NegativeEntryError, match="must be finite"):
            sa.validate_channel([[0.5, 0.5], [bad, 0.5]])


def test_make_distribution_shape_checks():
    with pytest.raises(sa.DimensionMismatchError, match="nonempty vector"):
        sa.make_distribution(np.full((2, 2), 0.25))
    with pytest.raises(sa.DimensionMismatchError, match="different lengths"):
        sa.make_distribution([0.5, 0.5], floor=[0.1, 0.1, 0.1])
