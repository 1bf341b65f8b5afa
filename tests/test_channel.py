import warnings

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import GOLDEN, under_every_filter


def test_golden_channel_validates():
    ch = sa.validate_channel(GOLDEN)
    assert (ch.m, ch.n) == (2, 3)
    assert sa.lambda_upper_bound(ch) > 1.0  # distinct rows, which the planners accept
    assert np.allclose(ch.w.sum(axis=1), 1.0, atol=1e-15)


def test_identity_channel_validates():
    ch = sa.validate_channel(np.eye(3))
    assert sa.lambda_upper_bound(ch) == 1.0  # distinct rows, which the planners accept
    assert ch.column_minima().sum() == 0.0


def test_all_rows_equal_flagged_not_rejected():
    ch = sa.validate_channel([[0.5, 0.5], [0.5, 0.5]])
    # the channel is accepted, and the planners refuse it by its w alone, so
    # a directly built channel is refused too
    for built in (ch, sa.ChannelMatrix(ch.w)):
        with pytest.raises(sa.DegenerateChannelError, match="all rows equal"):
            sa.lambda_upper_bound(built)
    assert sa.lambda_upper_bound(sa.ChannelMatrix(np.array(GOLDEN))) > 1.0


def test_row_renormalization_within_window():
    w = np.array([[0.7, 0.2, 0.1 + 3e-10], [0.1, 0.2, 0.7]])
    ch = sa.validate_channel(w)
    assert abs(ch.w[0].sum() - 1.0) < 1e-15


def test_row_sum_out_of_window_rejected():
    with pytest.raises(sa.RowSumToleranceError):
        sa.validate_channel([[0.7, 0.2, 0.2], [0.1, 0.2, 0.7]])
    # finite entries whose row sum overflows, or whose column sum would
    for w, total in (([[1e308, 1e308], [0.5, 0.5]], "inf"), ([[1e308, 0.0], [1e308, 1.0]], "1e+308")):
        assert under_every_filter(lambda: sa.validate_channel(w)) == (
            sa.RowSumToleranceError, f"row 0 sums to {total}, outside 1 +/- 1e-09")


def test_negative_entry_rejected():
    assert under_every_filter(lambda: sa.validate_channel([[1.1, -0.1], [0.5, 0.5]])) == (
        sa.NegativeEntryError, "channel entries must be nonnegative (min -1.000e-01 at (0, 1))")


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


class Subclass(np.ndarray):
    pass


def _unfrozen_after(values):
    """A read-only array that the test sets writeable again after the call,
    as numpy lets the owner of an array do."""
    a = np.array(values)
    a.setflags(write=False)
    return a


def _strided(values):
    spaced = np.zeros(2 * len(values))
    spaced[::2] = values
    return spaced[::2]


#: every kind of vector a caller can hand a keeping door, made from its values
GIVEN = (("list", list), ("writeable", np.array), ("unfrozen after", _unfrozen_after),
         ("subclass", lambda v: np.array(v).view(Subclass)), ("strided view", _strided),
         ("float32", lambda v: np.array(v, dtype=np.float32)))


def test_every_keeper_keeps_its_own_copy(golden):
    """Every door that keeps a caller's vector keeps its own read-only
    C-contiguous float64 copy, sharing no memory with what it was given,
    whatever that was: a list, a writeable array, a frozen array set
    writeable again after the call, an ndarray subclass, a strided view, a
    float32 array, or a floor the planners returned.  Writing through the
    input afterwards changes no kept value, and the params' masses, gain
    and verdict stay those of the r and f they keep: raising the first
    entry of the floor to 0.5 makes it infeasible on the golden channel,
    so params that shared the caller's frozen floor, once it was set
    writeable again, would report a verdict their own r breaks."""
    p, r, f = [0.25, 0.75], [0.125, 0.0625], [0.0, 0.25, 0.0]
    doors = (
        ("Distribution", sa.Distribution, lambda d: d.probs, p),
        ("make_distribution", sa.make_distribution, lambda d: d.probs, p),
        ("SolverConfig(initial=)", lambda a: sa.SolverConfig(initial=a),
         lambda c: c.initial.probs, p),
        ("SqueezeParams r", lambda a: sa.SqueezeParams(golden, a, 0.0), lambda sp: sp.r, r),
        ("SqueezeParams f", lambda a: sa.SqueezeParams(golden, 0.0, a), lambda sp: sp.f, f),
        ("build_squeeze_params r", lambda a: sa.build_squeeze_params(golden, a, 0.0),
         lambda sp: sp.r, r),
        ("build_squeeze_params f", lambda a: sa.build_squeeze_params(golden, 0.0, a),
         lambda sp: sp.f, f),
        ("params_from_r_lambda", lambda a: sa.params_from_r_lambda(golden, a),
         lambda sp: sp.r, r))
    planned = (("optimal-m2", lambda: sa.optimal_r_m2(golden)),
               ("heuristic", lambda: sa.heuristic_r(golden, sa.uniform(2))))
    for door, keep, kept_of, values in doors:
        givens = [(label, make(values)) for label, make in GIVEN]
        if values is r:
            givens += [(strategy, floor()) for strategy, floor in planned]
        for label, given in givens:
            want = np.asarray(given, dtype=float).tolist()
            kept_by = keep(given)
            kept, case = kept_of(kept_by), (door, label)
            if isinstance(given, np.ndarray):
                held = given if given.base is None else given.base
                assert not np.shares_memory(kept, held), case
                given.setflags(write=True)
            given[0] = 0.5
            assert type(kept) is np.ndarray and kept.dtype == np.float64, case
            assert not kept.flags.writeable and kept.flags.c_contiguous, case
            assert kept.tolist() == want and given[0] == 0.5, case
            if isinstance(kept_by, sa.SqueezeParams):
                again = sa.SqueezeParams(golden, kept_by.r.copy(), kept_by.f.copy())
                assert kept_by.feasible and (kept_by.r_plus, kept_by.f_plus, kept_by.lam) \
                    == (again.r_plus, again.f_plus, again.lam), case
            if label in dict(planned):
                assert sa.plan(golden, label).params.r.tobytes() == kept.tobytes(), case


def test_floor_checks_copy_no_floor():
    """``floored_uniform`` and ``waterfill`` check a floor and keep none of
    it, so a caller's floor stays writeable and as it was, and both refuse a
    bad floor with the one entry rule's and the one mass rule's messages."""
    floor = np.array([0.125, 0.25])
    assert np.array_equal(sa.floored_uniform(floor).probs, [0.4375, 0.5625])
    assert np.array_equal(sa.waterfill(floor, [1.0, 1.0]).p, [0.5, 0.5])
    assert floor.flags.writeable and floor.tolist() == [0.125, 0.25]
    for bad, error, message in (
            ([np.nan, 0.1], sa.ValidationError, "r must be finite"),
            ([0.1, np.inf], sa.ValidationError, "r must be finite"),
            ([-np.inf, 0.1], sa.ValidationError, "r must be finite"),
            ([-0.1, 0.2], sa.NegativeEntryError, "r must be nonnegative (min -1.000e-01 at 0)"),
            ([-0.1, np.nan], sa.ValidationError, "r must be finite"),
            ([0.6, 0.6], sa.InfeasibleFloorError, "floor mass r_+ = 1.2 must be < 1"),
            ([0.5, 0.5], sa.InfeasibleFloorError, "floor mass r_+ = 1 must be < 1"),
            ([1e308, 1e308], sa.InfeasibleFloorError, "floor mass r_+ = inf must be < 1")):
        bad = np.array(bad)
        assert under_every_filter(lambda: sa.floored_uniform(bad)) == (error, message)
        assert under_every_filter(lambda: sa.waterfill(bad, [1.0, 1.0])) == (error, message)
        assert bad.flags.writeable


def test_make_distribution_checks():
    d = sa.make_distribution([0.25, 0.75])
    assert d.m == 2
    with pytest.raises(sa.NegativeEntryError,
                       match=r"^probabilities must be nonnegative \(min -2\.500e-01 at 1\)$"):
        sa.make_distribution([1.25, -0.25])
    with pytest.raises(sa.DimensionMismatchError,
                       match=r"^probabilities must sum to 1 \+/- 1e-12, got 1\.1$"):
        sa.make_distribution([0.5, 0.6])
    # a NaN sum passes both the sign and the sum test unless the compare is negated
    for bad in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(sa.ValidationError, match="^probabilities must be finite$"):
            sa.make_distribution(bad)
    # finiteness is checked before the sign, as for every point, floor and
    # channel: a NaN beside a negative entry is reported as the NaN
    with pytest.raises(sa.ValidationError, match="^probabilities must be finite$"):
        sa.make_distribution([np.nan, -1.0])
    # a sum past the float range is an error about the sum, with no numpy warning
    with warnings.catch_warnings(), np.errstate(over="warn"):
        warnings.simplefilter("error")
        with pytest.raises(sa.DimensionMismatchError,
                           match=r"^probabilities must sum to 1 \+/- 1e-12, got inf$"):
            sa.make_distribution([1e308, 1e308])


def test_distribution_floor_membership():
    """A floored step's start must lie on Omega(r): a point more than
    PROB_SUM_TOL below its floor is refused, one within it is not."""
    ch = sa.validate_channel([[0.5, 0.5], [0.4, 0.6]])
    p = np.array([0.5, 0.5])
    below = sa.SqueezeParams(ch, [0.25, 0.5 + 2e-12], 0.0)
    assert under_every_filter(lambda: sa.alg3_step(below, p)) == (
        sa.NegativeEntryError,
        "start must dominate the floor: component 1 is 0.5, below its floor 0.500000000002")
    within = sa.SqueezeParams(ch, [0.25, 0.5 + 1e-12], 0.0)
    assert below.feasible and within.feasible
    sa.alg3_step(within, p)  # within the tolerance


def test_make_distribution_takes_a_distribution():
    # like every other function that takes a point, it reads a Distribution's probs
    d = sa.make_distribution(sa.uniform(3))
    assert np.array_equal(d.probs, np.full(3, 1 / 3))


def test_floored_uniform_layout():
    d = sa.floored_uniform([0.125, 0.125])
    assert np.allclose(d.probs, [0.5, 0.5])
    assert d.probs.min() > 0.125


def test_floored_uniform_rejects_floors_outside_omega():
    # [0.6, 0.6] used to give [0.5, 0.5], below its own floor
    for r, error in (([0.6, 0.6], sa.InfeasibleFloorError), ([0.5, 0.5], sa.InfeasibleFloorError),
                     ([-0.1, 0.2], sa.NegativeEntryError), ([np.nan, 0.1], sa.ValidationError),
                     ([np.inf, 0.1], sa.ValidationError), ([1e308, 1e308], sa.InfeasibleFloorError),
                     ([[0.1, 0.1]], sa.DimensionMismatchError),
                     ([], sa.DimensionMismatchError)):
        with pytest.raises(error):
            sa.floored_uniform(r)


def test_non_finite_entry_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(sa.ValidationError, match="^channel entries must be finite$") as exc:
            sa.validate_channel([[0.5, 0.5], [bad, 0.5]])
        assert type(exc.value) is sa.ValidationError  # the class every door raises


def _faults(m: int, n: int):
    """(name, matrix, error class, message) of m x n matrices that fail two
    checks at once; the message is the one check that construction runs first."""
    rng = np.random.default_rng(5)
    base = rng.random((m, n))
    base /= base.sum(axis=1, keepdims=True)
    finite = (sa.ValidationError, "channel entries must be finite")
    cases = []

    w = base.copy()
    w[1, 0], w[1, 1] = -0.5, np.nan  # the negative entry comes first in the flat order
    cases.append(("nan beside a negative entry", w, *finite))

    w = base.copy()
    w[0, n - 1] = -np.inf
    cases.append(("-inf", w, *finite))

    w = base.copy()
    w[:, 0] = 0.0
    w[m - 1, 1] = np.inf
    cases.append(("+inf beside a zero column", w, *finite))

    w = base.copy()
    w[0, 0] = -0.25  # row 0 is off by far more than the window
    w[m - 1, n - 1] = -0.5  # the smallest entry is the one named
    cases.append(("negative entry in a row whose sum is off", w, sa.NegativeEntryError,
                  f"channel entries must be nonnegative (min -5.000e-01 at ({m - 1}, {n - 1}))"))

    w = base.copy()
    w[m - 1, :2] = 1e308
    cases.append(("finite entries whose row sum overflows", w, sa.RowSumToleranceError,
                  f"row {m - 1} sums to inf, outside 1 +/- 1e-09"))

    w = base.copy()
    w[:, 0] = w[:, n - 1] = 0.0  # every row loses mass
    cases.append(("zero column in a row whose sum is off", w, sa.ZeroColumnError,
                  f"column(s) [0, {n - 1}] are identically zero"))

    w = base.copy()
    w[0, 0] += 2e-9  # the first row out of the window is named, not the farthest
    w[1, 0] += 0.5
    cases.append(("two rows off", w, sa.RowSumToleranceError,
                  f"row 0 sums to {w[0].sum():.15g}, outside 1 +/- 1e-09"))
    return cases


@pytest.mark.parametrize("m, n", [(2, 3), (64, 256)])
def test_validation_order_when_two_checks_fail(m, n):
    """Checks run in a fixed order: finite, nonnegative, no zero column,
    row sums; a matrix that fails two reports the first, whichever entry
    comes first in memory."""
    for name, w, error, message in _faults(m, n):
        assert under_every_filter(lambda: sa.ChannelMatrix(w)) == (error, message), name
        assert w.flags.writeable  # construction leaves the caller's array alone


def test_make_distribution_shape_checks():
    for bad in (np.full((2, 2), 0.25), [], 0.5):
        with pytest.raises(sa.DimensionMismatchError,
                           match="^probabilities must be a nonempty vector, got shape"):
            sa.make_distribution(bad)
