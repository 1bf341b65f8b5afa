"""Validated channel matrices and input distributions.

A discrete memoryless channel is an m x n row-stochastic matrix W:
``W[i, j]`` is the probability of receiving output letter j given input
letter i.  Input distributions live on the probability simplex, optionally
floored elementwise by a nonnegative vector r (the set ``Omega(r)``).

A channel validates its entries when it is constructed, however it is
built.  Every stored value is an input or worked out from the inputs: a
channel derives its column minima and its row log-likelihoods from W
once, there.  Each rule has one owner here.  ``_check_entries`` is the
only test of an array's finiteness and sign, whether the array is a
channel, a floor, an offset or a point; ``_floor_mass`` is the only test
of a floor's mass; and ``_check_point`` is the only check of a
probability vector, run once by every function that takes one, under the
argument's own name.  Tolerances are the module constants, not options.
A channel with an identically zero column is rejected; deleting that
output letter is left to the caller.

All types are immutable after construction and safe to share across
threads: each keeps its own read-only copy of every array it holds
(``_readonly``), so writing to an array a caller passed in, or unfreezing
it, changes nothing kept.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyMatrixError,
    InfeasibleFloorError,
    NegativeEntryError,
    RowSumToleranceError,
    ValidationError,
    ZeroColumnError,
)

#: renormalization window for channel row sums; ``squeeze_select`` also
#: counts the rows of a channel as equal, with no squeeze to plan, when
#: every column spans at most this
ROW_SUM_TOL = 1e-9

#: tolerance on distribution normalization
PROB_SUM_TOL = 1e-12


def _readonly(a) -> np.ndarray:
    """A read-only C-contiguous float64 copy of a's values, at least 1-d:
    the package's one keeper rule.  Every array a frozen object keeps is
    made here, so none shares memory with an array anyone else holds,
    whatever a was: a list, an array read-only or not, a view, an ndarray
    subclass or a buffer."""
    b = np.array(a, dtype=float, order="C", ndmin=1)
    b.setflags(write=False)
    return b


def _real(name: str, value) -> float:
    """``value`` as a Python float, or ValidationError: it must be a
    ``numbers.Real`` (a float, an int, a Fraction or a numpy scalar, not a
    string, an array or a complex number) that a float can hold.  NaN and
    the infinities are floats, so they pass to the caller's own test."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:  # an int or a Fraction can lie past the float range
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} must fit a float, got {value}") from None


def _integer(name: str, value, least: int) -> int:
    """``value`` as a Python int of at least ``least``, or ValidationError.
    Integer-like values pass (numpy integers); floats do not, even integral ones."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return count


def _check_entries(a: np.ndarray, name: str) -> np.ndarray:
    """The nonempty float array a, of any shape, checked in place: the
    package's one entry rule.  ValidationError unless every entry is
    finite, then NegativeEntryError unless every entry is nonnegative,
    naming the smallest entry and its index, ``(i, j)`` in a matrix."""
    # argmin and argmax find a NaN, like min and max; the full checks only pick the error
    if not (a.item(a.argmin()) >= 0.0 and a.item(a.argmax()) < np.inf):
        if not np.isfinite(a).all():
            raise ValidationError(f"{name} must be finite")
        k = int(a.argmin())
        at = k if a.ndim == 1 else tuple(int(i) for i in np.unravel_index(k, a.shape))
        raise NegativeEntryError(f"{name} must be nonnegative (min {a.item(k):.3e} at {at})")
    return a


def _check_vector(v, length: int, name: str) -> np.ndarray:
    """v as a finite, nonnegative float vector of the given length (a scalar
    fills it), in the one read-only copy that ``_readonly`` makes of it, so
    what is checked is what the caller keeps."""
    a = np.asarray(v, dtype=float)
    a = _readonly(a.repeat(length) if a.ndim == 0 else a)
    if a.shape != (length,):
        raise DimensionMismatchError(f"{name} must have length {length}, got shape {a.shape}")
    return _check_entries(a, name)


def _total(v: np.ndarray, axis: int = 0):
    """np.add.reduce(v, axis) of a nonempty nonnegative v: the package's one
    overflow policy for a sum that checks outside input.  Finite entries
    that sum past the float range give inf, not numpy's overflow warning,
    under every warnings filter, so the caller's check refuses the sum with
    its documented error."""
    # below this bound no partial sum can overflow, and np.errstate costs more
    # than the sum itself; argmax finds a NaN, which fails the test
    if v.item(v.argmax()) < 1e307 / v.size:
        return np.add.reduce(v, axis)
    with np.errstate(over="ignore"):
        return np.add.reduce(v, axis)


def _floor_mass(r: np.ndarray) -> float:
    """r_+ of a floor whose entries ``_check_entries`` passed, or
    InfeasibleFloorError when it is 1 or more (one past the float range
    sums to inf): the package's one test of a floor's mass."""
    r_plus = float(_total(r))
    if r_plus >= 1.0:
        raise InfeasibleFloorError(f"floor mass r_+ = {r_plus:.15g} must be < 1")
    return r_plus


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """A validated m x n transition matrix.

    Construction validates the entries under the package's one entry
    rule, ``_check_entries``: a NaN or infinite entry raises
    ValidationError and a negative one NegativeEntryError, which names
    the smallest entry and its (i, j).  Rows whose sums deviate from 1 by
    less than ``ROW_SUM_TOL`` are renormalized, and larger deviations
    raise.  A column that is identically zero raises ZeroColumnError: no
    input reaches that output letter.  Equal or nearly equal rows are
    accepted: the solvers certify such a channel like any other, and only
    the squeeze planners refuse it.  Construction also keeps, read-only,
    the column minima min_i W_ij (``column_minima()``; their sum is the
    row overlap) and the row log-likelihoods sum_j W_ij ln W_ij that every
    divergence evaluation reads; these mask 0 ln 0 = 0 only when the
    channel has a zero entry.
    """

    w: np.ndarray
    _col_min: np.ndarray = field(init=False, repr=False)
    _row_loglikes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise EmptyMatrixError(f"expected a nonempty 2-d matrix, got shape {w.shape}")
        if w.shape[0] < 2:
            raise EmptyMatrixError(f"need at least 2 input letters, got {w.shape[0]}")
        _check_entries(w, "channel entries")
        col_max = w.max(axis=0)  # a max cannot overflow
        if col_max[col_max.argmin()] == 0.0:
            zero_cols = np.nonzero(col_max == 0)[0].tolist()
            raise ZeroColumnError(f"column(s) {zero_cols} are identically zero")
        sums = _total(w, 1)  # a row past the float range sums to inf, which the window refuses
        off = np.abs(sums - 1.0)
        if off[off.argmax()] > ROW_SUM_TOL:
            i = int(np.nonzero(off > ROW_SUM_TOL)[0][0])
            raise RowSumToleranceError(
                f"row {i} sums to {sums[i]:.15g}, outside 1 +/- {ROW_SUM_TOL:g}"
            )
        w = np.ascontiguousarray(w / sums[:, None])
        col_min = w.min(axis=0)
        # sum_j W_ij ln W_ij, with 0 ln 1 = 0 standing for 0 ln 0 = 0 where W has a zero
        wlogw = np.log(w + (w == 0) if col_min[col_min.argmin()] == 0.0 else w)
        wlogw *= w
        row_loglikes = np.add.reduce(wlogw, axis=1)
        for name, a in (("w", w), ("_col_min", col_min), ("_row_loglikes", row_loglikes)):
            a.setflags(write=False)  # made here, so no caller holds it
            object.__setattr__(self, name, a)

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]

    def column_minima(self) -> np.ndarray:
        """Vector of per-output minima min_i W[i, j] (row-overlap profile),
        taken at construction; the array is read-only."""
        return self._col_min


def _require_same_channel(built_on: ChannelMatrix, channel: ChannelMatrix, what: str) -> None:
    """ValidationError unless ``channel`` is ``built_on`` or has bitwise its
    matrix.  Identity is tested first: the usual caller passes the very
    channel its params or plan were made on."""
    if built_on is not channel and not np.array_equal(built_on.w, channel.w):
        raise ValidationError(f"{what} for a different channel")


def validate_channel(entries) -> ChannelMatrix:
    """``ChannelMatrix(entries)``: validate raw entries, renormalizing rows
    within ``ROW_SUM_TOL`` of summing to 1, into an immutable channel."""
    return ChannelMatrix(entries)


@dataclass(frozen=True, eq=False)
class Distribution:
    """A point of the simplex, or of the floored simplex Omega(r), holding
    its own read-only copy of the probabilities."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(self.probs))

    @property
    def m(self) -> int:
        return self.probs.shape[0]


def _check_point(p, name: str, m: int | None = None, floor=None) -> np.ndarray:
    """p, a Distribution or an array, as a float vector on the simplex, or the
    error that says why not, naming ``name``; the package's one check of a
    point.  In order: DimensionMismatchError unless p is a nonempty vector,
    of length m when given; ValidationError on a NaN or infinite entry and
    NegativeEntryError on a negative one; DimensionMismatchError when the
    sum, through ``_total``, is off 1 by more than PROB_SUM_TOL (one past
    the float range sums to inf); NegativeEntryError when p lies more than
    PROB_SUM_TOL below ``floor``, a floor the caller has checked.  It
    keeps nothing: a caller that keeps the point, as ``Distribution`` does,
    copies it."""
    given = getattr(p, "probs", p)
    a = np.asarray(given, dtype=float)
    if m is None and (a.ndim != 1 or a.size == 0):
        raise DimensionMismatchError(f"{name} must be a nonempty vector, got shape {a.shape}")
    if m is not None and a.shape != (m,):
        raise DimensionMismatchError(f"{name} must have length {m}, got shape {a.shape}")
    s = _total(_check_entries(a, name))
    if not abs(s - 1.0) <= PROB_SUM_TOL:
        raise DimensionMismatchError(f"{name} must sum to 1 +/- {PROB_SUM_TOL:g}, got {s:.15g}")
    if floor is not None and np.any(a < floor - PROB_SUM_TOL):
        i = int(np.argmin(a - floor))
        raise NegativeEntryError(f"{name} must dominate the floor: component {i} is "
                                 f"{a[i]:.15g}, below its floor {floor[i]:.15g}")
    return a


def make_distribution(p) -> Distribution:
    """Validate a probability vector, or a Distribution, without renormalizing."""
    return Distribution(_check_point(p, "probabilities"))


def uniform(m: int) -> Distribution:
    return Distribution(np.full(m, 1.0 / m))


def floored_uniform(r) -> Distribution:
    """The point (1 - r_+) * uniform + r, the default start on Omega(r).
    The floor r must be a nonempty finite nonnegative vector of mass < 1."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise DimensionMismatchError(f"r must be a nonempty vector, got shape {r.shape}")
    return Distribution((1.0 - _floor_mass(_check_entries(r, "r"))) / r.size + r)
