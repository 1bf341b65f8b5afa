"""Validated channel matrices and input distributions.

A discrete memoryless channel is an m x n row-stochastic matrix W:
``W[i, j]`` is the probability of receiving output letter j given input
letter i.  Input distributions live on the probability simplex, optionally
floored elementwise by a nonnegative vector r (the set ``Omega(r)``).

Every stored value is an input or worked out from the inputs: a channel
derives its all-rows-equal flag from W, and a floor is checked by
``make_distribution`` rather than stored.  Tolerances are the module
constants, not options.  A channel with an identically zero column is
rejected; deleting that output letter is left to the caller.

All types are immutable after construction (arrays are marked read-only)
and safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyMatrixError,
    NegativeEntryError,
    RowSumToleranceError,
    ValidationError,
    ZeroColumnError,
)

#: renormalization window for channel row sums, and the span under which
#: a column counts as constant (all rows equal)
ROW_SUM_TOL = 1e-9

#: tolerance on distribution normalization
PROB_SUM_TOL = 1e-12


def _readonly(a) -> np.ndarray:
    """A read-only float64 array of a's values.  A writeable array that needs
    no conversion is the caller's own, so it is copied, not frozen."""
    b = np.ascontiguousarray(a, dtype=float)
    if b is a and b.flags.writeable:
        b = b.copy()
    b.setflags(write=False)
    return b


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


@dataclass(frozen=True)
class ChannelMatrix:
    """A validated m x n transition matrix.

    ``all_rows_equal`` flags the degenerate channel whose capacity is 0:
    every column spans at most ``ROW_SUM_TOL``.  It is worked out from
    ``w``, not passed in, and the solvers short-circuit on it.
    """

    w: np.ndarray
    all_rows_equal: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "w", _readonly(self.w))
        rows_equal = bool(np.ptp(self.w, axis=0).max() <= ROW_SUM_TOL)
        object.__setattr__(self, "all_rows_equal", rows_equal)

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]

    def column_minima(self) -> np.ndarray:
        """Vector of per-output minima min_i W[i, j] (row-overlap profile)."""
        return self.w.min(axis=0)


def validate_channel(entries) -> ChannelMatrix:
    """Validate raw entries and return an immutable ChannelMatrix.

    Rows whose sums deviate from 1 by less than ``ROW_SUM_TOL`` are
    renormalized; larger deviations raise.  A column that is identically
    zero raises ZeroColumnError: no input reaches that output letter.
    """
    w = np.asarray(entries, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise EmptyMatrixError(f"expected a nonempty 2-d matrix, got shape {w.shape}")
    m, n = w.shape
    if m < 2:
        raise EmptyMatrixError(f"need at least 2 input letters, got {m}")
    if not np.all(np.isfinite(w)):
        raise NegativeEntryError("channel entries must be finite")
    if np.any(w < 0):
        i, j = np.unravel_index(np.argmin(w), w.shape)
        raise NegativeEntryError(f"negative entry {w[i, j]:.3e} at ({i}, {j})")
    zero_cols = np.nonzero(w.sum(axis=0) == 0)[0]
    if zero_cols.size:
        raise ZeroColumnError(f"column(s) {zero_cols.tolist()} are identically zero")

    sums = w.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise RowSumToleranceError(
            f"row {i} sums to {sums[i]:.15g}, outside 1 +/- {ROW_SUM_TOL:g}"
        )
    w = w / sums[:, None]
    w.setflags(write=False)  # made here, so the ChannelMatrix shares it
    return ChannelMatrix(w)


@dataclass(frozen=True)
class Distribution:
    """A point of the simplex, or of the floored simplex Omega(r)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(self.probs))

    @property
    def m(self) -> int:
        return self.probs.shape[0]


def make_distribution(p, floor=None) -> Distribution:
    """Validate a probability vector without renormalizing; with ``floor``,
    also check that it lies on Omega(floor)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DimensionMismatchError(f"expected a nonempty vector, got shape {p.shape}")
    if not p[p.argmin()] >= 0.0 and np.any(p < 0):  # argmin finds a NaN, like min
        raise NegativeEntryError(f"negative probability (min {p.min():.3e})")
    with np.errstate(over="ignore"):  # a sum past the float range fails below as inf
        s = np.add.reduce(p)
    if not abs(s - 1.0) <= PROB_SUM_TOL:  # also True on a NaN or infinite sum
        if not np.isfinite(p).all():
            raise ValidationError(f"probabilities must be finite, got {p}")
        raise DimensionMismatchError(f"probabilities sum to {s:.15g}, not 1 +/- {PROB_SUM_TOL:g}")
    if floor is not None:
        floor = np.asarray(floor, dtype=float)
        if floor.shape != p.shape:
            raise DimensionMismatchError("floor and probs have different lengths")
        if np.any(p < floor - PROB_SUM_TOL):
            i = int(np.argmin(p - floor))
            raise NegativeEntryError(
                f"component {i} is {p[i]:.15g}, below its floor {floor[i]:.15g}"
            )
    return Distribution(p)


def uniform(m: int) -> Distribution:
    return Distribution(np.full(m, 1.0 / m))


def floored_uniform(r) -> Distribution:
    """The point (1 - r_+) * uniform + r, the default start on Omega(r)."""
    r = np.asarray(r, dtype=float)
    return Distribution((1.0 - r.sum()) / r.shape[0] + r)
