"""Validated channel matrices and input distributions.

A discrete memoryless channel is an m x n row-stochastic matrix W:
``W[i, j]`` is the probability of receiving output letter j given input
letter i.  Input distributions live on the probability simplex, optionally
floored elementwise by a nonnegative vector r (the set ``Omega(r)``).

All types are immutable after construction (arrays are marked read-only)
and safe to share across threads.
"""

from __future__ import annotations

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

#: default renormalization window for channel row sums
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


@dataclass(frozen=True)
class ChannelMatrix:
    """A validated m x n transition matrix.

    ``all_rows_equal`` flags the degenerate channel whose capacity is 0;
    it is accepted here and short-circuited by the solvers.
    ``dropped_columns`` records original indices removed in
    drop-zero-columns mode.
    """

    w: np.ndarray
    all_rows_equal: bool = False
    dropped_columns: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "w", _readonly(self.w))

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]

    def column_minima(self) -> np.ndarray:
        """Vector of per-output minima min_i W[i, j] (row-overlap profile)."""
        return self.w.min(axis=0)


def validate_channel(entries, tolerance: float = ROW_SUM_TOL, *,
                     drop_zero_columns: bool = False) -> ChannelMatrix:
    """Validate raw entries and return an immutable ChannelMatrix.

    Rows whose sums deviate from 1 by less than ``tolerance`` are
    renormalized; larger deviations raise.  Columns that are identically
    zero raise unless ``drop_zero_columns`` is set, in which case they are
    removed and their original indices recorded on the result.
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

    dropped: tuple[int, ...] = ()
    zero_cols = np.nonzero(w.sum(axis=0) == 0)[0]
    if zero_cols.size:
        if not drop_zero_columns:
            raise ZeroColumnError(
                f"column(s) {zero_cols.tolist()} are identically zero; "
                "pass drop_zero_columns=True to remove them"
            )
        dropped = tuple(int(j) for j in zero_cols)
        w = np.delete(w, zero_cols, axis=1)
        if w.shape[1] == 0:
            raise EmptyMatrixError("all columns were zero")

    sums = w.sum(axis=1)
    bad = np.abs(sums - 1.0) > tolerance
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise RowSumToleranceError(
            f"row {i} sums to {sums[i]:.15g}, outside 1 +/- {tolerance:g}"
        )
    w = w / sums[:, None]

    rows_equal = bool(np.ptp(w, axis=0).max() <= tolerance)
    return ChannelMatrix(w, all_rows_equal=rows_equal, dropped_columns=dropped)


@dataclass(frozen=True)
class Distribution:
    """A point of the simplex, or of the floored simplex Omega(r)."""

    probs: np.ndarray
    floor: np.ndarray | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(self.probs))
        if self.floor is not None:
            object.__setattr__(self, "floor", _readonly(self.floor))

    @property
    def m(self) -> int:
        return self.probs.shape[0]

    def is_interior(self, margin: float = 0.0) -> bool:
        """True when every component clears its floor (or 0) by ``margin``."""
        base = self.floor if self.floor is not None else 0.0
        return bool(np.all(self.probs > base + margin))


def make_distribution(p, floor=None, tol: float = PROB_SUM_TOL) -> Distribution:
    """Validate a probability vector (optionally floored) without renormalizing."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DimensionMismatchError(f"expected a nonempty vector, got shape {p.shape}")
    if not p[p.argmin()] >= 0.0 and np.any(p < 0):  # argmin finds a NaN, like min
        raise NegativeEntryError(f"negative probability (min {p.min():.3e})")
    with np.errstate(over="ignore"):  # a sum past the float range fails below as inf
        s = np.add.reduce(p)
    if not abs(s - 1.0) <= tol:  # also True on a NaN or infinite sum
        if not np.isfinite(p).all():
            raise ValidationError(f"probabilities must be finite, got {p}")
        raise DimensionMismatchError(f"probabilities sum to {s:.15g}, not 1 +/- {tol:g}")
    if floor is not None:
        floor = np.asarray(floor, dtype=float)
        if floor.shape != p.shape:
            raise DimensionMismatchError("floor and probs have different lengths")
        if np.any(p < floor - tol):
            i = int(np.argmin(p - floor))
            raise NegativeEntryError(
                f"component {i} is {p[i]:.15g}, below its floor {floor[i]:.15g}"
            )
    return Distribution(p, floor)


def uniform(m: int) -> Distribution:
    return Distribution(np.full(m, 1.0 / m))


def floored_uniform(r) -> Distribution:
    """The point (1 - r_+) * uniform + r, the default start on Omega(r)."""
    r = np.asarray(r, dtype=float)
    m = r.shape[0]
    return Distribution((1.0 - r.sum()) / m + r, floor=r)
