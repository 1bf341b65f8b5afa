"""Squeeze parameters: the floored/shifted reparameterization of a channel.

Given a channel W, a nonnegative floor vector r (length m) and a
nonnegative output offset f (length n), the squeezed representation is

    W*      = (W - 1_m rW) / (1 - r_+)          (floor-adjusted channel)
    W~      = (1 + f_+) W* - 1_m f              (squeezed channel)
    lambda  = (1 + f_+) / (1 - r_+)             (exponent gain)

where r_+ and f_+ are the total masses of r and f.  Feasibility requires
r_+ < 1, W >= 1_m rW and W~ >= 0.  Both matrix conditions are column
tests, since W* and W~ grow with W_ij down a column: with room_j =
min_i W_ij - (rW)_j the floor holds when room_j >= 0, and the smallest
entry of column j of W~ is (1 + f_+) max(room_j, 0)/(1 - r_+) - f_j.
Resolution is a single pass: each builder checks r and f once and forms
room once, and ``params_from_r_lambda`` draws its offset from that room.
``SqueezeParams`` keeps (r, f) and the builder's feasibility verdict;
r_+, f_+ and lambda are derived from (r, f) once, on first access, and W*
and W~ on each access, so no stored value can disagree with (r, f).
The rows of a feasible W~ sum to 1; subtracting the offsets reduces the
overlap between rows, which is what accelerates the capacity iteration.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelMatrix, _readonly
from .errors import (
    DimensionMismatchError,
    FloorConstraintError,
    InfeasibleFloorError,
    LambdaRangeError,
    NegativeEntryError,
    SqueezeConstraintError,
    ValidationError,
)

#: constraint slack: exact-arithmetic feasibility may bind at 0
CONSTRAINT_TOL = 1e-12

_PACKAGE = __package__ + "."


@dataclass(frozen=True)
class SqueezeParams:
    """Immutable squeeze parameters (r, f); everything else is derived.

    ``feasible`` is False only when built with ``force=True`` over a
    constraint violation; the solvers then lose their monotonicity
    guarantee and downgrade related checks to warnings.
    """

    channel: ChannelMatrix
    r: np.ndarray
    f: np.ndarray
    feasible: bool = True

    def __post_init__(self):
        for name in ("r", "f"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @cached_property
    def r_plus(self) -> float:
        """Floor mass sum_i r_i."""
        return float(np.add.reduce(self.r))

    @cached_property
    def f_plus(self) -> float:
        """Offset mass sum_j f_j."""
        return float(np.add.reduce(self.f))

    @cached_property
    def lam(self) -> float:
        """Exponent gain (1 + f_+)/(1 - r_+)."""
        return (1.0 + self.f_plus) / (1.0 - self.r_plus)

    @property
    def m(self) -> int:
        return self.r.shape[0]

    @property
    def n(self) -> int:
        return self.f.shape[0]

    @property
    def w_star(self) -> np.ndarray:
        """Floor-adjusted channel max(W - 1_m rW, 0)/(1 - r_+)."""
        w = self.channel.w
        return np.maximum(w - self.r @ w, 0.0) / (1.0 - self.r_plus)

    @property
    def w_tilde(self) -> np.ndarray:
        """Squeezed channel max((1 + f_+) W* - 1_m f, 0)."""
        return np.maximum((1.0 + self.f_plus) * self.w_star - self.f, 0.0)

    def is_plain(self) -> bool:
        """True when r = 0 and f = 0 (no squeezing at all)."""
        return not (self.r.any() or self.f.any())


def _check_vector(v, length: int, name: str) -> np.ndarray:
    """v as a finite nonnegative float vector of the given length (a scalar
    fills it).  An array made here from a list or scalar is frozen, so
    SqueezeParams shares it rather than copying it."""
    a = np.asarray(v, dtype=float)
    if a.ndim == 0:
        a = np.full(length, float(a))
    if a.shape != (length,):
        raise DimensionMismatchError(f"{name} must have length {length}, got shape {a.shape}")
    # argmin and argmax find a NaN, like min and max; the full checks only pick the error
    if not (a[a.argmin()] >= 0.0 and a[a.argmax()] < np.inf):
        if not np.isfinite(a).all():
            raise ValidationError(f"{name} must be finite")
        raise NegativeEntryError(f"{name} must be nonnegative (min {a.min():.3e})")
    if a is not v:
        a.setflags(write=False)
    return a


def _floor_mass(r: np.ndarray) -> float:
    r_plus = float(np.add.reduce(r))
    if r_plus >= 1.0:
        raise InfeasibleFloorError(f"floor mass r_+ = {r_plus:.15g} must be < 1")
    return r_plus


def _violation(error: type[ValidationError], msg: str, force: bool) -> None:
    """Raise ``error``, or under ``force`` warn at the first caller outside the package."""
    if not force:
        raise error(msg)
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    warnings.warn(msg, RuntimeWarning, stacklevel=level)


def _worst_entry(w: np.ndarray, col_worst: np.ndarray) -> tuple[int, int]:
    """(i, j) of the worst entry, first in row-major order: among the columns
    where ``col_worst`` is smallest, the first row holding a column minimum of W."""
    cols = np.flatnonzero(col_worst == col_worst.min())
    rows = w[:, cols].argmin(axis=0)
    return int(rows.min()), int(cols[np.argmin(rows)])


def _bounds(r_plus: float, col_min: np.ndarray) -> tuple[float, float]:
    overlap = float(np.add.reduce(col_min))
    return 1.0 / (1.0 - r_plus), float("inf") if overlap >= 1.0 else 1.0 / (1.0 - overlap)


def lambda_bounds(channel: ChannelMatrix, r) -> tuple[float, float]:
    """Feasible interval for the exponent gain at floor r.

    Lower bound 1/(1 - r_+); upper bound 1/(1 - sum_j min_i W_ij), which
    does not depend on r.  The upper bound is infinite for a channel whose
    rows are all equal.
    """
    return _bounds(_floor_mass(_check_vector(r, channel.m, "r")), channel.column_minima())


def _check_lambda(lam: float, lo: float, hi: float, force: bool) -> None:
    """LambdaRangeError unless lo <= lam <= hi.  ``force`` turns only a gain
    above hi into a warning: no offset f >= 0 gives lambda < 1/(1 - r_+)."""
    if not (lo - CONSTRAINT_TOL <= lam <= hi + CONSTRAINT_TOL):
        _violation(LambdaRangeError, f"lambda = {lam:.15g} outside feasible "
                   f"interval [{lo:.15g}, {hi:.15g}]", force and lam > hi)


def _column_tests(channel: ChannelMatrix, r: np.ndarray, r_plus: float, f: np.ndarray,
                  room: np.ndarray, force: bool) -> SqueezeParams:
    """SqueezeParams from a checked floor r (mass r_plus < 1) and offset f,
    given room = min_i W_ij - (rW)_j, after both column tests."""
    w = channel.w
    f_plus = float(np.add.reduce(f))  # the reduction SqueezeParams.f_plus takes
    feasible = True
    if room[room.argmin()] < -CONSTRAINT_TOL:
        i, j = _worst_entry(w, room)
        _violation(FloorConstraintError,
                   f"floor constraint violated: W[{i},{j}] = {w[i, j]:.15g} is below "
                   f"the floor mixture (rW)[{j}] = {(r @ w)[j]:.15g} by {-room[j]:.3e}", force)
        feasible = False
    tilde_min = (1.0 + f_plus) * (np.maximum(room, 0.0) / (1.0 - r_plus)) - f
    if tilde_min[tilde_min.argmin()] < -CONSTRAINT_TOL:
        i, j = _worst_entry(w, tilde_min)
        _violation(SqueezeConstraintError,
                   f"offset constraint violated: squeezed entry ({i},{j}) = "
                   f"{tilde_min[j]:.3e} is negative; reduce f or r", force)
        feasible = False
    return SqueezeParams(channel, r, f, feasible)


def build_squeeze_params(channel: ChannelMatrix, r, f, *,
                         force: bool = False) -> SqueezeParams:
    """Construct and validate SqueezeParams from a floor r and offset f.

    Checks both constraints per column and raises FloorConstraintError /
    SqueezeConstraintError / InfeasibleFloorError on violations; with
    ``force=True`` violations warn instead, the result is marked
    infeasible, and its derived W* and W~ clamp negative entries to 0.
    """
    r = _check_vector(r, channel.m, "r")
    f = _check_vector(f, channel.n, "f")
    r_plus = _floor_mass(r)
    return _column_tests(channel, r, r_plus, f, channel.column_minima() - r @ channel.w, force)


def params_from_r_lambda(channel: ChannelMatrix, r, lam: float | None = None, *,
                         force: bool = False) -> SqueezeParams:
    """Build SqueezeParams from a floor r and exponent gain lambda.

    Chooses the output offset proportional to the column minima of the
    floor-adjusted channel,

        f_j = [lambda (1 - r_+) - 1] * min_i W*_ij / sum_k min_i W*_ik,

    which is the unique scaling with total mass f_+ = lambda (1 - r_+) - 1,
    so the returned params satisfy lambda = (1 + f_+)/(1 - r_+) exactly.
    ``lam=None`` takes the upper bound of ``lambda_bounds``, or the lower
    bound when the upper one is infinite (all rows equal, capacity 0).
    """
    r = _check_vector(r, channel.m, "r")
    lam = lam if lam is None else float(lam)
    r_plus = _floor_mass(r)
    col_min = channel.column_minima()
    lo, hi = _bounds(r_plus, col_min)
    if lam is None:
        lam = hi if hi < float("inf") else lo
    _check_lambda(lam, lo, hi, force)
    room = col_min - r @ channel.w
    mult = max(lam * (1.0 - r_plus) - 1.0, 0.0)
    if mult == 0.0:
        f = np.zeros(channel.n)
    else:
        star_min = np.maximum(room, 0.0) / (1.0 - r_plus)
        total = np.add.reduce(star_min)
        if total <= 0.0:
            raise LambdaRangeError("channel has no squeezing room (zero column-minima mass) "
                                   f"but lambda = {lam:.15g} exceeds {1.0 / (1.0 - r_plus):.15g}")
        f = _check_vector(mult * star_min / total, channel.n, "f")
    f.setflags(write=False)  # made here, so SqueezeParams shares it
    return _column_tests(channel, r, r_plus, f, room, force)
