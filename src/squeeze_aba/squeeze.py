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
Resolution is a single pass: each builder forms room once, and
``params_from_r_lambda`` draws its offset from that room.
``SqueezeParams`` keeps (r, f) and the builder's feasibility verdict.
However it is built, it refuses negative or non-finite entries and masses
r_+ >= 1 or f_+ = inf; it derives r_+, f_+ and lambda from (r, f) once,
at construction, and W* and W~ on each access, so no stored value can
disagree with (r, f).
The rows of a feasible W~ sum to 1; subtracting the offsets reduces the
overlap between rows, which is what accelerates the capacity iteration.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelMatrix, _check_vector, _floor_mass, _readonly
from .errors import (
    DimensionMismatchError,
    FloorConstraintError,
    LambdaRangeError,
    SqueezeConstraintError,
    ValidationError,
)

#: constraint slack: exact-arithmetic feasibility may bind at 0
CONSTRAINT_TOL = 1e-12

_PACKAGE = __package__ + "."


@dataclass(frozen=True)
class SqueezeParams:
    """Immutable squeeze parameters (r, f); everything else is derived.

    Construction checks the shapes, raising DimensionMismatchError unless r
    has the channel's m entries and f its n, then the entries, which must be
    finite and nonnegative, then InfeasibleFloorError when r_+ >= 1 and
    ValidationError when f_+ overflows.  It derives the floor mass
    ``r_plus`` = sum_i r_i, the offset mass ``f_plus`` = sum_j f_j and the
    exponent gain ``lam`` = (1 + f_+)/(1 - r_+).  Only the builders check
    the two column constraints: a directly built params reports
    ``feasible=True`` unchecked.  A builder's ``feasible`` is False
    only when built with ``force=True`` over a constraint violation; the
    solvers then lose their monotonicity guarantee and downgrade related
    checks to warnings.
    """

    channel: ChannelMatrix
    r: np.ndarray
    f: np.ndarray
    feasible: bool = True
    r_plus: float = field(init=False)
    f_plus: float = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        for name in ("r", "f"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if (self.r.shape, self.f.shape) != ((self.channel.m,), (self.channel.n,)):
            raise DimensionMismatchError(
                f"r and f must have lengths {self.channel.m} and {self.channel.n}, "
                f"got shapes {self.r.shape} and {self.f.shape}")
        _check_vector(self.r, self.channel.m, "r")
        _check_vector(self.f, self.channel.n, "f")
        r_plus = _floor_mass(self.r)
        f_plus = float(np.add.reduce(self.f))
        if not f_plus < np.inf:
            raise ValidationError(f"offset mass f_+ = {f_plus:.15g} must be finite")
        object.__setattr__(self, "r_plus", r_plus)
        object.__setattr__(self, "f_plus", f_plus)
        object.__setattr__(self, "lam", (1.0 + f_plus) / (1.0 - r_plus))

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


def _check_lambda(lam: float, lo: float, hi: float, force: bool) -> None:
    """LambdaRangeError unless lo <= lam <= hi.  ``force`` turns only a gain
    above hi into a warning: no offset f >= 0 gives lambda < 1/(1 - r_+)."""
    if not (lo - CONSTRAINT_TOL <= lam <= hi + CONSTRAINT_TOL):
        _violation(LambdaRangeError, f"lambda = {lam:.15g} outside feasible "
                   f"interval [{lo:.15g}, {hi:.15g}]", force and lam > hi)


def _column_tests(sp: SqueezeParams, room: np.ndarray, force: bool) -> SqueezeParams:
    """``sp`` after both column tests, given room = min_i W_ij - (rW)_j;
    marked infeasible if ``force`` let a violation through."""
    r, f, w = sp.r, sp.f, sp.channel.w
    feasible = True
    if not room[room.argmin()] >= -CONSTRAINT_TOL:  # a NaN fails too
        i, j = _worst_entry(w, room)
        _violation(FloorConstraintError,
                   f"floor constraint violated: W[{i},{j}] = {w[i, j]:.15g} is below "
                   f"the floor mixture (rW)[{j}] = {(r @ w)[j]:.15g} by {-room[j]:.3e}", force)
        feasible = False
    tilde_min = (1.0 + sp.f_plus) * (np.maximum(room, 0.0) / (1.0 - sp.r_plus)) - f
    if not tilde_min[tilde_min.argmin()] >= -CONSTRAINT_TOL:
        i, j = _worst_entry(w, tilde_min)
        _violation(SqueezeConstraintError,
                   f"offset constraint violated: squeezed entry ({i},{j}) = "
                   f"{tilde_min[j]:.3e} is negative; reduce f or r", force)
        feasible = False
    return sp if feasible else replace(sp, feasible=False)


def build_squeeze_params(channel: ChannelMatrix, r, f, *,
                         force: bool = False) -> SqueezeParams:
    """Construct and validate SqueezeParams from a floor r and offset f.

    Checks both constraints per column and raises FloorConstraintError /
    SqueezeConstraintError / InfeasibleFloorError on violations; with
    ``force=True`` violations warn instead, the result is marked
    infeasible, and its derived W* and W~ clamp negative entries to 0.
    """
    r = _check_vector(r, channel.m, "r")
    sp = SqueezeParams(channel, r, _check_vector(f, channel.n, "f"))
    return _column_tests(sp, channel.column_minima() - r @ channel.w, force)


def params_from_r_lambda(channel: ChannelMatrix, r, lam: float | None = None, *,
                         force: bool = False) -> SqueezeParams:
    """Build SqueezeParams from a floor r and exponent gain lambda.

    Chooses the output offset proportional to the column minima of the
    floor-adjusted channel,

        f_j = [lambda (1 - r_+) - 1] * min_i W*_ij / sum_k min_i W*_ik,

    which is the unique scaling with total mass f_+ = lambda (1 - r_+) - 1.
    The returned ``params.lam`` is (1 + f_+)/(1 - r_+) of that offset, so it
    can differ from the requested ``lam`` in the last bit; ``solve`` and
    the public steps all iterate with ``params.lam``.
    The feasible gains run from 1/(1 - r_+) to 1/(1 - sum_j min_i W_ij);
    ``lam=None`` takes that upper bound, or the lower one when the upper
    one is infinite (all rows equal, capacity 0).
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
        f = mult * star_min / total
    f.setflags(write=False)  # made here, so SqueezeParams shares it
    return _column_tests(SqueezeParams(channel, r, f), room, force)
