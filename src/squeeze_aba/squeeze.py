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
``SqueezeParams`` keeps (r, f) and nothing else that can be set.  However
it is built, it refuses negative or non-finite entries and masses r_+ >= 1
or f_+ = inf; it derives r_+, f_+, lambda and the feasibility verdict of
both column tests from (r, f) once, at construction, and W* and W~ on
each access, so no stored value can disagree with (r, f).  The builders
check nothing of their own: they only decide what an infeasible verdict
does, raise or warn under ``force``.  ``params_from_r_lambda`` also
checks r and derives r_+, room and the column minima of W*, to draw its
offset from them, and hands all three to construction, which checks r
and f again but forms none of them a second time.
The rows of a feasible W~ sum to 1; subtracting the offsets reduces the
overlap between rows, which is what accelerates the capacity iteration.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelMatrix, _check_vector, _floor_mass, _total
from .errors import FloorConstraintError, LambdaRangeError, SqueezeConstraintError, ValidationError

#: constraint slack: exact-arithmetic feasibility may bind at 0
CONSTRAINT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SqueezeParams:
    """Immutable squeeze parameters (r, f); everything else is derived.

    Construction is the one check of r and f, however the params are
    built: r, then f, must have the channel's m and n entries
    (DimensionMismatchError; a scalar fills the vector), finite and
    nonnegative; then r_+ >= 1 raises InfeasibleFloorError and an
    overflowing f_+ ValidationError.  Each is stored read-only: a vector
    filled or converted here, or an array already read-only (as every
    array the package makes is), is kept as it is, and a caller's
    writeable array is copied once.  It derives the floor mass ``r_plus`` = sum_i r_i, the offset
    mass ``f_plus`` = sum_j f_j and the exponent gain ``lam`` =
    (1 + f_+)/(1 - r_+).  Last it runs the column tests that a positive
    mass leaves open and records whether both hold as ``feasible``; a
    builder raises or warns on an infeasible verdict.  ``params_from_r_lambda``
    builds its params through the same ``__post_init__``, handing it the
    r_+, room and star_min it drew its offset from, bitwise what this
    construction would form from the same r.  Infeasible params
    come only from a direct build or a builder called with ``force=True``;
    the solvers then lose their monotonicity guarantee and downgrade
    related checks to warnings.  ``SqueezeParams(channel, 0.0, 0.0)`` is
    the plain iteration's zero squeeze.
    """

    channel: ChannelMatrix
    r: np.ndarray
    f: np.ndarray
    r_plus: float = field(init=False)
    f_plus: float = field(init=False)
    lam: float = field(init=False)
    feasible: bool = field(init=False)

    def __post_init__(self, r_plus: float | None = None, room=None, star_min=None):
        # construction's one body, however the params are built; the builder that
        # drew the offset from r_+, room and star_min of the r it checked passes
        # them, and r and f are checked here all the same
        r = _check_vector(self.r, self.channel.m, "r")
        f = _check_vector(self.f, self.channel.n, "f")
        r_plus = _floor_mass(r) if r_plus is None else r_plus
        f_plus = float(_total(f))
        if not f_plus < np.inf:
            raise ValidationError(f"offset mass f_+ = {f_plus:.15g} must be finite")
        # frozen: the instance dict takes what __setattr__ refuses
        vars(self).update(r=r, f=f, r_plus=r_plus, f_plus=f_plus,
                          lam=(1.0 + f_plus) / (1.0 - r_plus))
        vars(self)["feasible"] = next(_violations(self, room, star_min), None) is None

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
    _warn(msg)


def _warn(msg: str) -> None:
    """A RuntimeWarning that names the first caller outside the package."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith(__package__ + "."):
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


def _room(channel: ChannelMatrix, r: np.ndarray, r_plus: float) -> np.ndarray:
    """room_j = min_i W_ij - (rW)_j; a zero floor leaves the column minima,
    and no 0 W is formed.  ndarray.dot is r @ W, bit for bit, without its
    dispatch."""
    return channel.column_minima() - r.dot(channel.w) if r_plus else channel.column_minima()


def _violations(sp: SqueezeParams, room: np.ndarray | None = None, star_min=None):
    """Each column test that ``sp`` fails, floor first, as (error, slack,
    message).  With room from ``_room`` unless given, the floor holds when
    room >= 0, and the offset when the smallest W~ entry of each column,
    (1 + f_+) star_min - f with star_min = max(room, 0)/(1 - r_+) unless
    given, is >= 0, within CONSTRAINT_TOL.  A zero floor leaves room the
    column minima, which pass, and a zero offset leaves that entry
    star_min >= 0, so each test runs only when its mass is positive.
    ``message(i, j)`` names the worst entry, which ``_worst_entry`` finds
    in the failing column slack; a verdict needs neither."""
    r, f, w = sp.r, sp.f, sp.channel.w
    room = _room(sp.channel, r, sp.r_plus) if room is None else room
    if sp.r_plus and not room[room.argmin()] >= -CONSTRAINT_TOL:  # a NaN fails too
        yield FloorConstraintError, room, lambda i, j: (
            f"floor constraint violated: W[{i},{j}] = {w[i, j]:.15g} is below "
            f"the floor mixture (rW)[{j}] = {(r @ w)[j]:.15g} by {-room[j]:.3e}")
    if sp.f_plus:
        star_min = np.maximum(room, 0.0) / (1.0 - sp.r_plus) if star_min is None else star_min
        tilde_min = (1.0 + sp.f_plus) * star_min - f
        if not tilde_min[tilde_min.argmin()] >= -CONSTRAINT_TOL:
            yield SqueezeConstraintError, tilde_min, lambda i, j: (
                f"offset constraint violated: squeezed entry ({i},{j}) = "
                f"{tilde_min[j]:.3e} is negative; reduce f or r")


def _enforce(sp: SqueezeParams, force: bool) -> SqueezeParams:
    """``sp``, after raising its first violated column test, or under
    ``force`` warning of each.  Construction found the verdict; only
    infeasible params run the tests again, for their messages."""
    for error, slack, message in () if sp.feasible else _violations(sp):
        _violation(error, message(*_worst_entry(sp.channel.w, slack)), force)
    return sp


def build_squeeze_params(channel: ChannelMatrix, r, f, *,
                         force: bool = False) -> SqueezeParams:
    """Construct and validate SqueezeParams from a floor r and offset f.

    Raises FloorConstraintError / SqueezeConstraintError /
    InfeasibleFloorError on violations; with ``force=True`` the column
    violations warn instead, the result reports ``feasible=False``, and its
    derived W* and W~ clamp negative entries to 0.
    """
    return _enforce(SqueezeParams(channel, r, f), force)


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
    one is infinite (exactly equal rows, capacity 0).
    """
    r = _check_vector(r, channel.m, "r")
    lam = lam if lam is None else float(lam)
    r_plus = _floor_mass(r)
    lo, hi = _bounds(r_plus, channel.column_minima())
    if lam is None:
        lam = hi if hi < float("inf") else lo
    # force turns only a gain above hi into a warning: no offset f >= 0 gives one below lo
    if not (lo - CONSTRAINT_TOL <= lam <= hi + CONSTRAINT_TOL):
        _violation(LambdaRangeError, f"lambda = {lam:.15g} outside feasible "
                   f"interval [{lo:.15g}, {hi:.15g}]", force and lam > hi)
    mult = max(lam * (1.0 - r_plus) - 1.0, 0.0)
    room, star_min, f = _room(channel, r, r_plus), None, 0.0
    if mult:
        star_min = np.maximum(room, 0.0) / (1.0 - r_plus)
        total = np.add.reduce(star_min)
        if total <= 0.0:
            raise LambdaRangeError("channel has no squeezing room (zero column-minima mass) "
                                   f"but lambda = {lam:.15g} exceeds {1.0 / (1.0 - r_plus):.15g}")
        f = mult * star_min / total
        f.setflags(write=False)  # made here, so the params share it
    # the params' own construction, handed the r_+, room and star_min derived here
    sp = object.__new__(SqueezeParams)
    vars(sp).update(channel=channel, r=r, f=f)
    sp.__post_init__(r_plus, room, star_min)
    return _enforce(sp, force)
