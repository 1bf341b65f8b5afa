"""Squeeze parameters: the floored/shifted reparameterization of a channel.

Given a channel W, a nonnegative floor vector r (length m) and a
nonnegative output offset f (length n), the squeezed representation is

    W*      = (W - 1_m rW) / (1 - r_+)          (floor-adjusted channel)
    W~      = (1 + f_+) W* - 1_m f              (squeezed channel)
    lambda  = (1 + f_+) / (1 - r_+)             (exponent gain)
    c_i     = H(W~_i) - lambda H(W_i)           (row entropy offsets)

where r_+ and f_+ are the total masses of r and f.  Feasibility requires
W >= 1_m rW (the floor mixture never exceeds any entry), r_+ < 1, and
W~ >= 0.  The rows of a feasible W~ sum to 1 automatically; subtracting
the offsets reduces the overlap between rows, which is what accelerates
the capacity iteration built on top of this representation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, _readonly
from .errors import (
    DimensionMismatchError,
    FloorConstraintError,
    InfeasibleFloorError,
    LambdaRangeError,
    NegativeEntryError,
    SqueezeConstraintError,
)
from .infotheory import row_entropies

#: constraint slack: exact-arithmetic feasibility may bind at 0
CONSTRAINT_TOL = 1e-12


@dataclass(frozen=True)
class SqueezeParams:
    """Immutable bundle of squeeze parameters and derived matrices.

    ``feasible`` is False only when constructed with ``force=True`` over a
    constraint violation; the solvers then lose their monotonicity
    guarantee and downgrade related checks to warnings.
    """

    channel: ChannelMatrix
    r: np.ndarray
    f: np.ndarray
    lam: float
    r_plus: float
    f_plus: float
    w_star: np.ndarray
    w_tilde: np.ndarray
    c: np.ndarray
    feasible: bool = True

    def __post_init__(self):
        for name in ("r", "f", "w_star", "w_tilde", "c"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def m(self) -> int:
        return self.r.shape[0]

    @property
    def n(self) -> int:
        return self.f.shape[0]

    def is_plain(self) -> bool:
        """True when r = 0 and f = 0 (no squeezing at all)."""
        return not (self.r.any() or self.f.any())


def _check_vector(v, length: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        v = np.full(length, float(v))
    if v.shape != (length,):
        raise DimensionMismatchError(f"{name} must have length {length}, got shape {v.shape}")
    if np.any(v < 0):
        raise NegativeEntryError(f"{name} must be nonnegative (min {v.min():.3e})")
    return v


def _clamp_small_negatives(a: np.ndarray, tol: float) -> np.ndarray:
    return np.where((a < 0) & (a >= -tol), 0.0, a)


def floor_mixture_slack(channel: ChannelMatrix, r) -> float:
    """Worst-case value of min_{i,j} (W_ij - (rW)_j); negative means r infeasible."""
    r = _check_vector(r, channel.m, "r")
    rw = r @ channel.w
    return float((channel.w - rw[None, :]).min())


def lambda_bounds(channel: ChannelMatrix, r) -> tuple[float, float]:
    """Feasible interval for the exponent gain at floor r.

    Lower bound 1/(1 - r_+); upper bound 1/(1 - sum_j min_i W_ij), which
    does not depend on r.  The upper bound is infinite for a channel whose
    rows are all equal.
    """
    r = _check_vector(r, channel.m, "r")
    r_plus = float(r.sum())
    if r_plus >= 1.0:
        raise InfeasibleFloorError(f"floor mass r_+ = {r_plus:.15g} must be < 1")
    overlap = float(channel.column_minima().sum())
    hi = float("inf") if overlap >= 1.0 else 1.0 / (1.0 - overlap)
    return 1.0 / (1.0 - r_plus), hi


def build_squeeze_params(channel: ChannelMatrix, r, f, *,
                         force: bool = False) -> SqueezeParams:
    """Construct and validate SqueezeParams from a floor r and offset f.

    Raises FloorConstraintError / SqueezeConstraintError /
    InfeasibleFloorError on violations; with ``force=True`` violations
    warn instead, negative squeezed entries are clamped to 0, and the
    result is marked infeasible.
    """
    w = channel.w
    m, n = channel.m, channel.n
    r = _check_vector(r, m, "r")
    f = _check_vector(f, n, "f")

    r_plus = float(r.sum())
    f_plus = float(f.sum())
    if r_plus >= 1.0:
        raise InfeasibleFloorError(f"floor mass r_+ = {r_plus:.15g} must be < 1")

    feasible = True
    rw = r @ w
    slack = w - rw[None, :]
    worst = slack.min()
    if worst < -CONSTRAINT_TOL:
        i, j = np.unravel_index(np.argmin(slack), slack.shape)
        msg = (f"floor constraint violated: W[{i},{j}] = {w[i, j]:.15g} is below "
               f"the floor mixture (rW)[{j}] = {rw[j]:.15g} by {-worst:.3e}")
        if not force:
            raise FloorConstraintError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        feasible = False

    w_star = _clamp_small_negatives(slack, CONSTRAINT_TOL) / (1.0 - r_plus)
    if force:
        w_star = np.maximum(w_star, 0.0)

    lam = (1.0 + f_plus) / (1.0 - r_plus)
    w_tilde = (1.0 + f_plus) * w_star - f[None, :]
    if w_tilde.min() < -CONSTRAINT_TOL:
        i, j = np.unravel_index(np.argmin(w_tilde), w_tilde.shape)
        msg = (f"offset constraint violated: squeezed entry ({i},{j}) = "
               f"{w_tilde[i, j]:.3e} is negative; reduce f or r")
        if not force:
            raise SqueezeConstraintError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        feasible = False
    w_tilde = _clamp_small_negatives(w_tilde, CONSTRAINT_TOL)
    if force:
        w_tilde = np.maximum(w_tilde, 0.0)

    if feasible:
        lo, hi = lambda_bounds(channel, r)
        if not (lo - 1e-9 <= lam <= hi + 1e-9):
            feasible = False

    ent = row_entropies(np.vstack((w, w_tilde)))
    c = ent[m:] - lam * ent[:m]

    return SqueezeParams(channel, r, f, float(lam), r_plus, f_plus,
                         w_star, w_tilde, c, feasible)


def params_from_r_lambda(channel: ChannelMatrix, r, lam: float, *,
                         force: bool = False) -> SqueezeParams:
    """Build SqueezeParams from a floor r and exponent gain lambda.

    Chooses the output offset proportional to the column minima of the
    floor-adjusted channel,

        f_j = [lambda (1 - r_+) - 1] * min_i W*_ij / sum_k min_i W*_ik,

    which is the unique scaling with total mass f_+ = lambda (1 - r_+) - 1,
    so the returned params satisfy lambda = (1 + f_+)/(1 - r_+) exactly.
    """
    r = _check_vector(r, channel.m, "r")
    lam = float(lam)
    lo, hi = lambda_bounds(channel, r)
    if not (lo - CONSTRAINT_TOL <= lam <= hi + CONSTRAINT_TOL):
        msg = f"lambda = {lam:.15g} outside feasible interval [{lo:.15g}, {hi:.15g}]"
        if not force:
            raise LambdaRangeError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)

    r_plus = float(r.sum())
    mult = max(lam * (1.0 - r_plus) - 1.0, 0.0)
    if mult == 0.0:
        f = np.zeros(channel.n)
    else:
        rw = r @ channel.w
        w_star = _clamp_small_negatives(channel.w - rw[None, :], CONSTRAINT_TOL)
        col_min = w_star.min(axis=0) / (1.0 - r_plus)
        total = col_min.sum()
        if total <= 0.0:
            raise LambdaRangeError(
                "channel has no squeezing room (zero column-minima mass) "
                f"but lambda = {lam:.15g} exceeds {1.0 / (1.0 - r_plus):.15g}"
            )
        f = mult * col_min / total
    return build_squeeze_params(channel, r, f, force=force)
