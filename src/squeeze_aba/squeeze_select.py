"""Automatic selection of squeeze parameters.

A plan chooses the floor r; the offset f and the gain lambda come from
``params_from_r_lambda`` at the largest gain, lambda = 1/(1 - o) with
o = sum_j min_i W_ij the row overlap.  In combined form that is the one
squeeze g_j = min_i W_ij / (1 - o), which does not depend on the floor:

    g = lambda rW + f,        f = lambda (min_i W_ij - (rW)_j),

and 1 + g_+ equals lambda.  The floor r is chosen by strategy:

    none         r = 0, f = 0, lambda = 1 (plain iteration)
    lambda-only  r = 0, f = g (exponent gain only)
    optimal-m2   binary-input channels: the unique r making both floor
                 feasibility inequalities tight
    heuristic    r = delta * q with delta at its feasibility cap, for a
                 chosen reference distribution q (default uniform)

Larger g_+ and larger r/(1 - r_+) both provably speed convergence, so
each strategy pushes its free quantities to their feasible extremes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ROW_SUM_TOL, ChannelMatrix, _check_vector, _require_same_channel, uniform
from .errors import DegenerateChannelError, NotTwoByNError, ValidationError
from .squeeze import CONSTRAINT_TOL, SqueezeParams, _bounds, _warn, params_from_r_lambda

STRATEGIES = ("none", "lambda-only", "optimal-m2", "heuristic")


@dataclass(frozen=True)
class SqueezePlan:
    """Validated squeeze parameters plus the strategy that chose their floor."""

    params: SqueezeParams
    strategy: str

    def build(self, channel: ChannelMatrix) -> SqueezeParams:
        """The plan's parameters; ValidationError for a channel other than the plan's."""
        _require_same_channel(self.params.channel, channel, "plan was made")
        return self.params


def _require_distinct_rows(channel: ChannelMatrix) -> None:
    """DegenerateChannelError when every column spans at most ROW_SUM_TOL.

    The package's one row-equality rule.  Such rows count as equal: the
    overlap o is 1 to within rounding, so the gain bound 1/(1 - o) is
    infinite or rests on rounding, and there is no squeeze to plan.  The
    solvers know no such rule; their loop certifies these channels like
    any other.
    """
    # the largest W_ij - min_k W_kj is the largest column span, bit for bit
    if np.maximum.reduce(channel.w - channel.column_minima(), axis=None) <= ROW_SUM_TOL:
        raise DegenerateChannelError("all rows equal: there is no finite squeeze to plan")


def lambda_upper_bound(channel: ChannelMatrix) -> float:
    """1 / (1 - sum_j min_i W_ij), the largest provably safe exponent gain;
    DegenerateChannelError when the rows count as equal."""
    _require_distinct_rows(channel)
    return _bounds(0.0, channel.column_minima())[1]


def optimal_r_m2(channel: ChannelMatrix) -> np.ndarray:
    """Exact rate-optimal floor for a binary-input channel, as a new
    writeable array; params built on it keep their own copy.

    With a = min over columns where row 1 exceeds row 2 of
    W_2j / (W_1j - W_2j), and b symmetrically, the floor
    r = (a, b) / (1 + a + b) makes both feasibility inequalities tight.
    Equal rows raise DegenerateChannelError before any shape check, as in
    ``plan``.  Rows that pass that check differ by more than ROW_SUM_TOL in
    some column, and a channel's rows each sum to 1 within a few ulps, so
    another column differs with the opposite sign: both column sets are
    nonempty, since the sign of a float difference is exact, and a, b are
    finite and nonnegative.
    """
    _require_distinct_rows(channel)
    if channel.m != 2:
        raise NotTwoByNError(f"optimal floor formula needs 2 rows, channel has {channel.m}")
    w1, w2 = channel.w
    d = w1 - w2  # d_j > 0 exactly where W_1j > W_2j, and -d is W_2 - W_1 exactly
    up, dn = d > 0.0, d < 0.0
    a = float(np.minimum.reduce(w2[up] / d[up]))
    b = float(np.minimum.reduce(w1[dn] / -d[dn]))
    return np.array([a, b]) / (1.0 + a + b)


def heuristic_r(channel: ChannelMatrix, q) -> np.ndarray:
    """Floor along a reference distribution: r = delta q with the largest
    feasible delta = min_{i,j} W_ij / (qW)_j, as a new writeable array;
    params built on it keep their own copy.

    Any zero channel entry gives delta = 0 (and r = 0).
    """
    qv = _check_vector(getattr(q, "probs", q), channel.m, "q")
    s = qv @ channel.w
    if np.any(s <= 0):
        raise ValidationError("reference distribution gives zero output mass")
    # dividing column j by s_j > 0 keeps its order, so its minimum stays in place
    delta = float((channel.column_minima() / s).min())
    return delta * qv


def plan(channel: ChannelMatrix, strategy: str = "heuristic", *, q=None) -> SqueezePlan:
    """Choose the floor r for the requested strategy and build its params.

    The offset and the gain are ``params_from_r_lambda(channel, r)``'s, at
    the largest gain; the builder raises when the floor is infeasible.
    "none" is the zero squeeze, ``SqueezeParams(channel, 0.0, 0.0)``.
    Only "heuristic" reads the reference distribution ``q``; any other
    strategy refuses one rather than drop it.  The strategy's name is
    matched exactly, so "Heuristic" or None is refused with ValidationError.
    """
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if q is not None and strategy != "heuristic":
        raise ValidationError(f"strategy {strategy!r} takes no q; only 'heuristic' reads it")
    if strategy == "none":
        return SqueezePlan(SqueezeParams(channel, 0.0, 0.0), strategy)
    if strategy != "optimal-m2":  # optimal_r_m2 refuses equal rows itself
        _require_distinct_rows(channel)

    if strategy == "lambda-only":
        r = 0.0
    elif strategy == "optimal-m2":
        r = optimal_r_m2(channel)
    else:
        r = heuristic_r(channel, uniform(channel.m) if q is None else q)

    params = params_from_r_lambda(channel, r)
    if params.lam <= 1.0 + CONSTRAINT_TOL:
        _warn("channel not squeezable: rows have no overlap, so the "
              "plan reduces to the plain iteration")
    return SqueezePlan(params, strategy)
