"""Automatic selection of squeeze parameters.

The combined squeeze vector g ties the floor and the offset together:

    g = (1 + f_+)/(1 - r_+) * rW + f,        f = g - (1 + g_+) rW,

and 1 + g_+ equals the exponent gain lambda.  The best g never depends on
the floor: take g_j = min_i W_ij / (1 - sum_k min_i W_ik), which drives
lambda to its upper bound.  The floor r is then chosen by strategy:

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

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, uniform
from .errors import (
    DegenerateChannelError,
    NoStrictColumnError,
    NotTwoByNError,
    SqueezeConstraintError,
    ValidationError,
)
from .squeeze import CONSTRAINT_TOL, SqueezeParams, _check_vector, build_squeeze_params

STRATEGIES = ("none", "lambda-only", "optimal-m2", "heuristic")


@dataclass(frozen=True)
class SqueezePlan:
    """A chosen (r, g, f, lambda) bundle plus the strategy that produced it."""

    r: np.ndarray
    g: np.ndarray
    f: np.ndarray
    lam: float
    strategy: str

    def build(self, channel: ChannelMatrix) -> SqueezeParams:
        """Materialize and validate the plan against its channel."""
        return build_squeeze_params(channel, self.r, self.f)

    def to_dict(self) -> dict:
        return {
            "r": self.r.tolist(),
            "g": self.g.tolist(),
            "f": self.f.tolist(),
            "lambda": self.lam,
            "strategy": self.strategy,
        }


def lambda_upper_bound(channel: ChannelMatrix) -> float:
    """1 / (1 - sum_j min_i W_ij), the largest provably safe exponent gain."""
    if channel.all_rows_equal:
        raise DegenerateChannelError("all rows equal: the exponent-gain bound is infinite")
    return 1.0 / (1.0 - float(np.add.reduce(channel.column_minima())))


def optimal_g(channel: ChannelMatrix) -> np.ndarray:
    """Rate-optimal combined squeeze g_j = min_i W_ij / (1 - sum_k min_i W_ik)."""
    if channel.all_rows_equal:
        raise DegenerateChannelError("all rows equal: no finite optimal squeeze")
    col_min = channel.column_minima()
    return col_min / (1.0 - np.add.reduce(col_min))


def optimal_r_m2(channel: ChannelMatrix) -> np.ndarray:
    """Exact rate-optimal floor for a binary-input channel.

    With a = min over columns where row 1 exceeds row 2 of
    W_2j / (W_1j - W_2j), and b symmetrically, the floor
    r = (a, b) / (1 + a + b) makes both feasibility inequalities tight.
    """
    if channel.m != 2:
        raise NotTwoByNError(f"optimal floor formula needs 2 rows, channel has {channel.m}")
    if channel.all_rows_equal:
        raise DegenerateChannelError("rows are equal: floor is unconstrained and useless")
    w1, w2 = channel.w
    d = w1 - w2  # d_j > 0 exactly where W_1j > W_2j, and -d is W_2 - W_1 exactly
    up, dn = d > 0.0, d < 0.0
    # For distinct stochastic rows both sets are nonempty (the rows must
    # cross); an empty set can only come from inconsistent rounding.
    if not (np.count_nonzero(up) and np.count_nonzero(dn)):
        raise NoStrictColumnError("one row dominates the other elementwise; "
                                  "rows cannot both sum to 1")
    a = float(np.minimum.reduce(w2[up] / d[up]))
    b = float(np.minimum.reduce(w1[dn] / -d[dn]))
    return np.array([a, b]) / (1.0 + a + b)


def heuristic_r(channel: ChannelMatrix, q) -> np.ndarray:
    """Floor along a reference distribution: r = delta q with the largest
    feasible delta = min_{i,j} W_ij / (qW)_j.

    Any zero channel entry forces delta = 0 (and r = 0).
    """
    qv = _check_vector(getattr(q, "probs", q), channel.m, "q")
    s = qv @ channel.w
    if np.any(s <= 0):
        raise ValidationError("reference distribution gives zero output mass")
    delta = float((channel.w / s[None, :]).min())
    return delta * qv


def offset_from_g(channel: ChannelMatrix, g, r) -> np.ndarray:
    """Recover the output offset f = g - (1 + g_+) rW for a combined squeeze g.

    Components that come out negative by rounding (tiny, from the tight
    optimal choices) are clamped to zero; material negativity raises.
    """
    g = _check_vector(g, channel.n, "g")
    r = _check_vector(r, channel.m, "r")
    f = g - (1.0 + np.add.reduce(g)) * (r @ channel.w)
    f_min = f[f.argmin()]
    if f_min < -CONSTRAINT_TOL:
        raise SqueezeConstraintError(
            f"combined squeeze g is infeasible at this floor (min offset {f_min:.3e})")
    return np.maximum(f, 0.0)


def plan(channel: ChannelMatrix, strategy: str = "heuristic", *, q=None) -> SqueezePlan:
    """Assemble (r, g, f, lambda) for the requested strategy.

    The returned plan always passes ``build_squeeze_params`` validation;
    f comes from ``offset_from_g``, which raises when the floor is
    infeasible for the squeeze.
    """
    strategy = str(strategy).lower()
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    m, n = channel.m, channel.n

    if strategy == "none":
        return SqueezePlan(np.zeros(m), np.zeros(n), np.zeros(n), 1.0, strategy)

    g = optimal_g(channel)
    lam = 1.0 + float(np.add.reduce(g))
    if lam <= 1.0 + CONSTRAINT_TOL:
        warnings.warn("channel not squeezable: rows have no overlap, so the "
                      "plan reduces to the plain iteration", RuntimeWarning, stacklevel=2)

    if strategy == "lambda-only":
        r = np.zeros(m)
    elif strategy == "optimal-m2":
        r = optimal_r_m2(channel)
    else:
        r = heuristic_r(channel, uniform(m) if q is None else q)

    return SqueezePlan(r, g, offset_from_g(channel, g, r), lam, strategy)
