"""Floored-simplex normalization by waterfilling.

Given floors r >= 0 with total mass below 1 and positive weights x, find
the unique delta > 0 such that

    sum_i max(r_i, delta * x_i) = 1.

The resulting vector p_i = max(r_i, delta * x_i) is the renormalization of
x onto the floored simplex.  Procedure: first try delta = 1/sum(x); if
no floor exceeds delta * x_i, none binds and that is the answer, in O(m).
Otherwise sort indices by r_i / x_i ascending; below the pivot the
weights scale, above it the floors bind.  O(m log m) from the sort.

The floor r is judged by the package's own rules, before the weights:
``channel._check_entries`` refuses a NaN or infinite floor
(ValidationError) and a negative one (NegativeEntryError), and
``channel._floor_mass`` a mass of 1 or more (InfeasibleFloorError), as
every other door that takes a floor does.  The weights keep their own
rule, strictly positive, since a weight that is not is the loop's
breakdown signal.  Each weight reduction is one cheap numpy call: the
weights are checked at their smallest (argmin finds a NaN, like min) and
through their sum, and the strict test r_i > delta x_i runs only when
the mask r_i >= delta x_i, which the result returns anyway, has a
nonzero count.  The weight sum goes through ``channel._total``, the
package's one overflow policy: finite weights whose sum overflows raise
NonpositiveWeightError under every warnings filter.  The sort path runs
with numpy's overflow warning off, since a key r_i / x_i or a product
that overflows only marks a floor that binds.

delta is scale-invariant in x up to the obvious factor: waterfill(r, c*x)
returns delta/c with the same p.  Callers that build x from exponentials
should shift exponents by their maximum first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _check_entries, _floor_mass, _total
from .errors import DimensionMismatchError, NonpositiveWeightError


@dataclass(frozen=True, eq=False)
class WaterfillResult:
    """delta, the floor-active mask, and the normalized vector p, set read-only in place."""

    delta: float
    active_floor: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.p.setflags(write=False)
        self.active_floor.setflags(write=False)


def waterfill(r, x) -> WaterfillResult:
    """Solve sum_i max(r_i, delta x_i) = 1 for delta > 0.

    ``r`` must be finite and nonnegative with sum < 1; ``x`` strictly
    positive with a finite sum.
    Ties in the sort key r_i / x_i are broken by original index, which
    does not change p but keeps the scan deterministic.
    """
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    if r.shape != x.shape or r.ndim != 1 or r.size == 0:
        raise DimensionMismatchError(f"r and x must be equal-length vectors, got {r.shape} and {x.shape}")
    _floor_mass(_check_entries(r, "r"))
    # argmin finds a NaN, like min; past it every weight is positive, so _total applies
    total = float(_total(x)) if x[x.argmin()] > 0.0 else np.nan
    if not total < np.inf:  # a weight <= 0, NaN or inf, or a sum past the float range
        if total != np.inf or x[x.argmax()] == np.inf:
            raise NonpositiveWeightError("weights must be finite and strictly positive")
        raise NonpositiveWeightError("weights overflow the float range when summed; scale them down")

    # no floor binds at plain normalization: that is the answer.  A Python float
    # divides without numpy's warning; delta inf means the sum underflowed
    delta = 1.0 / total
    if delta == np.inf:
        raise NonpositiveWeightError("weights underflow the float range when summed; scale them up")
    p = delta * x
    active = r >= p
    # a tie r_i == delta x_i is active but does not bind
    if not (np.count_nonzero(active) and (r > p).any()):
        return WaterfillResult(delta, active, p)

    # a key r_i / x_i or a product below that overflows to inf marks a floor
    # that binds, which is how the comparisons read it
    with np.errstate(over="ignore"):
        key = r / x
        order = np.argsort(key, kind="stable")
        rs, xs = r[order], x[order]

        # prefix sums of x and suffix sums of r in sorted order; the pivot is
        # the largest k with (r_k / x_k) * sum_{j<=k} x_j + sum_{j>k} r_j <= 1
        x_prefix = np.cumsum(xs)
        r_suffix = np.concatenate([np.cumsum(rs[::-1])[::-1], [0.0]])
        feas = key[order] * x_prefix + r_suffix[1:] <= 1.0
        k = int(np.nonzero(feas)[0][-1])  # feas[0] always holds: r_+ < 1

        # recompute the two sums at the pivot with fresh pairwise summation;
        # cumsum error at large m could otherwise leak into delta
        head = float(np.add.reduce(xs[: k + 1]))
        tail = float(np.add.reduce(rs[k + 1:]))
        delta = (1.0 - tail) / head

        return WaterfillResult(delta, r >= delta * x, np.maximum(r, delta * x))
