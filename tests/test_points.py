"""Every door that takes a probability vector checks it once, with one
checker, and names its own argument: each bad point below is refused by
each door with the class its defect maps to, under every warnings filter."""

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import GOLDEN_LAMBDA, GOLDEN_R_OPT, golden_channel, under_every_filter

GOLDEN = golden_channel()
FLOORED = sa.params_from_r_lambda(GOLDEN, GOLDEN_R_OPT, GOLDEN_LAMBDA)
UNFLOORED = sa.params_from_r_lambda(GOLDEN, 0.0, 1.2)

# door -> (call on a point, the argument's name, the length it knows or None,
#          the floor it checks or None, whether the point is a start)
DOORS = {
    "make_distribution": (lambda p: sa.make_distribution(p), "probabilities", None, None, False),
    "SolverConfig": (lambda p: sa.SolverConfig(initial=p), "start", None, None, True),
    "aba_step": (lambda p: sa.aba_step(GOLDEN, p), "start", 2, None, True),
    "alg1_step": (lambda p: sa.alg1_step(GOLDEN, 1.2, p), "start", 2, None, True),
    "alg2_step": (lambda p: sa.alg2_step(GOLDEN, FLOORED, p), "start", 2, GOLDEN_R_OPT, True),
    "alg3_step": (lambda p: sa.alg3_step(FLOORED, p), "start", 2, GOLDEN_R_OPT, True),
    "alg2_step, zero floor": (lambda p: sa.alg2_step(GOLDEN, UNFLOORED, p), "start", 2, None, True),
    "alg3_step, zero floor": (lambda p: sa.alg3_step(UNFLOORED, p), "start", 2, None, True),
    "fixed_point_on_floor": (lambda p: sa.fixed_point_on_floor(FLOORED, p), "p_hat", 2, None,
                             False),
    "matrix_rate": (lambda p: sa.matrix_rate(FLOORED, p), "p_star", 2, None, False),
}

BOUNDARY = "the local rate formula does not apply at boundary fixed points"


def expected(door: str, defect: str):
    """(class, message) with which ``door`` refuses the point of ``defect``,
    or None where the point is not bad for that door."""
    _, name, m, floor, start = DOORS[door]
    if defect == "wrong length":
        if m is None:
            return None  # a door that knows no length takes any nonempty vector
        return sa.DimensionMismatchError, f"{name} must have length 2, got shape (3,)"
    if defect == "2-d":
        if m is None:
            return sa.DimensionMismatchError, f"{name} must be a nonempty vector, got shape (1, 2)"
        return sa.DimensionMismatchError, f"{name} must have length 2, got shape (1, 2)"
    if defect in ("NaN", "inf", "NaN beside the floor"):
        return sa.ValidationError, f"{name} must be finite"
    if defect == "negative":
        return sa.NegativeEntryError, f"{name} must be nonnegative (min -2.500e-01 at 0)"
    if defect == "sum 1.1":
        return sa.DimensionMismatchError, f"{name} must sum to 1 +/- 1e-12, got 1.1"
    if defect == "sum overflows":
        return sa.DimensionMismatchError, f"{name} must sum to 1 +/- 1e-12, got inf"
    below = (sa.NegativeEntryError, f"{name} must dominate the floor: component 0 is "
             f"{POINTS[defect][0]:.15g}, below its floor 0.125")
    if defect == "below the floor":
        if floor is not None:
            return below
        # p* clears its floor by a margin, a stricter test than domination
        if door == "matrix_rate":
            return (sa.BoundaryFixedPointError,
                    f"component 0 of p* is within 1e-09 of its floor; {BOUNDARY}")
        return None
    assert defect == "zero entry"
    if floor is not None:
        return below  # a zero below a positive floor is first a point below its floor
    if start:
        return sa.NonInteriorStartError, "start must have all components strictly positive"
    if door == "matrix_rate":
        return (sa.BoundaryFixedPointError,
                f"component 0 of p* is within 1e-09 of its floor; {BOUNDARY}")
    return None


POINTS = {
    "wrong length": [0.2, 0.3, 0.5],
    "2-d": [[0.5, 0.5]],
    "NaN": [np.nan, 0.5],
    # finiteness comes before the sum, the floor and matrix_rate's interior
    # test, so the NaN is named, not the component beside it on its floor
    "NaN beside the floor": [np.nan, 0.125],
    "inf": [np.inf, 0.5],
    "negative": [-0.25, 1.25],
    "sum 1.1": [0.4, 0.7],
    "sum overflows": [1e308, 1e308],
    "below the floor": [0.1, 0.9],
    "zero entry": [0.0, 1.0],
}


@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("defect", POINTS)
def test_every_door_refuses_a_bad_point_under_its_own_name(door, defect):
    call = DOORS[door][0]
    want = expected(door, defect)
    if want is None:
        call(POINTS[defect])  # not a bad point for this door
        return
    for p in (POINTS[defect], np.array(POINTS[defect])):
        assert under_every_filter(lambda: call(p)) == want


def test_solve_checks_the_length_of_its_start():
    # the config checked the rest of the start; only solve knows the channel's m
    config = sa.SolverConfig(initial=POINTS["wrong length"])
    assert under_every_filter(lambda: sa.solve(GOLDEN, "aba", config=config)) == (
        sa.DimensionMismatchError, "start must have length 2, got shape (3,)")

