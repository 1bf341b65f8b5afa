"""The solvers' float bracket against Gallager's bracket evaluated in
decimal at the returned point (``helpers.decimal_bracket``), on seeded
channels with more than two inputs, where no closed form or golden-section
reference exists and every method shares ``_iterate``'s arithmetic."""

from decimal import Decimal

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import GOLDEN_CAPACITY, block_channel, decimal_bracket, golden_channel, random_channel

#: the stated distance between the float and the decimal bracket; the
#: corpus below reaches 1.3e-15
TOL = Decimal("1e-14")


def corpus():
    rng = np.random.default_rng(17)
    return ([("random 8x32", random_channel(rng, 8, 32)) for _ in range(3)]
            + [("random 32x8", random_channel(rng, 32, 8)) for _ in range(3)]
            + [("block 16x64", block_channel(rng, 16)) for _ in range(3)])


CORPUS = corpus()


def test_decimal_bracket_closes_on_the_golden_optimum():
    # (1/2, 1/2) is the optimum of the exact golden channel; the validated
    # channel's rows are its entries rounded and renormalized in floats,
    # which opens the bracket by about 6e-17
    lower, upper = decimal_bracket(golden_channel(), [0.5, 0.5])
    assert lower <= upper
    for end in (lower, upper):
        assert abs(end - Decimal(GOLDEN_CAPACITY)) < Decimal("1e-16")


@pytest.mark.parametrize("method", ["aba", "alg1", "auto"])
def test_float_bracket_matches_the_decimal_one(method):
    for name, channel in CORPUS:
        res = sa.solve(channel, method)
        lower, upper = decimal_bracket(channel, res.p_hat.probs)
        got_lower, got_upper = Decimal(res.capacity_lower), Decimal(res.capacity_upper)
        assert abs(got_lower - lower) <= TOL, (name, method, got_lower - lower)
        assert abs(got_upper - upper) <= TOL, (name, method, got_upper - upper)
        # a certificate: the float bracket meets the exact one on both sides
        assert got_lower <= upper and got_upper >= lower, (name, method)
