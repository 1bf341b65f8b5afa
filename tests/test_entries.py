"""Every door that takes a nonnegative array judges its entries with one
rule, ``channel._check_entries``, and every door that takes a floor judges
its mass with one rule, ``channel._floor_mass``: each fault below is
refused with one class at every door, under every warnings filter, in a
message that names the door's own argument."""

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import GOLDEN, golden_channel, under_every_filter

CHANNEL = golden_channel()

# door -> (call on the entries, the argument's name, valid entries, whether they are a floor)
DOORS = {
    "validate_channel": (sa.validate_channel, "channel entries", GOLDEN, False),
    "SqueezeParams r": (lambda r: sa.SqueezeParams(CHANNEL, r, 0.0), "r", [0.125, 0.125], True),
    "SqueezeParams f": (lambda f: sa.SqueezeParams(CHANNEL, 0.0, f), "f", [0.0, 0.25, 0.0], False),
    "params_from_r_lambda": (lambda r: sa.params_from_r_lambda(CHANNEL, r), "r", [0.125, 0.125],
                             True),
    "floored_uniform": (sa.floored_uniform, "r", [0.125, 0.125], True),
    "heuristic_r q": (lambda q: sa.heuristic_r(CHANNEL, q), "q", [0.5, 0.5], False),
    "waterfill r": (lambda r: sa.waterfill(r, [1.0, 2.0]), "r", [0.125, 0.125], True),
    "make_distribution": (sa.make_distribution, "probabilities", [0.5, 0.5], False),
}

# fault -> (the first entries it sets, the error class, the message after the argument's name)
ENTRY_FAULTS = {
    "NaN": ([np.nan], sa.ValidationError, "must be finite"),
    "+inf": ([np.inf], sa.ValidationError, "must be finite"),
    "-inf": ([-np.inf], sa.ValidationError, "must be finite"),
    "negative": ([-0.25], sa.NegativeEntryError, "must be nonnegative (min -2.500e-01 at {at})"),
    # finiteness is judged before the sign, so the NaN is named
    "NaN after a negative": ([-0.25, np.nan], sa.ValidationError, "must be finite"),
}

# fault -> (a floor of that mass, the mass the message gives)
MASS_FAULTS = {
    "mass 1": ([0.5, 0.5], "1"),
    "mass 1.2": ([0.6, 0.6], "1.2"),
    "mass overflows": ([1e308, 1e308], "inf"),
}


def with_fault(entries, first):
    """``entries`` with its leading entries, in row-major order, set to ``first``."""
    a = np.array(entries, dtype=float)
    a.flat[:len(first)] = first
    return a


@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("fault", ENTRY_FAULTS)
def test_every_door_judges_entries_by_one_rule(door, fault):
    call, name, valid, _ = DOORS[door]
    call(valid)  # the valid entries pass
    first, error, message = ENTRY_FAULTS[fault]
    bad = with_fault(valid, first)
    at = "(0, 0)" if bad.ndim == 2 else "0"
    for entries in (bad, bad.tolist()):
        assert under_every_filter(lambda: call(entries)) == (
            error, f"{name} {message.format(at=at)}")


@pytest.mark.parametrize("door", [door for door, spec in DOORS.items() if spec[3]])
@pytest.mark.parametrize("fault", MASS_FAULTS)
def test_every_floor_door_judges_mass_by_one_rule(door, fault):
    call = DOORS[door][0]
    floor, mass = MASS_FAULTS[fault]
    for r in (np.array(floor), floor):
        assert under_every_filter(lambda: call(r)) == (
            sa.InfeasibleFloorError, f"floor mass r_+ = {mass} must be < 1")
