"""The bracket is a certificate on channels whose rows nearly coincide.

Every column of these binary-input channels spans at most 1e-9, so the
squeeze planners refuse them as having all rows equal.  Their capacities
are not 0, though: a zero entry in one row only gives one of order s.  The
plain loop must still bracket each capacity, which a 50-digit decimal
golden-section search gives independently.
"""

import numpy as np
import pytest

import squeeze_aba as sa
from helpers import decimal_capacity

#: rounding allowance on the loop's float bracket, in nats
BRACKET_TOL = 1e-15


def near_equal_channels():
    """24 seeded (1 - s) b + s N channels on 2 x n, with s log-uniform in
    [1e-12, 1e-9] and every third one sparse, then a channel whose rows
    differ only by 9e-10 in and around a zero entry."""
    rng = np.random.default_rng(28)
    for k in range(24):
        n = int(rng.integers(2, 9))
        s = 10.0 ** rng.uniform(-12.0, -9.0)
        b, noise = rng.random(n), rng.random((2, n))
        if k % 3 == 2:  # zeros in b, each filled by the noise of one row only
            zero = rng.permutation(n) < rng.integers(1, n)  # 1 to n - 1 of them
            b[zero] = 0.0
            noise[rng.integers(2, size=n)[zero], np.nonzero(zero)[0]] = 0.0
        yield sa.validate_channel((1.0 - s) * b / b.sum()
                                  + s * noise / noise.sum(axis=1, keepdims=True))
    yield sa.validate_channel([[0.0, 1.0], [9e-10, 1.0 - 9e-10]])


CORPUS = list(near_equal_channels())


def test_the_corpus_is_near_equal_and_sparse_in_part():
    assert len(CORPUS) == 25
    assert sum(bool((ch.w == 0).any()) for ch in CORPUS) == 9
    for ch in CORPUS:
        assert np.ptp(ch.w, axis=0).max() <= 1e-9
        with pytest.raises(sa.DegenerateChannelError, match="all rows equal"):
            sa.lambda_upper_bound(ch)


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_aba_brackets_the_decimal_capacity(k):
    ch = CORPUS[k]
    res = sa.solve(ch, "aba")
    assert res.converged
    reference = float(decimal_capacity(ch))
    assert res.capacity_lower - BRACKET_TOL <= reference <= res.capacity_upper + BRACKET_TOL, \
        (res.capacity_lower, reference, res.capacity_upper)
