"""Values derived once at construction: a channel's column minima and row
log-likelihoods, and a params' masses and gain.  Each must equal, bitwise,
the expression its readers used to evaluate on every call."""

import numpy as np
import pytest

import squeeze_aba as sa
from squeeze_aba.channel import ROW_SUM_TOL
from helpers import row_entropies


def seeded_channels():
    """Channels of m = 2..9 inputs and n = 2..40 outputs in three kinds:
    dense, with zero entries, and with rows within about ROW_SUM_TOL of
    each other (some inside the all-rows-equal span, some just outside)."""
    rng = np.random.default_rng(20261019)
    for k in range(240):
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 41))
        kind = k % 3
        if kind == 2:
            u = rng.random(n) + 0.1 + rng.uniform(0.0, 2e-9) * n * rng.random((m, n))
        else:
            u = rng.random((m, n))
        if kind == 1:
            u[rng.random((m, n)) < 0.3] = 0.0
            u[rng.integers(m), u.sum(axis=0) == 0] = 1.0
            u[u.sum(axis=1) == 0, rng.integers(n)] = 1.0
        yield sa.validate_channel(u / u.sum(axis=1, keepdims=True))


CHANNELS = list(seeded_channels())


def planners_refuse(ch) -> bool:
    """Whether ``lambda_upper_bound`` refuses ch as having all rows equal."""
    try:
        sa.lambda_upper_bound(ch)
    except sa.DegenerateChannelError as exc:
        assert "all rows equal" in str(exc)
        return True
    return False


def test_the_channels_cover_both_flags_and_zero_entries():
    assert {planners_refuse(ch) for ch in CHANNELS} == {True, False}
    assert any((ch.w == 0).any() for ch in CHANNELS)
    assert {ch.m for ch in CHANNELS} == set(range(2, 10))
    assert min(ch.n for ch in CHANNELS) == 2 and max(ch.n for ch in CHANNELS) == 40


def test_channel_derivations_match_the_per_call_forms():
    for ch in CHANNELS:
        assert ch._row_loglikes.tobytes() == (-row_entropies(ch.w)).tobytes()
        assert ch.column_minima().tobytes() == ch.w.min(axis=0).tobytes()
        assert planners_refuse(ch) == bool(np.ptp(ch.w, axis=0).max() <= ROW_SUM_TOL)


def test_channel_derivations_are_read_only():
    ch = CHANNELS[0]
    for a in (ch.column_minima(), ch._row_loglikes):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_heuristic_delta_matches_the_full_matrix_form():
    rng = np.random.default_rng(7)
    for ch in CHANNELS:
        for q in (np.full(ch.m, 1.0 / ch.m), rng.dirichlet(np.ones(ch.m))):
            delta = float((ch.w / (q @ ch.w)[None, :]).min())
            assert sa.heuristic_r(ch, q).tobytes() == (delta * q).tobytes()


def test_params_masses_and_gain_match_the_reductions():
    rng = np.random.default_rng(11)
    for ch in CHANNELS:
        r = rng.dirichlet(np.ones(ch.m)) * rng.uniform(0.0, 0.9)
        f = rng.random(ch.n) * (rng.random(ch.n) < 0.7)
        sp = sa.SqueezeParams(ch, r, f)
        expected = (float(np.add.reduce(sp.r)), float(np.add.reduce(sp.f)))
        assert (sp.r_plus, sp.f_plus) == expected
        assert sp.lam == (1.0 + expected[1]) / (1.0 - expected[0])


def test_directly_built_params_refuse_a_full_floor():
    for ch in CHANNELS[:20]:
        for r in (np.full(ch.m, 1.0 / ch.m) * 1.5, np.eye(ch.m)[0]):
            with pytest.raises(sa.InfeasibleFloorError):
                sa.SqueezeParams(ch, r, np.zeros(ch.n))
