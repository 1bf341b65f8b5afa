"""Shared test utilities: reference channels, samplers, and independent oracles."""

from __future__ import annotations

import numpy as np

import squeeze_aba as sa

# The 2x3 reference channel used across golden tests.  Its optimal input is
# (1/2, 1/2) by symmetry and its capacity equals D(row1 || (0.4, 0.2, 0.4)).
GOLDEN = [[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]

# Frozen constants from a 40-digit arbitrary-precision evaluation (mpmath),
# done independently of the package code.
ENTROPY_721 = 0.80181855254333730856          # H(0.7, 0.2, 0.1) in nats
GOLDEN_CAPACITY = 0.25310161544280681851      # D((.7,.2,.1) || (.4,.2,.4)) nats
ABA_STEP_P1_FROM_THIRD = 0.4045235693393851882  # one plain update from (1/3, 2/3)

GOLDEN_WTILDE = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
GOLDEN_R_OPT = np.array([0.125, 0.125])
GOLDEN_F_OPT = np.array([0.0, 0.25, 0.0])
GOLDEN_G_OPT = np.array([1 / 6, 1 / 3, 1 / 6])
GOLDEN_LAMBDA = 5 / 3


def golden_channel() -> sa.ChannelMatrix:
    return sa.validate_channel(GOLDEN)


def random_channel(rng: np.random.Generator, m: int, n: int) -> sa.ChannelMatrix:
    u = rng.random((m, n))
    return sa.validate_channel(u / u.sum(axis=1, keepdims=True))


def random_floor(rng: np.random.Generator, channel: sa.ChannelMatrix,
                 scale: float | None = None) -> np.ndarray:
    """A feasible floor: a random fraction of the heuristic cap along a
    random direction."""
    q = rng.dirichlet(np.ones(channel.m))
    if scale is None:
        scale = rng.uniform(0.0, 1.0)
    return sa.heuristic_r(channel, q) * scale


def random_offset(rng: np.random.Generator, channel: sa.ChannelMatrix,
                  r: np.ndarray, scale: float | None = None) -> np.ndarray:
    """A feasible offset at floor r: a random fraction of the rate-optimal
    offset (scaled versions remain feasible)."""
    base = sa.build_squeeze_params(channel, r, np.zeros(channel.n))
    col_min = base.w_star.min(axis=0)
    total = col_min.sum()
    if total <= 0:
        return np.zeros(channel.n)
    if scale is None:
        scale = rng.uniform(0.0, 1.0)
    return scale * col_min / (1.0 - total)


def solve_tight(channel: sa.ChannelMatrix, gap: float = 1e-13,
                max_iters: int = 100_000) -> sa.SolveResult:
    """Drive the fastest planned method to a tiny gap (for fixed points)."""
    chosen = sa.plan(channel, "optimal-m2" if channel.m == 2 else "heuristic")
    return sa.solve(channel, "alg3", params=chosen.build(channel),
                    config=sa.SolverConfig(epsilon=gap, max_iters=max_iters,
                                           record_trace=False))


def draw_interior_channel(rng: np.random.Generator, m_choices=(2, 3, 4),
                          n_lo: int = 3, n_hi: int = 10, margin: float = 1e-3,
                          max_tries: int = 200):
    """A random channel whose optimal input is interior with some margin.

    The optimizer's support can never exceed the output alphabet, so m is
    paired with n >= m; channels whose optimum still touches the boundary
    are redrawn.  Returns (channel, p_hat distribution).
    """
    for _ in range(max_tries):
        m = int(rng.choice(m_choices))
        n = int(rng.integers(max(m, n_lo), n_hi + 1))
        channel = random_channel(rng, m, n)
        result = solve_tight(channel)
        if result.converged and result.p_hat.is_interior(margin):
            return channel, result.p_hat
    raise AssertionError("could not draw an interior-optimum channel")


def bisect_waterfill_delta(r: np.ndarray, x: np.ndarray, iters: int = 200) -> float:
    """Independent oracle: binary search for delta on the monotone filling sum."""
    lo, hi = 0.0, 2.0 / x.sum()
    while np.maximum(r, hi * x).sum() < 1.0:
        hi *= 2.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if np.maximum(r, mid * x).sum() < 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def alg3_posterior_step(params: sa.SqueezeParams, p) -> np.ndarray:
    """Independent oracle: one step of Algorithm 3 in its literal posterior form,

        p'_i = max(r_i, alpha exp(c_i + sum_j W~_ij ln Phi_ji)),
        Phi_ji = p_i W~_ij / (f_j + (p W~)_j),

    with zero-weight terms contributing 0 and alpha found by bisection."""
    p = np.asarray(p, dtype=float)
    wt = params.w_tilde
    denom = params.f + p @ wt
    pos = wt > 0
    log_wt = np.log(np.where(pos, wt, 1.0))
    log_denom = np.log(np.where(denom > 0, denom, 1.0))
    contrib = wt * (np.log(p)[:, None] + log_wt - log_denom[None, :])
    logits = params.c + np.where(pos, contrib, 0.0).sum(axis=1)
    x = np.exp(logits - logits.max())
    return np.maximum(params.r, bisect_waterfill_delta(params.r, x) * x)


def log_domain_step(channel: sa.ChannelMatrix, lam: float, r, p) -> np.ndarray:
    """Independent oracle: one update in the log-domain form

        x_i = exp(ln p_i + lam z_i - max_k (ln p_k + lam z_k)),

    normalised by its sum when ``r`` is None and waterfilled onto Omega(r) by
    bisection otherwise, with z_i = D(W_i || qW) from its definition (0 ln 0 = 0)
    at q = max((p - r)/(1 - r_+), 0)."""
    p = np.asarray(p, dtype=float)
    w = channel.w
    q = p if r is None else np.maximum((p - r) / (1.0 - r.sum()), 0.0)
    s = q @ w
    pos = w > 0
    z = np.where(pos, w * np.log(np.where(pos, w, 1.0) / s), 0.0).sum(axis=1)
    logits = np.log(p) + lam * z
    x = np.exp(logits - logits.max())
    if r is None:
        return x / x.sum()
    return np.maximum(r, bisect_waterfill_delta(r, x) * x)


def heavy_overlap_channel(rng: np.random.Generator, spread: float = 0.012) -> sa.ChannelMatrix:
    """(1 - s) b + s N on 3x8, N's rows on disjoint thirds of the outputs: rows
    that nearly coincide, with an optimum a fixed distance from the uniform
    start, so plain iteration needs tens of thousands of steps."""
    b = 0.9 + 0.2 * rng.random(8)
    noise = np.zeros((3, 8))
    for i, part in enumerate(np.array_split(np.arange(8), 3)):
        noise[i, part] = 0.9 + 0.2 * rng.random(len(part))
    return sa.validate_channel((1.0 - spread) * b / b.sum()
                               + spread * noise / noise.sum(axis=1, keepdims=True))


def golden_section_capacity(channel: sa.ChannelMatrix, tol: float = 1e-14):
    """Independent oracle for binary-input capacity: golden-section search
    of the mutual information over p_1."""
    assert channel.m == 2
    phi = (np.sqrt(5.0) - 1.0) / 2.0

    def mi(p1: float) -> float:
        return sa.mutual_information(channel, np.array([p1, 1.0 - p1]))

    a, b = 1e-9, 1.0 - 1e-9
    c, d = b - phi * (b - a), a + phi * (b - a)
    while b - a > tol:
        if mi(c) > mi(d):
            b = d
        else:
            a = c
        c, d = b - phi * (b - a), a + phi * (b - a)
    p1 = (a + b) / 2.0
    return p1, mi(p1)
