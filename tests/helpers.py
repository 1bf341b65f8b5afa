"""Shared test utilities: reference channels, samplers, and independent oracles."""

from __future__ import annotations

import warnings

import numpy as np

import squeeze_aba as sa
from squeeze_aba.squeeze import CONSTRAINT_TOL

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


def rate_at(channel: sa.ChannelMatrix, r, f, p_hat) -> sa.RateReport:
    """matrix_rate at (r, f), at the fixed point on Omega(r) that maps to p_hat."""
    params = sa.build_squeeze_params(channel, r, f)
    return sa.matrix_rate(params, sa.fixed_point_on_floor(params, p_hat))


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
        if result.converged and result.p_hat.probs.min() > margin:
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


def reference_waterfill(r, x) -> sa.WaterfillResult:
    """Independent oracle: ``waterfill`` as it was before its weights were
    checked through their sum, with every input reduction taken in full."""
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    if r.shape != x.shape or r.ndim != 1 or r.size == 0:
        raise sa.DimensionMismatchError(f"r and x must be equal-length vectors, got {r.shape} and {x.shape}")
    if not r.min() >= 0.0:  # also rejects NaN
        raise sa.InfeasibleFloorError(f"floors must be nonnegative (min {r.min():.3e})")
    if r.sum() >= 1.0:
        raise sa.InfeasibleFloorError(f"floor mass {r.sum():.15g} leaves no room to normalize")
    if not (x.min() > 0.0 and x.max() < np.inf):  # min > 0 also rejects NaN
        raise sa.NonpositiveWeightError("weights must be finite and strictly positive")

    # no floor binds at plain normalization: that is the answer
    delta = 1.0 / x.sum()
    if delta == 0.0:  # finite weights, so the sum overflowed
        raise sa.NonpositiveWeightError("weights overflow the float range when summed; scale them down")
    p = delta * x
    if not (r > p).any():
        return sa.WaterfillResult(float(delta), r >= p, p)

    order = np.argsort(r / x, kind="stable")
    rs = r[order]
    xs = x[order]
    x_prefix = np.cumsum(xs)
    r_suffix = np.concatenate([np.cumsum(rs[::-1])[::-1], [0.0]])
    feas = (rs / xs) * x_prefix + r_suffix[1:] <= 1.0
    k = int(np.nonzero(feas)[0][-1])
    head = float(xs[: k + 1].sum())
    tail = float(rs[k + 1:].sum())
    delta = (1.0 - tail) / head

    p = np.maximum(r, delta * x)
    return sa.WaterfillResult(float(delta), r >= delta * x, p)


def _reference_check_vector(v, length: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        v = np.full(length, float(v))
    if v.shape != (length,):
        raise sa.DimensionMismatchError(f"{name} must have length {length}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise sa.ValidationError(f"{name} must be finite")
    if np.any(v < 0):
        raise sa.NegativeEntryError(f"{name} must be nonnegative (min {v.min():.3e})")
    return v


def _reference_violation(error, msg: str, force: bool) -> None:
    if not force:
        raise error(msg)
    warnings.warn(msg, RuntimeWarning, stacklevel=3)


def _reference_worst_entry(w: np.ndarray, col_worst: np.ndarray) -> tuple[int, int]:
    cols = np.flatnonzero(col_worst == col_worst.min())
    rows = w[:, cols].argmin(axis=0)
    return int(rows.min()), int(cols[np.argmin(rows)])


def _reference_lambda_bounds(channel: sa.ChannelMatrix, r) -> tuple[float, float]:
    r = _reference_check_vector(r, channel.m, "r")
    r_plus = float(r.sum())
    if r_plus >= 1.0:
        raise sa.InfeasibleFloorError(f"floor mass r_+ = {r_plus:.15g} must be < 1")
    overlap = float(channel.column_minima().sum())
    hi = float("inf") if overlap >= 1.0 else 1.0 / (1.0 - overlap)
    return 1.0 / (1.0 - r_plus), hi


def reference_build_squeeze_params(channel: sa.ChannelMatrix, r, f, *,
                                   force: bool = False) -> sa.SqueezeParams:
    """Independent oracle: ``build_squeeze_params`` as it was before parameter
    resolution became a single pass, with every input check taken in full."""
    w = channel.w
    r = _reference_check_vector(r, channel.m, "r")
    f = _reference_check_vector(f, channel.n, "f")
    r_plus = float(r.sum())
    f_plus = float(f.sum())
    if r_plus >= 1.0:
        raise sa.InfeasibleFloorError(f"floor mass r_+ = {r_plus:.15g} must be < 1")

    feasible = True
    rw = r @ w
    room = channel.column_minima() - rw
    if room.min() < -CONSTRAINT_TOL:
        i, j = _reference_worst_entry(w, room)
        _reference_violation(sa.FloorConstraintError,
                             f"floor constraint violated: W[{i},{j}] = {w[i, j]:.15g} is below "
                             f"the floor mixture (rW)[{j}] = {rw[j]:.15g} by {-room[j]:.3e}", force)
        feasible = False

    tilde_min = (1.0 + f_plus) * (np.maximum(room, 0.0) / (1.0 - r_plus)) - f
    if tilde_min.min() < -CONSTRAINT_TOL:
        i, j = _reference_worst_entry(w, tilde_min)
        _reference_violation(sa.SqueezeConstraintError,
                             f"offset constraint violated: squeezed entry ({i},{j}) = "
                             f"{tilde_min[j]:.3e} is negative; reduce f or r", force)
        feasible = False
    return sa.SqueezeParams(channel, r, f, feasible)


def reference_params_from_r_lambda(channel: sa.ChannelMatrix, r, lam, *,
                                   force: bool = False) -> sa.SqueezeParams:
    """Independent oracle: ``params_from_r_lambda`` as it was before parameter
    resolution became a single pass: it checked r three times, took the
    column minima three times and formed rW twice.  ``lam=None`` takes the
    default in a separate first pass, as ``solve`` then did."""
    if lam is None:
        lo, hi = _reference_lambda_bounds(channel, r)
        lam = hi if np.isfinite(hi) else lo
    r = _reference_check_vector(r, channel.m, "r")
    lam = float(lam)
    lo, hi = _reference_lambda_bounds(channel, r)
    if not (lo - CONSTRAINT_TOL <= lam <= hi + CONSTRAINT_TOL):
        _reference_violation(sa.LambdaRangeError, f"lambda = {lam:.15g} outside feasible "
                             f"interval [{lo:.15g}, {hi:.15g}]", force)
    r_plus = float(r.sum())
    mult = max(lam * (1.0 - r_plus) - 1.0, 0.0)
    if mult == 0.0:
        f = np.zeros(channel.n)
    else:
        col_min = np.maximum(channel.column_minima() - r @ channel.w, 0.0) / (1.0 - r_plus)
        total = col_min.sum()
        if total <= 0.0:
            raise sa.LambdaRangeError("channel has no squeezing room (zero column-minima mass) "
                                      f"but lambda = {lam:.15g} exceeds {1.0 / (1.0 - r_plus):.15g}")
        f = mult * col_min / total
    return reference_build_squeeze_params(channel, r, f, force=force)


def entropy_offsets(params: sa.SqueezeParams) -> np.ndarray:
    """Row entropy offsets c_i = H(W~_i) - lambda H(W_i) of the paper's
    squeezed objective."""
    return sa.row_entropies(params.w_tilde) - params.lam * sa.row_entropies(params.channel.w)


def generalized_objective(v, f, c, p) -> float:
    """Independent oracle: the shifted capacity objective
    H(pV + f) + sum_i p_i (c_i - H(V_i)) - H(f); with f = 0 and c = 0 it is
    the mutual information."""
    w = np.asarray(getattr(v, "w", v), dtype=float)
    f = np.asarray(f, dtype=float)
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    return float(sa.entropy(p @ w + f) + p @ (np.asarray(c) - sa.row_entropies(w))
                 - sa.entropy(f))


def generalized_objective_kl_form(v, f, c, p) -> float:
    """Independent oracle: the divergence form of ``generalized_objective``,
    sum_i p_i (D(V_i || f + pV) + c_i) + D(f || f + pV)."""
    w = np.asarray(getattr(v, "w", v), dtype=float)
    f = np.asarray(f, dtype=float)
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    mix = f + p @ w
    total = sa.kl_divergence(f, mix)
    for i in range(w.shape[0]):
        if p[i] != 0:
            total += p[i] * (sa.kl_divergence(w[i], mix) + c[i])
    return float(total)


def posterior_jacobian(params: sa.SqueezeParams, p) -> np.ndarray:
    """Independent oracle: the Jacobian in the paper's posterior form,

        R(p) = I - W~ Psi(p),    Psi_ji = Phi_ji + p_i Phi_j0,
        Phi_ji = p_i W~_ij / (f_j + (pW~)_j),    Phi_j0 = f_j / (f_j + (pW~)_j)."""
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    wt = params.w_tilde
    denom = params.f + p @ wt
    safe = np.where(denom > 0, denom, 1.0)
    phi = (wt * p[:, None]).T / safe[:, None]
    phi0 = np.where(denom > 0, params.f / safe, 0.0)
    return np.eye(params.m) - wt @ (phi + np.outer(phi0, p))


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
    logits = entropy_offsets(params) + np.where(pos, contrib, 0.0).sum(axis=1)
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
