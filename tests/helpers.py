"""Shared test utilities: reference channels, samplers, and independent oracles."""

from __future__ import annotations

import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

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


def spy_calls(monkeypatch, name: str) -> list:
    """Record every call of the package function ``name``: it is replaced
    in each package module that holds it, so calls through any import of
    it count.  Returns the list the calls' arguments are appended to."""
    original = getattr(sa.channel, name, None) or getattr(sa.solvers, name)
    calls: list = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "squeeze_aba" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


def under_every_filter(fn):
    """What ``fn()`` returns, or the (class, message) of the package error it
    raises, asserted the same with warnings as errors and under the default
    filter, where no warning may be recorded: a documented outcome that does
    not hang on the warnings filter."""
    outcomes = []
    for action in ("error", "default"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            try:
                outcomes.append(fn())
            except sa.SqueezeAbaError as exc:
                outcomes.append((type(exc), str(exc)))
        assert not caught, (action, [str(w.message) for w in caught])
    assert outcomes[0] == outcomes[1], outcomes
    return outcomes[0]


def solve_tight(channel: sa.ChannelMatrix, gap: float = 1e-13,
                max_iters: int = 100_000) -> sa.SolveResult:
    """Drive the fastest planned method to a tiny gap (for fixed points)."""
    chosen = sa.plan(channel, "optimal-m2" if channel.m == 2 else "heuristic")
    return sa.solve(channel, "alg3", params=chosen.params,
                    config=sa.SolverConfig(epsilon=gap, max_iters=max_iters,
                                           record_trace=False))


#: Newton rounds of polish_fixed_point before it returns its best point
POLISH_ROUNDS = 50


def polish_fixed_point(params: sa.SqueezeParams, p, *, tol: float = 1e-14) -> np.ndarray:
    """Test oracle: Newton-refine a near-fixed point of the iteration map to ~machine precision.

    Solves M(p) - p = 0 with the analytic Jacobian; one-step displacement
    ends below ``tol`` (or as small as the map's own roundoff allows).
    Needed because plain iteration stalls when the contraction factor is
    close to 1: the solver then cannot push the fixed-point error far
    below gap/(1 - rate) on its own.
    """
    p = np.asarray(getattr(p, "probs", p), dtype=float).copy()
    eye = np.eye(params.channel.m)
    best, best_disp = p.copy(), np.inf
    for _ in range(POLISH_ROUNDS):
        g = sa.alg3_step(params, p).probs - p
        disp = float(np.abs(g).max())
        if disp < best_disp:
            best, best_disp = p.copy(), disp
        if disp <= tol:
            return p
        R = sa.iteration_jacobian(params, p)
        try:
            delta = np.linalg.solve((eye - R).T, g)
        except np.linalg.LinAlgError:
            break
        delta = delta - delta.mean()
        step = 1.0
        while step > 1e-4:
            cand = p + step * delta
            if np.all(cand > params.r):
                p = cand / cand.sum()
                break
            step /= 2.0
        else:
            p = sa.alg3_step(params, p).probs
    return best


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
    checked through their sum, with every input reduction taken in full.
    Its floor is judged as every floor is: finite, then nonnegative, then
    of mass below 1."""
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    if r.shape != x.shape or r.ndim != 1 or r.size == 0:
        raise sa.DimensionMismatchError(f"r and x must be equal-length vectors, got {r.shape} and {x.shape}")
    r = _reference_check_vector(r, r.size, "r")
    if r.sum() >= 1.0:
        raise sa.InfeasibleFloorError(f"floor mass r_+ = {r.sum():.15g} must be < 1")
    if not (x.min() > 0.0 and x.max() < np.inf):  # min > 0 also rejects NaN
        raise sa.NonpositiveWeightError("weights must be finite and strictly positive")

    # no floor binds at plain normalization: that is the answer.  Finite weights
    # whose sum overflows are refused below under every warnings filter
    with np.errstate(over="ignore"):
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
        raise sa.NegativeEntryError(
            f"{name} must be nonnegative (min {v.min():.3e} at {v.argmin()})")
    return v


def _reference_worst_entry(w: np.ndarray, col_worst: np.ndarray) -> tuple[int, int]:
    cols = np.flatnonzero(col_worst == col_worst.min())
    rows = w[:, cols].argmin(axis=0)
    return int(rows.min()), int(cols[np.argmin(rows)])


def reference_lambda_bounds(channel: sa.ChannelMatrix, r) -> tuple[float, float]:
    """Independent oracle: the feasible interval of the exponent gain at floor r,
    [1/(1 - r_+), 1/(1 - sum_j min_i W_ij)]; the upper end is infinite when
    all rows are equal."""
    r = _reference_check_vector(r, channel.m, "r")
    r_plus = float(r.sum())
    if r_plus >= 1.0:
        raise sa.InfeasibleFloorError(f"floor mass r_+ = {r_plus:.15g} must be < 1")
    overlap = float(channel.column_minima().sum())
    hi = float("inf") if overlap >= 1.0 else 1.0 / (1.0 - overlap)
    return 1.0 / (1.0 - r_plus), hi


def reference_build_squeeze_params(channel: sa.ChannelMatrix, r, f) -> sa.SqueezeParams:
    """Independent oracle: ``build_squeeze_params`` as it was before parameter
    resolution became a single pass, with every input check taken in full.
    The params it returns derive their own verdict, which must be its own."""
    w = channel.w
    r = _reference_check_vector(r, channel.m, "r")
    f = _reference_check_vector(f, channel.n, "f")
    r_plus = float(r.sum())
    f_plus = float(f.sum())
    if r_plus >= 1.0:
        raise sa.InfeasibleFloorError(f"floor mass r_+ = {r_plus:.15g} must be < 1")

    rw = r @ w
    room = channel.column_minima() - rw
    if room.min() < -CONSTRAINT_TOL:
        i, j = _reference_worst_entry(w, room)
        raise sa.FloorConstraintError(
            f"floor constraint violated: W[{i},{j}] = {w[i, j]:.15g} is below "
            f"the floor mixture (rW)[{j}] = {rw[j]:.15g} by {-room[j]:.3e}")

    tilde_min = (1.0 + f_plus) * (np.maximum(room, 0.0) / (1.0 - r_plus)) - f
    if tilde_min.min() < -CONSTRAINT_TOL:
        i, j = _reference_worst_entry(w, tilde_min)
        raise sa.SqueezeConstraintError(
            f"offset constraint violated: squeezed entry ({i},{j}) = "
            f"{tilde_min[j]:.3e} is negative; reduce f or r")
    params = sa.SqueezeParams(channel, r, f)
    assert params.feasible
    return params


def reference_params_from_r_lambda(channel: sa.ChannelMatrix, r, lam) -> sa.SqueezeParams:
    """Independent oracle: ``params_from_r_lambda`` as it was before parameter
    resolution became a single pass: it checked r three times, took the
    column minima three times and formed rW twice.  ``lam=None`` takes the
    default in a separate first pass, as ``solve`` then did.  A gain must be
    a real number a float holds, tested after the floor's entries and mass."""
    if lam is None:
        lo, hi = reference_lambda_bounds(channel, r)
        lam = hi if np.isfinite(hi) else lo
    r = _reference_check_vector(r, channel.m, "r")
    lo, hi = reference_lambda_bounds(channel, r)
    if not isinstance(lam, (int, float, Fraction, np.integer, np.floating)):
        raise sa.ValidationError(f"lam must be a real number, got {lam!r}")
    try:
        lam = float(lam)
    except OverflowError:
        raise sa.ValidationError(f"lam must fit a float, got {lam}") from None
    if not (lo - CONSTRAINT_TOL <= lam <= hi + CONSTRAINT_TOL):
        raise sa.LambdaRangeError(f"lambda = {lam:.15g} outside feasible "
                                  f"interval [{lo:.15g}, {hi:.15g}]")
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
    return reference_build_squeeze_params(channel, r, f)


def drawn_offset(channel: sa.ChannelMatrix, r, lam: float) -> np.ndarray:
    """The offset ``params_from_r_lambda`` draws for the gain lam at floor r,
    f = (lam (1 - r_+) - 1) star_min / sum(star_min), with star_min the
    column minima of W*, in the builder's arithmetic.  A gain above its
    interval then gives bitwise the params a builder would have built:
    ``SqueezeParams(channel, r, drawn_offset(channel, r, lam))``."""
    r = np.asarray(r, dtype=float)
    r_plus = float(r.sum())
    star_min = np.maximum(channel.column_minima() - r @ channel.w, 0.0) / (1.0 - r_plus)
    return (lam * (1.0 - r_plus) - 1.0) * star_min / star_min.sum()


def optimal_g(channel: sa.ChannelMatrix) -> np.ndarray:
    """Independent oracle: the rate-optimal combined squeeze
    g_j = min_i W_ij / (1 - sum_k min_i W_ik), whose 1 + g_+ is the largest gain."""
    col_min = channel.column_minima()
    return col_min / (1.0 - col_min.sum())


def offset_from_g(channel: sa.ChannelMatrix, g, r) -> np.ndarray:
    """Independent oracle: the offset f = g - (1 + g_+) rW of the combined
    squeeze g at floor r, with negatives from rounding clamped to zero."""
    g = np.asarray(g, dtype=float)
    f = g - (1.0 + g.sum()) * (np.asarray(r, dtype=float) @ channel.w)
    assert f.min() >= -CONSTRAINT_TOL, f"g is infeasible at this floor (min offset {f.min():.3e})"
    return np.maximum(f, 0.0)


def entropy(q) -> float:
    """Independent oracle: the Shannon entropy -sum q_i ln q_i (nats) of a
    nonnegative weight vector, with 0 ln 0 = 0."""
    q = np.asarray(q, dtype=float)
    pos = q > 0
    return float(-np.sum(q[pos] * np.log(q[pos])))


def row_entropies(w) -> np.ndarray:
    """Independent oracle: the entropy of each row of a nonnegative matrix,
    -sum_j W_ij ln W_ij with 0 ln 0 = 0."""
    w = np.asarray(w, dtype=float)
    return -np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0).sum(axis=1)


def kl_divergence(q, s) -> float:
    """Independent oracle: the relative entropy sum q_i ln(q_i / s_i); +inf
    where q puts mass that s does not."""
    q = np.asarray(q, dtype=float)
    s = np.asarray(s, dtype=float)
    pos = q > 0
    if np.any(s[pos] == 0):
        return float("inf")
    return float(np.sum(q[pos] * np.log(q[pos] / s[pos])))


def mutual_information(channel, p) -> float:
    """Independent oracle: the mutual information sum_i p_i D(W_i || pW) of a
    channel (a ChannelMatrix or a row-stochastic array) at the input p."""
    w = np.asarray(getattr(channel, "w", channel), dtype=float)
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    s = p @ w
    return float(sum(p[i] * kl_divergence(w[i], s) for i in np.flatnonzero(p > 0)))


def reference_divergences(channel: sa.ChannelMatrix, q) -> np.ndarray:
    """Independent oracle: z_i = D(W_i || qW), formed as the solve loop forms
    it, in one product: z = [-W | l] [ln qW; 1] with l_i = sum_j W_ij ln W_ij."""
    a = np.hstack([-channel.w, -row_entropies(channel.w)[:, None]])
    return np.dot(a, np.append(np.log(np.dot(q, channel.w)), 1.0))


def two_step_divergences(channel: sa.ChannelMatrix, q) -> np.ndarray:
    """Independent oracle: z_i = D(W_i || qW) in two steps,
    sum_j W_ij ln W_ij - sum_j W_ij ln (qW)_j: the same terms as
    ``reference_divergences``, summed in another order."""
    return -row_entropies(channel.w) - np.dot(channel.w, np.log(np.dot(q, channel.w)))


def shifted_update(lam: float, r, p, z) -> np.ndarray:
    """Independent oracle: the update from p, given its divergences z, shifted
    by max z whatever the gain: x_i = p_i exp(lambda (z_i - max z)),
    normalised by its sum when ``r`` is None and waterfilled onto Omega(r)
    otherwise."""
    x = np.exp((z - z.max()) * lam) * p
    return x / np.add.reduce(x) if r is None else sa.waterfill(r, x).p


#: the plain unit-gain update shifts only when max z exceeds this
UNSHIFTED_MAX_Z = 700.0


def reference_update(lam: float, r, p, z) -> np.ndarray:
    """Independent oracle: the update as the solve loop makes it.  The plain
    unit-gain update (lam == 1, ``r`` None) takes x_i = p_i exp(z_i)
    unshifted, since z_i <= -ln p_i bounds each x_i by 1, unless
    max z > ``UNSHIFTED_MAX_Z``, where exp(z_i) alone could overflow; every
    other update is ``shifted_update``."""
    if lam == 1.0 and r is None and not z.max() > UNSHIFTED_MAX_Z:
        x = np.exp(z) * p
        return x / np.add.reduce(x)
    return shifted_update(lam, r, p, z)


def reference_solve(channel: sa.ChannelMatrix, lam: float, r=None, *, two_step: bool = False):
    """Independent oracle: ``solve`` with the default config, restated plainly
    with the loop's arithmetic in the loop's order, so that it agrees with
    ``solve`` bit for bit.  ``r`` is None for the plain methods.  With
    ``two_step`` it forms z by ``two_step_divergences`` and updates by
    ``shifted_update`` instead, so it agrees with ``solve`` only to rounding.
    Returns (p_hat, lower bound, upper bound, iterations)."""
    divergences, update = ((two_step_divergences, shifted_update) if two_step
                           else (reference_divergences, reference_update))
    epsilon, max_iters = 1e-8, 1_000_000
    p = q = np.full(channel.m, 1.0 / channel.m)
    if r is not None:
        scale = 1.0 - float(np.add.reduce(r))
        p = scale * q + r
        q = (p - r) / scale
    for t in range(max_iters + 1):
        z = divergences(channel, q)
        lower, upper = float(np.dot(q, z)), float(z.max())
        if upper - lower <= epsilon or t == max_iters:
            break
        p = update(lam, r, p, z)
        q = p if r is None else (p - r) / scale
    return q / np.add.reduce(q), lower, upper, t


def entropy_offsets(params: sa.SqueezeParams) -> np.ndarray:
    """Row entropy offsets c_i = H(W~_i) - lambda H(W_i) of the paper's
    squeezed objective."""
    return row_entropies(params.w_tilde) - params.lam * row_entropies(params.channel.w)


def generalized_objective(v, f, c, p) -> float:
    """Independent oracle: the shifted capacity objective
    H(pV + f) + sum_i p_i (c_i - H(V_i)) - H(f); with f = 0 and c = 0 it is
    the mutual information."""
    w = np.asarray(getattr(v, "w", v), dtype=float)
    f = np.asarray(f, dtype=float)
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    return float(entropy(p @ w + f) + p @ (np.asarray(c) - row_entropies(w)) - entropy(f))


def generalized_objective_kl_form(v, f, c, p) -> float:
    """Independent oracle: the divergence form of ``generalized_objective``,
    sum_i p_i (D(V_i || f + pV) + c_i) + D(f || f + pV)."""
    w = np.asarray(getattr(v, "w", v), dtype=float)
    f = np.asarray(f, dtype=float)
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    mix = f + p @ w
    total = kl_divergence(f, mix)
    for i in range(w.shape[0]):
        if p[i] != 0:
            total += p[i] * (kl_divergence(w[i], mix) + c[i])
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
    return np.eye(params.channel.m) - wt @ (phi + np.outer(phi0, p))


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


def spread_rows(rng: np.random.Generator, spread: float) -> np.ndarray:
    """(1 - s) b + s N on 2x8, N's rows on disjoint halves of the outputs:
    rows that differ by at most s in every column, unvalidated."""
    b, noise = rng.random(8), rng.random((2, 8))
    noise[0, 4:] = noise[1, :4] = 0.0
    return (1.0 - spread) * b / b.sum() + spread * noise / noise.sum(axis=1, keepdims=True)


def block_channel(rng: np.random.Generator, m: int = 64) -> sa.ChannelMatrix:
    """m x 4m (64x256 by default) with an interior optimum: input i owns
    four outputs, plus noise."""
    noise = rng.random((m, 4 * m))
    return sa.validate_channel(0.4 * np.kron(np.eye(m), np.full(4, 0.25))
                               + 0.6 * noise / noise.sum(axis=1, keepdims=True))


def golden_section_capacity(channel: sa.ChannelMatrix, tol: float = 1e-14):
    """Independent oracle for binary-input capacity: golden-section search
    of the mutual information over p_1."""
    assert channel.m == 2
    phi = (np.sqrt(5.0) - 1.0) / 2.0

    def mi(p1: float) -> float:
        return mutual_information(channel, np.array([p1, 1.0 - p1]))

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


def decimal_capacity(channel: sa.ChannelMatrix) -> Decimal:
    """Independent oracle for binary-input capacity in nats, in 50-digit
    decimal arithmetic on the channel's exact float entries: golden-section
    search of the mutual information, which is concave, over p_1 in [0, 1]
    until the interval is shorter than 1e-12.  Returns the larger of the two
    last interior values, which is below the capacity by about the
    curvature times 1e-24."""
    assert channel.m == 2
    with localcontext() as ctx:
        ctx.prec = 50
        rows = [[Decimal(float(x)) for x in row] for row in channel.w]

        def mi(p1: Decimal) -> Decimal:
            total = Decimal(0)
            for a, b in zip(*rows):
                out = p1 * a + (1 - p1) * b
                if a:
                    total += p1 * a * (a / out).ln()
                if b:
                    total += (1 - p1) * b * (b / out).ln()
            return total

        phi = (Decimal(5).sqrt() - 1) / 2
        lo, hi = Decimal(0), Decimal(1)
        c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
        fc, fd = mi(c), mi(d)
        while hi - lo > Decimal("1e-12"):
            if fc > fd:
                hi, d, fd = d, c, fc
                c = hi - phi * (hi - lo)
                fc = mi(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + phi * (hi - lo)
                fd = mi(d)
        return max(fc, fd)


def decimal_bracket(w, p, digits: int = 40) -> tuple[Decimal, Decimal]:
    """Independent oracle for any shape: Gallager's bracket
    [I(p_bar), max_i D(W_i || p_bar W)] in nats at p_bar = p / sum p, in
    ``digits``-digit decimal arithmetic on the exact float entries of the
    channel ``w`` (a ChannelMatrix or a matrix) and of p.  The capacity lies
    in it for every p.  0 ln 0 = 0, and a row with mass on an output that
    p_bar W gives none makes the upper end infinite."""
    w = getattr(w, "w", w)
    with localcontext() as ctx:
        ctx.prec = digits
        rows = [[Decimal(float(x)) for x in row] for row in w]
        q = [Decimal(float(x)) for x in p]
        total = sum(q)
        q = [x / total for x in q]
        out = [sum(qi * row[j] for qi, row in zip(q, rows)) for j in range(len(rows[0]))]
        div = []
        for row in rows:
            if any(x and not s for x, s in zip(row, out)):
                div.append(Decimal("Infinity"))
            else:
                div.append(sum(x * (x / s).ln() for x, s in zip(row, out) if x))
        return sum(qi * d for qi, d in zip(q, div) if qi), max(div)
