"""Capacity solvers: plain Arimoto-Blahut and its squeezed accelerations.

All four methods run one loop and one update kernel.  At iterate p on
the floored simplex Omega(r), let q = (p - r)/(1 - r_+) and

    z_i = D(W_i || qW),

the per-input divergence to the current output mixture.  Then
sum_i q_i z_i is the mutual information at q (a capacity lower bound),
max_i z_i is a capacity upper bound, and the stopping rule is

    max_i z_i - sum_i q_i z_i <= epsilon.

The update reuses the same z and its maximum:

    x_i = p_i exp(lambda (z_i - max z)),    p'_i = max(r_i, delta x_i)

with delta by waterfilling for the floored methods (alg2, alg3) and
p' = x / sum(x) for the plain ones (aba, alg1, where r = 0).  Every
exponent is <= 0, so x cannot overflow, and sum(x) is at least the mass of
the arg-max input.

An output letter j with zero mass (qW)_j = 0 leaves the divergences
undefined.  The loop does not test for it: it runs with numpy's divide and
invalid warnings off, so ln 0 = -inf turns every z_i into +inf or NaN, and
the one compare on max z that the bracket needs anyway catches it.  Only
then is the letter located, and the solve raises NumericalBreakdownError
naming it.

The method name only chooses the parameters:

    aba    lambda = 1, r = 0
    alg1   gain lambda, r = 0
    alg2   floor r and gain lambda; offset f_+ = lambda (1 - r_+) - 1
    alg3   floor r and offset f; lambda = (1 + f_+)/(1 - r_+)

alg3 is the (r, f) parametrisation of the paper, whose posterior form
p'_i = max(r_i, alpha exp(c_i + sum_j W~_ij ln Phi_ji)) with
Phi_ji = p_i W~_ij / (f_j + (p W~)_j) is the same map: f + pW~ = (1 + f_+) qW
and the rows of a feasible W~ sum to 1, so its logits are ln p_i + lambda z_i
plus a constant that normalisation removes.  The test suite keeps the
posterior form as an independent oracle.  Under the feasibility
constraints the objective ascends monotonically; the solver verifies this
per step and treats a violation as numerical breakdown (a warning instead
under ``force=True``).

The final output is mapped back to the plain simplex:
p_hat = (p - r)/(1 - r_+).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    PROB_SUM_TOL,
    ChannelMatrix,
    Distribution,
    _integer,
    make_distribution,
    uniform,
)
from .errors import (
    DimensionMismatchError,
    NonInteriorStartError,
    NumericalBreakdownError,
    ValidationError,
)
from .infotheory import row_entropies
from .squeeze import (
    SqueezeParams,
    _bounds,
    _check_lambda,
    build_squeeze_params,
    params_from_r_lambda,
)
from .waterfill import waterfill

#: per-step slack on the monotone-ascent check
MONOTONE_TOL = 1e-12

METHODS = ("aba", "alg1", "alg2", "alg3")


@dataclass(frozen=True)
class SolverConfig:
    """Stopping threshold (nats), iteration cap, optional start, tracing.

    ``initial`` always lives on the plain simplex; floored methods start
    from (1 - r_+) * initial + r.  It is validated here, since the bracket
    is a certificate only for iterates on the simplex.

    The trace is opt-in: with ``record_trace=True`` every iteration stores
    an ``IterationRecord`` holding a copy of p, so memory grows with
    iterations x m.  Without it the result's ``trace`` is empty.
    """

    epsilon: float = 1e-8
    max_iters: int = 1_000_000
    initial: Distribution | None = None
    record_trace: bool = False

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "max_iters", _integer("max_iters", self.max_iters, 1))
        if self.initial is not None:
            start = make_distribution(getattr(self.initial, "probs", self.initial))
            object.__setattr__(self, "initial", start)


@dataclass(frozen=True)
class IterationRecord:
    iter: int
    p: np.ndarray
    objective: float
    gap: float


@dataclass(frozen=True)
class SolveResult:
    """Converged input distribution and capacity bracket.

    ``capacity`` equals ``capacity_lower``, the mutual information actually
    achieved by ``p_hat``; ``capacity_upper - capacity_lower <= epsilon``
    when converged.
    """

    p_hat: Distribution
    capacity: float
    capacity_lower: float
    capacity_upper: float
    iterations: int
    converged: bool
    method: str
    params: SqueezeParams
    trace: tuple[IterationRecord, ...] = field(default=(), repr=False)


# -- shared kernels -------------------------------------------------------------


def _divergences(w: np.ndarray, row_loglikes: np.ndarray,
                 q: np.ndarray) -> tuple[np.ndarray, float]:
    """(z, max z) with z_i = D(W_i || qW).

    Call under ``np.errstate(divide="ignore", invalid="ignore")``: a zero
    output mass s_j makes ln s_j = -inf, so every row gets z_i = +inf or NaN
    and max z is not finite.  One compare finds that; only then is the
    output letter located, for the error."""
    s = q.dot(w)
    z = row_loglikes - w.dot(np.log(s))
    zmax = z[z.argmax()]  # argmax finds the first NaN, like max, at a third of its cost
    if not zmax < np.inf:  # +inf or NaN
        j = int(np.argmin(s))
        if s[j] <= 0.0:
            raise NumericalBreakdownError(
                f"output letter {j} has zero probability under the current iterate; "
                "the divergence update is undefined there"
            )
        raise NumericalBreakdownError("the divergences at the current iterate are not finite")
    return z, zmax


def _update(p: np.ndarray, z: np.ndarray, zmax: float, lam: float,
            r: np.ndarray | None) -> np.ndarray:
    """The one update kernel: x_i = p_i exp(lambda (z_i - max z)), normalised
    by its sum when r is None and by waterfilling onto Omega(r) otherwise.
    Every exponent is <= 0, so nothing overflows, and the sum is at least the
    mass of the arg-max input.  Works in place on its own buffer, never on the
    caller's p."""
    x = z - zmax
    x *= lam
    np.exp(x, out=x)
    x *= p
    if r is not None:
        return waterfill(r, x).p
    x /= np.add.reduce(x)
    return x


def _check_start(p: np.ndarray, r: np.ndarray | None, m: int) -> np.ndarray:
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    if p.shape != (m,):
        raise DimensionMismatchError(f"start must have length {m}, got shape {p.shape}")
    # False on a NaN too (argmin finds it, like min); the loop's errstate would let it through
    if not 0.0 < p[p.argmin()] <= p[p.argmax()] < np.inf:
        if not np.isfinite(p).all():
            raise ValidationError(f"start must be finite, got {p}")
        raise NonInteriorStartError("start must have all components strictly positive")
    s = np.add.reduce(p)
    if not abs(s - 1.0) <= PROB_SUM_TOL:
        raise DimensionMismatchError(f"start sums to {s:.15g}, not 1 +/- {PROB_SUM_TOL:g}")
    if r is not None and np.any(p < r - 1e-12):
        raise NonInteriorStartError("start must dominate the floor vector elementwise")
    return p


# -- single steps (public, validated) --------------------------------------------


def _step(channel: ChannelMatrix, lam: float, r: np.ndarray | None, p) -> Distribution:
    p = _check_start(p, r, channel.m)
    # the clamp matters here: _check_start lets p fall up to 1e-12 below r
    q = p if r is None else np.maximum((p - r) / (1.0 - float(r.sum())), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        z, zmax = _divergences(channel.w, -row_entropies(channel.w), q)
        x = _update(p, z, zmax, lam, r)
    x.setflags(write=False)  # made here, so the Distribution shares it
    return make_distribution(x, floor=r)


def aba_step(channel: ChannelMatrix, p) -> Distribution:
    """One plain Arimoto-Blahut update from an interior point of the simplex."""
    return _step(channel, 1.0, None, p)  # lambda = 1 is always feasible


def alg1_step(channel: ChannelMatrix, lam: float, p, *, force: bool = False) -> Distribution:
    """One exponent-gain update p'_i proportional to p_i exp(lambda z_i).

    ``lam`` must lie in the feasible interval for the channel; ``force``
    turns a gain above the interval into a warning (convergence is then no
    longer guaranteed).  A gain below 1 is always an error.
    """
    _check_lambda(lam, *_bounds(0.0, channel.column_minima()), force)
    return _step(channel, lam, None, p)


def alg2_step(channel: ChannelMatrix, params: SqueezeParams, p) -> Distribution:
    """One floored update on Omega(r) with waterfilling normalization.

    Raises ValidationError when ``params`` were built for another channel.
    """
    # identity first: the usual caller passes params built on this very channel
    if params.channel is not channel and not np.array_equal(params.channel.w, channel.w):
        raise ValidationError("params were built for a different channel")
    return _step(channel, params.lam, params.r, p)


def alg3_step(params: SqueezeParams, p) -> Distribution:
    """One update in squeezed coordinates: the alg2 map of ``params.channel``,
    since lambda = (1 + f_+)/(1 - r_+)."""
    return _step(params.channel, params.lam, params.r, p)


# -- parameter resolution ---------------------------------------------------------


def _resolve_params(channel: ChannelMatrix, method: str, lam, r, f,
                    params: SqueezeParams | None, force: bool) -> SqueezeParams:
    """aba is alg1 with lambda = 1, alg1 is alg2 with r = 0, and alg2 is alg3
    with the offset that ``params_from_r_lambda`` picks."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")
    if params is not None:
        if method not in ("alg2", "alg3"):
            raise ValidationError(f"method {method!r} does not accept prebuilt params")
        return params
    if method == "aba":
        if lam is not None or r is not None or f is not None:
            raise ValidationError("method 'aba' takes no squeeze parameters")
        lam = 1.0
    if method in ("aba", "alg1"):
        if r is not None or f is not None:
            raise ValidationError("method 'alg1' takes only lambda")
        r = np.zeros(channel.m)
        r.setflags(write=False)  # made here, so SqueezeParams shares it
    if r is None:
        raise ValidationError(f"method {method!r} requires the floor vector r")
    if f is not None:
        if method == "alg2":
            raise ValidationError("method 'alg2' takes (r, lambda); use 'alg3' for (r, f)")
        if lam is not None:
            raise ValidationError("method 'alg3' takes f or lambda, not both: "
                                  "lambda = (1 + f_+)/(1 - r_+)")
        return build_squeeze_params(channel, r, f, force=force)
    if lam is None and method == "alg3":
        raise ValidationError("method 'alg3' requires the offset vector f (or lambda)")
    return params_from_r_lambda(channel, r, lam, force=force)


def _degenerate_result(channel: ChannelMatrix, method: str, params: SqueezeParams,
                       config: SolverConfig) -> SolveResult:
    # all rows equal: capacity is 0 and any input achieves it; report uniform
    p_hat = uniform(channel.m)
    trace = ()
    if config.record_trace:
        trace = (IterationRecord(0, p_hat.probs.copy(), 0.0, 0.0),)
    return SolveResult(p_hat, 0.0, 0.0, 0.0, 0, True, method, params, trace)


# -- the solver -------------------------------------------------------------------


def solve(channel: ChannelMatrix, method: str = "aba", *, lam=None, r=None, f=None,
          params: SqueezeParams | None = None, config: SolverConfig | None = None,
          force: bool = False) -> SolveResult:
    """Iterate the chosen method until the capacity gap drops below epsilon.

    method: "aba" | "alg1" (needs lambda, defaults to its upper bound) |
    "alg2" (needs r; lambda defaults to its upper bound) | "alg3" (needs
    r and f, or r and lambda but not both, or prebuilt ``params``).  On a
    channel whose rows are all equal the upper bound is infinite, so
    lambda defaults to its lower bound; the solve returns capacity 0.

    Returns a SolveResult whose ``converged`` flag is False if the
    iteration cap was reached first (not an exception).
    """
    method = str(method).lower()
    config = config or SolverConfig()
    sp = _resolve_params(channel, method, lam, r, f, params, force)
    if channel.all_rows_equal:
        return _degenerate_result(channel, method, sp, config)
    forced = force or not sp.feasible

    m = channel.m
    rvec = sp.r if method in ("alg2", "alg3") else None
    q0 = np.full(m, 1.0 / m) if config.initial is None else _check_start(config.initial, None, m)
    scale = 1.0 - sp.r_plus if rvec is not None else 1.0
    p = q0 if rvec is None else scale * q0 + rvec  # the loop never writes to p
    lam = sp.lam  # a local: the loop reads it every iteration

    w = channel.w
    row_ll = -row_entropies(w)

    trace: list[IterationRecord] = []
    prev_objective = -np.inf
    converged = False
    iterations = config.max_iters

    # a zero output mass shows up as a non-finite max z (see _divergences)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(config.max_iters + 1):
            # every iterate has p >= r exactly (the start adds r to a
            # nonnegative vector, waterfill returns max(r, delta x)), so q
            # needs no clamp; the plain update keeps p positive
            q = p if rvec is None else (p - rvec) / scale
            z, zmax = _divergences(w, row_ll, q)
            objective = float(q.dot(z))
            gap = zmax - objective

            if objective < prev_objective - MONOTONE_TOL:
                msg = (f"objective decreased from {prev_objective:.17g} to {objective:.17g} "
                       f"at iteration {t}")
                if forced:
                    warnings.warn(msg, RuntimeWarning, stacklevel=2)
                else:
                    raise NumericalBreakdownError(msg + "; monotone ascent lost")
            prev_objective = max(prev_objective, objective)

            if config.record_trace:
                trace.append(IterationRecord(t, p.copy(), objective, float(gap)))

            if gap <= config.epsilon:
                converged = True
                iterations = t
                break
            if t == config.max_iters:
                break

            p = _update(p, z, zmax, lam, rvec)

    # the loop ends on an iterate whose q and z it has just evaluated
    probs = q / np.add.reduce(q)
    probs.setflags(write=False)  # made here, so the Distribution shares it
    p_hat = make_distribution(probs)
    return SolveResult(p_hat, objective, objective, float(zmax), iterations, converged,
                       method, sp, tuple(trace))


def _require_trace(result: SolveResult) -> None:
    if not result.trace:
        raise ValidationError("the result holds no trace; solve with "
                              "SolverConfig(record_trace=True)")


def trace_csv_rows(result: SolveResult):
    """Yield CSV lines for a solve trace: iter, objective, gap, bounds, p.

    Raises ValidationError on a result solved without a trace.
    """
    _require_trace(result)
    m = result.p_hat.m
    header = "iter,objective_nats,gap_nats,lower_nats,upper_nats," + \
        ",".join(f"p_{i + 1}" for i in range(m))
    yield header
    for rec in result.trace:
        cells = [str(rec.iter), f"{rec.objective:.17g}", f"{rec.gap:.17g}",
                 f"{rec.objective:.17g}", f"{rec.objective + rec.gap:.17g}"]
        cells.extend(f"{v:.17g}" for v in rec.p)
        yield ",".join(cells)


def write_trace_csv(result: SolveResult, path) -> None:
    _require_trace(result)  # before the file is created
    with open(path, "w", encoding="utf-8") as fh:
        for line in trace_csv_rows(result):
            fh.write(line + "\n")
