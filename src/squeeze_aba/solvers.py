"""Capacity solvers: plain Arimoto-Blahut and its squeezed accelerations.

All four methods run one loop, ``_iterate``, and its body holds the only
copy of the divergence and update arithmetic.  At iterate p on the
floored simplex Omega(r), let q = (p - r)/(1 - r_+) and

    z_i = D(W_i || qW),

the per-input divergence to the current output mixture.  Then
sum_i q_i z_i is the mutual information at q (a capacity lower bound),
max_i z_i is a capacity upper bound, and the stopping rule is

    max_i z_i - sum_i q_i z_i <= epsilon.

The divergences come from one matrix-vector product,

    z = [-W | l] [ln qW; 1],    l_i = sum_j W_ij ln W_ij,

with the matrix built once per call.  The update reuses the same z and its
maximum:

    x_i = p_i exp(lambda (z_i - max z)),    p'_i = max(r_i, delta x_i)

with delta by waterfilling when the floor r has a positive entry and
p' = x / sum(x) when r = 0.  Every exponent is <= 0, so x cannot overflow,
and sum(x) is at least the mass of the arg-max input.  The plain unit-gain
update (lambda = 1, r = 0) skips the shift: (qW)_j >= q_i W_ij gives
z_i <= -ln q_i, and q = p there, so x_i = p_i exp(z_i) <= 1 and, by
Jensen, sum(x) >= exp(I(q)) >= 1.  It still shifts when max z > 700, where
exp(z_i) alone could overflow; only an iterate with an entry below
e^-700, about 1e-304, can reach that.

A floored solve calls ``waterfill`` on its first update and then only
when a floor binds.  Every later update first tries waterfill's own
no-bind answer, p = x / sum(x), and keeps it when every
q_i = (p_i - r_i)/(1 - r_+) is positive, so that no floor binds or ties;
otherwise it calls ``waterfill`` on x, which decides, and raises on a
zero, NaN or underflowing weight.  The update right after one whose floor
was active goes straight to ``waterfill``: a floor that binds tends to keep
binding, and a refused attempt costs about a tenth of a binding update.
The first update could try the no-bind answer too: the params checked the
floor when they were built, so waterfill's check of r finds nothing new.
It calls ``waterfill`` only because the traced benchmark's ``waterfill``
layer, and the call count pinned on it, are made of exactly these calls;
a revision of that tracing may drop the call.

``_iterate(channel, params, p, ...)`` is the one entry into the loop: it
reads W and the row log-likelihoods off the channel, the gain and the floor
off the params, forms 1 - r_+ and the start's q itself, and runs under its
own errstate.  ``solve`` resolves the params and places its start on
Omega(r); a public step validates its start.

No array is allocated per step but a trace's copy and the result of a
``waterfill`` call: the body writes into buffers the loop allocates once,
with numpy's positional ``out`` and ufuncs bound to locals once per call,
the plain iterate alternates between two of them, and a unit gain skips
its multiply.  The products go through ``ndarray.dot``, the C routine of
``np.dot`` without its Python-level ``__array_function__`` dispatcher, so
a plain step calls no function written in Python.  A public step runs the
same body once, on fresh buffers: one update from its validated start,
without evaluating the new iterate, so a floored step always calls
``waterfill``.
A step resolves its parameters as ``solve`` does, so it iterates with the
same gain and floor.  ``aba``'s parameters are built directly as
(r, f) = (0, 0), bitwise what ``params_from_r_lambda`` returns for r = 0
and lambda = 1, and ``aba_step`` builds none: that map is lambda = 1 with
no floor.

An output letter j with zero mass (qW)_j = 0 leaves the divergences
undefined.  The loop does not test for it: it runs with numpy's divide and
invalid warnings off, so ln 0 = -inf turns every z_i into +inf or NaN, and
the one compare on max z that the bracket needs anyway catches it.  Only
then is the letter located, and the solve raises NumericalBreakdownError.

The method name only chooses the parameters, and the parameters choose
the update: a positive floor selects waterfill, a zero floor the plain
normalisation, so alg2 and alg3 with a zero floor run alg1's update.

    aba    lambda = 1, r = 0
    alg1   gain lambda, r = 0
    alg2   floor r and gain lambda; offset f_+ = lambda (1 - r_+) - 1
    alg3   floor r and offset f; lambda = (1 + f_+)/(1 - r_+)
    auto   alg3 with ``plan``'s params: the "optimal-m2" floor for m = 2,
           the "heuristic" floor otherwise; aba's params, with a logged
           warning, where ``plan`` refuses the channel

alg3 is the paper's (r, f) parametrisation.  Its posterior form, which the
tests keep as an oracle, is the same map: f + pW~ = (1 + f_+) qW and the
rows of a feasible W~ sum to 1, so its logits are ln p_i + lambda z_i plus a
constant.  Under the feasibility constraints the objective ascends
monotonically; the solver checks this per step and treats a violation as
numerical breakdown, or as a warning for params that report
``feasible=False``, which only a direct ``SqueezeParams`` builds: every
builder raises on them.  The output maps back to the plain simplex:
p_hat = (p - r)/(1 - r_+).

The module opens no file: ``io.trace_csv_rows`` and ``io.write_trace_csv``
turn a traced result into CSV.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChannelMatrix,
    Distribution,
    _check_point,
    _integer,
    _real,
    _require_same_channel,
)
from .errors import (
    DimensionMismatchError,
    NonInteriorStartError,
    NumericalBreakdownError,
    ValidationError,
)
from .squeeze import SqueezeParams, build_squeeze_params, params_from_r_lambda
from .squeeze_select import plan
from .waterfill import waterfill

log = logging.getLogger(__package__)

#: per-step slack on the monotone-ascent check
MONOTONE_TOL = 1e-12

#: the smallest normal float; a weight sum at least this large has a finite reciprocal
_TINY = np.finfo(float).tiny

METHODS = ("aba", "alg1", "alg2", "alg3", "auto")


@dataclass(frozen=True)
class SolverConfig:
    """Stopping threshold (nats), iteration cap, optional start, tracing.

    ``epsilon`` must be a positive real number that a Python float can
    hold, and it is stored as one: an int or a Fraction past the float
    range raises ValidationError.  ``float("inf")`` is accepted, as any
    float above 0 is, and stops every solve at its first evaluation.

    ``initial`` always lives on the plain simplex; floored methods start
    from (1 - r_+) * initial + r.  It is validated here, once, since the
    bracket is a certificate only for iterates on the simplex and the
    update cannot move a zero entry off zero.

    The trace is opt-in: with ``record_trace=True`` every iteration stores
    an ``IterationRecord`` holding a copy of p, so memory grows with
    iterations x m.  Without it the result's ``trace`` is empty.  The
    recorded p is the method's own iterate: for a floored method it lies on
    Omega(r), so the last one is (1 - r_+) p_hat + r, not ``p_hat``.
    """

    epsilon: float = 1e-8
    max_iters: int = 1_000_000
    initial: Distribution | None = None
    record_trace: bool = False

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon))
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "max_iters", _integer("max_iters", self.max_iters, 1))
        if self.initial is not None:
            object.__setattr__(self, "initial", Distribution(_check_start(self.initial)))


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One evaluated iterate: the method's own p, on Omega(r) for a floored
    method rather than on the plain simplex of ``p_hat``, with the objective
    I(q) and the gap max z - I(q) at its plain-simplex image q."""

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


# -- the map ---------------------------------------------------------------------


def _iterate(channel: ChannelMatrix, params: SqueezeParams | None, p: np.ndarray,
             eps: float = 0.0, max_iters: int = 0, trace: list | None = None, step: bool = True):
    """The one loop of every method, from the iterate p of the map that
    ``params`` resolve to (aba's when None), and the one place that turns
    (channel, params, p) into the loop's inputs.

    A nonzero floor r selects the waterfill update, a zero one the plain
    normalisation: the method name does not choose the update.  The loop
    starts from p's plain-simplex image q = (p - r)/(1 - r_+), p itself for
    a zero floor.  A public step clamps it at 0, since its start may lie up
    to PROB_SUM_TOL below r; a solve's start, (1 - r_+) q0 + r, never does.

    Each pass writes s = ln qW, z_i = D(W_i || qW) = ([-W | l] [s; 1])_i and
    max z, checks the bracket, and then updates in place:
    x_i = p_i exp(lambda (z_i - max z)), normalised by its sum for a zero
    floor, else waterfilled onto Omega(r).  The plain unit-gain update
    takes x_i = p_i exp(z_i), at most 1 since z_i <= -ln p_i, unless
    max z > 700; a floored update whose lambda rounds to 1 still shifts,
    since q is not p there.
    The floored update calls ``waterfill`` on the first pass, after a pass
    whose floor was active, and when x / sum(x) leaves some q_i <= 0 (a
    binding floor, a tie, or a zero or NaN weight); otherwise it keeps
    x / sum(x), bitwise waterfill's answer, in a loop-owned buffer.
    The defaults are one public step: the first update's iterate is
    returned, in fresh memory, with no bracket check and no evaluation of
    its own.  A solve passes its stopping rule and ``step=False`` and gets
    (q, objective, max z, iterations, gap) at the iterate it stops on.  A
    fall of the objective raises NumericalBreakdownError, or for params
    that report ``feasible=False`` warns at the solve's caller.

    The loop runs under ``np.errstate(divide="ignore", invalid="ignore")``:
    a zero output mass makes ln s_j = -inf, so every row gets z_i = +inf or
    NaN and max z is not finite.  One compare finds that; only then is the
    output letter located, as the -inf in s, for the error."""
    w, row_ll = channel.w, channel._row_loglikes
    lam = 1.0 if params is None else params.lam
    r = params.r if params is not None and params.r_plus else None
    # ndarray.dot is np.dot's C routine without its Python-level dispatcher
    dot, log, exp = np.ndarray.dot, np.log, np.exp
    subtract, multiply, divide, add_reduce = np.subtract, np.multiply, np.divide, np.add.reduce
    inf, tiny, tol = np.inf, _TINY, MONOTONE_TOL
    m, n = w.shape
    # z = [-W | row_ll] [ln qW; 1] in one product; s = ln qW is a view of u
    a, u = np.empty((m, n + 1)), np.empty(n + 1)
    np.negative(w, a[:, :n])
    a[:, n], u[n] = row_ll, 1.0
    s = u[:n]
    # the plain update overwrites z, so z and x swap; the floored one keeps x in
    # z for waterfill and writes p to pf and q to qf; a step needs none of the
    # three.  The 0-d buffer holds max z, then the plain update's sum or the
    # floored one's 1/sum: ufuncs take it unconverted
    z, total = np.empty(m), np.empty(())
    x, pf, qf = (None, None, None) if step else (np.empty(m), np.empty(m), np.empty(m))
    q = p  # the loop never writes to its start
    if r is not None:
        scale = np.array(1.0 - params.r_plus)  # 0-d: ufuncs take it unconverted
        # a solve starts at (1 - r_+) q0 + r >= r exactly: only a step's start needs the clamp
        q = np.maximum((p - r) / scale, 0.0) if step else divide(subtract(p, r, qf), scale, qf)
    gain = None if lam == 1.0 else np.array(lam)  # a unit gain skips its multiply
    # the update shifts by max z when it exceeds this: always, but for the plain
    # unit-gain update, which shifts only where e^{max z} could overflow
    above = -inf if r is not None or gain is not None else 700.0
    prev_objective = -inf
    fill = True  # the next floored update goes straight to waterfill
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(max_iters + 1):
            dot(q, w, s)
            log(s, s)
            dot(a, u, z)
            # argmax finds the first NaN, like max, at a third of its cost
            zmax = float(z[z.argmax()])
            if not zmax < inf:  # +inf or NaN
                j = int(s.argmin())
                if s[j] == -inf:
                    raise NumericalBreakdownError(
                        f"output letter {j} has zero probability under the current iterate; "
                        "the divergence update is undefined there"
                    )
                raise NumericalBreakdownError(
                    "the divergences at the current iterate are not finite")
            if not step:  # a step returns the update unchecked
                objective = float(dot(q, z))
                gap = zmax - objective

                if objective > prev_objective:
                    prev_objective = objective
                elif objective < prev_objective - tol:
                    msg = (f"objective decreased from {prev_objective:.17g} to {objective:.17g} "
                           f"at iteration {t}")
                    if params is not None and not params.feasible:
                        warnings.warn(msg, RuntimeWarning, stacklevel=3)
                    else:
                        raise NumericalBreakdownError(msg + "; monotone ascent lost")

                if trace is not None:
                    trace.append(IterationRecord(t, p.copy(), objective, gap))

                if gap <= eps or t == max_iters:
                    break

            # shifted, every exponent is <= 0, so nothing overflows, and the sum
            # is at least the arg-max input's mass; unshifted, (qW)_j >= q_i W_ij
            # gives z_i <= -ln q_i, so p_i e^{z_i} <= 1, and by Jensen the sum
            # is >= e^{I(q)} >= 1
            if zmax > above:
                total[()] = zmax
                subtract(z, total, z)
            if gain is not None:
                multiply(z, gain, z)
            exp(z, z)
            multiply(z, p, z)
            if r is None:
                divide(z, add_reduce(z, None, None, total), z)
                p, z, x = z, x, z
            else:
                # waterfill's no-bind answer, in its arithmetic: delta = 1/sum, p = delta x
                if not fill:
                    x_sum = add_reduce(z)
                    if x_sum >= tiny:  # else 1/sum could overflow, or divide by zero
                        total[()] = 1.0 / x_sum
                        p = multiply(z, total, pf)
                        divide(subtract(p, r, qf), scale, qf)
                        if qf[qf.argmin()] > 0.0:  # every p_i > r_i; argmin finds a NaN
                            q = qf
                            continue
                # the first update, a floor active on the last one, or the answer
                # refused: the module global, which checks r, decides, and is what
                # the traced benchmark shims
                filled = waterfill(r, z)
                p, fill = filled.p, np.count_nonzero(filled.active_floor)
            if step:
                return p
            # the plain update keeps p positive, and every floored iterate a solve
            # evaluates has p >= r exactly (its start adds r to a nonnegative
            # vector, the update keeps p_i > r_i or waterfill returns
            # max(r, delta x)), so q needs no clamp
            q = p if r is None else divide(subtract(p, r, qf), scale, qf)
    return q, objective, zmax, t, gap


def _check_start(p, r: np.ndarray | None = None, m: int | None = None) -> np.ndarray:
    """``channel._check_point`` of p as "start", of length m and dominating
    the floor r when given, then the one test only a start needs: every
    component strictly positive (NonInteriorStartError), since the update
    cannot move a zero entry off zero."""
    p = _check_point(p, "start", m, r)
    if not p[p.argmin()] > 0.0:
        raise NonInteriorStartError("start must have all components strictly positive")
    return p


# -- single steps (public, validated) --------------------------------------------


def _step(channel: ChannelMatrix, p, params: SqueezeParams | None = None) -> Distribution:
    """One update from p of the map that ``params`` resolve to; without them,
    of aba's, which ``_resolve_params`` resolves to r = 0, f = 0 and lambda = 1."""
    p = _check_start(p, params.r if params is not None and params.r_plus else None, channel.m)
    return Distribution(_iterate(channel, params, p))


def aba_step(channel: ChannelMatrix, p) -> Distribution:
    """One plain Arimoto-Blahut update from an interior point of the simplex."""
    return _step(channel, p)  # aba resolves to lambda = 1 with no floor: nothing to build


def alg1_step(channel: ChannelMatrix, lam: float, p) -> Distribution:
    """One exponent-gain update p'_i proportional to p_i exp(lambda z_i).

    The gain is ``params_from_r_lambda(channel, 0, lam).lam``, the one
    ``solve(channel, "alg1", lam=lam)`` iterates with.  ``lam`` must lie in
    the feasible interval for the channel, or LambdaRangeError is raised.
    A gain above it steps only through ``alg2_step`` with a directly built
    ``SqueezeParams``, whose convergence is not guaranteed.

    The params are built again on every call.  A caller stepping at one
    gain gets the same bits from ``alg2_step(channel, params, p)`` with
    ``params = params_from_r_lambda(channel, 0.0, lam)`` built once: the
    zero floor takes the same unfloored update.
    """
    return _step(channel, p, _resolve_params(channel, "alg1", lam, None, None, None))


def alg2_step(channel: ChannelMatrix, params: SqueezeParams, p) -> Distribution:
    """One floored update on Omega(r) with waterfilling normalization.

    Raises ValidationError when ``params`` were built for another channel.
    """
    return _step(channel, p, _resolve_params(channel, "alg2", None, None, None, params))


def alg3_step(params: SqueezeParams, p) -> Distribution:
    """One update in squeezed coordinates: the alg2 map of ``params.channel``,
    since lambda = (1 + f_+)/(1 - r_+)."""
    return _step(params.channel, p, params)


# -- parameter resolution ---------------------------------------------------------


def _resolve_params(channel: ChannelMatrix, method: str, lam, r, f,
                    params: SqueezeParams | None) -> SqueezeParams:
    """aba is alg1 with lambda = 1, alg1 is alg2 with r = 0, and alg2 is alg3
    with the offset that ``params_from_r_lambda`` picks.  aba's params are
    built directly as ``SqueezeParams(channel, 0.0, 0.0)``: r = 0, f = 0 and
    lambda = 1 pass every check, and ``params_from_r_lambda(channel, 0.0,
    1.0)`` returns bitwise the same.

    auto is the one method that chooses its own parameters, and this is the
    one place that chooses them: ``plan``'s "optimal-m2" floor for m = 2
    and its "heuristic" floor otherwise.  Where ``plan`` refuses the
    channel with a ValidationError (rows that count as equal, or a squeeze
    that breaks a column constraint), auto logs the reason as a warning on
    the ``squeeze_aba`` logger and takes aba's params, so it never fails
    where aba succeeds.  Like aba, it takes no lam, r or f."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")
    if params is not None:
        if method not in ("alg2", "alg3"):
            raise ValidationError(f"method {method!r} does not accept prebuilt params")
        if lam is not None or r is not None or f is not None:
            raise ValidationError("prebuilt params fix r, f and lambda: pass no lam, r or f")
        _require_same_channel(params.channel, channel, "params were built")
        return params
    if method in ("aba", "auto"):
        if lam is not None or r is not None or f is not None:
            raise ValidationError(f"method {method!r} takes no squeeze parameters")
        if method == "auto":
            try:
                return plan(channel, "optimal-m2" if channel.m == 2 else "heuristic").params
            except ValidationError as exc:
                log.warning("method 'auto' runs the plain iteration: %s", exc)
        return SqueezeParams(channel, 0.0, 0.0)
    if method == "alg1":
        if r is not None or f is not None:
            raise ValidationError("method 'alg1' takes only lambda")
        r = 0.0
    if r is None:
        raise ValidationError(f"method {method!r} requires the floor vector r")
    if f is not None:
        if method == "alg2":
            raise ValidationError("method 'alg2' takes (r, lambda); use 'alg3' for (r, f)")
        if lam is not None:
            raise ValidationError("method 'alg3' takes f or lambda, not both: "
                                  "lambda = (1 + f_+)/(1 - r_+)")
        return build_squeeze_params(channel, r, f)
    if lam is None and method == "alg3":
        raise ValidationError("method 'alg3' requires the offset vector f (or lambda)")
    return params_from_r_lambda(channel, r, lam)


# -- the solver -------------------------------------------------------------------


def solve(channel: ChannelMatrix, method: str = "aba", *, lam=None, r=None, f=None,
          params: SqueezeParams | None = None, config: SolverConfig | None = None) -> SolveResult:
    """Iterate the chosen method until the capacity gap drops below epsilon.

    method: "aba" | "alg1" (needs lambda, defaults to its upper bound) |
    "alg2" (needs r; lambda defaults to its upper bound) | "alg3" (needs
    r and f, or r and lambda but not both, or prebuilt ``params``, which
    must have been built for this channel and come with no lam, r or f;
    alg2 takes them too) | "auto" (plans its own params, and runs aba's,
    with a logged warning, where the plan is refused; takes no lam, r, f
    or params).  The name is matched exactly: "ALG2" or None is refused
    with ValidationError.  On a channel whose rows are exactly equal the
    upper bound is infinite, so lambda defaults to its lower bound.  Every
    channel, one with equal rows too, goes through the loop, so the bracket
    returned is always one the loop evaluated; equal rows give z = 0 and
    stop at iteration 0.

    Every builder raises on an infeasible floor or offset and on a gain
    outside its interval, under every warnings filter.  Infeasible
    ``params``, which only a direct ``SqueezeParams`` builds, still run:
    the loop then warns, at the caller, where the objective falls.

    Returns a SolveResult whose ``converged`` flag is False if the
    iteration cap was reached first (not an exception).
    """
    config = config or SolverConfig()
    sp = _resolve_params(channel, method, lam, r, f, params)
    m = channel.m
    # the uniform start's entries are one float, so its (1 - r_+) q0 is one product
    q0 = 1.0 / m if config.initial is None else config.initial.probs
    if config.initial is not None and q0.shape != (m,):  # SolverConfig validated the rest
        raise DimensionMismatchError(f"start must have length {m}, got shape {q0.shape}")
    trace = [] if config.record_trace else None
    # the start on Omega(r), which is q0's bits when r = 0
    q, objective, zmax, t, gap = _iterate(
        channel, sp, (1.0 - sp.r_plus) * q0 + sp.r, config.epsilon, config.max_iters, trace, False)

    # the loop ends on an iterate whose q and z it has just evaluated
    return SolveResult(Distribution(q / np.add.reduce(q)), objective, objective, zmax, t,
                       gap <= config.epsilon, method, sp, () if trace is None else tuple(trace))
