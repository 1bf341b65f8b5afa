"""Seeded channel families, the timed operations run on them, and the output checks.

A workload is a list of strata.  A stratum is a set of channels of one kind
(one size, one spread); every channel of every stratum is solved by each of
the five methods once per pass.  Times are kept per (stratum, method,
channel) and aggregated in ``Tally.cert_s``.

An operation is one certified solve of one channel by one method; on the
rate workload it also includes the rate analysis that ``squeeze-aba rate``
makes.  An operation fails when it raises a ``SqueezeAbaError``, does not
converge, or fails an output check.  A failed squeezed operation is also
charged that channel's ``aba`` time and iteration count, because the plain
solve is the fallback a user has; a fix that removes a failure therefore
never reads as a slowdown.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

METHODS = ("aba", "alg1", "alg2", "alg3", "auto")

#: slack, in nats, on every bracket check
BRACKET_TOL = 1e-12

#: largest allowed |global_rate - global_rate_power|, as in the rate tests
RATE_AGREEMENT_TOL = 1e-6

#: gap the rate workload solves to before analysing, as ``squeeze-aba rate`` does
RATE_GAP = 1e-13

#: alg2 and alg3 are one map in two coordinate systems, so at the default
#: epsilon their iteration counts must be equal.  At RATE_GAP the gap is
#: within a few hundred ulps of the capacity and rounding can move the stop
#: by one iteration either way, so the equality is checked only above this.
EXACT_ITERS_MIN_EPSILON = 1e-10


@dataclass(frozen=True)
class Stratum:
    """Channels of one kind.  ``timed`` strata count toward ``cert_s``."""

    name: str
    channels: tuple
    timed: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple
    rate: bool = False


# -- channel families ----------------------------------------------------------


def block_channel(sa, m: int, n: int, a: float, rng):
    """a * E + (1 - a) * N: input i owns outputs [i n/m, (i+1) n/m) in E; N is dense noise.

    The optimum is interior and the iteration count barely depends on the
    noise draw, so the time per certified solve is set by the size.
    """
    e = np.zeros((m, n))
    k = n // m
    for i in range(m):
        e[i, i * k:(i + 1) * k] = 1.0 / k
    noise = rng.random((m, n))
    return sa.validate_channel(a * e + (1.0 - a) * noise / noise.sum(axis=1, keepdims=True))


def overlap_channel(sa, spread: float, rng):
    """(1 - s) b + s N on 2x8, with N's rows on disjoint halves of the outputs.

    The disjoint supports make the row overlap exactly 1 - s, so the
    exponent-gain bound is 1/s and s alone sets how much squeezing can gain.
    """
    b = rng.random(8)
    noise = rng.random((2, 8))
    noise[0, 4:] = 0.0
    noise[1, :4] = 0.0
    return sa.validate_channel((1.0 - spread) * b / b.sum()
                               + spread * noise / noise.sum(axis=1, keepdims=True))


def long_overlap_channel(sa, rng):
    """(1 - s) b + s N on 3x8 with s = 0.012, N's rows on disjoint thirds of the outputs.

    With near-identical rows the mutual information is, to second order, the
    spread of the points N_i / sqrt(b) under p.  Orthogonal points (disjoint
    supports) of unequal length put the optimum a fixed distance from the
    uniform start, so the start's gap scales like the capacity and ``aba``
    needs about 4.3e4 iterations on every draw; its default trace then holds
    about 19 MB.  A binary-input channel cannot do this: its optimum tends to
    p = 1/2 as the rows merge, and the count jumps with the draw.
    """
    spread = 0.012
    b = 0.9 + 0.2 * rng.random(8)
    noise = np.zeros((3, 8))
    for i, part in enumerate(np.array_split(np.arange(8), 3)):
        noise[i, part] = 0.9 + 0.2 * rng.random(len(part))
    return sa.validate_channel((1.0 - spread) * b / b.sum()
                               + spread * noise / noise.sum(axis=1, keepdims=True))


def near_diagonal_channel(sa, m: int, rng):
    """0.7 I + 0.3 N, square: the optimum is interior, so the rate formula applies."""
    noise = rng.random((m, m))
    return sa.validate_channel(0.7 * np.eye(m) + 0.3 * noise / noise.sum(axis=1, keepdims=True))


def dominated_channel(sa, rng):
    """8x32: six near-diagonal inputs, plus two inputs that mix them.

    A mixture row's divergence lies strictly below the capacity (KL is
    strictly convex in its first argument), so the optimum gives those two
    inputs no mass: it is on the boundary, with a margin that keeps the
    iteration count moderate.  Random 8x32 channels are also boundary
    channels, but some of their inactive inputs sit within a hair of the
    capacity, and one solve to RATE_GAP can then take most of a minute.
    """
    base = block_channel(sa, 6, 32, 0.7, rng).w
    return sa.validate_channel(np.vstack([base, base[:2].mean(axis=0), base[2:5].mean(axis=0)]))


def _stratum(sa, seed: int, index: int, name: str, count: int, make, timed=True) -> Stratum:
    # each stratum draws from its own block of replication streams
    return Stratum(name, tuple(make(sa.replication_rng(seed, 1000 * index + k))
                               for k in range(count)), timed)


# (spread, channels) of the binary-input overlap strata.
# 0.3 and 0.1: aba needs 10^2-10^3 iterations, the squeezed methods a few.
# 1e-6: the uniform start already meets epsilon, so aba takes 0 iterations,
# but the squeezed methods raise SqueezeConstraintError on about 55-95% of
# the channels and alg2/alg3 return brackets that miss the capacity on
# about 10% (a known defect; these operations count as failed).
# 1e-9: validate_channel flags the rows as equal and every squeezed method
# raises DegenerateChannelError.
# 1e-4 is not used: aba takes 0 iterations on some draws and up to 1.7e6
# (40 s) on others, so no run could hold a steady time.
OVERLAP_STRATA = ((0.3, 96), (0.1, 96), (1e-6, 96), (1e-9, 96))
BENCH_REPS = 400


def build(sa, name: str, seed: int) -> Workload:
    """Generate and validate the workload's channels from ``seed``."""
    if name == "block-64x256":
        strata = [_stratum(sa, seed, 0, "64x256", 24,
                           lambda rng: block_channel(sa, 64, 256, 0.4, rng))]
        return Workload(name, tuple(strata))
    if name == "overlap-2x8":
        strata = [_stratum(sa, seed, i, f"s={s:g}", count,
                           lambda rng, s=s: overlap_channel(sa, s, rng))
                  for i, (s, count) in enumerate(OVERLAP_STRATA)]
        strata.append(_stratum(sa, seed, len(strata), "3x8 s=0.012", 2,
                               lambda rng: long_overlap_channel(sa, rng)))
        return Workload(name, tuple(strata))
    if name == "bench-2x8":
        # the seeded study's own channels: replication k of master seed `seed`
        channels = tuple(sa.random_channel(2, 8, sa.replication_rng(seed, k))
                         for k in range(BENCH_REPS))
        return Workload(name, (Stratum("2x8", channels),))
    if name == "rate-square":
        # power_rate's iteration count varies by draw: a channel's rate analysis
        # takes up to 1.7x the median, so a sum over 2 channels spreads by about
        # 13% across seeds and one over 8 by about 6%
        strata = [_stratum(sa, seed, 0, "32x32", 8, lambda rng: near_diagonal_channel(sa, 32, rng)),
                  _stratum(sa, seed, 1, "8x32", 2, lambda rng: dominated_channel(sa, rng),
                           timed=False)]
        return Workload(name, tuple(strata), rate=True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("block-64x256", "overlap-2x8", "bench-2x8", "rate-square")


# -- operations ----------------------------------------------------------------


def certify(sa, channel, method: str, config):
    """One certified solve, parameters built as ``run_benchmark`` and ``--method auto`` do."""
    if method == "aba":
        return sa.solve(channel, "aba", config=config)
    if method == "alg1":
        return sa.solve(channel, "alg1", lam=sa.lambda_upper_bound(channel), config=config)
    if method in ("alg2", "alg3"):
        if channel.m == 2:
            r = sa.optimal_r_m2(channel)
        else:
            r = sa.heuristic_r(channel, sa.uniform(channel.m))
        return sa.solve(channel, method, r=r, lam=sa.lambda_upper_bound(channel), config=config)
    chosen = sa.plan(channel, "optimal-m2" if channel.m == 2 else "heuristic")
    return sa.solve(channel, "alg3", params=chosen.build(channel), config=config)


def analyse_rate(sa, channel, result):
    """The rate reports ``squeeze-aba rate`` makes: the method's, plus the plain one."""
    params = result.params
    reports = [sa.matrix_rate(params, sa.fixed_point_on_floor(params, result.p_hat))]
    if not params.is_plain():
        trivial = sa.build_squeeze_params(channel, np.zeros(channel.m), np.zeros(channel.n))
        reports.append(sa.matrix_rate(trivial, sa.fixed_point_on_floor(trivial, result.p_hat)))
    return reports


# -- independent reference for binary-input channels -----------------------------


def _mutual_information_m2(w: np.ndarray, p1: float) -> float:
    p = np.array([p1, 1.0 - p1])
    s = p @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, w * np.log(w / s), 0.0)
    return float(p @ terms.sum(axis=1))


def capacity_m2(w: np.ndarray) -> float:
    """max over p in [0, 1] of I(p), by golden-section search (I is concave in p)."""
    lo, hi = 0.0, 1.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fa, fb = _mutual_information_m2(w, a), _mutual_information_m2(w, b)
    while hi - lo > 1e-12:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = _mutual_information_m2(w, b)
        else:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = _mutual_information_m2(w, a)
    return max(fa, fb, _mutual_information_m2(w, 0.0), _mutual_information_m2(w, 1.0))


# -- machine-speed calibration ----------------------------------------------------
#
# On a shared host the speed can drift by a third between runs minutes apart
# (seen on a 2-CPU x86_64 virtual machine).  Every pass therefore also times
# a fixed loop that uses numpy and the interpreter the way the solvers do but
# no package code,
# and each pass's times are scaled to a machine on which that loop takes
# CALIBRATION_NOMINAL_S.  No change to the package can move the loop.

#: calibration loop time, in seconds, that the reported times are scaled to
CALIBRATION_NOMINAL_S = 2.5e-3

#: least wall time between two calibration samples during a pass
CALIBRATION_EVERY_S = 0.2

_CALIBRATION_W = np.random.default_rng(20090618).random((16, 64))
_CALIBRATION_W /= _CALIBRATION_W.sum(axis=1, keepdims=True)
_CALIBRATION_LL = (_CALIBRATION_W * np.log(_CALIBRATION_W)).sum(axis=1)


def calibration_loop() -> float:
    """Seconds for 200 plain Arimoto-Blahut steps on a fixed 16x64 channel, numpy only."""
    w, ll = _CALIBRATION_W, _CALIBRATION_LL
    t0 = time.perf_counter()
    p = np.full(16, 1.0 / 16)
    for _ in range(200):
        z = ll - w @ np.log(p @ w)
        x = p * np.exp(z - z.max())
        p = x / x.sum()
    return time.perf_counter() - t0


# -- one pass ---------------------------------------------------------------------


@dataclass
class Outcome:
    """One operation: charged time and iterations, and why it failed (empty if it did not)."""

    seconds: float
    iterations: int
    rate_seconds: float
    result: object
    note: str = ""
    raised: bool = False  # the note names a SqueezeAbaError, not a failed output check


def _check_channel(channel, outcomes: dict, epsilon: float, reference) -> None:
    """Give a failure note to every outcome that did not converge or whose output is wrong."""
    for out in outcomes.values():
        res = out.result
        if out.note or res is None:
            continue
        if not res.converged:
            out.note = "not converged"
        elif not (res.capacity_lower <= res.capacity_upper + BRACKET_TOL
                  and res.capacity_upper - res.capacity_lower <= epsilon):
            out.note = "bracket"
        elif reference is not None and not (
                res.capacity_lower - BRACKET_TOL <= reference <= res.capacity_upper + BRACKET_TOL):
            out.note = "reference outside bracket"
    converged = [o.result for o in outcomes.values() if not o.note and o.result is not None]
    if channel.m > 2 and converged:
        highest_lower = max(r.capacity_lower for r in converged)
        if highest_lower > min(r.capacity_upper for r in converged) + BRACKET_TOL:
            for out in outcomes.values():
                if out.result is not None:
                    out.note = out.note or "brackets disjoint"
    if epsilon < EXACT_ITERS_MIN_EPSILON:
        return
    r2, r3 = outcomes["alg2"].result, outcomes["alg3"].result
    if (r2 is None) != (r3 is None) or (r2 is not None and r2.iterations != r3.iterations):
        outcomes["alg3"].note = outcomes["alg3"].note or "alg3 iterations differ from alg2"


def run_channel(sa, wl: Workload, channel, config, reference, on_op=None) -> dict:
    """Run the five methods on one channel; returns {method: Outcome}."""
    outcomes: dict = {}
    for method in METHODS:
        if on_op is not None:
            on_op(method)
        t0 = time.perf_counter()
        result, rate_s, note, raised = None, 0.0, "", False
        try:
            result = certify(sa, channel, method, config)
            if wl.rate:
                t1 = time.perf_counter()
                try:
                    for rep in analyse_rate(sa, channel, result):
                        if abs(rep.global_rate - rep.global_rate_power) > RATE_AGREEMENT_TOL:
                            note = "global_rate and global_rate_power disagree"
                except sa.SqueezeAbaError as exc:
                    note, raised = type(exc).__name__, True
                rate_s = time.perf_counter() - t1
        except sa.SqueezeAbaError as exc:
            note, raised = type(exc).__name__, True
        outcomes[method] = Outcome(time.perf_counter() - t0,
                                   result.iterations if result is not None else 0,
                                   rate_s, result, note, raised)
    _check_channel(channel, outcomes, config.epsilon, reference)
    base = outcomes["aba"]
    if not base.note:
        for out in outcomes.values():
            if out.note and out is not base:
                out.seconds += base.seconds
                out.iterations += base.iterations
    return outcomes


@dataclass
class Tally:
    """Outcomes accumulated over passes."""

    wl: Workload
    times: dict = field(default_factory=dict)     # (stratum, method, channel) -> [s]
    outcomes: dict = field(default_factory=dict)  # (stratum, method, channel) -> (iterations, note)
    pass_seconds: list = field(default_factory=list)
    rate_seconds: list = field(default_factory=list)
    calibration: list = field(default_factory=list)       # every sample [s]
    pass_calibration: list = field(default_factory=list)  # median sample of each pass [s]
    # The counts below are over distinct operations, not over their repeats in
    # every pass: a repeat must end as the first run did (else ``unstable``),
    # so the counts depend on the seed alone, not on how many passes fit.
    attempted: int = 0
    failed: int = 0
    wrong: int = 0     # did not converge or failed an output check; the rest raised
    unstable: int = 0  # ended differently from the same operation in an earlier pass
    notes: dict = field(default_factory=dict)

    def add(self, stratum: Stratum, k: int, outcomes: dict) -> None:
        for method, out in outcomes.items():
            key = (stratum.name, method, k)
            self.times.setdefault(key, []).append(out.seconds)
            if key in self.outcomes:
                self.unstable += self.outcomes[key] != (out.iterations, out.note)
                continue
            self.outcomes[key] = (out.iterations, out.note)
            self.attempted += 1
            if out.note:
                self.failed += 1
                self.wrong += not out.raised
                note = f"{stratum.name}/{method}: {out.note}"
                self.notes[note] = self.notes.get(note, 0) + 1

    def cert_s(self, method: str) -> float:
        """Sum over the timed channels of the median over passes of the time,
        each pass scaled to the nominal machine by its own calibration."""
        return CALIBRATION_NOMINAL_S * sum(
            statistics.median(t / c for t, c in zip(self.times[(st.name, method, k)],
                                                    self.pass_calibration))
            for st in self.wl.strata if st.timed for k in range(len(st.channels)))

    def iters(self, method: str) -> int:
        return sum(self.outcomes[(st.name, method, k)][0]
                   for st in self.wl.strata if st.timed for k in range(len(st.channels)))


def references(wl: Workload) -> dict:
    """Independent capacities of the binary-input channels, keyed by (stratum, channel)."""
    return {(st.name, k): capacity_m2(ch.w) for st in wl.strata
            for k, ch in enumerate(st.channels) if ch.m == 2}


def run_pass(sa, wl: Workload, tally: Tally, refs: dict, on_op=None) -> None:
    """Every operation of the workload once; timings and outcomes go to ``tally``."""
    config = (sa.SolverConfig(epsilon=RATE_GAP, record_trace=False) if wl.rate
              else sa.SolverConfig())
    t0 = last = time.perf_counter()
    first_sample = len(tally.calibration)
    tally.calibration.append(calibration_loop())
    rate_s = 0.0
    for st in wl.strata:
        for k, ch in enumerate(st.channels):
            outcomes = run_channel(sa, wl, ch, config, refs.get((st.name, k)), on_op)
            tally.add(st, k, outcomes)
            if st.timed:
                rate_s += sum(o.rate_seconds for o in outcomes.values())
            if time.perf_counter() - last >= CALIBRATION_EVERY_S:
                tally.calibration.append(calibration_loop())
                last = time.perf_counter()
    tally.pass_seconds.append(time.perf_counter() - t0)
    tally.calibration.append(calibration_loop())
    tally.pass_calibration.append(statistics.median(tally.calibration[first_sample:]))
    tally.rate_seconds.append(rate_s)
