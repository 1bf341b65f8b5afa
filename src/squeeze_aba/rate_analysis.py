"""Asymptotic convergence-rate analysis at an interior fixed point.

Near a fixed point p* of the iteration map M, errors contract linearly:
p_next - p* is approximately (p - p*) R(p*), where R(p*) is the Jacobian
of the update.  The paper states it through the posterior matrix of the
squeezed channel W~; since f + pW~ = (1 + f_+) pW* on Omega(r), it depends
on W* alone:

    R(p) = I_m - (1 + f_+) G D_p + 1_m v,   G = (W*/s) W*^T,   v = p (W*/s) f,

with s = pW* and D_p = diag(p).  The rank-one 1_m v vanishes on the
zero-sum subspace Gamma = {gamma : gamma 1 = 0}.  The global rate is the
spectral radius of R(p*) restricted to Gamma; iteration errors live in
Gamma, and the restriction drops only the trivial direction.  Smaller is
faster.

Two independent routes compute the global rate:

  * spectral route: G D_{p*} is similar to M = D_{p*}^{1/2} G D_{p*}^{1/2},
    which is symmetric positive semidefinite with eigenvalues in [0, 1], so
    numpy's LAPACK ``eigh`` on M yields the whole spectrum; the rate is
    the largest 1 - (1 + f_+) mu over the nontrivial eigenvalues mu.

  * power route: left power iteration directly on R from a fixed, seeded,
    generic zero-sum start, using the D_{p*}^{-1}-weighted Rayleigh
    quotient (R restricted to Gamma is self-adjoint under that inner
    product).  Each round applies the squared map A**64 of the centred
    A = R - (row means of R), rescaled after each squaring, so one round
    advances 64 steps of the iteration at the cost of one product.

The report carries both values; they agree to numerical accuracy.  The
rate guarantees are statements about this one number, so two parameter
sets are compared through one report each at the same optimizer,
``matrix_rate(params, fixed_point_on_floor(params, p_hat))``:

  * the rate is affine in the total offset mass, rate(r, f) =
    (1 + f_+) rate(r, 0) - f_+ (``rate_r0``, ``shift_identity_residual``);
  * at a fixed floor, more offset mass is never slower, and at a fixed
    combined squeeze, a larger scaled floor r/(1 - r_+) is never slower;
  * the plain iteration's rate is at least the row-overlap mass
    sum_j min_i W_ij, which every report carries as ``aba_lower_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Distribution, make_distribution
from .errors import (
    BoundaryFixedPointError,
    DimensionMismatchError,
    NotAFixedPointError,
    ValidationError,
)
from .solvers import alg3_step
from .squeeze import SqueezeParams

#: tolerance on one-step displacement when certifying a fixed point
FIXED_POINT_TOL = 1e-7

#: minimum clearance above the floor for the local rate formula to apply
INTERIOR_MARGIN = 1e-9

#: Newton rounds of polish_fixed_point before it returns its best point
POLISH_ROUNDS = 50


# -- symmetric eigensolver --------------------------------------------------------


def jacobi_eigh(a):
    """Eigendecomposition of a small dense symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns) from
    ``numpy.linalg.eigh`` on the symmetrised input.  Raises ValidationError
    on non-finite entries and DimensionMismatchError when the input is not
    square and symmetric.  The name is historical; it stays because it is
    public and callers look it up by name.
    """
    A = np.array(a, dtype=float)
    n = A.shape[0]
    if A.ndim != 2 or A.shape != (n, n):
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValidationError("matrix has a non-finite entry")
    if not np.allclose(A, A.T, atol=1e-10):
        raise DimensionMismatchError("matrix is not symmetric")
    return np.linalg.eigh((A + A.T) / 2.0)


#: squarings of the centred map per power-iteration round (2**6 = 64 steps)
POWER_SQUARINGS = 6


def power_rate(R: np.ndarray, p_star: np.ndarray, *, max_iters: int = 100_000,
               tol: float = 1e-10) -> float:
    """Spectral radius of R on the zero-sum subspace by left power iteration.

    One step is gamma <- gamma R re-centred to stay in Gamma, which is
    gamma A with the centred map A = R - (row means of R).  Each round
    advances 64 steps at once through A**64, formed by squaring A six times
    and dividing by its largest entry after each squaring, so that nothing
    underflows when the radius is small; a map that squares to below 1e-300
    has radius 0.  ``max_iters`` is a budget of single steps: with fewer
    than 64 the map is squared fewer times, and no more than ``max_iters``
    steps run in all.  The estimate is the Rayleigh quotient of R weighted
    by 1/p*, under which the restricted map is self-adjoint; iteration
    stops once two successive rounds agree to ``tol``.  The start is a
    fixed, seeded, generic zero-sum vector: a structured start such as
    e_1 - e_2 is an exact eigenvector of R on channels symmetric under
    swapping inputs 1 and 2, and would return a subdominant eigenvalue.
    """
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")
    m = R.shape[0]
    dinv = 1.0 / np.asarray(p_star, dtype=float)
    A = R - R.mean(axis=1, keepdims=True)
    squarings = min(POWER_SQUARINGS, int(max_iters).bit_length() - 1)
    for _ in range(squarings):
        A = A @ A
        scale = float(np.abs(A).max())
        if scale < 1e-300:
            return 0.0
        A /= scale
    gamma = np.random.default_rng(0).standard_normal(m)
    gamma -= gamma.mean()
    gamma /= np.linalg.norm(gamma)
    est = np.inf
    for _ in range(max_iters >> squarings):
        y = gamma @ A
        norm = np.linalg.norm(y)
        if norm < 1e-300:
            return 0.0
        y /= norm
        new = float((y @ R) @ (dinv * y) / (y @ (dinv * y)))
        if abs(new - est) <= tol:
            est = new
            break
        est = new
        gamma = y
    return max(float(est), 0.0)


# -- the rate report ----------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """Local rate data at a certified interior fixed point.

    ``gamma_spectrum`` is the spectrum of R restricted to the zero-sum
    subspace (the raw matrix R is also included); ``rate_r0`` is the
    global rate the same floor would give with a zero offset, and
    ``aba_lower_bound`` is the row-overlap mass that lower-bounds the
    plain iteration's rate.
    """

    p_star: Distribution
    R: np.ndarray
    global_rate: float
    global_rate_power: float
    rate_r0: float
    aba_lower_bound: float
    f_plus: float
    gamma_spectrum: np.ndarray

    def to_dict(self) -> dict:
        return {
            "p_star": self.p_star.probs.tolist(),
            "R": [float(v) for v in self.R.ravel()],
            "global_rate": self.global_rate,
            "global_rate_power": self.global_rate_power,
            "rate_r0": self.rate_r0,
            "aba_lower_bound": self.aba_lower_bound,
            "shift_identity_residual": self.shift_identity_residual(),
            "gamma_spectrum": self.gamma_spectrum.tolist(),
        }

    def shift_identity_residual(self) -> float:
        """|rate - [(1 + f_+) rate_r0 - f_+]|, the affine-identity check."""
        return abs(self.global_rate - ((1.0 + self.f_plus) * self.rate_r0 - self.f_plus))


def fixed_point_on_floor(params: SqueezeParams, p_hat) -> Distribution:
    """Map the plain-simplex optimizer p_hat to Omega(r): (1 - r_+) p_hat + r."""
    q = np.asarray(getattr(p_hat, "probs", p_hat), dtype=float)
    return make_distribution((1.0 - params.r_plus) * q + params.r, floor=params.r)


def iteration_jacobian(params: SqueezeParams, p) -> np.ndarray:
    """R(p) = I - (1 + f_+) G D_p + 1_m v with G = (W*/s) W*^T, s = pW* and
    v = p (W*/s) f.

    R is the exact error-contraction matrix at a fixed point and a
    first-order approximation of it nearby.
    """
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    w_star = params.w_star
    a = w_star / (p @ w_star)
    R = np.eye(params.m) - (1.0 + params.f_plus) * (a @ w_star.T) * p
    R += p * (a @ params.f)
    return R


def polish_fixed_point(params: SqueezeParams, p, *, tol: float = 1e-14) -> np.ndarray:
    """Newton-refine a near-fixed point of the iteration map to ~machine precision.

    Solves M(p) - p = 0 with the analytic Jacobian; one-step displacement
    ends below ``tol`` (or as small as the map's own roundoff allows).
    Needed because plain iteration stalls when the contraction factor is
    close to 1: the solver then cannot push the fixed-point error far
    below gap/(1 - rate) on its own.
    """
    p = np.asarray(getattr(p, "probs", p), dtype=float).copy()
    eye = np.eye(params.m)
    best, best_disp = p.copy(), np.inf
    for _ in range(POLISH_ROUNDS):
        g = alg3_step(params, p).probs - p
        disp = float(np.abs(g).max())
        if disp < best_disp:
            best, best_disp = p.copy(), disp
        if disp <= tol:
            return p
        R = iteration_jacobian(params, p)
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
            p = alg3_step(params, p).probs
    return best


def matrix_rate(params: SqueezeParams, p_star) -> RateReport:
    """Build the full RateReport at a fixed point p* on Omega(r).

    Raises BoundaryFixedPointError when p* does not clear the floor by
    INTERIOR_MARGIN (the formula only holds at interior fixed points)
    and NotAFixedPointError when one iteration step moves p* by more than
    FIXED_POINT_TOL.
    """
    m, n = params.m, params.n
    p = np.asarray(getattr(p_star, "probs", p_star), dtype=float)
    if p.shape != (m,):
        raise DimensionMismatchError(f"p_star must have length {m}, got shape {p.shape}")
    if np.any(p <= params.r + INTERIOR_MARGIN):
        i = int(np.argmin(p - params.r))
        raise BoundaryFixedPointError(
            f"component {i} of p* is within {INTERIOR_MARGIN:g} of its floor; "
            "the local rate formula does not apply at boundary fixed points"
        )
    moved = alg3_step(params, p).probs
    disp = float(np.abs(moved - p).max())
    if disp > FIXED_POINT_TOL:
        raise NotAFixedPointError(
            f"one step moves p* by {disp:.3e} (> {FIXED_POINT_TOL:g}); "
            "run the solver to a tighter gap first"
        )

    R = iteration_jacobian(params, p)

    w_star = params.w_star
    s = p @ w_star
    half = np.sqrt(p)
    B = w_star * half[:, None]
    M = (B / s[None, :]) @ B.T
    mu, vecs = jacobi_eigh(M)

    u = half / np.linalg.norm(half)
    trivial = int(np.argmax(np.abs(vecs.T @ u)))
    keep = np.ones(m, dtype=bool)
    keep[trivial] = False
    d_gamma = 1.0 - (1.0 + params.f_plus) * mu[keep]
    d_gamma.sort()

    global_rate = max(float(d_gamma.max()), 0.0) if d_gamma.size else 0.0
    rate_r0 = max(float((1.0 - mu[keep]).max()), 0.0) if d_gamma.size else 0.0
    rate_power = power_rate(R, p)

    return RateReport(
        p_star=make_distribution(p, floor=params.r),
        R=R,
        global_rate=global_rate,
        global_rate_power=rate_power,
        rate_r0=rate_r0,
        aba_lower_bound=float(params.channel.column_minima().sum()),
        f_plus=params.f_plus,
        gamma_spectrum=d_gamma,
    )
