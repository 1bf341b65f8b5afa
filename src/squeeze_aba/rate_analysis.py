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
    numpy's LAPACK ``eigvalsh`` on M yields the whole spectrum; no
    eigenvector is formed.  The rows of W* sum to 1, so G D_{p*} is
    row-stochastic: its largest eigenvalue is exactly 1, on 1_m, and M's is
    1 on sqrt(p*).  That is the trivial direction; M's other eigenvalues mu
    are the spectrum on Gamma, and the rate is the largest 1 - (1 + f_+) mu
    among them.  W*, s and G are formed once per report, for both R and M.

  * power route: numpy's general (nonsymmetric) eigensolver on R itself,
    restricted to Gamma in the basis e_k - e_1; the rate is the real part
    of the eigenvalue of largest modulus, the value power iteration on R
    would converge to.

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

The module analyses the fixed point it is given and refines none:
``matrix_rate`` certifies p* by the displacement of one step of the map
(``FIXED_POINT_TOL``), so p* comes from a solve run to a small gap, as
``squeeze-aba rate`` does.  Each point is checked once, by
``channel._check_point`` under its own name: ``fixed_point_on_floor``
checks ``p_hat`` and ``matrix_rate`` checks ``p_star``, whose step then
goes straight into the solvers' loop, ``_iterate``, with no second check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Distribution, _check_point
from .errors import (
    BoundaryFixedPointError,
    DimensionMismatchError,
    NotAFixedPointError,
    ValidationError,
)
from .solvers import _iterate
from .squeeze import SqueezeParams

#: tolerance on one-step displacement when certifying a fixed point
FIXED_POINT_TOL = 1e-7

#: minimum clearance above the floor for the local rate formula to apply
INTERIOR_MARGIN = 1e-9


# -- symmetric eigensolver --------------------------------------------------------


def _finite_square(a) -> np.ndarray:
    """``a`` as a float matrix: DimensionMismatchError unless it is nonempty
    and square, ValidationError on a non-finite entry (LAPACK would return
    NaN eigenvalues without an error)."""
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValidationError("matrix has a non-finite entry")
    return A


def jacobi_eigh(a):
    """Eigenvalues, ascending, of a small dense symmetric matrix.

    Returns ``numpy.linalg.eigvalsh`` of the symmetrised input; no
    eigenvectors are formed, since the rate report reads only the
    spectrum.  Raises ValidationError on non-finite entries and
    DimensionMismatchError when the input is not nonempty, square and
    symmetric, that is when some |A_ij - A_ji| exceeds the absolute
    tolerance 1e-10.  The name stays because the layer timings in
    ``perfbench/tracing.py`` look it up by name (``TARGETS``).
    """
    A = _finite_square(a)
    if np.abs(A - A.T).max() > 1e-10:
        raise DimensionMismatchError("matrix is not symmetric")
    return np.linalg.eigvalsh((A + A.T) / 2.0)


def power_rate(R) -> float:
    """Spectral radius of R on the zero-sum subspace, from numpy's general
    eigensolver.

    In the basis e_k - e_1 (k = 2..m) of Gamma, the map gamma -> gamma R
    is T = R[1:, 1:] - R[0, 1:], since (e_k - e_1) R = R[k] - R[0] and a
    zero-sum vector's coordinates in that basis are its last m - 1
    entries.  Returns the real part of T's eigenvalue of largest modulus,
    clamped at 0: the value left power iteration on R converges to.  At a
    fixed point the eigenvalues are real (the restriction is self-adjoint
    under the 1/p* inner product), so the real part drops only roundoff.  It
    works on R, not on the symmetric M of ``matrix_rate``, and with a
    nonsymmetric LAPACK routine, so it stays an independent cross-check.
    A 1 x 1 R has a trivial Gamma and rate 0.  Raises ValidationError on
    non-finite entries and DimensionMismatchError unless R is a nonempty
    square matrix.  The name stays because the layer timings in
    ``perfbench/tracing.py`` look it up by name (``TARGETS``).
    """
    R = _finite_square(R)
    if R.shape[0] == 1:
        return 0.0
    eig = np.linalg.eigvals(R[1:, 1:] - R[0, 1:])
    return max(float(eig[np.argmax(np.abs(eig))].real), 0.0)


# -- the rate report ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
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

    def shift_identity_residual(self) -> float:
        """|rate - [(1 + f_+) rate_r0 - f_+]|, the affine-identity check."""
        return abs(self.global_rate - ((1.0 + self.f_plus) * self.rate_r0 - self.f_plus))


def fixed_point_on_floor(params: SqueezeParams, p_hat) -> Distribution:
    """Map the plain-simplex optimizer p_hat to Omega(r): (1 - r_+) p_hat + r.

    p_hat is checked as a point of length m (``channel._check_point``); the
    params checked r when they were built, so the image is not checked again.
    """
    q = _check_point(p_hat, "p_hat", params.channel.m)
    return Distribution((1.0 - params.r_plus) * q + params.r)


def _jacobian_and_gram(params: SqueezeParams, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R(p) and G = (W*/s) W*^T, with W* and s = pW* formed once for both."""
    w_star = params.w_star
    a = w_star / (p @ w_star)
    G = a @ w_star.T
    R = np.eye(params.channel.m) - (1.0 + params.f_plus) * G * p
    R += p * (a @ params.f)
    return R, G


def iteration_jacobian(params: SqueezeParams, p) -> np.ndarray:
    """R(p) = I - (1 + f_+) G D_p + 1_m v with G = (W*/s) W*^T, s = pW* and
    v = p (W*/s) f.

    R is the exact error-contraction matrix at a fixed point and a
    first-order approximation of it nearby.  Raises DimensionMismatchError
    unless p has length m and ValidationError on a non-finite entry.
    """
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    if p.shape != (params.channel.m,):
        raise DimensionMismatchError(f"p must have length {params.channel.m}, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValidationError("p has a non-finite entry")
    return _jacobian_and_gram(params, p)[0]


def matrix_rate(params: SqueezeParams, p_star) -> RateReport:
    """Build the full RateReport at a fixed point p* on Omega(r).

    The spectrum on Gamma is that of M = D_p^{1/2} G D_p^{1/2} without its
    largest eigenvalue: G D_p is row-stochastic, so that one is exactly 1,
    on the trivial direction sqrt(p*), and ``eigvalsh`` sorts it last.

    Raises ValidationError for infeasible params (``feasible=False``),
    which only a direct ``SqueezeParams`` builds: their W* is clamped, its
    rows may sum above 1, and R is not the map's Jacobian.
    p* is checked once, as a point of length m (``channel._check_point``,
    naming ``p_star``), so a non-finite entry raises ValidationError before
    the interior test.  Raises BoundaryFixedPointError when p* does not
    clear the floor by INTERIOR_MARGIN (the formula only holds at interior
    fixed points) and NotAFixedPointError when one step of the map, taken
    by the solvers' loop ``_iterate`` without checking p* again, moves p*
    by more than FIXED_POINT_TOL.
    """
    if not params.feasible:
        raise ValidationError("the rate formulas hold only for feasible params; these "
                              "violate a column constraint")
    p = _check_point(p_star, "p_star", params.channel.m)
    if np.any(p <= params.r + INTERIOR_MARGIN):
        i = int(np.argmin(p - params.r))
        raise BoundaryFixedPointError(
            f"component {i} of p* is within {INTERIOR_MARGIN:g} of its floor; "
            "the local rate formula does not apply at boundary fixed points"
        )
    moved = _iterate(params.channel, params, p)  # one step of the map, as alg3_step takes
    disp = float(np.abs(moved - p).max())
    if disp > FIXED_POINT_TOL:
        raise NotAFixedPointError(
            f"one step moves p* by {disp:.3e} (> {FIXED_POINT_TOL:g}); "
            "run the solver to a tighter gap first"
        )

    R, G = _jacobian_and_gram(params, p)
    half = np.sqrt(p)
    # the rows of W* sum to 1, so G D_p is row-stochastic: M's largest
    # eigenvalue is 1, on sqrt(p), eigvalsh sorts it last, and the rest are
    # the spectrum on Gamma
    mu = jacobi_eigh(half[:, None] * G * half)[:-1]
    d_gamma = np.sort(1.0 - (1.0 + params.f_plus) * mu)

    global_rate = max(float(d_gamma[-1]), 0.0)
    rate_r0 = max(float(1.0 - mu[0]), 0.0)

    return RateReport(
        p_star=Distribution(p),  # checked above: a point that clears r
        R=R,
        global_rate=global_rate,
        global_rate_power=power_rate(R),
        rate_r0=rate_r0,
        aba_lower_bound=float(params.channel.column_minima().sum()),
        f_plus=params.f_plus,
        gamma_spectrum=d_gamma,
    )
