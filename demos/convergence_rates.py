"""Local convergence-rate analysis and what squeezing buys.

Near the optimum the iteration contracts errors linearly; the spectral
radius of the error-contraction matrix (restricted to zero-sum
perturbations) predicts exactly how fast.  This script computes those
rates, checks them against the observed contraction, and reads the
comparison guarantees off the same reports.
"""

import numpy as np

import squeeze_aba as sa

W = sa.validate_channel([[0.7, 0.2, 0.1],
                         [0.1, 0.2, 0.7]])
p_hat = [0.5, 0.5]  # the optimizer (by symmetry)

# Plain iteration: rate 0.55 here, so errors shrink by only 45% per step.
plain = sa.build_squeeze_params(W, [0, 0], [0, 0, 0])
rep0 = sa.matrix_rate(plain, sa.fixed_point_on_floor(plain, p_hat))
print("plain contraction matrix:\n", rep0.R)
print("global rate:", rep0.global_rate,
      " (cross-check from R on zero-sum vectors:", round(rep0.global_rate_power, 12), ")")

# Offset only (exponent gain 5/3): rate drops to 0.25.
shifted = sa.build_squeeze_params(W, [0, 0], [1 / 6, 1 / 3, 1 / 6])
rep1 = sa.matrix_rate(shifted, sa.fixed_point_on_floor(shifted, p_hat))
print("\noffset-only global rate:", rep1.global_rate)

# The rate is affine in the offset mass: rate = (1 + f_+) rate0 - f_+.
print("affine identity residual:", rep1.shift_identity_residual())

# Floor + offset at their optima: rate zero, one-step convergence.
double = sa.build_squeeze_params(W, [1 / 8, 1 / 8], [0, 1 / 4, 0])
rep2 = sa.matrix_rate(double, sa.fixed_point_on_floor(double, p_hat))
print("doubly squeezed global rate:", rep2.global_rate)

# The guarantees are statements about global_rate, so the three reports
# above already hold them.
# Guarantee 1: at a fixed floor, more offset mass is never slower.
print(f"\noffset comparison: rate {rep1.global_rate} vs {rep0.global_rate} "
      f"(ordering holds: {rep1.global_rate <= rep0.global_rate})")

# Guarantee 2: at a fixed combined squeeze, a larger scaled floor is never
# slower; rep1 and rep2 share the optimal combined squeeze (1/6, 1/3, 1/6).
print(f"floor comparison: rate {rep2.global_rate:.2e} vs {rep1.global_rate} "
      f"(ordering holds: {rep2.global_rate <= rep1.global_rate})")

# Guarantee 3: the plain rate is at least the row-overlap mass, which is
# why overlapping channels are slow for the unaccelerated method.
print(f"overlap bound: rate {rep0.global_rate} >= overlap {rep0.aba_lower_bound} "
      f"(margin {rep0.global_rate - rep0.aba_lower_bound:.3f})")

# The predicted rate is observable: measure the terminal contraction of
# the plain solver on a random channel and compare.  Near p* the steps
# p_{t+1} - p_t follow the same linear recursion as the errors p_t - p*,
# so their lengths shrink by the same factor and p* itself is not needed.
rng = np.random.default_rng(8)
u = rng.random((2, 6))
Wr = sa.validate_channel(u / u.sum(axis=1, keepdims=True))
res = sa.solve(Wr, "aba", config=sa.SolverConfig(epsilon=1e-12, max_iters=100000,
                                                 record_trace=True))
params = res.params
report = sa.matrix_rate(params, sa.fixed_point_on_floor(params, res.p_hat))
steps = np.linalg.norm(np.diff([rec.p for rec in res.trace], axis=0), axis=1)
usable = np.nonzero((steps > 1e-10) & (steps < 1e-5))[0]
ratios = steps[usable[1:]] / steps[usable[:-1]]
observed = float(np.exp(np.mean(np.log(ratios[-5:]))))
print(f"\nrandom 2x6 channel: predicted rate {report.global_rate:.6f}, "
      f"observed terminal contraction {observed:.6f}")
