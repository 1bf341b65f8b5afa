"""Computing channel capacity four ways.

A walk through the solver surface on a small noisy channel: the plain
Arimoto-Blahut iteration, the exponent-gain acceleration, and the two
floored ("doubly squeezed") forms, all sharing one stopping rule.
"""

import numpy as np

import squeeze_aba as sa

# A 2-input, 3-output channel whose rows overlap substantially.  Row i
# holds P(output j | input i).
W = sa.validate_channel([[0.7, 0.2, 0.1],
                         [0.1, 0.2, 0.7]])
print(f"channel: {W.m} inputs, {W.n} outputs")
print("row-overlap mass sum_j min_i W_ij =", W.column_minima().sum())

# Start all methods from the same skewed point so there is work to do.
start = sa.SolverConfig(epsilon=1e-8, initial=sa.make_distribution([1 / 3, 2 / 3]))

# 1. Plain iteration.
plain = sa.solve(W, "aba", config=start)
print(f"\naba   : capacity {plain.capacity:.9f} nats "
      f"in {plain.iterations} iterations, p_hat {plain.p_hat.probs}")

# 2. Exponent gain at its largest provably safe value.
gained = sa.solve(W, "alg1", lam=sa.lambda_upper_bound(W), config=start)
print(f"alg1  : capacity {gained.capacity:.9f} nats "
      f"in {gained.iterations} iterations")

# 3. Floored simplex with the exact optimal floor for binary inputs.
r = sa.optimal_r_m2(W)
floored = sa.solve(W, "alg2", r=r, lam=sa.lambda_upper_bound(W), config=start)
print(f"alg2  : capacity {floored.capacity:.9f} nats "
      f"in {floored.iterations} iteration(s) with floor r = {r}")

# 4. Same map in squeezed coordinates; on this channel the squeezed rows
# no longer overlap at all and every start lands on the optimum in one step.
params = sa.params_from_r_lambda(W, r, sa.lambda_upper_bound(W))
print("squeezed channel:\n", np.round(params.w_tilde, 12))
posterior = sa.solve(W, "alg3", params=params, config=start)
print(f"alg3  : capacity {posterior.capacity:.9f} nats "
      f"in {posterior.iterations} iteration(s)")

# The capacity gap at each iterate brackets the true capacity:
# (the trace is opt-in: it copies p on every iteration)
res = sa.solve(W, "aba", config=sa.SolverConfig(
    epsilon=1e-10, initial=sa.make_distribution([0.05, 0.95]), record_trace=True))
print("\nper-iteration bracket (plain method, skewed start):")
for rec in res.trace[:6]:
    print(f"  iter {rec.iter}: I(q) = {rec.objective:.9f}, "
          f"upper = {rec.objective + rec.gap:.9f}, gap = {rec.gap:.2e}")
print(f"  ... converged after {res.iterations} iterations")

# Everything is in nats internally; bits are one division away.
print(f"\ncapacity: {plain.capacity:.9f} nats = "
      f"{plain.capacity / np.log(2.0):.9f} bits")
