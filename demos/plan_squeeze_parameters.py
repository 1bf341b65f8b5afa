"""Choosing squeeze parameters automatically.

The acceleration is controlled by a floor vector r (which lifts the
simplex) and an output offset f (subtracted from the channel rows).  Both
push the convergence rate down; this script shows the planning helpers
that pick them.
"""

import numpy as np

import squeeze_aba as sa

W = sa.validate_channel([[0.7, 0.2, 0.1],
                         [0.1, 0.2, 0.7]])

# The exponent gain lambda is capped by the row overlap: heavily
# overlapping rows allow a large gain (and need it most).
print("lambda upper bound:", sa.lambda_upper_bound(W))

# The combined squeeze g = lambda rW + f bundles floor and offset; at the
# largest gain it depends only on the channel, and 1 + g_+ equals lambda.
g = np.array(sa.io.plan_to_dict(sa.plan(W, "lambda-only"))["g"])
print("optimal combined squeeze g:", g, " (1 + g_+ =", 1 + g.sum(), ")")

# For binary-input channels the best floor has a closed form.
print("optimal floor for 2 x n:", sa.optimal_r_m2(W))

# For more inputs, floor along a reference distribution at the feasibility cap.
W3 = sa.validate_channel([[0.6, 0.25, 0.1, 0.05],
                          [0.15, 0.5, 0.25, 0.1],
                          [0.05, 0.15, 0.4, 0.4]])
print("heuristic floor (uniform direction):", sa.heuristic_r(W3, sa.uniform(3)))

# plan() picks the floor; the offset and the gain are params_from_r_lambda's,
# so every plan holds validated parameters.
for strategy in ("none", "lambda-only", "optimal-m2"):
    pl = sa.plan(W, strategy)
    print(f"\nstrategy {strategy!r}:")
    print(sa.io.json_text(sa.io.plan_to_dict(pl)), end="")

# A plan holds the validated parameter bundle the solver takes.
params = sa.plan(W, "optimal-m2").params
print("\nsqueezed rows overlap after planning:",
      float(np.abs(params.w_tilde[0] * params.w_tilde[1]).max()))

result = sa.solve(W, "alg3", params=params)
print("solve with the planned parameters:",
      result.iterations, "iteration(s), capacity", round(result.capacity, 9))

# Identity-like channels have nothing to squeeze; the plan degrades
# gracefully to the plain iteration (with a warning).
import warnings

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    flat = sa.plan(sa.validate_channel(np.eye(3)), "lambda-only")
print("\nidentity channel plan: lambda =", flat.params.lam, "-", caught[0].message)
