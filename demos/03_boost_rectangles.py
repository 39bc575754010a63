"""End-to-end boosting of the rectangle weak learner, exact-oracle mode.

A random union of two boxes over a 60x60 grid with bounded label noise; the
booster reweights via rejection sampling, withholds confidently scored
points, and stops when the measure density reaches kappa = eta. The final
misclassification error lands near OPT, far below the eta + epsilon target.
"""

import time

import numpy as np

from massboost import (
    BoxWeakLearner,
    FiniteMassartDist,
    MassartOracle,
    boost,
    compute_params,
    exact_ferr,
    exact_lerr,
)
from massboost.harness import _grid_points, _random_union

rng = np.random.default_rng(1)
union = _random_union(rng, d=2, k=2)
xs = _grid_points(2, 60)
f = union(xs)
n = len(xs)
eta_x = 0.1 * rng.random(n)
dist = FiniteMassartDist(xs, np.full(n, 1.0 / n), f, eta_x, 0.1)
print(f"instance: {n} grid atoms, positive fraction {np.mean(f == 1):.3f}, OPT = {dist.opt():.4f}")

params = compute_params(eta=0.1, alpha=0.1, gamma=0.3, epsilon=0.15, delta=0.1,
                        sample_scale=0.028, mode="exact")
wkl = BoxWeakLearner(d=2, k=2, alpha=0.1, sample_scale=0.125)
oracle = MassartOracle(dist, rng_seed=7)

t0 = time.time()
agg, trace = boost(oracle, wkl, params, np.random.default_rng(8))
elapsed = time.time() - t0

print(f"\nboosting finished in {trace.rounds} rounds ({elapsed:.1f}s, {trace.total_draws} oracle draws)")
print("round   density   potential   lerr    risky mass")
for row in trace.rows[:: max(1, trace.rounds // 8)] + [trace.rows[-1]]:
    print(f"{row.round:5d}   {row.d_hat:.4f}    {row.phi:.4f}     {row.lerr_exact:.4f}  {row.risky_mass:.3f}")

print(f"\nfinal exact lerr = {exact_lerr(dist, agg.g):.4f}  (target eta + eps = 0.25)")
print(f"final exact ferr = {exact_ferr(dist, agg.g):.4f}  (target (eta+eps)/(1-eta) = {0.25/0.9:.4f})")
print(f"aggregated hypothesis: {len(agg)} weak hypotheses at step size {agg.lam}")
print("\ntrace CSV head:")
print("\n".join(trace.to_csv().splitlines()[:3]))
