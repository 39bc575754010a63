"""The heavy-hitter adversary holds the booster at the noise-bound floor.

The hard instance is heavily biased toward -1 with a pseudorandom sliver of
noisy negatives: the optimum is rho * eta = 1e-5, yet a weak learner that
only ever reveals majority votes keeps the boosted error near
eta' = eta (1 + alpha/5). Compare with demo 03, where an honest weak learner
drives the same booster far below eta + epsilon.
"""

import time

import numpy as np

from massboost import (
    HardDistSpec,
    MassartOracle,
    RudeWeakLearner,
    boost,
    compute_params,
    exact_lerr,
    hard_distribution,
)

spec = HardDistSpec(eta=0.1, alpha=0.2, rho=1e-4, seed=11)
dist = hard_distribution(spec, 20_000)
print(f"hard instance: eta' = {spec.eta_prime}, OPT = rho*eta = {dist.opt():.2e}")
print(f"positive fraction {np.mean(dist.f == 1):.4f}, noisy atoms {np.sum(dist.eta > 0)}")

params = compute_params(eta=0.1, alpha=0.2, gamma=spec.alpha / 20, epsilon=0.28,
                        delta=0.1, sample_scale=0.02, mode="exact")
wkl = RudeWeakLearner(m=32, T=2000, gamma=spec.alpha / 20, scale=2e-4)
oracle = MassartOracle(dist, rng_seed=12)

t0 = time.time()
agg, trace = boost(oracle, wkl, params, np.random.default_rng(13))
elapsed = time.time() - t0

lerr = exact_lerr(dist, agg.g)
advs = [r.adv_exact for r in trace.rows if r.adv_exact is not None]
print(f"\nboosted for {trace.rounds} rounds in {elapsed:.1f}s")
print(f"adversary's round advantage: min {min(advs):.3f}, always >= its promised {params.gamma}")
print(f"final exact lerr = {lerr:.4f}")
print(f"floor eta' - 0.02 = {spec.eta_prime - 0.02:.4f}  -> error stays pinned near eta'")
print(f"gap to OPT: {lerr / dist.opt():.0f}x above the information-theoretic optimum")
