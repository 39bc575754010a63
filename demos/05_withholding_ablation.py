"""Why the booster withholds confidently scored points.

With the |G| >= s cutoff disabled, reweighting keeps shrinking the weight of
the majority label while noisy flips keep full weight, so the per-point flip
probability of the rejection-sampled distribution climbs past 1/2: the
reweighted stream is no longer a bounded-noise distribution at all, and no
weak-learner guarantee applies to it. The trace's max_noise_rate column
records the blow-up round.
"""

import math
from dataclasses import replace

import numpy as np

from massboost import (
    HardDistSpec,
    MassartOracle,
    MaxRoundsExceeded,
    RudeWeakLearner,
    boost,
    compute_params,
    hard_distribution,
)

spec = HardDistSpec(eta=0.1, alpha=0.2, rho=1e-4, seed=21)
dist = hard_distribution(spec, 10_000)
params = compute_params(eta=0.1, alpha=0.2, gamma=0.08, epsilon=0.28, delta=0.1,
                        sample_scale=0.02, mode="exact", max_rounds=260)
wkl = RudeWeakLearner(m=32, T=2000, gamma=0.08, scale=2e-4)
oracle = MassartOracle(dist, rng_seed=22)

try:
    _, trace = boost(oracle, wkl, replace(params, s=math.inf), np.random.default_rng(23))
except MaxRoundsExceeded as exc:
    trace = exc.trace  # the ablated run has no reason to terminate

rates = [(r.round, r.max_noise_rate) for r in trace.rows]
first_bad = next((t for t, rate in rates if rate > 0.5), None)
print("round   max reweighted flip probability")
for t, rate in rates[:: max(1, len(rates) // 10)]:
    marker = "  <-- bound 1/2 broken" if rate > 0.5 else ""
    print(f"{t:5d}   {rate:.4f}{marker}")
print(f"\nwithout withholding, the noise bound first breaks at round {first_bad}")
print("with withholding enabled, the same runs keep every safe point at or below "
      f"1/2 - alpha = {0.5 - params.alpha}")
