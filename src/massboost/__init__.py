"""Noise-tolerant smooth boosting under bounded (Massart) label noise.

The package is organized around exactly computable finite-support
distributions so that every probabilistic quantity the booster relies on
(error rates, measure densities, potentials, reweighted noise rates) can be
verified without estimation error.

Modules
-------
core        finite Massart distributions, example oracles, exact
            error/advantage metrics, text serialization
measure     the [0,1]-valued reweighting measure, its density, and the
            integral potential used for convergence accounting
booster     the boosting loop with rejection sampling, density estimation,
            over-confidence recalibration, and the aggregated hypothesis
rectangles  weak learner for unions of axis-aligned rectangles and the
            brute-force negative-subrectangle enumerator
adversary   biased hard distribution and the heavy-hitter adversarial weak
            learner used as a stress harness
harness     config-driven seeded experiment runner with CSV/JSON metrics

The top level re-exports the names the demos and the acceptance gate use;
everything else is imported from its module.
"""

from .core import FiniteMassartDist, MassartOracle, exact_advantage, exact_ferr, exact_lerr, make_massart
from .measure import Measure, exact_density, exact_potential, m_weight, phi_point, reweighted_noise_rates
from .booster import (
    BoostFailure,
    FixedHypothesisWeakLearner,
    MaxRoundsExceeded,
    boost,
    compute_params,
    est_density,
)
from .rectangles import BoxWeakLearner, RectangleUnion, enumerate_negative_subrectangles, wkl_box
from .adversary import HardDistSpec, RudeWeakLearner, hard_distribution
from .harness import ConfigParse, emit_metrics, load_config, run_experiment

__version__ = "0.1.0"
