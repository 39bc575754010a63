"""Noise-tolerant smooth boosting under bounded (Massart) label noise.

The package is organized around exactly computable finite-support
distributions so that every probabilistic quantity the booster relies on
(error rates, measure densities, potentials, reweighted noise rates) can be
verified without estimation error.

Modules
-------
core        labeled examples, finite Massart distributions, example oracles,
            exact error/advantage metrics, text serialization
measure     the [0,1]-valued reweighting measure, its density, and the
            integral potential used for convergence accounting
booster     the boosting loop with rejection sampling, density estimation,
            over-confidence recalibration, and the aggregated hypothesis
rectangles  weak learner for unions of axis-aligned rectangles and the
            brute-force negative-subrectangle enumerator
adversary   biased hard distribution, label simulator, and the heavy-hitter
            adversarial weak learner used as a stress harness
harness     config-driven seeded experiment runner with CSV/JSON metrics
"""

from .core import (
    BadProbability,
    BoundNotBelowHalf,
    DuplicatePoint,
    FiniteMassartDist,
    LabeledExample,
    LabeledSample,
    MassartOracle,
    NoiseExceedsBound,
    exact_advantage,
    exact_ferr,
    exact_lerr,
    load_dist,
    make_massart,
    sample_example,
    save_dist,
)
from .measure import (
    Measure,
    ZeroMass,
    exact_density,
    exact_potential,
    m_weight,
    mu_weight,
    phi_point,
    reweighted_noise_rate,
    reweighted_noise_rates,
)
from .booster import (
    AggregatedHypothesis,
    BoostFailure,
    BoostParams,
    ConditionalDrawBudgetExceeded,
    DegenerateThreshold,
    DrawBudgetExceeded,
    EpsilonTooSmall,
    EtaZero,
    FixedHypothesisWeakLearner,
    MaxRoundsExceeded,
    RoundRecord,
    RunTrace,
    WeakLearner,
    boost,
    compute_params,
    est_density,
    evaluate_g,
    over_confident,
    predict,
    repeat_weak_learner,
    repetition_schedule,
    samp,
)
from .rectangles import (
    BoxHypothesis,
    BoxWeakLearner,
    EmptySample,
    NegRectangle,
    Rectangle,
    RectangleUnion,
    enumerate_negative_subrectangles,
    load_union,
    rect_union_eval,
    save_union,
    wkl_box,
)
from .adversary import (
    HardDistSpec,
    HeavyHitterHypothesis,
    RhoOutOfRange,
    RudeState,
    RudeWeakLearner,
    SampleSourceExhausted,
    biased_function,
    exsim,
    exsim_batch,
    hard_distribution,
    wkl_rude,
)
from .harness import (
    ConfigParse,
    RunConfig,
    RunReport,
    SeedResult,
    UnknownWeakLearner,
    emit_metrics,
    load_config,
    run_experiment,
)

__version__ = "0.1.0"
