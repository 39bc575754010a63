import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from massboost import (
    FiniteMassartDist,
    FixedHypothesisWeakLearner,
    MassartOracle,
    MaxRoundsExceeded,
    Measure,
    boost,
    compute_params,
    est_density,
    exact_density,
    exact_lerr,
    make_massart,
)
from massboost.booster import (
    AggregatedHypothesis,
    ConditionalDrawBudgetExceeded,
    DegenerateThreshold,
    DrawBudgetExceeded,
    EpsilonTooSmall,
    EtaZero,
    ScoreState,
    density_sample_size,
    over_confident,
    repeat_weak_learner,
    repetition_schedule,
    samp,
)
from massboost.core import sign_pm1

ORIGIN = np.zeros((1, 1))


def const_h(v):
    return lambda xs: np.full(np.atleast_2d(xs).shape[0], float(v))


def lookup_h(values):
    values = np.asarray(values, dtype=np.float64)
    return lambda xs: values[np.atleast_2d(xs)[:, 0].astype(int)]


def index_dist(f, eta, eta_bound=0.4, p=None):
    n = len(f)
    atoms = [((float(i),), (1.0 / n) if p is None else p[i], f[i], eta[i]) for i in range(n)]
    return make_massart(atoms, eta_bound)


def rcn_dist(rng, n, eta, eta_bound=None):
    f = np.where(rng.random(n) < 0.5, 1, -1)
    return index_dist(f, [eta] * n, eta_bound=eta_bound or max(eta, 1e-6)), f


class TestComputeParams:
    def test_reference_values(self):
        p = compute_params(eta=0.1, alpha=0.1, gamma=0.05, epsilon=0.15, delta=0.1)
        assert math.isclose(p.c, 0.05, rel_tol=1e-15)
        assert math.isclose(p.s, 1.7917594692280552, rel_tol=1e-15)
        assert math.isclose(p.s, math.log(6.0), rel_tol=1e-15)
        assert p.lam == 0.00625
        assert p.kappa == 0.1
        assert math.isclose(p.delta_err, 1.6276041666666668e-08, rel_tol=1e-12)
        assert math.isclose(p.delta_dens, 2.44140625e-08, rel_tol=1e-12)

    def test_degenerate_threshold(self):
        with pytest.raises(DegenerateThreshold):
            compute_params(eta=0.25, alpha=0.25, gamma=0.05, epsilon=1.1, delta=0.1)

    def test_alpha_to_zero_limit(self):
        p = compute_params(eta=0.1, alpha=1e-9, gamma=0.05, epsilon=0.15, delta=0.1)
        assert math.isclose(p.c, 0.0, abs_tol=1e-8)
        assert math.isclose(p.s, math.log(9.0), rel_tol=1e-6)

    def test_epsilon_too_small(self):
        with pytest.raises(EpsilonTooSmall):
            compute_params(eta=0.1, alpha=0.1, gamma=0.05, epsilon=0.05, delta=0.1)

    def test_epsilon_on_the_two_c_boundary(self):
        # 2c evaluates to 0.20000000000000004 and 0.10000000000000002 here
        p = compute_params(eta=0.2, alpha=0.1, gamma=0.3, epsilon=0.2, delta=0.1)
        assert p.epsilon == 0.2 and 2.0 * p.c > 0.2
        p = compute_params(eta=0.1, alpha=0.1, gamma=0.3, epsilon=0.1, delta=0.1)
        assert p.epsilon == 0.1
        with pytest.raises(EpsilonTooSmall):
            compute_params(eta=0.2, alpha=0.1, gamma=0.3, epsilon=0.19, delta=0.1)

    def test_eta_zero_requires_overrides(self):
        with pytest.raises(EtaZero):
            compute_params(eta=0.0, alpha=0.1, gamma=0.05, epsilon=0.15, delta=0.1)
        p = compute_params(
            eta=0.0, alpha=0.1, gamma=0.05, epsilon=0.15, delta=0.1,
            s_max=3.0, kappa_min=0.05,
        )
        assert p.s == 3.0
        assert p.kappa == 0.05
        assert p.delta_err > 0

    def test_mode_aliases(self):
        assert compute_params(0.1, 0.1, 0.05, 0.15, 0.1, mode="mc").mode == "monte-carlo"
        assert compute_params(0.1, 0.1, 0.05, 0.15, 0.1, mode="exact").mode == "exact-oracle"

    def test_default_round_cap(self):
        p = compute_params(0.1, 0.1, 0.05, 0.15, 0.1)
        assert p.max_rounds == math.ceil(10 * 128 / (0.1 * 0.05**2))


class TestEvaluateG:
    def test_empty_trace(self):
        agg = AggregatedHypothesis(lam=0.5, s=1.79, trace=())
        assert agg.g(ORIGIN)[0] == 0.0

    def test_single_step(self):
        agg = AggregatedHypothesis(lam=0.5, s=1.79, trace=((const_h(1), False),))
        assert agg.g(ORIGIN)[0] == 0.5

    def test_hand_replay_with_recalibration(self):
        trace = ((const_h(1), False), (const_h(1), False), (const_h(1), True))
        agg = AggregatedHypothesis(lam=1.0, s=1.5, trace=trace)
        # sigma: 0 -> 1 -> 2 (>= s) -> 2 - 1 = 1
        assert agg.g(ORIGIN)[0] == 1.0

    def test_recalibration_moves_toward_zero_from_below(self):
        trace = ((const_h(-1), False), (const_h(-1), False), (const_h(-1), True))
        agg = AggregatedHypothesis(lam=1.0, s=1.5, trace=trace)
        assert agg.g(ORIGIN)[0] == -1.0

    def test_predict_sign_convention(self):
        assert sign_pm1(AggregatedHypothesis(0.5, 1.0, ()).g(ORIGIN))[0] == 1
        neg = AggregatedHypothesis(0.01, 1.0, ((const_h(-1), False),))
        assert sign_pm1(neg.g(ORIGIN))[0] == -1
        pos = AggregatedHypothesis(0.3, 1.0, ((const_h(1), False),))
        assert sign_pm1(pos.g(ORIGIN))[0] == 1


class TestSamp:
    def test_full_measure_passthrough(self):
        dist = index_dist(f=[1, -1, 1, -1], eta=[0.1] * 4)
        oracle = MassartOracle(dist, rng_seed=3)
        rng = np.random.default_rng(4)
        m = Measure(const_h(0.0), s=2.0)
        sample, raw = samp(oracle, m, 5000, rng, d_hat=1.0)
        assert raw == 5000
        assert len(sample) == 5000
        # output distribution equals the base distribution
        counts = np.bincount(sample.xs[:, 0].astype(int), minlength=4) / 5000
        assert np.all(np.abs(counts - 0.25) < 0.02)

    def test_zero_weight_atom_never_appears(self):
        dist = index_dist(f=[1, 1], eta=[0.0, 0.0])
        oracle = MassartOracle(dist, rng_seed=5)
        m = Measure(lookup_h([0.0, 5.0]), s=2.0)  # atom 1 withheld
        sample, _ = samp(oracle, m, 2000, np.random.default_rng(6), d_hat=0.5)
        assert np.all(sample.xs[:, 0] == 0.0)

    def test_geometric_acceptance_draw_count(self):
        # density 1/2 -> about 2 m_wkl raw draws
        dist = index_dist(f=[1, 1], eta=[0.0, 0.0])
        m = Measure(lookup_h([0.0, 5.0]), s=2.0)
        totals = []
        for trial in range(50):
            oracle = MassartOracle(dist, rng_seed=100 + trial)
            _, raw = samp(oracle, m, 1000, np.random.default_rng(trial), d_hat=0.5)
            totals.append(raw)
        mean_raw = np.mean(totals)
        sigma = math.sqrt(1000 * 0.5 * 0.5) / 0.5**2 / math.sqrt(50)  # negative-binomial sd of the mean
        assert abs(mean_raw - 2000) < 3 * max(sigma, 30)

    def test_vanished_measure_trips_budget(self):
        dist = index_dist(f=[1], eta=[0.0])
        oracle = MassartOracle(dist, rng_seed=8)
        m = Measure(const_h(5.0), s=2.0)  # weight zero everywhere
        with pytest.raises(DrawBudgetExceeded):
            samp(oracle, m, 100, np.random.default_rng(9), d_hat=0.5)


class TestEstDensity:
    def test_sample_size_formula(self):
        assert density_sample_size(0.01, epsilon=0.2, eta=0.1) == 3685

    def test_mc_estimate_close_to_exact(self):
        rng = np.random.default_rng(12)
        dist, _ = rcn_dist(rng, 30, eta=0.2)
        oracle = MassartOracle(dist, rng_seed=2)
        params = compute_params(0.2, 0.1, 0.05, 0.3, 0.1, mode="mc", sample_scale=1.0)
        scores = rng.uniform(-2, 2, size=30)
        m = Measure(lookup_h(scores), s=1.0)
        d_hat = est_density(oracle, m, params)
        assert abs(d_hat - exact_density(dist, m)) < 0.02


class TestOverConfident:
    @staticmethod
    def params(epsilon=0.2, eta=0.1, mode="exact"):
        return compute_params(eta, 0.1, 0.05, epsilon, 0.1, mode=mode)

    @staticmethod
    def agg_with_scores(scores, s):
        # one step of size 2h lands each atom at its target score
        agg = AggregatedHypothesis(lam=2.0, s=s, trace=((lookup_h(np.asarray(scores) / 2.0), False),))
        return Measure(agg.g, s)

    def test_small_risky_mass_returns_false(self):
        dist = index_dist(f=[1, 1], eta=[0.1, 0.1], p=[0.01, 0.99])
        oracle = MassartOracle(dist, rng_seed=0)
        agg = self.agg_with_scores([1.5, 0.1], s=1.0)
        assert over_confident(oracle, agg, self.params()) is False

    def test_large_risky_error_returns_true(self):
        # risky mass 0.1 split between a clean and an inverted atom: error 1/2
        dist = index_dist(f=[1, -1, 1], eta=[0.1, 0.1, 0.1], p=[0.05, 0.05, 0.9])
        oracle = MassartOracle(dist, rng_seed=0)
        agg = self.agg_with_scores([1.5, 1.5, 0.1], s=1.0)
        assert over_confident(oracle, agg, self.params()) is True

    def test_small_risky_error_returns_false(self):
        dist = index_dist(f=[1, 1], eta=[0.1, 0.1], p=[0.1, 0.9])
        oracle = MassartOracle(dist, rng_seed=0)
        agg = self.agg_with_scores([1.5, 0.1], s=1.0)
        assert over_confident(oracle, agg, self.params()) is False

    def test_mc_mode_matches_exact_on_clear_cases(self):
        dist = index_dist(f=[1, -1, 1], eta=[0.1, 0.1, 0.1], p=[0.05, 0.05, 0.9])
        agg = self.agg_with_scores([1.5, 1.5, 0.1], s=1.0)
        mc = self.params(mode="mc")
        oracle = MassartOracle(dist, rng_seed=77)
        assert over_confident(oracle, agg, mc) is True
        dist2 = index_dist(f=[1, 1], eta=[0.1, 0.1], p=[0.01, 0.99])
        oracle2 = MassartOracle(dist2, rng_seed=78)
        agg2 = self.agg_with_scores([1.5, 0.1], s=1.0)
        assert over_confident(oracle2, agg2, mc) is False


class TestRepeatWeakLearner:
    def test_schedule_formulas(self):
        n_cand, test_size = repetition_schedule(delta_wkl=0.05, gamma=0.1)
        assert n_cand == 8
        assert test_size == 738

    def test_selection_prefers_accurate_candidate(self):
        rng = np.random.default_rng(31)
        dist, f = rcn_dist(rng, 16, eta=0.1)
        oracle = MassartOracle(dist, rng_seed=5)
        params = compute_params(0.1, 0.1, 0.1, 0.15, 0.1, mode="exact")

        class Cycler:
            alpha = 0.1
            gamma = 0.1

            def __init__(self):
                self.calls = 0

            def train_from_source(self, source, rng):
                self.calls += 1
                return lookup_h(f) if self.calls == 1 else lookup_h(-f)

        measure = Measure(const_h(0.0), s=params.s)
        source = lambda count, r: samp(oracle, measure, count, r, d_hat=1.0)[0]
        h = repeat_weak_learner(Cycler(), source, params, np.random.default_rng(3))
        assert exact_lerr(dist, h) < 0.5

    def test_single_candidate_skips_test_draws(self):
        dist = index_dist(f=[1], eta=[0.0])
        oracle = MassartOracle(dist, rng_seed=1)
        params = compute_params(0.1, 0.1, 0.05, 0.15, 0.1, sample_scale=0.01)
        wkl = FixedHypothesisWeakLearner(const_h(1))
        source = lambda count, r: samp(oracle, Measure(const_h(0.0), s=1.0), count, r)[0]
        repeat_weak_learner(wkl, source, params, np.random.default_rng(0))
        assert oracle.draws == 0  # the fixed learner draws nothing and there is no test sample


def replay_prefix_scores(agg, xs):
    """Independent replay of the update rule, yielding scores after each round."""
    sigma = np.zeros(xs.shape[0])
    for h, b in agg.trace:
        hv = np.clip(np.asarray(h(xs), dtype=np.float64), -1.0, 1.0)
        nxt = np.empty_like(sigma)
        for i in range(len(sigma)):
            if abs(sigma[i]) < agg.s:
                nxt[i] = sigma[i] + agg.lam * hv[i]
            elif b:
                nxt[i] = sigma[i] - agg.lam * (1.0 if sigma[i] >= 0 else -1.0)
            else:
                nxt[i] = sigma[i]
        sigma = nxt
        yield sigma


class TestBoost:
    def run_small(self, seed=0, eta=0.1, n=80, gamma=0.05, mode="exact"):
        rng = np.random.default_rng(seed)
        dist, f = rcn_dist(rng, n, eta=eta)
        oracle = MassartOracle(dist, rng_seed=seed + 1)
        params = compute_params(eta, 0.1, gamma, 0.15, 0.1, mode=mode, sample_scale=0.02)
        wkl = FixedHypothesisWeakLearner(lookup_h(f), gamma=gamma)
        agg, trace = boost(oracle, wkl, params, np.random.default_rng(seed + 2))
        return dist, params, agg, trace

    def test_concept_learner_reaches_target_error(self):
        dist, params, agg, trace = self.run_small()
        assert exact_lerr(dist, agg.g) <= 0.25
        assert trace.rounds <= 128 / (0.1 * 0.05**2)
        assert trace.rows[-1].d_exact <= params.kappa

    def test_at_least_one_round_always_runs(self):
        _, _, _, trace = self.run_small(seed=3)
        assert trace.rounds >= 1

    def test_replay_equivalence_and_score_bound(self):
        dist, params, agg, trace = self.run_small(seed=5, n=40)
        bound = params.s + params.lam
        for sigma in replay_prefix_scores(agg, dist.xs):
            assert np.max(np.abs(sigma)) < bound
        assert np.allclose(sigma, agg.g(dist.xs), atol=0)

    def test_max_rounds_exceeded_carries_trace(self):
        rng = np.random.default_rng(9)
        dist, f = rcn_dist(rng, 20, eta=0.1)
        oracle = MassartOracle(dist, rng_seed=10)
        params = compute_params(0.1, 0.1, 0.05, 0.15, 0.1, max_rounds=3, sample_scale=0.02)
        wkl = FixedHypothesisWeakLearner(lookup_h(f), gamma=0.05)
        with pytest.raises(MaxRoundsExceeded) as err:
            boost(oracle, wkl, params, np.random.default_rng(11))
        assert err.value.trace.rounds == 3
        assert len(err.value.aggregated.trace) == 3

    def test_final_scores_do_not_alias_the_workspace(self):
        rng = np.random.default_rng(9)
        dist, f = rcn_dist(rng, 20, eta=0.1)
        params = compute_params(0.1, 0.1, 0.05, 0.15, 0.1, sample_scale=0.02)
        wkl = FixedHypothesisWeakLearner(lookup_h(f), gamma=0.05)
        agg, trace = boost(MassartOracle(dist, rng_seed=10), wkl, params, np.random.default_rng(11))
        with pytest.raises(MaxRoundsExceeded) as err:
            boost(MassartOracle(dist, rng_seed=10), wkl, replace(params, max_rounds=3), np.random.default_rng(11))
        boost(MassartOracle(dist, rng_seed=12), wkl, params, np.random.default_rng(13))
        for run, scores in ((agg, trace.scores), (err.value.aggregated, err.value.trace.scores)):
            assert scores.base is None  # a copy, not a view of a workspace row
            assert np.array_equal(scores, run.g(dist.xs))

    def test_trace_csv_schema(self):
        _, _, _, trace = self.run_small(seed=12, n=30)
        csv = trace.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "round,d_hat,d_exact,phi,overconfident,raw_draws,lerr_exact,ferr_exact"
        assert len(lines) == trace.rounds + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[2] != ""  # exact column populated in exact mode

    def test_density_decreases_to_kappa(self):
        _, params, _, trace = self.run_small(seed=14)
        d_values = [r.d_exact for r in trace.rows]
        assert d_values[-1] <= params.kappa
        assert max(d_values) <= 1.0 + 1e-12

    def test_mc_mode_finite_support(self):
        dist, params, agg, trace = self.run_small(seed=20, n=30, mode="mc")
        assert exact_lerr(dist, agg.g) <= 0.3
        assert trace.rows[0].d_exact is None  # exact columns empty in MC mode
        csv_line = trace.to_csv().strip().split("\n")[1].split(",")
        assert csv_line[2] == ""

    def test_draw_accounting(self):
        _, _, _, trace = self.run_small(seed=25, n=30)
        assert trace.total_draws == sum(r.raw_draws for r in trace.rows)


def test_exact_round_allocates_no_per_atom_array():
    """A steady-state exact round keeps its per-atom temporaries in the state's workspace.

    The constant hypothesis's own output is one row of n floats; the bound
    allows two, where the allocating round peaked at about 13.
    """
    n = 100_000
    f = np.where(np.arange(n) % 3 == 0, 1, -1)
    dist = FiniteMassartDist(np.arange(n, dtype=np.float64).reshape(-1, 1), np.full(n, 1.0 / n), f,
                             np.full(n, 0.1), 0.1)
    params = compute_params(0.1, 0.1, 0.05, 0.15, 0.1, mode="exact")
    oracle = MassartOracle(dist, rng_seed=0)
    minus_one = const_h(-1.0)

    def one_round(state):
        state.stats()
        hv = state.values(minus_one)
        state.advantage(hv)
        nxt = state.step(hv, False)
        over_confident(oracle, nxt, params)
        nxt.stats()
        return nxt

    state = ScoreState(dist, params.lam, params.s, True)
    for _ in range(3):
        state = one_round(state)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        one_round(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 2 * 8 * n


class TestConditionalBudget:
    def test_stage_two_budget_trips(self):
        dist = index_dist(f=[1, 1], eta=[0.1, 0.1])
        oracle = MassartOracle(dist, rng_seed=0)
        params = compute_params(0.1, 0.1, 0.05, 0.2, 0.1, mode="mc", sample_scale=0.05)

        class VanishingRisk:
            """Scores look risky on the first evaluation, safe afterwards."""

            lam = 1.0
            s = 1.0

            def __init__(self):
                self.calls = 0

            def sample_scores(self, sample):
                self.calls += 1
                n = len(sample)
                return np.full(n, 2.0 if self.calls == 1 else 0.0)

        with pytest.raises(ConditionalDrawBudgetExceeded):
            over_confident(oracle, VanishingRisk(), params)


class TestRealizableCase:
    def test_eta_zero_with_overrides_boosts(self):
        rng = np.random.default_rng(77)
        dist, f = rcn_dist(rng, 40, eta=1e-9, eta_bound=1e-9)
        params = compute_params(
            0.0, 0.1, 0.1, 0.15, 0.1, mode="exact", sample_scale=0.02,
            s_max=2.0, kappa_min=0.05,
        )
        oracle = MassartOracle(dist, rng_seed=5)
        wkl = FixedHypothesisWeakLearner(lookup_h(f), gamma=0.1)
        agg, trace = boost(oracle, wkl, params, np.random.default_rng(6))
        assert exact_lerr(dist, agg.g) < 0.01
        assert trace.rows[-1].d_exact <= 0.05
