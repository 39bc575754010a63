import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massboost import (
    FiniteMassartDist,
    FixedHypothesisWeakLearner,
    HardDistSpec,
    MassartOracle,
    MaxRoundsExceeded,
    Measure,
    boost,
    compute_params,
    est_density,
    exact_density,
    exact_lerr,
    hard_distribution,
    make_massart,
)
from massboost import booster
from massboost.booster import (
    AggregatedHypothesis,
    ConditionalDrawBudgetExceeded,
    DrawBudgetExceeded,
    RoundRecord,
    ScoreState,
    density_sample_size,
    over_confident,
    repeat_weak_learner,
    repetition_schedule,
    samp,
)
from massboost.core import label_errors, sign_pm1
from samp_reference import samp_reference
from test_properties import state_at

ORIGIN = np.zeros((1, 1))
# the columns of the trace CSV, and the fields Monte Carlo mode leaves None
COLUMNS = ["round", "d_hat", "phi", "overconfident", "raw_draws", "lerr_exact", "ferr_exact", "adv_exact",
           "max_noise_rate", "risky_mass"]
EXACT_FIELDS = {"phi", "lerr_exact", "ferr_exact", "adv_exact", "max_noise_rate", "risky_mass"}


def const_h(v):
    return lambda xs: np.full(np.atleast_2d(xs).shape[0], float(v))


def lookup_h(values):
    values = np.asarray(values, dtype=np.float64)
    return lambda xs: values[np.atleast_2d(xs)[:, 0].astype(int)]


def index_dist(f, eta, eta_bound=0.4, p=None):
    n = len(f)
    atoms = [((float(i),), (1.0 / n) if p is None else p[i], f[i], eta[i]) for i in range(n)]
    return make_massart(atoms, eta_bound)


def table_dist(seed, n=40):
    """A 2-d table of n atoms of unequal masses, atom i at (i, u_i), and scores uniform on [-3, 3]."""
    rng = np.random.default_rng(seed)
    xs = np.column_stack([np.arange(n, dtype=np.float64), rng.random(n)])
    p = rng.random(n) + 0.5
    f = np.where(rng.random(n) < 0.5, 1, -1)
    return FiniteMassartDist(xs, p / p.sum(), f, rng.uniform(0.0, 0.2, n), 0.2), rng.uniform(-3.0, 3.0, n)


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
        with pytest.raises(ValueError, match="threshold s = .* must be positive and finite"):
            compute_params(eta=0.25, alpha=0.25, gamma=0.05, epsilon=1.1, delta=0.1)

    def test_alpha_to_zero_limit(self):
        p = compute_params(eta=0.1, alpha=1e-9, gamma=0.05, epsilon=0.15, delta=0.1)
        assert math.isclose(p.c, 0.0, abs_tol=1e-8)
        assert math.isclose(p.s, math.log(9.0), rel_tol=1e-6)

    def test_epsilon_too_small(self):
        with pytest.raises(ValueError, match=r"epsilon .* < 8\*eta\*alpha/\(1-2\*alpha\)"):
            compute_params(eta=0.1, alpha=0.1, gamma=0.05, epsilon=0.05, delta=0.1)

    def test_epsilon_on_the_two_c_boundary(self):
        # 2c evaluates to 0.20000000000000004 and 0.10000000000000002 here
        p = compute_params(eta=0.2, alpha=0.1, gamma=0.3, epsilon=0.2, delta=0.1)
        assert p.epsilon == 0.2 and 2.0 * p.c > 0.2
        p = compute_params(eta=0.1, alpha=0.1, gamma=0.3, epsilon=0.1, delta=0.1)
        assert p.epsilon == 0.1
        with pytest.raises(ValueError, match=r"epsilon .* < 8\*eta\*alpha/\(1-2\*alpha\)"):
            compute_params(eta=0.2, alpha=0.1, gamma=0.3, epsilon=0.19, delta=0.1)

    def test_eta_zero_is_rejected(self):
        with pytest.raises(ValueError, match="eta must be in"):
            compute_params(eta=0.0, alpha=0.1, gamma=0.05, epsilon=0.15, delta=0.1)

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

    def test_zero_request_draws_nothing(self):
        dist = index_dist(f=[1, -1, 1, -1], eta=[0.1] * 4)
        oracle = MassartOracle(dist, rng_seed=3)
        sample, raw = samp(oracle, Measure(const_h(0.0), s=2.0), 0, np.random.default_rng(4))
        assert len(sample) == 0 and raw == 0 and oracle.draws == 0
        # the oracle's stream is untouched: its next draws are a fresh oracle's first
        after, fresh = oracle.sample_batch(20), MassartOracle(dist, rng_seed=3).sample_batch(20)
        assert np.array_equal(after.xs, fresh.xs) and np.array_equal(after.ys, fresh.ys)

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

    @pytest.mark.parametrize("scored_by", ["idx", "xs"])
    @settings(max_examples=100, deadline=None)
    @given(m_wkl=st.integers(0, 300), d_hat=st.floats(0.05, 1.0, exclude_min=True),
           oracle_seed=st.integers(0, 2**32 - 1), rng_seed=st.integers(0, 2**32 - 1))
    def test_matches_frozen_reference(self, scored_by, m_wkl, d_hat, oracle_seed, rng_seed):
        """samp returns the frozen reference's xs, ys and idx bytes and raw count, and leaves both streams alike.

        About a third of the atoms are withheld and the rest accepted with
        probability about 0.7, so a d_hat near 1 takes several batches and
        a small one over-accepts in its first.
        """
        dist, scores = table_dist(oracle_seed)
        scorer = state_at(dist, 0.1, 2.0, scores) if scored_by == "idx" else Measure(lookup_h(scores), s=2.0)
        runs = []
        for sampler in (samp, samp_reference):
            oracle, rng = MassartOracle(dist, rng_seed=oracle_seed), np.random.default_rng(rng_seed)
            sample, raw = sampler(oracle, scorer, m_wkl, rng, d_hat=d_hat)
            runs.append((sample, raw, oracle.draws, rng.random(), oracle.rng.random()))
        (got, *rest), (want, *want_rest) = runs
        assert rest == want_rest and len(got) == m_wkl
        for name in ("xs", "ys", "idx"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_budget_message_matches_frozen_reference(self):
        dist, _ = table_dist(0)
        messages = []
        for sampler in (samp, samp_reference):
            with pytest.raises(DrawBudgetExceeded) as info:
                sampler(MassartOracle(dist, rng_seed=8), Measure(const_h(5.0), s=2.0), 100,
                        np.random.default_rng(9), d_hat=0.5)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "rejection sampling exceeded 4093 raw draws for 100 accepted"


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
    def scored(dist, scores, s):
        return state_at(dist, 0.1, s, scores)

    def test_small_risky_mass_returns_false(self):
        dist = index_dist(f=[1, 1], eta=[0.1, 0.1], p=[0.01, 0.99])
        assert self.scored(dist, [1.5, 0.1], s=1.0).over_confident(0.2, 0.1) is False

    def test_risky_mass_of_exactly_a_quarter_epsilon_returns_false(self):
        # the risky atom is wrong, so past stage 1 its error 0.9 would answer True; 0.2 / 4 is the float 0.05
        dist = index_dist(f=[1, 1], eta=[0.1, 0.1], p=[0.05, 0.95])
        state = self.scored(dist, [-1.5, 0.1], s=1.0)
        assert state.stats().risky_mass == 0.2 / 4.0
        assert state.over_confident(0.2, 0.1) is False

    def test_large_risky_error_returns_true(self):
        # risky mass 0.1 split between a clean and an inverted atom: error 1/2
        dist = index_dist(f=[1, -1, 1], eta=[0.1, 0.1, 0.1], p=[0.05, 0.05, 0.9])
        assert self.scored(dist, [1.5, 1.5, 0.1], s=1.0).over_confident(0.2, 0.1) is True

    def test_small_risky_error_returns_false(self):
        dist = index_dist(f=[1, 1], eta=[0.1, 0.1], p=[0.1, 0.9])
        assert self.scored(dist, [1.5, 0.1], s=1.0).over_confident(0.2, 0.1) is False

    def test_mc_mode_matches_exact_on_clear_cases(self):
        dist = index_dist(f=[1, -1, 1], eta=[0.1, 0.1, 0.1], p=[0.05, 0.05, 0.9])
        mc = compute_params(0.1, 0.1, 0.05, 0.2, 0.1, mode="mc")
        oracle = MassartOracle(dist, rng_seed=77)
        assert over_confident(oracle, self.scored(dist, [1.5, 1.5, 0.1], s=1.0), mc) is True
        dist2 = index_dist(f=[1, 1], eta=[0.1, 0.1], p=[0.01, 0.99])
        oracle2 = MassartOracle(dist2, rng_seed=78)
        assert over_confident(oracle2, self.scored(dist2, [1.5, 0.1], s=1.0), mc) is False


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

    @pytest.mark.parametrize("sample_scale", [0.01, 1.0], ids=["one-candidate", "several"])
    def test_streams_are_those_of_spawn(self, sample_scale):
        """Candidates and the test sample draw the streams of rng.spawn(n + 1); rng's next spawn is unchanged."""
        params = compute_params(0.1, 0.1, 0.05, 0.15, 0.1, sample_scale=sample_scale)
        n, _ = repetition_schedule(params.delta_err, params.gamma, params.sample_scale)
        oracle = MassartOracle(index_dist(f=[1], eta=[0.0]), rng_seed=1)
        drawn = []

        class Recorder:
            alpha = gamma = 0.1

            def train_from_source(self, source, rng):
                drawn.append(rng.random(4))
                return const_h(1)

        def source(count, r):
            drawn.append(r.random(4))
            return oracle.sample_batch(count)

        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        repeat_weak_learner(Recorder(), source, params, rng)
        assert len(drawn) == (n if n == 1 else n + 1)
        for got, stream in zip(drawn, twin.spawn(n + 1)):
            assert got.tobytes() == stream.random(4).tobytes()
        assert rng.spawn(1)[0].random(4).tobytes() == twin.spawn(1)[0].random(4).tobytes()
        assert rng.random(4).tobytes() == twin.random(4).tobytes()


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
    def run_small(self, seed=0, eta=0.1, n=80, gamma=0.05, mode="exact", predraw=0):
        rng = np.random.default_rng(seed)
        dist, f = rcn_dist(rng, n, eta=eta)
        oracle = MassartOracle(dist, rng_seed=seed + 1)
        if predraw:
            oracle.sample_batch(predraw)
        params = compute_params(eta, 0.1, gamma, 0.15, 0.1, mode=mode, sample_scale=0.02)
        wkl = FixedHypothesisWeakLearner(lookup_h(f), gamma=gamma)
        agg, trace = boost(oracle, wkl, params, np.random.default_rng(seed + 2))
        return dist, params, agg, trace

    def test_concept_learner_reaches_target_error(self):
        dist, params, agg, trace = self.run_small()
        assert exact_lerr(dist, agg.g) <= 0.25
        assert trace.rounds <= 128 / (0.1 * 0.05**2)
        assert trace.rows[-1].d_hat <= params.kappa

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
        with pytest.raises(MaxRoundsExceeded) as ablated:  # 400 rounds of lam take scores past s
            boost(MassartOracle(dist, rng_seed=10), wkl, replace(params, max_rounds=400, s=math.inf),
                  np.random.default_rng(11))
        boost(MassartOracle(dist, rng_seed=12), wkl, params, np.random.default_rng(13))
        failed = err.value, ablated.value
        for run, scores in [(agg, trace.scores)] + [(exc.aggregated, exc.trace.scores) for exc in failed]:
            assert scores.base is None  # a copy, not a view of a workspace row
            assert np.array_equal(scores, run.g(dist.xs))

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_ablation_never_takes_the_over_confidence_test(self, mode, monkeypatch):
        """At s = inf the test could only answer False, so an ablated run skips it and, in Monte Carlo
        mode, draws no stage-1 sample for it."""

        def called(*args):
            raise AssertionError("over_confident called in an ablated run")

        monkeypatch.setattr(booster, "over_confident", called)
        monkeypatch.setattr(booster.ScoreState, "over_confident", called)
        rng = np.random.default_rng(9)
        dist, f = rcn_dist(rng, 20, eta=0.1)
        params = compute_params(0.1, 0.1, 0.05, 0.15, 0.1, max_rounds=3, sample_scale=0.02, mode=mode)
        wkl = FixedHypothesisWeakLearner(lookup_h(f), gamma=0.05)
        with pytest.raises(MaxRoundsExceeded) as err:
            boost(MassartOracle(dist, rng_seed=10), wkl, replace(params, s=math.inf), np.random.default_rng(11))
        assert err.value.trace.rounds == 3
        assert err.value.aggregated.s == math.inf

    def test_trace_csv_schema(self):
        _, _, _, trace = self.run_small(seed=12, n=30)
        csv = trace.to_csv()
        lines = csv.strip().split("\n")
        header = lines[0].split(",")
        assert header == [f.name for f in fields(RoundRecord)] == COLUMNS
        assert len(lines) == trace.rounds + 1
        first = dict(zip(header, lines[1].split(",")))
        assert first["round"] == "1"
        assert first["phi"] != ""  # exact column populated in exact mode

    @pytest.mark.parametrize("mode,seed", [("exact", 12), ("mc", 20)])
    def test_trace_csv_cells_are_the_record_fields(self, mode, seed):
        _, _, _, trace = self.run_small(seed=seed, n=30, mode=mode)
        lines = trace.to_csv().splitlines()
        names = lines[0].split(",")
        assert EXACT_FIELDS <= set(names) and len(lines) == trace.rounds + 1
        for rec, line in zip(trace.rows, lines[1:]):
            cells = dict(zip(names, line.split(",")))
            for name in names:
                v = getattr(rec, name)
                assert cells[name] == ("" if v is None else format(v, ".17g")), (rec.round, name)
                if name in EXACT_FIELDS:
                    assert (cells[name] == "") == (mode == "mc"), (rec.round, name)

    def test_density_decreases_to_kappa(self):
        _, params, _, trace = self.run_small(seed=14)
        d_values = [r.d_hat for r in trace.rows]
        assert d_values[-1] <= params.kappa
        assert max(d_values) <= 1.0 + 1e-12

    def test_mc_mode_finite_support(self):
        dist, params, agg, trace = self.run_small(seed=20, n=30, mode="mc")
        assert exact_lerr(dist, agg.g) <= 0.3
        assert trace.rows[0].phi is None  # exact columns empty in MC mode
        header, line = trace.to_csv().splitlines()[:2]
        assert dict(zip(header.split(","), line.split(",")))["phi"] == ""

    def test_draw_accounting(self):
        _, _, _, trace = self.run_small(seed=25, n=30)
        assert trace.total_draws == sum(r.raw_draws for r in trace.rows)

    def test_draws_before_boost_are_not_counted(self):
        _, _, _, trace = self.run_small(seed=25, n=30, predraw=1000)
        assert trace.total_draws == sum(r.raw_draws for r in trace.rows)


def striped_instance(n: int):
    """n equal atoms on a line, f = +1 on every third, eta 0.1, and exact-mode parameters."""
    f = np.where(np.arange(n) % 3 == 0, 1, -1)
    dist = FiniteMassartDist(np.arange(n, dtype=np.float64).reshape(-1, 1), np.full(n, 1.0 / n), f,
                             np.full(n, 0.1), 0.1)
    return dist, compute_params(0.1, 0.1, 0.05, 0.15, 0.1, mode="exact")


def test_exact_round_allocates_no_per_atom_array():
    """Exact rounds keep their per-atom temporaries in the state's workspace.

    The hypotheses return rows built beforehand, so nothing but the round's
    own code could allocate a float array of n elements; the allocating
    round peaked at about 13 of them. The first measured round ends with
    every score at 0, so lerr and ferr are computed anew on the general
    path; the other two end with every score negative, so the one-signed
    path reads them from the run constants.
    """
    n = 100_000
    dist, params = striped_instance(n)
    minus, plus = np.full(n, -1.0), np.full(n, 1.0)

    def one_round(state, values):
        state.stats()
        hv = state.values(lambda xs: values)
        state.advantage(hv)
        state.step(hv)
        state.over_confident(params.epsilon, params.eta)
        state.stats()

    state = ScoreState(dist, params.lam, params.s)
    for values in (minus, minus, plus):  # every score ends at -lam; each step is exact
        one_round(state, values)
    peaks, scores = [], []
    for values in (plus, minus, minus):
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            one_round(state, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - base)
        scores.append(float(state.sigma[0]))
    assert scores == [0.0, -params.lam, -2.0 * params.lam]  # sign masks all True, all False, all False
    assert max(peaks) < 8 * n


def test_construction_allocates_no_transient_row():
    """A ScoreState is built in its own rows: the workspace, a+- and the noisy index, and under one row besides.

    On hard_floor's 100 000-atom instance the state keeps six float and
    three bool workspace rows, the float rows a+ and a- and the indices of
    its 10 noisy atoms. Everything else it allocates while it is built, the
    bool row f = +1 included, must fit in less than one float row: 75 bytes
    an atom in all. Built in place the state peaks at 69; one transient
    float row more, such as an np.ones(n) for the one-signed dot, takes it
    to 77.
    """
    n = 100_000
    dist = hard_distribution(HardDistSpec(eta=0.1, alpha=0.2, rho=1e-4, seed=0), n)
    params = compute_params(0.1, 0.2, 0.01, 0.28, 0.1, mode="exact")
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        state = ScoreState(dist, params.lam, params.s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(state._noisy) == 10
    kept = (6 * 8 + 3) * n + 2 * 8 * n + state._noisy.nbytes
    assert peak - base < kept + 8 * n


def test_exact_round_with_a_third_risky_allocates_under_half_a_row():
    """A recalibrating round whose over-confidence test reaches its second stage allocates under half a float row.

    About a third of the scores are risky, with random signs, so the risky
    mass is far above epsilon/4 and the conditional error near 1/2. The test
    gathers the risky atoms into the workspace; what is left are the index
    array of the risky atoms and stats()'s gathered risky masses, 8n/3 bytes
    each and never alive together, and the risky atoms' int8 labels, n/3
    bytes next to the index array. The decision is that of the same formula
    on fancy-indexed copies of the risky atoms, and the recalibration and
    the statistics after it write into the workspace too.
    """
    n = 100_000
    dist, params = striped_instance(n)
    scores = np.random.default_rng(0).uniform(-1.5 * params.s, 1.5 * params.s, n)
    zeros = np.zeros(n)
    risky = np.abs(scores) >= params.s
    p_risky = dist.p[risky]
    cond_err = label_errors(p_risky, dist.eta[risky], sign_pm1(scores[risky]) != dist.f[risky])[0] / p_risky.sum()
    assert 0.3 < risky.mean() < 0.4 and cond_err >= params.eta + 3.0 * params.epsilon / 4.0
    state = state_at(dist, params.lam, params.s, scores)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        state.stats()
        hv = state.values(lambda xs: zeros)
        state.advantage(hv)
        state.step(hv)
        decision = state.over_confident(params.epsilon, params.eta)
        state.stats()
        state.recalibrate()
        state.stats()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decision is True
    assert peak - base < 4 * n


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

