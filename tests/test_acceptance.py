"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The exact-oracle bucket (criteria 1-4 and 11) shares fifty seeded boosting
runs across noise bounds and weak learners, plus four recalibration-heavy
runs that exercise the risky-set pullback branch. The end-to-end benchmarks
(criteria 5, 9, 10) drive the experiment harness through the same config
path the CLI uses.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import record_criterion

from massboost import (
    BoxWeakLearner,
    FiniteMassartDist,
    FixedHypothesisWeakLearner,
    HardDistSpec,
    MassartOracle,
    Measure,
    MaxRoundsExceeded,
    RectangleUnion,
    boost,
    compute_params,
    enumerate_negative_subrectangles,
    est_density,
    exact_advantage,
    exact_density,
    hard_distribution,
    reweighted_noise_rates,
    wkl_box,
)
from massboost.harness import _grid_points, _random_union, parse_config, run_experiment

RNG_TAG = 0xACCE


# -- shared machinery -----------------------------------------------------------


def grid_instance(seed, eta_bound, profile, side=35, d=2, k=2):
    rng = np.random.default_rng([seed, RNG_TAG])
    union = _random_union(rng, d, k)
    xs = _grid_points(d, side)
    f = union(xs)
    n = len(xs)
    if profile == "rcn":
        eta = np.full(n, eta_bound)
    else:
        eta = eta_bound * rng.random(n)
    dist = FiniteMassartDist(xs, np.full(n, 1.0 / n), f, eta, eta_bound, _validated=True)
    return dist, union


def epsilon_for(eta, alpha):
    c = 4 * eta * alpha / (1 - 2 * alpha)
    return max(0.15, 2 * c + 0.01)


def replay_round_scores(agg, xs):
    """Independent replay of the per-round update rule over a point set."""
    sigma = np.zeros(xs.shape[0])
    for h, b in agg.trace:
        hv = np.clip(np.asarray(h(xs), dtype=np.float64), -1.0, 1.0)
        safe = np.abs(sigma) < agg.s
        stepped = sigma + agg.lam * hv
        if b:
            pulled = sigma - agg.lam * np.where(sigma >= 0, 1.0, -1.0)
            sigma = np.where(safe, stepped, pulled)
        else:
            sigma = np.where(safe, stepped, sigma)
        yield sigma


@dataclasses.dataclass
class BucketRun:
    name: str
    dist: FiniteMassartDist
    params: object
    agg: object
    trace: object
    terminated: bool


@pytest.fixture(scope="session")
def bucket():
    """Fifty terminating exact-mode runs plus four recalibration stress runs."""
    honest = []
    t0 = time.time()
    # 36 true-concept runs across noise bounds (12 per eta, alternating profiles)
    for eta in (0.05, 0.1, 0.2):
        for i in range(12):
            profile = "rcn" if i % 2 == 0 else "random"
            dist, union = grid_instance(1000 * int(eta * 100) + i, eta, profile)
            params = compute_params(
                eta, 0.1, 0.1, epsilon_for(eta, 0.1), 0.1, mode="exact", sample_scale=0.02
            )
            oracle = MassartOracle(dist, rng_seed=7000 + i)
            wkl = FixedHypothesisWeakLearner(union, alpha=0.1, gamma=0.1)
            agg, trace = boost(oracle, wkl, params, np.random.default_rng([i, 51]))
            honest.append(BucketRun(f"concept-eta{eta}-{i}", dist, params, agg, trace, True))
    # 14 rectangle weak-learner runs
    for i in range(14):
        k = 1 if i % 2 == 0 else 2
        dist, _ = grid_instance(4000 + i, 0.1, "random", side=30, k=k)
        params = compute_params(0.1, 0.1, 0.3, 0.15, 0.1, mode="exact", sample_scale=0.028)
        params = dataclasses.replace(params, max_rounds=3000)
        oracle = MassartOracle(dist, rng_seed=8000 + i)
        wkl = BoxWeakLearner(d=2, k=k, alpha=0.1, sample_scale=0.125)
        agg, trace = boost(oracle, wkl, params, np.random.default_rng([i, 52]))
        honest.append(BucketRun(f"box-k{k}-{i}", dist, params, agg, trace, True))
    honest_elapsed = time.time() - t0

    # recalibration stress: a fixed hypothesis that fights the concept on one
    # region and crawls on another, so part of the domain goes confidently
    # wrong and crosses the threshold while the rest is still safe; the
    # over-confidence pullback then fires round after round (capped by design)
    extras = []
    for i in range(4):
        dist, union = grid_instance(6000 + i, 0.1, "random")

        def fighter(xs, union=union):
            base = union(xs).astype(np.float64)
            x0 = np.atleast_2d(xs)[:, 0]
            out = np.where(x0 < 0.3, -base, base)
            return np.where(x0 >= 0.6, 0.4 * out, out)

        params = compute_params(0.1, 0.1, 0.1, 0.15, 0.1, mode="exact", sample_scale=0.02)
        params = dataclasses.replace(params, max_rounds=220)
        oracle = MassartOracle(dist, rng_seed=8600 + i)
        wkl = FixedHypothesisWeakLearner(fighter, alpha=0.1, gamma=0.1)
        try:
            agg, trace = boost(oracle, wkl, params, np.random.default_rng([i, 53]))
            terminated = True
        except MaxRoundsExceeded as exc:
            agg, trace = exc.aggregated, exc.trace
            terminated = False
        extras.append(BucketRun(f"recal-{i}", dist, params, agg, trace, terminated))

    return {"honest": honest, "extras": extras, "honest_elapsed": honest_elapsed}


# -- criteria 1-4, 11 -------------------------------------------------------------


def test_criterion_1_g_bound_invariant(bucket):
    runs = bucket["honest"] + bucket["extras"]
    violations = 0
    replay_mismatch = 0
    for run in runs:
        bound = run.params.s + run.params.lam
        sigma = None
        for sigma in replay_round_scores(run.agg, run.dist.xs):
            if float(np.max(np.abs(sigma))) >= bound:
                violations += 1
        if sigma is not None and not np.array_equal(sigma, run.agg.g(run.dist.xs)):
            replay_mismatch += 1
    ok = violations == 0 and replay_mismatch == 0 and bucket["honest_elapsed"] < 120.0
    record_criterion(
        1,
        "score bound |G_t| < s + lambda",
        ok,
        f"{len(runs)} runs, {violations} violations, bucket {bucket['honest_elapsed']:.0f}s",
    )
    assert violations == 0
    assert replay_mismatch == 0
    assert bucket["honest_elapsed"] < 120.0


def test_criterion_2_massart_preservation(bucket):
    runs = bucket["honest"] + bucket["extras"]
    violations = 0
    checked = 0
    for run in runs:
        limit = 0.5 - run.params.alpha + 1e-12
        for row in run.trace.rows:
            checked += 1
            if row.max_noise_rate is not None and row.max_noise_rate > limit:
                violations += 1
        rates, included = reweighted_noise_rates(
            run.dist, Measure(run.agg.g, run.params.s)
        )
        if included.any() and float(rates[included].max()) > limit:
            violations += 1
    ok = violations == 0
    record_criterion(
        2, "reweighted noise rate <= 1/2 - alpha on the safe set", ok,
        f"{checked} round states, {violations} violations",
    )
    assert ok


def test_criterion_3_density_potential_sandwich(bucket):
    runs = bucket["honest"] + bucket["extras"]
    upper_violations = 0
    lower_violations = 0
    rows = 0
    for run in runs:
        denom = run.params.s + run.params.lam + 1.0
        slack = 2.0 * (run.params.eta + run.params.epsilon)
        for row in run.trace.rows:
            rows += 1
            if row.d_exact > row.phi:
                upper_violations += 1
            if row.phi / denom - slack > row.d_exact:
                lower_violations += 1
    ok = upper_violations == 0 and lower_violations == 0
    record_criterion(
        3, "density-potential sandwich", ok,
        f"{rows} rounds, {upper_violations} upper / {lower_violations} lower violations",
    )
    assert ok


def test_criterion_4_termination(bucket):
    runs = bucket["honest"]
    over_budget = [
        run.name
        for run in runs
        if run.trace.rounds > 128.0 / (run.params.eta * run.params.gamma**2) or not run.terminated
    ]
    # round growth as the noise bound shrinks, against the log^2(1/eta) shape
    by_eta = {}
    for run in runs:
        if run.name.startswith("concept"):
            by_eta.setdefault(run.params.eta, []).append(run.trace.rounds)
    means = {eta: float(np.mean(v)) for eta, v in sorted(by_eta.items())}
    fitted = {
        eta: m / (math.log(1.0 / eta) ** 2 / 0.1**2) for eta, m in means.items()
    }
    sublinear = means[0.05] / means[0.2] < (1 / 0.05) / (1 / 0.2)
    growing = means[0.05] > means[0.1] > means[0.2]
    ok = not over_budget and sublinear and growing
    record_criterion(
        4, "termination within 128/(eta gamma^2) rounds", ok,
        "mean rounds " + ", ".join(f"eta={e}: {m:.0f} (C={fitted[e]:.3f})" for e, m in means.items()),
    )
    assert not over_budget
    assert sublinear and growing


def test_criterion_11_potential_drop_statistic(bucket):
    margins = []
    for run in bucket["honest"]:
        gamma, eta = run.params.gamma, run.params.eta
        for row in run.trace.rows:
            if row.adv_exact is None or row.adv_exact < gamma / 2.0:
                continue
            drop = row.phi_pre - row.phi
            bound = (gamma**2 / 32.0) * (row.d_exact_pre - eta / 2.0)
            margins.append(drop - bound)
    margins = np.asarray(margins)
    se = float(margins.std(ddof=1) / math.sqrt(len(margins)))
    ok = len(margins) >= 200 and float(margins.mean()) >= -2.0 * se
    record_criterion(
        11, "mean potential drop beats (gamma^2/32)(d - eta/2)", ok,
        f"{len(margins)} pooled rounds, mean margin {margins.mean():.2e}, se {se:.2e}",
    )
    assert len(margins) >= 200
    assert float(margins.mean()) >= -2.0 * se


# -- criterion 5: end-to-end rectangle benchmark ----------------------------------


RECT_BENCH_CONFIG = """
distribution = rect_grid
rect_d = 2
rect_k = 2
rect_side = 100
noise_profile = random
weak_learner = box
box_scale = 0.125
eta = 0.1
alpha = 0.1
gamma = 0.3
epsilon = 0.15
delta = 0.1
sample_scale = 0.028
mode = exact
max_rounds = 3000
seeds = 0..49
"""


@pytest.fixture(scope="session")
def rect_benchmark():
    cfg = parse_config(RECT_BENCH_CONFIG)
    t0 = time.time()
    report = run_experiment(cfg)
    return report, time.time() - t0


def test_criterion_5_end_to_end_error(rect_benchmark):
    report, elapsed = rect_benchmark
    target_lerr = 0.25
    target_ferr = 0.25 / 0.9
    hits = [
        r
        for r in report.results
        if r.ok and r.lerr is not None and r.lerr <= target_lerr and r.ferr <= target_ferr
    ]
    frac = len(hits) / len(report.results)
    ok = len(report.results) == 50 and frac >= 0.9 and elapsed < 600.0
    record_criterion(
        5, "boosted rectangles reach lerr <= eta + eps", ok,
        f"{len(hits)}/50 seeds within bounds, mean lerr "
        f"{report.mean_lerr:.3f}, {elapsed:.0f}s",
    )
    assert len(report.results) == 50
    assert frac >= 0.9
    assert elapsed < 600.0


# -- criterion 6: density estimator calibration -----------------------------------


def test_criterion_6_density_estimate_calibration():
    rng = np.random.default_rng(99)
    n = 60
    xs = np.arange(n, dtype=np.float64).reshape(-1, 1)
    p = rng.random(n)
    p /= p.sum()
    f = np.where(rng.random(n) < 0.5, 1, -1)
    eta = 0.1 * rng.random(n)
    dist = FiniteMassartDist(xs, p, f, eta, 0.1)
    scores = rng.uniform(-2.5, 2.5, size=n)
    measure = Measure(lambda q: scores[np.atleast_2d(q)[:, 0].astype(int)], s=2.0)
    exact = exact_density(dist, measure)

    delta_dens, epsilon, eta_b = 0.05, 0.2, 0.1
    beta = min(epsilon / 2.0, eta_b / 4.0)
    params = compute_params(eta_b, 0.1, 0.05, epsilon, 0.1, mode="mc")
    params = dataclasses.replace(params, delta_dens=delta_dens)
    trials = 500
    failures = 0
    for trial in range(trials):
        oracle = MassartOracle(dist, rng_seed=10_000 + trial)
        d_hat = est_density(oracle, measure, params)
        if abs(d_hat - exact) > beta:
            failures += 1
    ok = failures <= delta_dens * trials
    record_criterion(
        6, "Monte Carlo density within beta of exact", ok,
        f"{failures}/{trials} misses (allowed {delta_dens * trials:.0f})",
    )
    assert ok


# -- criteria 7, 8: rectangle weak-learner guarantees ------------------------------


def random_union_instance(rng, d, k, side, eta_bound, min_neg=0.05):
    while True:
        union = _random_union(rng, d, k)
        xs = _grid_points(d, side)
        f = union(xs)
        n = len(xs)
        neg_mass = float(np.mean(f == -1))
        if neg_mass <= min_neg:
            continue
        eta = eta_bound * rng.random(n)
        dist = FiniteMassartDist(xs, np.full(n, 1.0 / n), f, eta, eta_bound, _validated=True)
        return dist, union, neg_mass


def test_criterion_7_structural_lemma():
    rng = np.random.default_rng(7)
    sides = {1: 300, 2: 40, 3: 12}
    failures = 0
    for trial in range(100):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        dist, union, neg_mass = random_union_instance(rng, d, k, sides[d], 0.0)
        rect, mass = enumerate_negative_subrectangles(union, dist)
        if mass < neg_mass / (2 * d) ** k or len(rect.ineqs) > k:
            failures += 1
    ok = failures == 0
    record_criterion(
        7, "negative subrectangle carries mass >= neg/(2d)^k", ok,
        f"100 instances, {failures} failures",
    )
    assert ok


def test_criterion_8_weak_learner_contract():
    alpha = 0.1
    rng = np.random.default_rng(8)
    sides = {1: 200, 2: 40, 3: 12}
    trials = 30
    wins = 0
    for trial in range(trials):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        dist, union, _ = random_union_instance(rng, d, k, sides[d], eta_bound=0.35)
        learner = BoxWeakLearner(d=d, k=k, alpha=alpha, sample_scale=0.4)
        oracle = MassartOracle(dist, rng_seed=20_000 + trial)
        sample = oracle.sample_batch(learner.sample_size)
        h = learner.train(sample, rng)
        if exact_advantage(dist, h) >= learner.gamma:
            wins += 1
    ok = wins >= (2 * trials) // 3
    record_criterion(
        8, "rectangle weak learner meets alpha^2/(Cd)^k advantage", ok,
        f"{wins}/{trials} instances at the advertised advantage",
    )
    assert ok


# -- criteria 9, 10: adversarial floor and ablation --------------------------------


HARD_FLOOR_CONFIG = """
distribution = hard
hard_n = 64
hard_support = 100000
hard_rho = 1e-4
weak_learner = rude
rude_m = 32
rude_t = 2000
rude_scale = 2e-4
eta = 0.1
alpha = 0.2
gamma = 0.01
epsilon = 0.28
delta = 0.1
sample_scale = 0.02
mode = exact
max_rounds = 1500
seeds = 0..19
"""


def test_criterion_9_error_floor():
    cfg = parse_config(HARD_FLOOR_CONFIG)
    report = run_experiment(cfg)
    spec = HardDistSpec(n=64, eta=0.1, alpha=0.2, rho=1e-4, seed=0)
    floor = spec.eta_prime - 0.02
    assert math.isclose(floor, 0.084, rel_tol=1e-12)
    opt = hard_distribution(spec, 100_000).opt()
    below = [r for r in report.results if not r.ok or r.lerr is None or r.lerr < floor]
    # the adversary still honors its weak-learner contract round by round
    advs = np.asarray(
        [row.adv_exact for r in report.results for row in r.trace.rows if row.adv_exact is not None]
    )
    adv_frac = float(np.mean(advs >= cfg.gamma))
    ok = (
        len(report.results) == 20
        and not below
        and math.isclose(opt, 1e-5, rel_tol=1e-9)
        and adv_frac >= 0.9
    )
    record_criterion(
        9, "adversarial learner pins error above eta' - 0.02", ok,
        f"min lerr {min(r.lerr for r in report.results):.4f} vs floor {floor}, OPT {opt:.1e}, "
        f"round advantage >= gamma in {100 * adv_frac:.1f}% of rounds; "
        "honest benchmark (criterion 5) clears eta + eps with the same booster",
    )
    assert len(report.results) == 20
    assert not below
    assert adv_frac >= 0.9


HARD_ABLATION_CONFIG = """
distribution = hard
hard_n = 64
hard_support = 10000
hard_rho = 1e-4
weak_learner = rude
rude_m = 32
rude_t = 2000
rude_scale = 2e-4
eta = 0.1
alpha = 0.2
gamma = 0.04
epsilon = 0.28
delta = 0.1
sample_scale = 0.02
mode = exact
max_rounds = 520
ablate_no_withholding = true
seeds = 0..9
"""


def test_criterion_10_ablation_noise_blowup():
    cfg = parse_config(HARD_ABLATION_CONFIG)
    report = run_experiment(cfg)
    blown = [r for r in report.results if r.max_noise_rate is not None and r.max_noise_rate > 0.5]
    frac = len(blown) / len(report.results)
    ok = len(report.results) == 10 and frac >= 0.5
    record_criterion(
        10, "removing withholding breaks the noise bound", ok,
        f"{len(blown)}/10 runs exceeded rate 1/2 (max {max(r.max_noise_rate for r in report.results):.3f})",
    )
    assert len(report.results) == 10
    assert frac >= 0.5
