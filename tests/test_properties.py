"""Property tests over random finite distributions, random boosting traces and whole boosting runs."""

import math
from dataclasses import dataclass, field, replace
from typing import Dict

import numpy as np
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from massboost import (
    FiniteMassartDist,
    MassartOracle,
    MaxRoundsExceeded,
    Measure,
    boost,
    compute_params,
    exact_density,
    exact_potential,
    reweighted_noise_rates,
)
from massboost.booster import (
    MODE_EXACT,
    AggregatedHypothesis,
    ConditionalDrawBudgetExceeded,
    DrawBudgetExceeded,
    ScoreState,
)
from massboost.core import dump_dist, make_massart, parse_dist
from score_state_reference import over_confident_reference


def sawtooth(w: np.ndarray, c: float, amp: float):
    """A pointwise hypothesis amp * (((c + w . x) mod 2) - 1); amp > 1 exercises the clip to [-1, 1].

    The dot product is summed coordinate by coordinate, so each point's value
    does not depend on the other rows of the batch (a matrix product's
    rounding can).
    """

    def h(xs):
        xs = np.atleast_2d(xs)
        z = np.full(xs.shape[0], c)
        for k, wk in enumerate(w):
            z = z + wk * xs[:, k]
        return amp * (np.mod(z, 2.0) - 1.0)

    return h


@st.composite
def finite_dists(draw):
    d = draw(st.integers(1, 3))
    # coordinates on a 1/8 grid, so distinct tuples are distinct points
    coords = st.tuples(*[st.integers(-16, 16).map(lambda v: v / 8.0)] * d)
    points = draw(st.lists(coords, min_size=1, max_size=12, unique=True))
    n = len(points)
    mass = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    f = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    eta_bound = draw(st.floats(0.0, 0.45))
    eta = draw(st.lists(st.floats(0.0, eta_bound), min_size=n, max_size=n))
    return FiniteMassartDist(np.asarray(points), mass / mass.sum(), f, eta, eta_bound)


def state_at(dist, lam, s, scores) -> ScoreState:
    """A state whose sigma is scores; a state just stepped has cached nothing, so they are set in place."""
    state = ScoreState(dist, lam, s)
    state.step(np.zeros(dist.n_atoms))
    state.sigma[:] = scores
    return state


def take_round(state: ScoreState, hv: np.ndarray, b: bool) -> ScoreState:
    """state after the round (hv, b), as boost() takes it: stepped, then recalibrated if b."""
    state.step(hv)
    if b:
        state.recalibrate()
    return state


@st.composite
def traces(draw, d: int):
    rounds = draw(st.integers(1, 25))
    trace = []
    for _ in range(rounds):
        w = np.asarray(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
        h = sawtooth(w, draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 2.0)))
        trace.append((h, draw(st.booleans())))
    return trace


def thresholds():
    """A finite s, or the ablation's s = inf."""
    return st.one_of(st.floats(0.1, 3.0), st.just(math.inf))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_score_state_equals_trace_replay(data):
    """sigma after every round, and sigma at every draw's atom index, equal agg.g bit for bit."""
    dist = data.draw(finite_dists())
    trace = data.draw(traces(dist.dim))
    lam = data.draw(st.floats(0.01, 1.0))
    s = data.draw(thresholds())
    oracle = MassartOracle(dist, rng_seed=data.draw(st.integers(0, 2**32 - 1)))

    state = ScoreState(dist, lam, s)
    for t, (h, b) in enumerate(trace, start=1):
        take_round(state, state.values(h), b)
        agg = AggregatedHypothesis(lam, s, tuple(trace[:t]))
        assert np.array_equal(state.sigma, agg.g(dist.xs))
        sample = oracle.sample_batch(data.draw(st.integers(0, 20)))
        assert np.array_equal(state.sample_scores(sample), agg.g(sample.xs))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_stats_match_the_measure(data):
    """stats() of a random state satisfies mu <= phi and agrees with measure.py's independent sums."""
    dist = data.draw(finite_dists())
    trace = data.draw(traces(dist.dim))
    lam = data.draw(st.floats(0.01, 1.0))
    s = data.draw(thresholds())

    state = ScoreState(dist, lam, s)
    for h, b in trace:
        take_round(state, state.values(h), b)
    st_ = state.stats()
    assert st_.density <= st_.potential
    agg = AggregatedHypothesis(lam, s, tuple(trace))
    measure = Measure(agg.g, s)
    assert math.isclose(st_.density, exact_density(dist, measure), rel_tol=1e-12)
    assert math.isclose(st_.potential, exact_potential(dist, agg.g), rel_tol=1e-12)
    rates, included = reweighted_noise_rates(dist, measure)
    want = float(rates[included].max()) if included.any() else 0.0
    # a- = p - a+ differs from p * eta by a rounding of p, so the rate carries an absolute error
    assert math.isclose(st_.max_noise_rate, want, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_safe_set_noise_rate_at_most_half_minus_alpha(data):
    """With s from compute_params, every safe atom's flip rate under D_mu is at most 1/2 - alpha."""
    dist = data.draw(finite_dists())
    eta = dist.eta_bound
    assume(1e-9 <= eta < 0.45)  # a bound within float underflow of 0 sends s to infinity
    alpha = data.draw(st.floats(0.0, 0.5 - eta, exclude_min=True, exclude_max=True))
    try:  # s does not depend on epsilon, which need only reach 2c; c < 2 alpha < 1 here
        params = compute_params(eta, alpha, 0.1, 2.0, 0.1)
    except ValueError as exc:  # alpha within rounding of 1/2 - eta rounds s to 0
        if not str(exc).startswith("threshold s = "):
            raise
        reject()
    s = params.s
    inside = math.nextafter(s, 0.0)
    element = st.one_of(st.sampled_from([0.0, inside, -inside, s, -s]), st.floats(-2.0 * s, 2.0 * s))
    scores = np.asarray(data.draw(st.lists(element, min_size=dist.n_atoms, max_size=dist.n_atoms)))
    bound = 0.5 - alpha + 1e-12

    by_point = {x.tobytes(): v for x, v in zip(dist.xs, scores)}
    measure = Measure(lambda xs: np.asarray([by_point[x.tobytes()] for x in xs]), s)
    rates, _ = reweighted_noise_rates(dist, measure)
    safe = np.abs(scores) < s
    assert np.all(rates[safe] <= bound)
    assert state_at(dist, params.lam, s, scores).stats().max_noise_rate <= bound


def against_f(dist, k: int) -> Dict[bytes, float]:
    """-f on the k heaviest atoms of dist, keyed by the bytes of their points."""
    return {dist.xs[i].tobytes(): -float(dist.f[i]) for i in np.argsort(-dist.p, kind="stable")[:k]}


def answering(h, values: Dict[bytes, float]):
    """h, except that a point among the keys of values gets its value."""

    def g(xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        out = np.array(h(xs), dtype=np.float64)
        for i, x in enumerate(xs):
            out[i] = values.get(x.tobytes(), out[i])
        return out

    return g


@dataclass
class SawtoothLearner:
    """A weak learner that draws m examples from D_mu and a sawtooth hypothesis from its stream.

    It returns the sawtooth or its negation, whichever agrees with the
    sample's labels more, or less if it is adversarial; with signs, it
    returns that hypothesis's sign, a value in {-1, 0, +1}. On the points
    of against it answers their values instead, such as against_f's -f on
    the heaviest atoms, which the heavy-hitter adversary answers too.
    """

    dim: int
    m: int
    adversarial: bool
    signs: bool = False
    against: Dict[bytes, float] = field(default_factory=dict)
    alpha: float = 0.25
    gamma: float = 0.25

    def train_from_source(self, source, rng):
        sample = source(self.m)
        w, c, amp = rng.uniform(-3.0, 3.0, self.dim), rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2.0)
        agrees = np.dot(sawtooth(w, c, amp)(sample.xs), sample.ys) >= 0.0
        saw = sawtooth(w, c, amp if agrees != self.adversarial else -amp)
        h = (lambda xs: np.sign(saw(xs))) if self.signs else saw
        return answering(h, self.against) if self.against else h


def check_run(dist, params, agg, trace, budget_failure: bool) -> None:
    """The round invariants of a run of boost() on dist that returned, or stopped with, agg and trace.

    Against the scores of round t - 1, round t of the replay adds lam * h_t on
    the safe atoms |G| < s, and leaves the risky ones where they were, or
    moves them one lam toward zero if its row reads overconfident. Every round
    has one row and keeps |G| <= s + lam as floats round it: a safe score
    below s gains at most lam, and rounding is monotone, but the sum can
    round up to s + lam itself (seven steps of an inexact lam can sum to one
    ulp below s = 7 lam). In exact mode every row also has the replay's
    risky mass, a noise rate of D_mu before the step of at most 1/2 - alpha,
    d_hat <= phi, and the over-confidence decision that the frozen reference
    takes on the scores of round t - 1 stepped by h_t. The rows' draws sum
    to the run's total when it completes or stops at the round cap, and to
    less after a draw budget stops it, since the failed round drew before
    it raised. The final scores equal the aggregate's replay; after a
    failure they are that replay, so the comparison holds trivially.
    """
    lam, s = agg.lam, agg.s
    bound = 0.5 - params.alpha + 1e-12
    assert [r.round for r in trace.rows] == list(range(1, len(agg) + 1))
    prev = np.zeros(dist.n_atoms)
    for t, row in enumerate(trace.rows, start=1):
        replay = AggregatedHypothesis(lam, s, agg.trace[:t]).g(dist.xs)
        risky = np.abs(prev) >= s
        hv = np.clip(np.asarray(agg.trace[t - 1][0](dist.xs), dtype=np.float64), -1.0, 1.0)
        assert np.array_equal(replay[~risky], (prev + lam * hv)[~risky]), t
        moved = prev - np.copysign(lam, prev) if row.overconfident else prev
        assert np.array_equal(replay[risky], moved[risky]), t
        assert np.abs(replay).max() <= s + lam, t
        if params.mode == MODE_EXACT:
            assert row.risky_mass == dist.p[np.abs(replay) >= s].sum(), t
            assert row.max_noise_rate <= bound and row.d_hat <= row.phi, t
            stepped = state_at(dist, lam, s, prev)
            stepped.step(hv)
            assert row.overconfident == over_confident_reference(dist, stepped, params.eta, params.epsilon), t
        prev = replay
    draws = sum(r.raw_draws for r in trace.rows)
    assert draws < trace.total_draws if budget_failure else draws == trace.total_draws
    assert np.array_equal(trace.scores, agg.g(dist.xs))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_whole_exact_runs_keep_the_round_invariants(data):
    """Every round of a random run, exact or Monte Carlo, keeps the invariants of check_run.

    test_score_state_equals_trace_replay checks the ScoreState against the
    replay round by round.

    gamma = 1/4 or 3/8 makes lam a short binary fraction, and a threshold s
    on its grid lets sums of +-1 values, which the learner returns when it
    returns signs, land on s exactly. s replaces compute_params' own, which
    differs from it by rounding only.
    """
    mc = data.draw(st.booleans())
    dist = data.draw(finite_dists())
    eta = data.draw(st.floats(max(dist.eta_bound, 0.05), 0.45))
    # alpha is drawn through the threshold s it gives, small enough for short runs to reach the risky set
    top = min(0.5, math.log((1.0 - eta) / eta))
    lam = data.draw(st.one_of(st.sampled_from([0.25, 0.375]), st.floats(0.25, 0.49))) / 8.0
    s = data.draw(st.one_of(st.integers(1, 8).map(lambda k: k * lam), st.floats(0.02, top)).filter(lambda v: v < top))
    c = (1.0 - eta) * math.exp(-s) - eta
    alpha = c / (4.0 * eta + 2.0 * c)
    # Monte Carlo sample sizes grow as 1/epsilon^2
    epsilon = 2.0 * c + data.draw(st.floats(0.1 if mc else 0.0, 0.5))
    try:
        params = compute_params(eta, alpha, 8.0 * lam, epsilon, 0.1,
                                sample_scale=data.draw(st.sampled_from([0.01, 0.05])),
                                mode="mc" if mc else "exact", max_rounds=data.draw(st.integers(1, 40)))
    except ValueError:  # alpha or s rounded to 0
        reject()
    assert math.isclose(params.s, s, rel_tol=1e-9)
    params = replace(params, s=s)
    oracle = MassartOracle(dist, rng_seed=data.draw(st.integers(0, 2**32 - 1)))
    oracle.sample_batch(data.draw(st.integers(0, 20)))  # draws before the run are not the run's
    learner = SawtoothLearner(dist.dim, data.draw(st.integers(1, 10)), data.draw(st.booleans()), data.draw(st.booleans()),
                              against_f(dist, data.draw(st.integers(0, 3))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    budget_failure = False
    try:
        agg, trace = boost(oracle, learner, params, rng)
    except MaxRoundsExceeded as exc:
        agg, trace = exc.aggregated, exc.trace
        assert len(agg) == params.max_rounds
    except (DrawBudgetExceeded, ConditionalDrawBudgetExceeded) as exc:
        assert mc
        agg, trace, budget_failure = exc.aggregated, exc.trace, True
    check_run(dist, params, agg, trace, budget_failure)


def test_an_over_confident_exact_run_keeps_the_round_invariants():
    """A pinned exact run with over-confident rounds keeps the invariants of check_run.

    A drawn run need not reach one. Here the learner answers -f on the
    heaviest atom, which turns risky with the wrong sign in round 6.
    """
    dist = make_massart([((0.0,), 0.4, 1, 0.1), ((0.125,), 0.3, -1, 0.3), ((0.25,), 0.2, 1, 0.0),
                         ((0.375,), 0.1, -1, 0.2)], 0.4)
    params = compute_params(0.4, 0.04, 0.375, 0.14, 0.1, mode="exact", max_rounds=12)
    learner = SawtoothLearner(1, 5, False, against=against_f(dist, 1))
    agg, trace = boost(MassartOracle(dist, rng_seed=0), learner, params, np.random.default_rng(0))
    assert [r.round for r in trace.rows if r.overconfident] == [6, 7, 8]
    check_run(dist, params, agg, trace, False)


@settings(max_examples=100, deadline=None)
@given(dist=finite_dists())
def test_dist_serialization_round_trips(dist):
    back = parse_dist(dump_dist(dist))
    assert back.eta_bound == dist.eta_bound
    for name in ("xs", "p", "f", "eta"):
        assert getattr(back, name).tobytes() == getattr(dist, name).tobytes(), name
