"""Property tests over random finite distributions and random boosting traces."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from massboost import (
    AggregatedHypothesis,
    FiniteMassartDist,
    MassartOracle,
    Measure,
    exact_density,
    exact_potential,
    reweighted_noise_rates,
)
from massboost.booster import ScoreState
from massboost.core import dump_dist, parse_dist


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


@st.composite
def traces(draw, d: int):
    rounds = draw(st.integers(1, 25))
    trace = []
    for _ in range(rounds):
        w = np.asarray(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
        h = sawtooth(w, draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 2.0)))
        trace.append((h, draw(st.booleans())))
    return trace


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_score_state_equals_trace_replay(data):
    """sigma after every round, and sigma at every draw's atom index, equal agg.g bit for bit."""
    dist = data.draw(finite_dists())
    trace = data.draw(traces(dist.dim))
    lam = data.draw(st.floats(0.01, 1.0))
    s = data.draw(st.floats(0.1, 3.0))
    withhold = data.draw(st.booleans())
    oracle = MassartOracle(dist, rng_seed=data.draw(st.integers(0, 2**32 - 1)))

    state = ScoreState(dist, lam, s, withhold)
    for t, (h, b) in enumerate(trace, start=1):
        state = state.step(state.values(h), b)
        agg = AggregatedHypothesis(lam, s, tuple(trace[:t]), ablated=not withhold)
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
    s = data.draw(st.floats(0.1, 3.0))
    withhold = data.draw(st.booleans())

    state = ScoreState(dist, lam, s, withhold)
    for h, b in trace:
        state = state.step(state.values(h), b)
    st_ = state.stats()
    assert st_.density <= st_.potential
    agg = AggregatedHypothesis(lam, s, tuple(trace), ablated=not withhold)
    measure = Measure(agg.g, s, withhold)
    assert math.isclose(st_.density, exact_density(dist, measure), rel_tol=1e-12)
    assert math.isclose(st_.potential, exact_potential(dist, agg.g), rel_tol=1e-12)
    rates, included = reweighted_noise_rates(dist, measure)
    want = float(rates[included].max()) if included.any() else 0.0
    # a- = p - a+ differs from p * eta by a rounding of p, so the rate carries an absolute error
    assert math.isclose(st_.max_noise_rate, want, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(dist=finite_dists())
def test_dist_serialization_round_trips(dist):
    back = parse_dist(dump_dist(dist))
    assert back.eta_bound == dist.eta_bound
    for name in ("xs", "p", "f", "eta"):
        assert getattr(back, name).tobytes() == getattr(dist, name).tobytes(), name
