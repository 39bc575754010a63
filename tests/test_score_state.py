"""ScoreState's workspace arithmetic against its frozen reference, bit for bit.

tests/score_state_reference.py keeps the allocating originals of the exact
statistics, the score update and the exact over-confidence decision. Here
every ExactStats field, u_diff, both stepped score vectors and the decision
must have the same bytes as the reference on random finite distributions,
starting from adversarial scores: signed zeros, the threshold s and its
neighbours, tiny and huge magnitudes and multiples of the step size.
"""

import math
from dataclasses import fields, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from massboost import MassartOracle, compute_params
from massboost.booster import ScoreState, over_confident
from score_state_reference import ScoreStateReference, over_confident_reference
from test_properties import finite_dists, state_at

EXACT = compute_params(0.1, 0.1, 0.05, 0.15, 0.1, mode="exact")


@st.composite
def adversarial_scores(draw, n: int, s: float, lam: float):
    near_s = [s, math.nextafter(s, 0.0), math.nextafter(s, math.inf)]
    lam_multiples = [k * lam for k in range(-4, 5)] + [math.floor(s / lam) * lam, math.ceil(s / lam) * lam]
    specials = [0.0, 1e-300, 800.0] + near_s + lam_multiples
    specials += [-v for v in specials]
    element = st.one_of(st.sampled_from(specials), st.floats(-2.0 * s, 2.0 * s))
    return np.asarray(draw(st.lists(element, min_size=n, max_size=n)), dtype=np.float64)


def hypothesis_values(n: int):
    element = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
    return st.lists(element, min_size=n, max_size=n).map(lambda v: np.asarray(v, dtype=np.float64))


def assert_stats_equal(got, want):
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_score_state_matches_reference(data):
    dist = data.draw(finite_dists())
    n = dist.n_atoms
    lam = data.draw(st.one_of(st.sampled_from([0.00125, 0.125]), st.floats(0.001, 1.0)))
    s = data.draw(st.floats(0.1, 3.0))
    withhold = data.draw(st.booleans())
    params = replace(EXACT, eta=data.draw(st.floats(0.0, 0.45)), epsilon=data.draw(st.floats(0.01, 1.0)))
    oracle = MassartOracle(dist, rng_seed=0)

    ref = ScoreStateReference(dist, lam, s, withhold)
    assert_stats_equal(ScoreState(dist, lam, s, withhold).stats(), ref.stats())
    scores = data.draw(adversarial_scores(n, s, lam))
    state, ref = state_at(dist, lam, s, withhold, scores), ref.at(scores)
    for _ in range(data.draw(st.integers(1, 4))):
        assert_stats_equal(state.stats(), ref.stats())
        want = over_confident_reference(dist, ref, params.eta, params.epsilon)
        assert over_confident(oracle, state, params) == want
        hv = data.draw(hypothesis_values(n))
        assert state.advantage(hv) == ref.advantage(hv)
        # the two steps write one buffer, so each is read before the next
        for b in (False, True):
            assert state.step(hv, b).sigma.tobytes() == ref.step(hv, b).sigma.tobytes()
        b = data.draw(st.booleans())
        state, ref = state.step(hv, b), ref.step(hv, b)

