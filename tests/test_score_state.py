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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massboost import FiniteMassartDist, MassartOracle, compute_params
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



# scores on a 1/4 grid with lam = 0.5 and s = 1, so every step below is exact
# and stepping an atom by +lam and back returns it to the same bits
MEMO_SCORES = [-0.25, 0.25, 0.75, -0.75, 0.0, -0.0, 0.5, -0.5]
# (atoms given +1, atoms given -1, b): hv = 0 rounds keep both masks, round 3
# flips the sign of atom 0, round 5 makes atom 2 risky, round 7 returns both
# (atom 2 by recalibration when withheld, by its -1 when ablated)
MEMO_SCHEDULE = [((), (), False), ((), (), False), ((0,), (), False), ((), (), False), ((2,), (), False),
                 ((), (), False), ((), (0, 2), True), ((), (), False), ((), (), False)]


@pytest.mark.parametrize("withhold", [True, False], ids=["withheld", "ablated"])
def test_memo_follows_mask_changes(withhold):
    """Masks that hold, change and return: every stats field still matches the reference, step by step."""
    n = len(MEMO_SCORES)
    dist = FiniteMassartDist(np.arange(n, dtype=np.float64).reshape(-1, 1), np.full(n, 1.0 / n),
                             [1, -1, 1, 1, -1, 1, -1, 1], [0.1, 0.0, 0.2, 0.3, 0.1, 0.0, 0.4, 0.2], 0.45)
    params = replace(EXACT, epsilon=0.01)
    oracle = MassartOracle(dist, rng_seed=0)
    state = state_at(dist, 0.5, 1.0, withhold, MEMO_SCORES)
    ref = ScoreStateReference(dist, 0.5, 1.0, withhold).at(MEMO_SCORES)
    signs, risky = set(), set()
    for plus, minus, b in MEMO_SCHEDULE:
        hv = np.zeros(n)
        hv[list(plus)], hv[list(minus)] = 1.0, -1.0
        state, ref = state.step(hv, b), ref.step(hv, b)
        assert state.sigma.tobytes() == ref.sigma.tobytes()
        assert_stats_equal(state.stats(), ref.stats())
        assert over_confident(oracle, state, params) == over_confident_reference(dist, ref, params.eta, 0.01)
        signs.add((ref.sigma >= 0).tobytes())
        risky.add((np.abs(ref.sigma) >= 1.0).tobytes())
    assert len(signs) == len(risky) == 2
    assert np.array_equal(state.sigma, MEMO_SCORES)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
def test_values_of_integer_hypotheses(dtype):
    """Integer values are clipped before they become floats; the clipped floats are the same."""
    dist = FiniteMassartDist(np.arange(6, dtype=np.float64).reshape(-1, 1), np.full(6, 1 / 6), [1] * 6, [0.0] * 6, 0.0)
    values = np.array([-3, 0, 3, -1, 1, -128 if dtype == np.int8 else -(2**40)], dtype=dtype)
    got = ScoreState(dist, 0.5, 1.0, True).values(lambda xs: values)
    want = ScoreStateReference(dist, 0.5, 1.0, True).values(lambda xs: values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
