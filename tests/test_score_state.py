"""ScoreState's workspace arithmetic against its frozen reference, bit for bit.

tests/score_state_reference.py keeps the allocating originals of the exact
statistics, the score update and the exact over-confidence decision. Here
every ExactStats field, u_diff, the scores after step() and after
recalibrate(), and the decision must have the same bytes as the reference on random finite distributions,
starting from adversarial scores: signed zeros, the threshold s and its
neighbours, tiny and huge magnitudes and multiples of the step size. lerr,
ferr and the risky mass are the exceptions: each must have the bytes of its
one formula, core.label_errors of sign(sigma) and p[|sigma| >= s].sum(),
which summary.json and over_confident use too. States with every score in
(-s, 0), for which stats() skips what the masks make constant, are drawn on
their own, with steps that leave them and return. The ablation is the
threshold s = inf: its states must have the bytes of the reference's
withhold=False path at a finite s, with a risky mass of 0.0.
"""

import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massboost import FiniteMassartDist, compute_params, load_config
from massboost.booster import ScoreState
from massboost.core import label_errors, sign_pm1
from massboost.harness import build_instance
from score_state_reference import ScoreStateReference, over_confident_reference
from test_properties import finite_dists, state_at, take_round

EXACT = compute_params(0.1, 0.1, 0.05, 0.15, 0.1, mode="exact")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def assert_stats_equal(got, ref, s=None):
    """got has the bytes of ref's stats, with lerr, ferr and the risky mass of their one formula each.

    The risky mass is taken at the threshold s of got's state, ref.s unless given.
    """
    dist, sigma = ref.dist, ref.sigma
    s = ref.s if s is None else s
    lerr, ferr = label_errors(dist.p, dist.eta, sign_pm1(sigma) != dist.f)
    want = replace(ref.stats(), lerr=lerr, ferr=ferr, risky_mass=float(dist.p[np.abs(sigma) >= s].sum()))
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


def assert_round_matches(state, ref, hv, params):
    """Statistics, over-confidence decision, advantage of hv and the round by hv match the reference.

    At the state's threshold s = inf nothing is risky, so its decision is False whatever the reference's.
    The round is taken by a state at the same scores, which must match the reference's round without
    recalibration after step() and with it after recalibrate(); state itself does not move.
    """
    assert_stats_equal(state.stats(), ref, state.s)
    want = state.s < math.inf and over_confident_reference(state.dist, ref, params.eta, params.epsilon)
    assert state.over_confident(params.epsilon, params.eta) == want
    assert state.advantage(hv) == ref.advantage(hv)
    trial = state_at(state.dist, state.lam, state.s, state.sigma)
    trial.step(hv)
    assert trial.sigma.tobytes() == ref.step(hv, False).sigma.tobytes()
    trial.recalibrate()
    assert trial.sigma.tobytes() == ref.step(hv, True).sigma.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_score_state_matches_reference(data):
    dist = data.draw(finite_dists())
    n = dist.n_atoms
    lam = data.draw(st.one_of(st.sampled_from([0.00125, 0.125]), st.floats(0.001, 1.0)))
    s = data.draw(st.floats(0.1, 3.0))
    params = replace(EXACT, eta=data.draw(st.floats(0.0, 0.45)), epsilon=data.draw(st.floats(0.01, 1.0)))

    ref = ScoreStateReference(dist, lam, s, True)
    assert_stats_equal(ScoreState(dist, lam, s).stats(), ref)
    scores = data.draw(adversarial_scores(n, s, lam))
    state, ref = state_at(dist, lam, s, scores), ref.at(scores)
    for _ in range(data.draw(st.integers(1, 4))):
        hv = data.draw(hypothesis_values(n))
        assert_round_matches(state, ref, hv, params)
        b = data.draw(st.booleans())
        state, ref = take_round(state, hv, b), ref.step(hv, b)
        assert state.sigma.tobytes() == ref.sigma.tobytes()


@st.composite
def one_signed_scores(draw, n: int, s: float, lam: float):
    """Scores in (-s, 0): no atom is risky and none is >= 0."""
    largest = -5e-324  # the negative float nearest 0
    specials = [largest, math.nextafter(-s, 0.0), -s / 2] + [-k * lam for k in range(1, 5) if k * lam < s]
    element = st.one_of(st.sampled_from(specials), st.floats(-s, largest, exclude_min=True))
    return np.asarray(draw(st.lists(element, min_size=n, max_size=n)), dtype=np.float64)


# (atom, its value, b) with the other values 0: atom 0 starts at -lam/2,
# crosses 0 and returns; atom 1 starts lam/2 above -s, passes -s and returns
# by recalibration
LEAVE_AND_RETURN = [(0, 1.0, False), (0, -1.0, False), (1, -1.0, False), (1, 1.0, True)]


def one_signed(sigma: np.ndarray, s: float) -> bool:
    return not ((sigma >= 0.0).any() or (np.abs(sigma) >= s).any())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_signed_states_match_reference(data):
    """States with every score in (-s, 0) match the reference, also on steps that leave them and return."""
    dist = data.draw(finite_dists().filter(lambda d: d.n_atoms >= 2))
    n = dist.n_atoms
    s = data.draw(st.floats(0.1, 3.0))
    lam = data.draw(st.one_of(st.sampled_from([0.00125, 0.125]), st.floats(0.001, 1.0)).filter(lambda v: v < s))
    params = replace(EXACT, eta=data.draw(st.floats(0.0, 0.45)), epsilon=data.draw(st.floats(0.01, 1.0)))

    scores = data.draw(one_signed_scores(n, s, lam))
    assert one_signed(scores, s)
    state = state_at(dist, lam, s, scores)
    ref = ScoreStateReference(dist, lam, s, True).at(scores)
    assert_round_matches(state, ref, data.draw(hypothesis_values(n)), params)

    scores[:2] = -lam / 2, -s + lam / 2
    state, ref = state_at(dist, lam, s, scores), ref.at(scores)
    for k, (atom, value, b) in enumerate(LEAVE_AND_RETURN):
        hv = np.zeros(n)
        hv[atom] = value
        state, ref = take_round(state, hv, b), ref.step(hv, b)
        assert state.sigma.tobytes() == ref.sigma.tobytes()
        assert one_signed(ref.sigma, s) == (k % 2 == 1)
        assert_round_matches(state, ref, data.draw(hypothesis_values(n)), params)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_infinite_threshold_is_the_ablation(data):
    """ScoreState at s = inf has the bytes of the reference's ablation at a finite s, and a risky mass of 0.0.

    Scores drawn in (-2s, 0) are one-signed at s = inf but some are risky at s, so stats() takes its
    one-signed path where the reference takes the general one.
    """
    dist = data.draw(finite_dists())
    n = dist.n_atoms
    lam = data.draw(st.one_of(st.sampled_from([0.00125, 0.125]), st.floats(0.001, 1.0)))
    s = data.draw(st.floats(0.1, 3.0))
    params = replace(EXACT, eta=data.draw(st.floats(0.0, 0.45)), epsilon=data.draw(st.floats(0.01, 1.0)))

    ref = ScoreStateReference(dist, lam, s, False)
    assert_stats_equal(ScoreState(dist, lam, math.inf).stats(), ref, math.inf)
    scores = data.draw(st.one_of(adversarial_scores(n, s, lam), one_signed_scores(n, 2.0 * s, lam)))
    state, ref = state_at(dist, lam, math.inf, scores), ref.at(scores)
    for _ in range(data.draw(st.integers(1, 4))):
        hv = data.draw(hypothesis_values(n))
        assert state.stats().risky_mass == 0.0
        assert_round_matches(state, ref, hv, params)
        b = data.draw(st.booleans())
        state, ref = take_round(state, hv, b), ref.step(hv, b)
        assert state.sigma.tobytes() == ref.sigma.tobytes()


# scores on a 1/4 grid with lam = 0.5 and s = 1, so every step below is exact
# and stepping an atom by +lam and back returns it to the same bits
MASK_SCORES = [-0.25, 0.25, 0.75, -0.75, 0.0, -0.0, 0.5, -0.5]
# (atoms given +1, atoms given -1, b): hv = 0 rounds keep both masks, round 3
# flips the sign of atom 0, round 5 makes atom 2 risky, round 7 returns both
# (atom 2 by recalibration when withheld, by its -1 when ablated)
MASK_SCHEDULE = [((), (), False), ((), (), False), ((0,), (), False), ((), (), False), ((2,), (), False),
                 ((), (), False), ((), (0, 2), True), ((), (), False), ((), (), False)]


@pytest.mark.parametrize("s", [1.0, math.inf], ids=["withheld", "ablated"])
def test_stats_follow_mask_changes(s):
    """Masks that hold, change and return: every stats field still matches the reference, step by step.

    The reference's threshold is 1; at the state's s = inf it takes its withhold=False path.
    """
    n = len(MASK_SCORES)
    dist = FiniteMassartDist(np.arange(n, dtype=np.float64).reshape(-1, 1), np.full(n, 1.0 / n),
                             [1, -1, 1, 1, -1, 1, -1, 1], [0.1, 0.0, 0.2, 0.3, 0.1, 0.0, 0.4, 0.2], 0.45)
    params = replace(EXACT, epsilon=0.01)
    state = state_at(dist, 0.5, s, MASK_SCORES)
    ref = ScoreStateReference(dist, 0.5, 1.0, s < math.inf).at(MASK_SCORES)
    signs, risky = set(), set()
    for plus, minus, b in MASK_SCHEDULE:
        hv = np.zeros(n)
        hv[list(plus)], hv[list(minus)] = 1.0, -1.0
        state, ref = take_round(state, hv, b), ref.step(hv, b)
        assert state.sigma.tobytes() == ref.sigma.tobytes()
        assert_stats_equal(state.stats(), ref, s)
        want = s < math.inf and over_confident_reference(dist, ref, params.eta, params.epsilon)
        assert state.over_confident(params.epsilon, params.eta) == want
        signs.add((ref.sigma >= 0).tobytes())
        risky.add((np.abs(ref.sigma) >= 1.0).tobytes())
    assert len(signs) == len(risky) == 2
    assert np.array_equal(state.sigma, MASK_SCORES)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
def test_values_of_integer_hypotheses(dtype):
    """Integer values are clipped before they become floats; the clipped floats are the same."""
    dist = FiniteMassartDist(np.arange(6, dtype=np.float64).reshape(-1, 1), np.full(6, 1 / 6), [1] * 6, [0.0] * 6, 0.0)
    values = np.array([-3, 0, 3, -1, 1, -128 if dtype == np.int8 else -(2**40)], dtype=dtype)
    got = ScoreState(dist, 0.5, 1.0).values(lambda xs: values)
    want = ScoreStateReference(dist, 0.5, 1.0, True).values(lambda xs: values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg_file", ["rect_benchmark.cfg", "hard_floor.cfg"])
def test_empty_risky_set_has_mass_zero(cfg_file):
    """On seed 0's instance, at G = 0 (the general path) and at G = -lam (the one-signed path), no
    atom is risky and the risky mass is exactly 0.0, not the rounding left by 1 - dot(p, 1)."""
    dist = build_instance(load_config(CONFIGS / cfg_file), 0)[0]
    state = ScoreState(dist, EXACT.lam, EXACT.s)
    assert state.stats().risky_mass == 0.0 and (state.sigma >= 0.0).all()
    state.step(np.full(dist.n_atoms, -1.0))
    assert state.stats().risky_mass == 0.0 and (state.sigma == -EXACT.lam).all()
