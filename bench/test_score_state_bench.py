"""Microbenchmark of one exact round of ScoreState against its frozen reference.

Both run the per-round work of boost() in exact-oracle mode on seed 0's
instance of configs/hard_floor.cfg (100 000 atoms): a hypothesis's values on
every atom, the advantage, the provisional step, the over-confidence test,
the recalibrating step when that test fires, and the next state's
statistics. The hypothesis is the constant -1 that the heavy-hitter
adversary answers off its heavy hitters. The start scores are uniform in
(-1.5 s, 1.5 s), so about a third of the atoms is risky and the
over-confidence test runs both of its stages. Each timed call advances its
own chain by one round. This directory is outside the pytest testpaths, so
the test suite does not collect it. Run from the repository root:

    python -m pytest bench/ --benchmark-only
"""

import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from massboost import MassartOracle, compute_params, load_config  # noqa: E402
from massboost.booster import ScoreState, over_confident  # noqa: E402
from massboost.harness import build_instance  # noqa: E402
from score_state_reference import ScoreStateReference, over_confident_reference  # noqa: E402


def minus_one(xs):
    return np.full(len(xs), -1, dtype=np.int8)


@pytest.fixture(scope="module")
def instance():
    cfg = load_config(ROOT / "configs" / "hard_floor.cfg")
    dist, _, _ = build_instance(cfg, 0)
    params = compute_params(cfg.eta, cfg.alpha, cfg.gamma, cfg.epsilon, cfg.delta, mode="exact")
    scores = np.random.default_rng(0).uniform(-1.5 * params.s, 1.5 * params.s, dist.n_atoms)
    return dist, params, scores


def start(cls, dist, params, scores):
    """A state of class cls at the given scores, with its statistics computed."""
    if cls is ScoreStateReference:
        state = cls(dist, params.lam, params.s, True).at(scores)
    else:  # a freshly stepped state has cached nothing, so its scores are set in place
        state = cls(dist, params.lam, params.s, True).step(np.zeros(dist.n_atoms), False)
        state.sigma[:] = scores
    state.stats()
    return state


def exact_round(state, oracle, params, decide):
    hv = state.values(minus_one)
    state.advantage(hv)
    added = state.step(hv, False)
    nxt = state.step(hv, True) if decide(oracle, added, params) else added
    nxt.stats()
    return nxt


def reference_decide(oracle, state, params):
    return over_confident_reference(oracle.source, state, params.eta, params.epsilon)


IMPLEMENTATIONS = {
    "score_state": (ScoreState, over_confident),
    "reference": (ScoreStateReference, reference_decide),
}


@pytest.mark.parametrize("name", list(IMPLEMENTATIONS))
def test_exact_round(benchmark, instance, name):
    dist, params, scores = instance
    cls, decide = IMPLEMENTATIONS[name]
    oracle = MassartOracle(dist, rng_seed=0)
    chain = [start(cls, dist, params, scores)]

    def one_round():
        chain[0] = exact_round(chain[0], oracle, params, decide)

    benchmark(one_round)

    # the same five rounds from the start scores give the same statistics bit for bit
    new, ref = start(ScoreState, dist, params, scores), start(ScoreStateReference, dist, params, scores)
    for _ in range(5):
        new = exact_round(new, oracle, params, over_confident)
        ref = exact_round(ref, oracle, params, reference_decide)
        for f in fields(ref.stats()):
            got, want = getattr(new.stats(), f.name), getattr(ref.stats(), f.name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name
