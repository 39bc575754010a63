"""Microbenchmark of one exact round of ScoreState against its frozen reference.

Both run the per-round work of boost() in exact-oracle mode on seed 0's
instance of configs/hard_floor.cfg (100 000 atoms): a hypothesis's values on
every atom, the advantage, the step, the over-confidence test, the
recalibration when that test fires, and the statistics after the round.
ScoreState steps its one state in place and recalibrates it; the reference
allocates a stepped state, and a second one from the old state when the
test fires. Three start scores are timed:

- third_risky: uniform in (-1.5 s, 1.5 s), so about a third of the atoms is
  risky and the over-confidence test runs both of its stages. The
  hypothesis is the constant -1 that the heavy-hitter adversary answers off
  its heavy hitters.
- hard_like: no atom risky and masks that stay the same from round to
  round, but mixed signs: the bulk of the atoms at -s/2, one in every 6250
  at s/4. The hypothesis alternates between -1 and +1, so no atom ever
  becomes risky. The statistics take ScoreState's general path and compute
  lerr and ferr anew every round. No measured run has this shape: after
  G = 0 every state of a hard_floor run is all negative, and two
  rect_benchmark runs (seeds 0 and 1) kept a mixed sign mask from one
  statistics call to the next in 306 of 1641 calls.
- one_signed: the shape of almost every state of a hard_floor run, where
  the adversary's -1 off its heavy hitters keeps every score negative and
  no atom risky: every atom at -s/2, the hypothesis alternating between -1
  and +1. The statistics take ScoreState's one-signed path, and lerr and
  ferr are the run's constants.

Each timed call advances its own chain by one round. This directory is
outside the pytest testpaths, so the test suite does not collect it;
tests/test_bench.py runs it once with --benchmark-disable. Run from the
repository root:

    python -m pytest bench/ --benchmark-only
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from massboost import MassartOracle, compute_params, load_config  # noqa: E402
from massboost.booster import ScoreState  # noqa: E402
from massboost.harness import build_instance  # noqa: E402
from score_state_reference import ScoreStateReference, over_confident_reference  # noqa: E402
from test_properties import state_at  # noqa: E402
from test_score_state import assert_stats_equal  # noqa: E402


def constant(value):
    return lambda xs: np.full(len(xs), value, dtype=np.int8)


def third_risky(params, n):
    return np.random.default_rng(0).uniform(-1.5 * params.s, 1.5 * params.s, n), [constant(-1)]


def hard_like(params, n):
    scores = np.full(n, -0.5 * params.s)
    scores[::6250] = 0.25 * params.s
    return scores, [constant(-1), constant(1)]


def one_signed(params, n):
    return np.full(n, -0.5 * params.s), [constant(-1), constant(1)]


STARTS = {"third_risky": third_risky, "hard_like": hard_like, "one_signed": one_signed}


@pytest.fixture(scope="module")
def instance():
    cfg = load_config(ROOT / "configs" / "hard_floor.cfg")
    dist, _, _ = build_instance(cfg, 0)
    params = compute_params(cfg.eta, cfg.alpha, cfg.gamma, cfg.epsilon, cfg.delta, mode="exact")
    return dist, params


def start(cls, dist, params, scores):
    """A state of class cls at the given scores, with its statistics computed."""
    if cls is ScoreStateReference:
        state = cls(dist, params.lam, params.s, True).at(scores)
    else:
        state = state_at(dist, params.lam, params.s, scores)
    state.stats()
    return state


def score_state_round(state, oracle, params, h):
    """The state after one round, taken in place."""
    hv = state.values(h)
    state.advantage(hv)
    state.step(hv)
    if state.over_confident(params.epsilon, params.eta):
        state.recalibrate()
    state.stats()
    return state


def reference_round(state, oracle, params, h):
    """A new state after one round."""
    hv = state.values(h)
    state.advantage(hv)
    added = state.step(hv, False)
    nxt = state.step(hv, True) if over_confident_reference(oracle.source, added, params.eta, params.epsilon) else added
    nxt.stats()
    return nxt


IMPLEMENTATIONS = {
    "score_state": (ScoreState, score_state_round),
    "reference": (ScoreStateReference, reference_round),
}


@pytest.mark.parametrize("start_name", list(STARTS))
@pytest.mark.parametrize("name", list(IMPLEMENTATIONS))
def test_exact_round(benchmark, instance, name, start_name):
    dist, params = instance
    scores, hyps = STARTS[start_name](params, dist.n_atoms)
    cls, take_round = IMPLEMENTATIONS[name]
    oracle = MassartOracle(dist, rng_seed=0)
    chain = [start(cls, dist, params, scores), 0]

    def one_round():
        state, k = chain
        chain[:] = take_round(state, oracle, params, hyps[k % len(hyps)]), k + 1

    benchmark(one_round)

    # the same five rounds from the start scores give the same statistics bit for bit, lerr, ferr
    # and the risky mass those of their one formula each (see tests/test_score_state.py)
    new, ref = start(ScoreState, dist, params, scores), start(ScoreStateReference, dist, params, scores)
    for k in range(5):
        h = hyps[k % len(hyps)]
        new = score_state_round(new, oracle, params, h)
        ref = reference_round(ref, oracle, params, h)
        assert_stats_equal(new.stats(), ref)
