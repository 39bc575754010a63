"""Microbenchmark of one exact round of ScoreState against its frozen reference.

Both run the per-round work of boost() in exact-oracle mode on seed 0's
instance of configs/hard_floor.cfg (100 000 atoms): a hypothesis's values on
every atom, the advantage, the provisional step, the over-confidence test,
the recalibrating step when that test fires, and the next state's
statistics. Two start scores are timed:

- third_risky: uniform in (-1.5 s, 1.5 s), so about a third of the atoms is
  risky and the over-confidence test runs both of its stages. The
  hypothesis is the constant -1 that the heavy-hitter adversary answers off
  its heavy hitters.
- hard_like: the shape of a hard_floor run, where no atom is risky in all
  but one state of a seed and the masks stay the same from round to round:
  the bulk of the atoms at -s/2, one in every 6250 at s/4. The hypothesis
  alternates between -1 and +1, so no atom ever becomes risky.

Each timed call advances its own chain by one round. This directory is
outside the pytest testpaths, so the test suite does not collect it. Run
from the repository root:

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


def constant(value):
    return lambda xs: np.full(len(xs), value, dtype=np.int8)


def third_risky(params, n):
    return np.random.default_rng(0).uniform(-1.5 * params.s, 1.5 * params.s, n), [constant(-1)]


def hard_like(params, n):
    scores = np.full(n, -0.5 * params.s)
    scores[::6250] = 0.25 * params.s
    return scores, [constant(-1), constant(1)]


STARTS = {"third_risky": third_risky, "hard_like": hard_like}


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
    else:  # a freshly stepped state has cached nothing, so its scores are set in place
        state = cls(dist, params.lam, params.s, True).step(np.zeros(dist.n_atoms), False)
        state.sigma[:] = scores
    state.stats()
    return state


def exact_round(state, oracle, params, decide, h):
    hv = state.values(h)
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


@pytest.mark.parametrize("start_name", list(STARTS))
@pytest.mark.parametrize("name", list(IMPLEMENTATIONS))
def test_exact_round(benchmark, instance, name, start_name):
    dist, params = instance
    scores, hyps = STARTS[start_name](params, dist.n_atoms)
    cls, decide = IMPLEMENTATIONS[name]
    oracle = MassartOracle(dist, rng_seed=0)
    chain = [start(cls, dist, params, scores), 0]

    def one_round():
        state, k = chain
        chain[:] = exact_round(state, oracle, params, decide, hyps[k % len(hyps)]), k + 1

    benchmark(one_round)

    # the same five rounds from the start scores give the same statistics bit for bit
    new, ref = start(ScoreState, dist, params, scores), start(ScoreStateReference, dist, params, scores)
    for k in range(5):
        h = hyps[k % len(hyps)]
        new = exact_round(new, oracle, params, over_confident, h)
        ref = exact_round(ref, oracle, params, reference_decide, h)
        for f in fields(ref.stats()):
            got, want = getattr(new.stats(), f.name), getattr(ref.stats(), f.name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name
