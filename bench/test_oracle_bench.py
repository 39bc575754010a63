"""Microbenchmark of the oracle's atom lookup against a binary search.

Each timed call maps the same 2 000 000 seeded uniform draws to atom
indices, as MassartOracle.sample_batch does for every draw. Two tables:
seed 0's instance of configs/hard_floor.cfg (100 000 equal masses, so
almost every guess i = floor(u n) holds) and a random non-uniform table of
100 000 masses (on which 99% of the draws miss the guess and go on to the
search). "lookup" is the oracle's own lookup; "searchsorted" is a bare
np.searchsorted of the oracle's cumulative table. Both must return
identical indices. This directory is outside the pytest testpaths, so the
test suite does not collect it. Run from the repository root:

    python -m pytest bench/ --benchmark-only
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from massboost import FiniteMassartDist, MassartOracle, load_config  # noqa: E402
from massboost.harness import build_instance  # noqa: E402

DRAWS = 2_000_000


def hard_floor_dist():
    dist, _, _ = build_instance(load_config(ROOT / "configs" / "hard_floor.cfg"), 0)
    return dist


def nonuniform_dist(n=100_000):
    p = np.random.default_rng(1).random(n) + 1e-3
    xs = np.arange(n, dtype=np.float64)[:, None]
    return FiniteMassartDist(xs, p / p.sum(), np.ones(n), np.zeros(n), 0.4)


TABLES = {"hard_floor": hard_floor_dist, "nonuniform": nonuniform_dist}


@pytest.fixture(scope="module", params=list(TABLES))
def table(request):
    return MassartOracle(TABLES[request.param](), rng_seed=0), np.random.default_rng(0).random(DRAWS)


def searchsorted(oracle, u):
    return np.searchsorted(oracle._cum[1:], u, side="right")


@pytest.mark.parametrize("lookup", ["lookup", "searchsorted"])
def test_atom_lookup(benchmark, table, lookup):
    oracle, u = table
    idx = benchmark(oracle._atoms, u) if lookup == "lookup" else benchmark(searchsorted, oracle, u)
    assert np.array_equal(idx, searchsorted(oracle, u))
