"""Microbenchmark of the oracle's atom lookup against a binary search.

Each timed call maps the same 2 000 000 seeded uniform draws to atom
indices, as MassartOracle.sample_batch does for every draw. Two tables:
seed 0's instance of configs/hard_floor.cfg (100 000 equal masses, so the
oracle takes its O(1) guess-and-check path) and a random non-uniform table
of 100 000 masses (which always takes searchsorted). "lookup" is the
oracle's own lookup; "searchsorted" is the same oracle forced onto the
binary search. Both must return identical indices. This directory is
outside the pytest testpaths, so the test suite does not collect it. Run
from the repository root:

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
    dist = TABLES[request.param]()
    fast = MassartOracle(dist, rng_seed=0)
    slow = MassartOracle(dist, rng_seed=0)
    slow._uniform = False
    assert fast._uniform == (request.param == "hard_floor")
    return fast, slow, np.random.default_rng(0).random(DRAWS)


@pytest.mark.parametrize("lookup", ["lookup", "searchsorted"])
def test_atom_lookup(benchmark, table, lookup):
    fast, slow, u = table
    oracle = fast if lookup == "lookup" else slow
    idx = benchmark(oracle._atoms, u)
    assert np.array_equal(idx, slow._atoms(u))
