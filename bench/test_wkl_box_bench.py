"""Microbenchmark of the rectangle weak learner against its frozen original.

Both learners train on the same seeded 400-point oracle sample of seed 0's
instance of configs/rect_benchmark.cfg (a union of two boxes on a 100x100
grid), with d = 2, k = 2 and alpha = 0.1. This directory is outside the
pytest testpaths, so the test suite does not collect it. Run from the
repository root:

    python -m pytest bench/ --benchmark-only
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from massboost import MassartOracle, load_config, wkl_box  # noqa: E402
from massboost.harness import build_instance  # noqa: E402
from wkl_box_reference import wkl_box_reference  # noqa: E402


@pytest.fixture(scope="module")
def sample():
    dist, _, _ = build_instance(load_config(ROOT / "configs" / "rect_benchmark.cfg"), 0)
    return MassartOracle(dist, rng_seed=0).sample_batch(400)


@pytest.mark.parametrize("learner", [wkl_box, wkl_box_reference], ids=["wkl_box", "reference"])
def test_wkl_box(benchmark, sample, learner):
    h = benchmark(learner, sample, 2, 2, 0.1)
    assert h == wkl_box(sample, 2, 2, 0.1)
