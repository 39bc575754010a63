"""Microbenchmark of the rectangle weak learner against its frozen original.

Both learners train on the same seeded 400-point oracle sample of seed 0's
instance of configs/rect_benchmark.cfg (a union of two boxes on a 100x100
grid), with d = 2, k = 2 and alpha = 0.1. On that sample wkl_box answers
from its staircase search over positive-free candidates. The twinned
sample adds a positive copy of every negative point, so no candidate is
positive-free and wkl_box falls back to its exhaustive scan. This
directory is outside the pytest testpaths, so the test suite does not
collect it. Run from the repository root:

    python -m pytest bench/ --benchmark-only
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from massboost import MassartOracle, load_config, wkl_box  # noqa: E402
from massboost.core import LabeledSample  # noqa: E402
from massboost.harness import build_instance  # noqa: E402
from massboost.rectangles import _staircase  # noqa: E402
from wkl_box_reference import wkl_box_reference  # noqa: E402


@pytest.fixture(scope="module")
def samples():
    dist, _, _ = build_instance(load_config(ROOT / "configs" / "rect_benchmark.cfg"), 0)
    plain = MassartOracle(dist, rng_seed=0).sample_batch(400)
    neg = plain.ys == -1  # each negative point gets a positive twin
    twinned = LabeledSample(np.concatenate([plain.xs, plain.xs[neg]]), np.concatenate([plain.ys, -plain.ys[neg]]))
    return {"staircase": plain, "exhaustive": twinned}


@pytest.mark.parametrize("path", ["staircase", "exhaustive"])
@pytest.mark.parametrize("learner", [wkl_box, wkl_box_reference], ids=["wkl_box", "reference"])
def test_wkl_box(benchmark, samples, path, learner):
    sample = samples[path]
    found = _staircase(sample.xs, sample.ys == 1, 2, len(sample), 0.1 / (8.0 * 4.0**2))
    assert (found is not None) == (path == "staircase")
    h = benchmark(learner, sample, 2, 2, 0.1)
    assert h == wkl_box_reference(sample, 2, 2, 0.1)
