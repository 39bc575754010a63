"""Property tests of the rectangle weak learner.

Two oracles check wkl_box on random samples: the frozen original learner
(wkl_box_reference.py), which must return the very same hypothesis, and a
brute-force search over every candidate rectangle of a tiny sample, which
must reach the same objective value. The samples reach both of wkl_box's
searches: the staircase over positive-free candidates and, on twinned
labels, the exhaustive scan it falls back to. The brute-force test also
runs against the frozen learner, which shows that the reference itself is
faithful. A third test checks every candidate count against
NegRectangle.contains.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from massboost import wkl_box
from massboost.core import LabeledSample
from massboost.rectangles import NegRectangle, _blocks, _staircase
from wkl_box_reference import wkl_box_reference


@st.composite
def samples(draw, max_n, max_grid, max_k=3):
    """(sample, d, k, alpha) on a coarse half-integer grid with heavy ties.

    Zero is drawn as +0.0 and -0.0, which compare equal but are distinct
    floats. The labels are all -1, all +1 (the constant +1 branch), mixed,
    or twinned: mixed, plus a positive copy of every negative point at the
    same coordinates. A twinned sample has no positive-free candidate, so
    wkl_box falls back from its staircase search to the exhaustive scan.
    """
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, max_n))
    grid = draw(st.integers(1, max_grid))
    coord = st.one_of(st.integers(-grid, grid).map(lambda v: v / 2.0), st.sampled_from([0.0, -0.0]))
    xs = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    labels = draw(st.sampled_from(["negative", "positive", "mixed", "twinned"]))
    if labels in ("mixed", "twinned"):
        ys = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    else:
        ys = [-1 if labels == "negative" else 1] * n
    if labels == "twinned":
        twins = [x for x, y in zip(xs, ys) if y == -1]
        xs, ys = xs + twins, ys + [1] * len(twins)
    alpha = draw(st.floats(0.001, 0.49))
    sample = LabeledSample(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.int8))
    return sample, d, k, alpha


def make_case(xs, ys, k, alpha):
    xs = np.asarray(xs, dtype=np.float64)
    return LabeledSample(xs, np.asarray(ys, dtype=np.int8)), xs.shape[1], k, alpha


# All negative: every cell has positive fraction 0, so the key falls to the support.
ALL_NEGATIVE = make_case([[0.0, 1.0], [-0.0, 1.0], [0.5, -0.5], [1.0, 1.0]], [-1] * 4, 2, 0.1)
# Negative fraction 1/5 below alpha/2: the constant +1 branch.
CONSTANT_PLUS = make_case([[0.0], [1.0], [2.0], [3.0], [-0.0]], [1, 1, 1, -1, 1], 1, 0.45)
# Every negative point has a positive twin: no positive-free candidate, the exhaustive scan.
TWINNED = make_case([[0.0, 1.0], [1.0, -0.0], [0.5, 0.5], [0.0, 1.0], [1.0, -0.0]], [-1, -1, 1, 1, 1], 2, 0.1)
# Two rows of the block (x0 >= t, x1 <= u) tie at the largest positive-free count: the first row wins.
TIED_ROWS = make_case([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [2.0, 0.0]], [1, 1, 1, -1], 2, 0.1)
# The only positive-free cell holds 1 of 64 points, exactly the floor 0.25 / 16, which it must exceed.
AT_FLOOR = make_case([[float(i)] for i in range(64)], [1, -1] * 32, 1, 0.25)
# k = 0 admits no inequality, so no cell can clear the floor: the constant majority.
# With k >= 1 this branch cannot run: the block's smallest threshold keeps all n points.
NO_CELL = make_case([[0.0, 0.0], [1.0, -0.0], [1.0, 1.0]], [-1, -1, 1], 0, 0.1)


@settings(max_examples=200, deadline=None)
@given(case=samples(max_n=60, max_grid=4, max_k=4))
@example(case=ALL_NEGATIVE)
@example(case=CONSTANT_PLUS)
@example(case=TWINNED)
@example(case=NO_CELL)
def test_matches_frozen_reference(case):
    # k = 4 lets two slabs (both directions on one axis) share a block
    sample, d, k, alpha = case
    assert wkl_box(sample, d, k, alpha) == wkl_box_reference(sample, d, k, alpha)


@settings(max_examples=500, deadline=None)
@given(case=samples(max_n=60, max_grid=4, max_k=2))
@example(case=TIED_ROWS)
@example(case=AT_FLOOR)
def test_staircase_matches_frozen_reference(case):
    # k <= 2 is where the staircase search runs; many examples, because a
    # two-axis block wins only in about a quarter of the mixed-label samples
    sample, d, k, alpha = case
    assert wkl_box(sample, d, k, alpha) == wkl_box_reference(sample, d, k, alpha)


def test_examples_reach_both_search_paths():
    # the staircase answers for ALL_NEGATIVE; TWINNED has no positive-free cell and falls back
    for (sample, d, k, alpha), found in [(ALL_NEGATIVE, True), (TWINNED, False)]:
        floor = alpha / (8.0 * (2.0 * d) ** k)
        assert (_staircase(sample.xs, sample.ys == 1, k, len(sample), floor) is not None) == found


def objective(rect, xs, ys):
    """(positive fraction inside, -support) of a rectangle on the sample."""
    inside = rect.contains(xs)
    support = int(inside.sum())
    return int(np.sum(ys[inside] == 1)) / support, -support


def brute_force_best(xs, ys, d, k, alpha):
    """Minimal objective over every rectangle of at most k inequalities above the mass floor.

    Thresholds run over the sample's coordinates. Two inequalities on one
    signed axis cut out the same set as the tighter one alone, so each
    candidate uses distinct signed axes.
    """
    n = len(ys)
    floor = alpha / (8.0 * (2.0 * d) ** k)
    families = [(axis, direction) for axis in range(d) for direction in (1, -1)]
    best = None
    for r in range(1, k + 1):
        for combo in itertools.combinations(families, r):
            thresholds = [np.unique(direction * xs[:, axis]) for axis, direction in combo]
            for ts in itertools.product(*thresholds):
                rect = NegRectangle(tuple((a, s, float(t)) for (a, s), t in zip(combo, ts)))
                inside = rect.contains(xs)
                if inside.sum() / n > floor:
                    value = objective(rect, xs, ys)
                    if best is None or value < best:
                        best = value
    return best


@pytest.mark.parametrize("learner", [wkl_box, wkl_box_reference], ids=["wkl_box", "reference"])
@settings(max_examples=150, deadline=None)
@given(case=samples(max_n=8, max_grid=2))
@example(case=ALL_NEGATIVE)
@example(case=CONSTANT_PLUS)
@example(case=TWINNED)
def test_reaches_brute_force_optimum(learner, case):
    sample, d, k, alpha = case
    xs, ys = sample.xs, sample.ys
    h = learner(sample, d, k, alpha)
    if np.mean(ys == -1) < alpha / 2.0:
        assert h.constant_flag and h.z == 1
        return
    assert not h.constant_flag
    assert h.b_best.contains(xs).sum() / len(ys) > alpha / (8.0 * (2.0 * d) ** k)
    assert objective(h.b_best, xs, ys) == brute_force_best(xs, ys, d, k, alpha)
    outside = ys[~h.b_best.contains(xs)]
    majority = 1 if np.sum(outside == 1) >= np.sum(outside == -1) else -1
    assert h.z == majority


@settings(max_examples=100, deadline=None)
@given(case=samples(max_n=8, max_grid=2, max_k=4))
def test_block_counts_match_contains(case):
    # every cell of every block counts exactly the points of its rectangle;
    # k = 4 lets two slabs share a block
    sample, d, k, _ = case
    positive = sample.ys == 1
    for combo, thresholds, counts in _blocks(sample.xs, positive, k):
        for cell in np.ndindex(counts.shape[1:]):
            rect = NegRectangle(tuple((a, s, float(t[i])) for (a, s), t, i in zip(combo, thresholds, cell)))
            inside = rect.contains(sample.xs)
            assert counts[(0,) + cell] == inside.sum()
            assert counts[(1,) + cell] == (inside & positive).sum()
