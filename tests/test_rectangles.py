import itertools
import math

import numpy as np
import pytest

from massboost import (
    BoxWeakLearner,
    FiniteMassartDist,
    MassartOracle,
    RectangleUnion,
    enumerate_negative_subrectangles,
    exact_advantage,
    wkl_box,
)
from massboost.core import LabeledSample
from massboost.rectangles import EmptySample, Rectangle


def box(lo, hi):
    """Full-dimensional rectangle lo < x < hi (componentwise)."""
    ineqs = []
    for axis, (a, b) in enumerate(zip(lo, hi)):
        ineqs.append((axis, 1, b))
        ineqs.append((axis, -1, -a))
    return Rectangle(tuple(ineqs))


def grid_dist(d, side, union, eta=0.0, eta_bound=0.4, rng=None):
    axes = [(np.arange(side) + 0.5) / side for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([m.ravel() for m in mesh], axis=1)
    f = union(xs)
    n = len(xs)
    if rng is None:
        noise = np.full(n, eta)
    else:
        noise = eta * rng.random(n)
    p = np.full(n, 1.0 / n)
    return FiniteMassartDist(xs, p, f, noise, eta_bound)


class TestRectUnionEval:
    def test_strictly_inside(self):
        union = RectangleUnion((box([0.0, 0.0], [0.5, 0.5]),))
        assert union(np.array([[0.25, 0.25]]))[0] == 1

    def test_boundary_fails_strict(self):
        union = RectangleUnion((box([0.0, 0.0], [0.5, 0.5]),))
        assert np.array_equal(union(np.array([[0.5, 0.25], [0.0, 0.25]])), [-1, -1])

    def test_empty_union_all_negative(self):
        union = RectangleUnion(())
        assert union(np.array([[0.3, 0.3]]))[0] == -1

    def test_union_of_two(self):
        union = RectangleUnion(
            (box([0.0], [0.2]), box([0.7], [0.9]))
        )
        assert np.array_equal(union(np.array([[0.1], [0.8], [0.5]])), [1, 1, -1])


class TestWklBox:
    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            wkl_box(LabeledSample(np.empty((0, 1)), np.empty(0, dtype=np.int8)), 1, 1, 0.1)

    def test_all_positive_sample_constant_plus_one(self):
        xs = np.random.default_rng(0).random((100, 2))
        sample = LabeledSample(xs, np.ones(100, dtype=np.int8))
        h = wkl_box(sample, 2, 1, alpha=0.1)
        assert h.constant_flag and h.z == 1
        assert np.all(h(xs) == 1)

    def test_one_dim_half_interval(self):
        # concept positive on [0, 0.5); the learned rectangle must sit in
        # [0.5, 1] and beat the advertised advantage on the exact grid
        union = RectangleUnion((Rectangle(((0, 1, 0.5), (0, -1, 0.0))),))
        dist = grid_dist(1, 100, union, eta=0.0)
        oracle = MassartOracle(dist, rng_seed=1)
        sample = oracle.sample_batch(2000)
        h = wkl_box(sample, 1, 1, alpha=0.1)
        assert not h.constant_flag
        inside = h.b_best.contains(dist.xs)
        assert np.all(dist.xs[inside, 0] >= 0.5)
        assert np.all(dist.f[inside] == -1)
        assert exact_advantage(dist, h) >= 0.1**2 / (2.0 * 1.0)

    def test_all_negative_sample_covers_everything(self):
        xs = np.random.default_rng(1).random((200, 1))
        sample = LabeledSample(xs, -np.ones(200, dtype=np.int8))
        h = wkl_box(sample, 1, 1, alpha=0.1)
        assert not h.constant_flag
        assert np.all(h(xs) == -1)
        # on a noiseless all-negative distribution the advantage is 1/2
        n = 50
        grid = ((np.arange(n) + 0.5) / n).reshape(-1, 1)
        dist = FiniteMassartDist(grid, np.full(n, 1 / n), -np.ones(n, dtype=int), np.zeros(n), 0.3)
        covers = h.b_best.contains(grid)
        if np.all(covers):
            assert exact_advantage(dist, h) == 0.5

    def test_enumeration_size_bound(self):
        # the candidate grid is at most (2 d N)^k cells in total
        rng = np.random.default_rng(5)
        d, k, n = 2, 2, 60
        xs = rng.random((n, d))
        total = 0
        families = [(axis, direction) for axis in range(d) for direction in (1, -1)]
        projections = [direction * xs[:, axis] for axis, direction in families]
        for r in range(1, k + 1):
            for combo in itertools.combinations(range(len(families)), r):
                total += int(np.prod([len(np.unique(projections[fi])) for fi in combo]))
        assert total <= (2 * d * n) ** k

    def test_noisy_instance_still_learns(self):
        rng = np.random.default_rng(7)
        union = RectangleUnion((box([0.2, 0.2], [0.6, 0.7]),))
        dist = grid_dist(2, 40, union, eta=0.2, rng=rng)
        oracle = MassartOracle(dist, rng_seed=3)
        sample = oracle.sample_batch(3000)
        h = wkl_box(sample, 2, 1, alpha=0.1)
        assert exact_advantage(dist, h) >= 0.1**2 / (2.0 * 2.0)


class TestStructuralEnumeration:
    def test_one_dim_half_line(self):
        union = RectangleUnion((Rectangle(((0, 1, 0.5),)),))
        dist = grid_dist(1, 100, union)
        rect, mass = enumerate_negative_subrectangles(union, dist)
        assert rect.ineqs == ((0, 1, 0.5),)
        assert math.isclose(mass, 0.5, abs_tol=1e-12)
        assert mass >= 0.5 / 2.0  # negative mass / (2d)^k

    def test_empty_negative_region(self):
        union = RectangleUnion((Rectangle(()),))  # unconstrained: covers all
        dist = grid_dist(1, 10, union)
        _, mass = enumerate_negative_subrectangles(union, dist)
        assert mass == 0.0

    def test_random_instances_meet_structural_bound(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            side = {1: 200, 2: 25, 3: 10}[d]
            rects = []
            for _ in range(k):
                lo = rng.uniform(0, 0.5, size=d)
                hi = lo + rng.uniform(0.2, 0.5, size=d)
                rects.append(box(lo, hi))
            union = RectangleUnion(tuple(rects))
            dist = grid_dist(d, side, union)
            neg_mass = float(dist.p[union(dist.xs) == -1].sum())
            rect, mass = enumerate_negative_subrectangles(union, dist)
            assert mass >= neg_mass / (2 * d) ** k - 1e-12
            assert len(rect.ineqs) <= k
            if mass > 0:
                inside = rect.contains(dist.xs)
                assert np.all(union(dist.xs)[inside] == -1)


class TestWeakLearnerContract:
    def test_advantage_on_massart_instances(self):
        # random rectangle-union instances with noise bound below 1/2 - alpha;
        # the advertised advantage must be met on a clear supermajority
        alpha = 0.1
        rng = np.random.default_rng(23)
        wins = 0
        trials = 12
        for trial in range(trials):
            d = int(rng.integers(1, 3))
            k = int(rng.integers(1, 3))
            side = {1: 100, 2: 30}[d]
            rects = []
            for _ in range(k):
                lo = rng.uniform(0, 0.5, size=d)
                hi = lo + rng.uniform(0.25, 0.5, size=d)
                rects.append(box(lo, hi))
            union = RectangleUnion(tuple(rects))
            dist = grid_dist(d, side, union, eta=0.3, rng=rng, eta_bound=0.3)
            learner = BoxWeakLearner(d=d, k=k, alpha=alpha, sample_scale=0.5)
            oracle = MassartOracle(dist, rng_seed=100 + trial)
            sample = oracle.sample_batch(learner.sample_size)
            h = learner.train(sample, rng)
            if exact_advantage(dist, h) >= learner.gamma:
                wins += 1
        assert wins >= (2 * trials) // 3

    def test_sample_size_and_gamma(self):
        learner = BoxWeakLearner(d=2, k=2, alpha=0.1)
        assert learner.gamma == 0.1**2 / (2 * 2) ** 2
        assert learner.sample_size == math.ceil(2 * (2 * 2) ** 2 / 0.1**2)

    def test_train_from_source_draws_one_sample_of_sample_size(self):
        union = RectangleUnion((box([0.2, 0.2], [0.6, 0.7]),))
        dist = grid_dist(2, 20, union, eta=0.1, rng=np.random.default_rng(5), eta_bound=0.1)
        learner = BoxWeakLearner(d=2, k=1, alpha=0.1, sample_scale=0.5)
        requests = []

        def source(count):
            requests.append(count)
            return MassartOracle(dist, rng_seed=9).sample_batch(count)

        h = learner.train_from_source(source, np.random.default_rng(0))
        assert requests == [learner.sample_size]
        assert h == learner.train(MassartOracle(dist, rng_seed=9).sample_batch(learner.sample_size), None)
