import math

import numpy as np
import pytest

from massboost import FiniteMassartDist, MassartOracle, exact_advantage, exact_ferr, exact_lerr, make_massart
from massboost.core import (
    BadProbability,
    BoundNotBelowHalf,
    DuplicatePoint,
    NoiseExceedsBound,
    dump_dist,
    load_dist,
    parse_dist,
    save_dist,
)


def single_atom(f=1, eta=0.0, eta_bound=0.4):
    return make_massart([((0.0,), 1.0, f, eta)], eta_bound)


def two_atoms(f=(1, 1), eta=(0.0, 0.0), eta_bound=0.4):
    return make_massart(
        [((0.0,), 0.5, f[0], eta[0]), ((1.0,), 0.5, f[1], eta[1])], eta_bound
    )


def const(v):
    return lambda xs: np.full(np.atleast_2d(xs).shape[0], v)


class TestMakeMassart:
    def test_valid_distribution(self):
        dist = make_massart(
            [((0.0,), 0.25, 1, 0.1), ((1.0,), 0.75, -1, 0.2)], eta_bound=0.3
        )
        assert dist.n_atoms == 2
        assert math.isclose(dist.p.sum(), 1.0, abs_tol=1e-15)

    def test_noise_exceeds_bound(self):
        with pytest.raises(NoiseExceedsBound):
            make_massart([((0.0,), 1.0, 1, 0.6)], eta_bound=0.4)

    def test_bound_not_below_half(self):
        with pytest.raises(BoundNotBelowHalf):
            make_massart([((0.0,), 1.0, 1, 0.1)], eta_bound=0.5)

    def test_duplicate_point(self):
        with pytest.raises(DuplicatePoint):
            make_massart([((0.0,), 0.5, 1, 0.0), ((0.0,), 0.5, -1, 0.0)], eta_bound=0.4)

    def test_bad_probability_sum(self):
        with pytest.raises(BadProbability):
            make_massart([((0.0,), 0.5, 1, 0.0), ((1.0,), 0.4, 1, 0.0)], eta_bound=0.4)

    def test_negative_probability(self):
        with pytest.raises(BadProbability):
            make_massart([((0.0,), 1.2, 1, 0.0), ((1.0,), -0.2, 1, 0.0)], eta_bound=0.4)

    def test_normalizes_near_one_sums(self):
        dist = make_massart(
            [((0.0,), 0.5 + 2e-10, 1, 0.0), ((1.0,), 0.5, 1, 0.0)], eta_bound=0.4
        )
        assert dist.p.sum() == 1.0


class TestSampleExample:
    def test_zero_noise_point_always_clean(self):
        oracle = MassartOracle(single_atom(f=1, eta=0.0), rng_seed=7)
        batch = oracle.sample_batch(50)
        assert np.all(batch.ys == 1) and np.all(batch.xs == 0.0)
        assert oracle.draws == 50

    def test_flip_rate_matches_eta(self):
        # Monte Carlo vs the exact flip rate of a single eta = 0.3 atom
        oracle = MassartOracle(single_atom(f=1, eta=0.3), rng_seed=123)
        n = 100_000
        batch = oracle.sample_batch(n)
        frac_minus = np.mean(batch.ys == -1)
        assert abs(frac_minus - 0.3) < 0.01

    def test_same_seed_same_stream(self):
        dist = two_atoms(f=(1, -1), eta=(0.1, 0.2))
        a = MassartOracle(dist, rng_seed=99)
        b = MassartOracle(dist, rng_seed=99)
        for _ in range(100):
            ea, eb = a.sample_batch(1), b.sample_batch(1)
            assert np.array_equal(ea.ys, eb.ys)
            assert np.array_equal(ea.xs, eb.xs)


class TestExactMetrics:
    def test_lerr_zero_noise_perfect(self):
        dist = two_atoms(f=(1, -1))
        assert exact_lerr(dist, lambda xs: dist.f[xs[:, 0].astype(int)]) == 0.0

    def test_lerr_equals_noise_rate(self):
        dist = two_atoms(f=(1, -1), eta=(0.2, 0.2))
        h = lambda xs: np.where(xs[:, 0] < 0.5, 1, -1)
        assert math.isclose(exact_lerr(dist, h), 0.2, abs_tol=1e-15)

    def test_lerr_wrong_on_one_noiseless_atom(self):
        # enumerate both atoms: wrong on a mass-1/2 noiseless atom costs 1/2
        dist = two_atoms(f=(1, 1))
        h = lambda xs: np.where(xs[:, 0] < 0.5, -1, 1)
        assert exact_lerr(dist, h) == 0.5

    def test_ferr_perfect_and_inverted(self):
        dist = two_atoms(f=(1, -1), eta=(0.1, 0.1))
        h = lambda xs: np.where(xs[:, 0] < 0.5, 1, -1)
        assert exact_ferr(dist, h) == 0.0
        assert exact_ferr(dist, lambda xs: -h(xs)) == 1.0

    def test_ferr_mass_quarter(self):
        dist = make_massart(
            [((0.0,), 0.25, 1, 0.0), ((1.0,), 0.75, 1, 0.0)], eta_bound=0.4
        )
        h = lambda xs: np.where(xs[:, 0] < 0.5, -1, 1)
        assert exact_ferr(dist, h) == 0.25

    def test_advantage_perfect_noiseless(self):
        dist = two_atoms(f=(1, -1))
        h = lambda xs: np.where(xs[:, 0] < 0.5, 1, -1)
        assert exact_advantage(dist, h) == 0.5

    def test_advantage_constant_on_balanced_labels(self):
        dist = two_atoms(f=(1, -1))
        assert exact_advantage(dist, const(1)) == 0.0

    def test_advantage_under_rcn(self):
        dist = two_atoms(f=(1, -1), eta=(0.1, 0.1))
        h = lambda xs: np.where(xs[:, 0] < 0.5, 1, -1)
        assert math.isclose(exact_advantage(dist, h), 0.4, abs_tol=1e-15)


class TestInvariants:
    def test_lerr_advantage_identity_random_hypotheses(self):
        rng = np.random.default_rng(42)
        xs = rng.random((30, 2))
        p = rng.random(30)
        p /= p.sum()
        f = np.where(rng.random(30) < 0.5, 1, -1)
        eta = 0.35 * rng.random(30)
        dist = FiniteMassartDist(xs, p, f, eta, 0.35)
        for _ in range(100):
            w = rng.normal(size=2)
            b = rng.normal()
            h = lambda q, w=w, b=b: np.where(q @ w + b < 0, -1, 1)
            assert abs(exact_lerr(dist, h) - (0.5 - exact_advantage(dist, h))) < 1e-12

    def test_opt_is_expected_noise(self):
        dist = two_atoms(f=(1, -1), eta=(0.1, 0.3))
        assert math.isclose(dist.opt(), 0.2, abs_tol=1e-15)
        truth = lambda xs: dist.f[xs[:, 0].astype(int)]
        assert math.isclose(exact_lerr(dist, truth), dist.opt(), abs_tol=1e-15)

    def test_monte_carlo_lerr_converges(self):
        rng = np.random.default_rng(11)
        xs = rng.random((20, 1))
        p = rng.random(20)
        p /= p.sum()
        f = np.where(rng.random(20) < 0.5, 1, -1)
        eta = 0.3 * rng.random(20)
        dist = FiniteMassartDist(xs, p, f, eta, 0.3)
        h = lambda q: np.where(q[:, 0] < 0.5, 1, -1)
        exact = exact_lerr(dist, h)
        n = 4000
        sigma = math.sqrt(exact * (1 - exact) / n)
        for trial in range(50):
            oracle = MassartOracle(dist, rng_seed=1000 + trial)
            batch = oracle.sample_batch(n)
            mc = np.mean(np.where(h(batch.xs) >= 0, 1, -1) != batch.ys)
            assert abs(mc - exact) <= 3 * sigma


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(17, 3)) * np.pi
        p = rng.random(17)
        p /= p.sum()
        f = np.where(rng.random(17) < 0.5, 1, -1)
        eta = rng.random(17) / 3.0
        dist = FiniteMassartDist(xs, p, f, eta, 1.0 / 3.0)
        back = parse_dist(dump_dist(dist))
        assert np.array_equal(back.xs, dist.xs)
        assert np.array_equal(back.p, dist.p)
        assert np.array_equal(back.f, dist.f)
        assert np.array_equal(back.eta, dist.eta)
        assert back.eta_bound == dist.eta_bound

    def test_file_round_trip(self, tmp_path):
        dist = two_atoms(f=(1, -1), eta=(0.125, 1.0 / 3.0), eta_bound=0.4)
        path = tmp_path / "dist.txt"
        save_dist(dist, path)
        back = load_dist(path)
        assert np.array_equal(back.eta, dist.eta)
        assert dump_dist(back) == dump_dist(dist)
