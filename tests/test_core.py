import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# table sizes where floor(u n) is most likely to land one bin off
LOOKUP_SIZES = sorted({1, 2, 3, 10**5, 10**6} | {2**k + e for k in range(1, 20) for e in (-1, 0, 1)})


def table_oracle(p, rng_seed=0):
    """An oracle over len(p) atoms with masses p; the lookup reads only p."""
    n = len(p)
    xs = np.arange(n, dtype=np.float64)[:, None]
    dist = FiniteMassartDist(xs, p, np.ones(n), np.full(n, 0.25), 0.4, _validated=True)
    return MassartOracle(dist, rng_seed)


def assert_lookup_is_searchsorted(p, seed):
    """The oracle's atom lookup equals a binary search of the cumulative table.

    The draws are random u together with every table entry, the float just
    below each entry, 0.0 and the largest float below 1.0.
    """
    oracle = table_oracle(p)
    cum = np.cumsum(p)
    cum[-1] = 1.0
    u = np.concatenate(
        [np.random.default_rng(seed).random(1000), cum, np.nextafter(cum, 0.0), [0.0, np.nextafter(1.0, 0.0)]]
    )
    assert np.array_equal(oracle._atoms(u), np.searchsorted(cum, u, side="right"))
    return oracle


class TestAtomLookup:
    @pytest.mark.parametrize("n", LOOKUP_SIZES)
    def test_uniform_sizes(self, n):
        assert assert_lookup_is_searchsorted(np.full(n, 1.0 / n), seed=n)._uniform

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 10**6), seed=st.integers(0, 2**32 - 1))
    def test_uniform_random_sizes(self, n, seed):
        assert assert_lookup_is_searchsorted(np.full(n, 1.0 / n), seed)._uniform

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 10**5), seed=st.integers(0, 2**32 - 1))
    def test_one_ulp_from_uniform(self, n, seed):
        p = np.full(n, 1.0 / n)
        k = np.random.default_rng(seed).integers(n)
        p[k] = np.nextafter(p[k], 1.0)
        assert not assert_lookup_is_searchsorted(p, seed)._uniform

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 10**5), seed=st.integers(0, 2**32 - 1))
    def test_random_table(self, n, seed):
        p = np.random.default_rng(seed).random(n) + 1e-3
        p /= p.sum()
        assert not assert_lookup_is_searchsorted(p, seed)._uniform

    @pytest.mark.parametrize("n", [1, 3, 400, 10**4 + 1, 10**5])
    def test_streams_equal_binary_search_streams(self, n):
        fast = table_oracle(np.full(n, 1.0 / n), rng_seed=n)
        slow = table_oracle(np.full(n, 1.0 / n), rng_seed=n)
        slow._uniform = False
        assert fast._uniform
        for count in (0, 1, 7, 1000, 0, 50_000):
            a, b = fast.sample_batch(count), slow.sample_batch(count)
            assert np.array_equal(a.idx, b.idx) and a.idx.dtype == b.idx.dtype
            assert np.array_equal(a.xs, b.xs)
            assert np.array_equal(a.ys, b.ys)
            assert fast.draws == slow.draws


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
