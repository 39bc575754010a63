import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massboost import FiniteMassartDist, MassartOracle, exact_advantage, exact_ferr, exact_lerr, make_massart
from massboost.core import dump_dist, label_errors, load_dist, parse_dist, save_dist


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
        with pytest.raises(ValueError, match="exceeds bound 0.4"):
            make_massart([((0.0,), 1.0, 1, 0.6)], eta_bound=0.4)

    def test_noise_one_ulp_above_bound_is_rejected(self):
        with pytest.raises(ValueError, match="exceeds bound 0.4"):
            make_massart([((0.0,), 1.0, 1, np.nextafter(0.4, 1.0))], eta_bound=0.4)

    def test_noise_at_bound_is_accepted(self):
        """eta(x) may equal the bound: noise_profile = rcn flips every label with probability eta."""
        assert make_massart([((0.0,), 1.0, 1, 0.4)], eta_bound=0.4).eta.tolist() == [0.4]

    def test_bound_not_below_half(self):
        with pytest.raises(ValueError, match=r"eta_bound must be in \[0, 1/2\)"):
            make_massart([((0.0,), 1.0, 1, 0.1)], eta_bound=0.5)

    def test_nan_bound_is_rejected(self):
        """No eta(x) compares above a nan bound, so nan must fail the range check itself."""
        with pytest.raises(ValueError, match=r"eta_bound must be in \[0, 1/2\)"):
            make_massart([((0.0,), 1.0, 1, 0.4)], float("nan"))

    @pytest.mark.parametrize("label", [257, -255, 0])  # an int8 cast wraps 257 and -255 to +1
    def test_label_outside_pm1_is_rejected(self, label):
        with pytest.raises(ValueError, match="labels"):
            make_massart([((0.0,), 1.0, label, 0.0)], eta_bound=0.4)

    def test_duplicate_point(self):
        with pytest.raises(ValueError, match="atom points must be distinct"):
            make_massart([((0.0,), 0.5, 1, 0.0), ((0.0,), 0.5, -1, 0.0)], eta_bound=0.4)
        # points of no coordinates are all equal, so only one may be an atom
        assert make_massart([((), 1.0, 1, 0.0)], eta_bound=0.4).dim == 0
        with pytest.raises(ValueError, match="atom points must be distinct"):
            make_massart([((), 0.5, 1, 0.0), ((), 0.5, -1, 0.0)], eta_bound=0.4)

    def test_array_layout_does_not_move_bytes(self):
        """Columns of a table and contiguous copies of them give the same opt() and label_errors bytes.

        A strided p or eta would be summed in another order by the dot products.
        """
        rng = np.random.default_rng(5)
        xs, p, eta = rng.random((1000, 2)), rng.random(1000), rng.random(1000) * 0.4
        p /= p.sum()
        f = np.where(rng.random(1000) < 0.5, 1, -1)
        table = np.column_stack([xs, p, f, eta])
        strided = FiniteMassartDist(table[:, :2], table[:, 2], table[:, 3], table[:, 4], 0.4)
        packed = FiniteMassartDist(xs, p, f, eta, 0.4)
        wrong = rng.random(1000) < 0.3
        assert strided.opt().hex() == packed.opt().hex()
        assert label_errors(strided.p, strided.eta, wrong) == label_errors(packed.p, packed.eta, wrong)

    def test_bad_probability_sum(self):
        with pytest.raises(ValueError, match="atom probabilities sum to 0.9, not 1"):
            make_massart([((0.0,), 0.5, 1, 0.0), ((1.0,), 0.4, 1, 0.0)], eta_bound=0.4)

    def test_negative_probability(self):
        with pytest.raises(ValueError, match="atom probabilities must be finite and nonnegative"):
            make_massart([((0.0,), 1.2, 1, 0.0), ((1.0,), -0.2, 1, 0.0)], eta_bound=0.4)

    def test_normalizes_near_one_sums(self):
        dist = make_massart(
            [((0.0,), 0.5 + 2e-10, 1, 0.0), ((1.0,), 0.5, 1, 0.0)], eta_bound=0.4
        )
        assert dist.p.sum() == 1.0


@pytest.mark.parametrize(
    "build,error,match",
    [
        (lambda: FiniteMassartDist([[0.0], [1.0]], [1.0], [1], [0.0], 0.4), ValueError, "matching lengths"),
        (lambda: FiniteMassartDist([[np.inf]], [1.0], [1], [0.0], 0.4), ValueError, "coordinates must be finite"),
        (lambda: FiniteMassartDist([[0.0], [1.0]], [np.nan, 1.0], [1, 1], [0.0, 0.0], 0.4), ValueError,
         "atom probabilities must be finite"),
        (lambda: make_massart([((0.0,), 1.0, 1, -0.1)], 0.4), ValueError, "flip probabilities"),
        (lambda: make_massart([((0.0,), 1.0, 1, float("nan"))], 0.4), ValueError, "flip probabilities"),
        (lambda: make_massart([], 0.4), ValueError, "empty atom list"),
        (lambda: MassartOracle(single_atom().p, rng_seed=0), TypeError, "FiniteMassartDist"),
        (lambda: MassartOracle(single_atom(), rng_seed=0).sample_batch(-1), ValueError, "nonnegative"),
    ],
    ids=["lengths", "infinite-coordinate", "nan-p", "negative-eta", "nan-eta", "no-atoms", "not-a-dist",
         "negative-count"],
)
def test_bad_input_is_rejected(build, error, match):
    with pytest.raises(error, match=match):
        build()


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
    dist = FiniteMassartDist(xs, p, np.ones(n), np.full(n, 0.25), 0.4)
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

    def test_round_trip_edge_values_bit_exact(self):
        # negatives, both zeros, subnormals, extremes and values that need all 17 digits
        edge = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 0.1 + 0.2, -1.0 / 3.0, -1.7976931348623157e308,
                np.nextafter(1.0, 2.0)]
        xs = np.array([[v, -float(i)] for i, v in enumerate(edge)])  # the second column keeps rows distinct
        p = np.array([5e-324, 0.1, 0.2, 0.3, 1.0 / 3.0, 1.0 / 7.0, 2.0 / 3.0, 0.05])
        eta = np.array([-0.0, 0.0, 5e-324, 0.1 + 0.2, 1.0 / 3.0, 0.125, 1e-300, 0.30000000000000004])
        dist = FiniteMassartDist(xs, p / p.sum(), [1, -1] * 4, eta, 0.35)
        back = parse_dist(dump_dist(dist))
        assert back.eta_bound == dist.eta_bound
        for name in ("xs", "p", "f", "eta"):
            assert getattr(back, name).tobytes() == getattr(dist, name).tobytes(), name

    def test_accepted_and_rejected_lines(self):
        text = "# comment\n\n2 0.25\n  # indented comment\n0.5 -1 0.5 +1 0.25\n\n1 2 0.5 -1 0\n"
        dist = parse_dist(text)
        assert dist.xs.tolist() == [[0.5, -1.0], [1.0, 2.0]] and dist.f.tolist() == [1, -1]
        assert dist.p.tolist() == [0.5, 0.5] and dist.eta.tolist() == [0.25, 0.0]
        for good, xs, f in [("2 0.25\n0.5\t-1 0.5\t+1\t0.25\n1\t2 0.5 -1 0\n", [[0.5, -1.0], [1.0, 2.0]], [1, -1]),
                            ("3 0.25\n1 2 3 1 +1 0.125\n", [[1.0, 2.0, 3.0]], [1])]:
            dist = parse_dist(good)
            assert dist.xs.tolist() == xs and dist.f.tolist() == f
        for bad, match in [("2 0.25 1\n", "header"), ("2 0.25\n0.5 1 0.5 1\n", "5 fields"),
                           ("2 0.25\n0.5 1 1.0 1.0 0\n", "int"), ("2 0.25\n0.5 x 1.0 1 0\n", "float"),
                           ("2 0.25\n0.5 1 1.0 1 0 # c\n", "5 fields"),
                           ("2 0.25\n1 0 0.25 1 0\n0 5 0.5 1 0\n1 -0 0.25 -1 0\n", "distinct")]:  # -0.0 == 0.0
            with pytest.raises(ValueError, match=match):
                parse_dist(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one atom"):
                parse_dist("2 0.25\n# no atoms\n")

    def test_file_round_trip(self, tmp_path):
        dist = two_atoms(f=(1, -1), eta=(0.125, 1.0 / 3.0), eta_bound=0.4)
        path = tmp_path / "dist.txt"
        save_dist(dist, path)
        back = load_dist(path)
        assert np.array_equal(back.eta, dist.eta)
        assert dump_dist(back) == dump_dist(dist)
