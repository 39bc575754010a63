import math

import numpy as np

from massboost import (
    FiniteMassartDist,
    Measure,
    exact_density,
    exact_potential,
    m_weight,
    make_massart,
    phi_point,
    reweighted_noise_rates,
)
from massboost.core import LabeledSample
from massboost.measure import sample_weights

S_DEFAULT = 1.79
POINT = np.zeros((1, 1))


def const_g(v):
    return lambda xs: np.full(np.atleast_2d(xs).shape[0], float(v))


def lookup_g(values):
    values = np.asarray(values, dtype=np.float64)
    return lambda xs: values[np.atleast_2d(xs)[:, 0].astype(int)]


def index_dist(f, eta, eta_bound=0.4, p=None):
    n = len(f)
    atoms = []
    for i in range(n):
        atoms.append(((float(i),), (1.0 / n) if p is None else p[i], f[i], eta[i]))
    return make_massart(atoms, eta_bound)


class TestMWeight:
    def test_negative_argument_full_weight(self):
        assert m_weight(-0.5) == 1.0

    def test_zero(self):
        assert m_weight(0.0) == 1.0

    def test_unit(self):
        assert m_weight(1.0) == math.exp(-1.0)

    def test_vectorized(self):
        v = np.array([-2.0, 0.0, 0.5])
        assert np.allclose(m_weight(v), [1.0, 1.0, math.exp(-0.5)])


def weight(measure, xs, ys):
    """mu(x, y) of each pair, as rejection sampling computes it."""
    return sample_weights(measure, LabeledSample(xs, np.asarray(ys, dtype=np.int8)))


class TestMuWeight:
    def test_positive_margin(self):
        m = Measure(const_g(0.3), s=S_DEFAULT)
        assert math.isclose(weight(m, POINT, [1])[0], math.exp(-0.3), rel_tol=1e-15)

    def test_negative_margin_full_weight(self):
        m = Measure(const_g(0.3), s=S_DEFAULT)
        assert weight(m, POINT, [-1])[0] == 1.0

    def test_withheld_point_zero_both_labels(self):
        m = Measure(const_g(2.0), s=S_DEFAULT)
        assert weight(m, POINT, [1])[0] == 0.0
        assert weight(m, POINT, [-1])[0] == 0.0

    def test_ablated_measure_skips_cutoff(self):
        m = Measure(const_g(2.0), s=math.inf)
        assert weight(m, POINT, [1])[0] == math.exp(-2.0)
        assert weight(m, POINT, [-1])[0] == 1.0


class TestExactDensity:
    def test_round_zero_density_one(self):
        dist = index_dist(f=[1, -1], eta=[0.1, 0.2])
        assert exact_density(dist, Measure(const_g(0.0), s=2.0)) == 1.0

    def test_half_withheld(self):
        dist = index_dist(f=[1, 1], eta=[0.0, 0.0])
        m = Measure(lookup_g([0.0, 5.0]), s=2.0)
        assert exact_density(dist, m) == 0.5

    def test_two_label_average(self):
        # equal-mass noiseless atoms with opposite true labels, both scored 0.5:
        # the clean-label weights are exp(-0.5) and 1, averaging to the closed form
        dist = index_dist(f=[1, -1], eta=[0.0, 0.0])
        m = Measure(const_g(0.5), s=2.0)
        expected = (math.exp(-0.5) + 1.0) / 2.0
        assert math.isclose(exact_density(dist, m), expected, rel_tol=1e-15)
        assert math.isclose(expected, 0.80326533, abs_tol=5e-9)


class TestPhiPoint:
    def test_zero(self):
        assert phi_point(0.0) == 1.0

    def test_unit(self):
        assert phi_point(1.0) == math.exp(-1.0)

    def test_negative_closed_form(self):
        assert phi_point(-0.5) == 1.5

    def test_continuous_and_convex(self):
        v = np.linspace(-3, 3, 601)
        vals = phi_point(v)
        assert abs(phi_point(-1e-12) - phi_point(1e-12)) < 1e-10
        second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second_diff >= -1e-12)

    def test_derivative_is_minus_m_weight(self):
        rng = np.random.default_rng(0)
        h = 1e-6
        for v in rng.uniform(-4, 4, size=200):
            if abs(v) < 1e-3:
                continue
            fd = (phi_point(v + h) - phi_point(v - h)) / (2 * h)
            assert abs(fd + m_weight(v)) < 1e-6


class TestExactPotential:
    def test_zero_score_potential_one(self):
        dist = index_dist(f=[1, -1], eta=[0.1, 0.3])
        assert exact_potential(dist, const_g(0.0)) == 1.0

    def test_single_unit_margin(self):
        dist = index_dist(f=[1], eta=[0.0])
        assert exact_potential(dist, const_g(1.0)) == math.exp(-1.0)

    def test_opposite_margins(self):
        dist = index_dist(f=[1, -1], eta=[0.0, 0.0])
        expected = (math.exp(-1.0) + 2.0) / 2.0
        assert math.isclose(exact_potential(dist, const_g(1.0)), expected, rel_tol=1e-15)


class TestReweightedNoiseRate:
    def test_noiseless_point_rate_zero(self):
        dist = index_dist(f=[1], eta=[0.0])
        rates, included = reweighted_noise_rates(dist, Measure(const_g(0.5), s=2.0))
        assert included[0] and rates[0] == 0.0

    def test_zero_score_rate_is_eta(self):
        dist = index_dist(f=[1], eta=[0.25])
        rates, included = reweighted_noise_rates(dist, Measure(const_g(0.0), s=2.0))
        assert included[0]
        assert math.isclose(rates[0], 0.25, abs_tol=1e-15)

    def test_worst_case_hits_half_minus_alpha(self):
        # eta = alpha = 0.1: c = 0.05, s = log 6; at margin just below s the
        # rate approaches eta / (2 eta + c) = 0.4 = 1/2 - alpha
        eta, alpha = 0.1, 0.1
        c = 4 * eta * alpha / (1 - 2 * alpha)
        s = math.log((1 - eta) / (eta + c))
        assert math.isclose(s, math.log(6.0), rel_tol=1e-15)
        dist = index_dist(f=[1], eta=[eta], eta_bound=eta)
        rates, included = reweighted_noise_rates(dist, Measure(const_g(s - 1e-9), s=s))
        assert included[0]
        assert math.isclose(rates[0], 0.4, abs_tol=1e-8)
        assert rates[0] <= 0.5 - alpha + 1e-12

    def test_zero_mass_excluded(self):
        # a withheld atom has zero weight on both labels and is excluded from D_mu
        dist = index_dist(f=[1], eta=[0.1])
        rates, included = reweighted_noise_rates(dist, Measure(const_g(3.0), s=2.0))
        assert not included[0] and rates[0] == 0.0


class TestInvariants:
    @staticmethod
    def random_dist_and_scores(rng, n=40):
        p = rng.random(n)
        p /= p.sum()
        f = np.where(rng.random(n) < 0.5, 1, -1)
        eta = 0.3 * rng.random(n)
        xs = np.arange(n, dtype=np.float64).reshape(-1, 1)
        dist = FiniteMassartDist(xs, p, f, eta, 0.3)
        scores = rng.uniform(-3, 3, size=n)
        return dist, scores

    def test_mu_below_phi_pointwise_and_in_expectation(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            dist, scores = self.random_dist_and_scores(rng)
            g = lookup_g(scores)
            m = Measure(g, s=rng.uniform(0.5, 2.5))
            for y in (1, -1):
                w = weight(m, dist.xs, np.full(dist.n_atoms, y))
                phi = phi_point(y * scores)
                assert np.all(w >= 0.0)
                assert np.all(w <= phi + 1e-15)
            assert exact_density(dist, m) <= exact_potential(dist, g) + 1e-15

    def test_massart_preservation_with_derived_threshold(self):
        rng = np.random.default_rng(21)
        for eta, alpha in [(0.05, 0.1), (0.1, 0.1), (0.2, 0.15), (0.3, 0.12)]:
            c = 4 * eta * alpha / (1 - 2 * alpha)
            s = math.log((1 - eta) / (eta + c))
            n = 60
            p = rng.random(n)
            p /= p.sum()
            f = np.where(rng.random(n) < 0.5, 1, -1)
            noise = eta * rng.random(n)
            xs = np.arange(n, dtype=np.float64).reshape(-1, 1)
            dist = FiniteMassartDist(xs, p, f, noise, eta)
            scores = rng.uniform(-(s + 0.5), s + 0.5, size=n)
            m = Measure(lookup_g(scores), s=s)
            rates, included = reweighted_noise_rates(dist, m)
            safe = np.abs(scores) < s
            assert np.all(rates[safe] <= 0.5 - alpha + 1e-12)
            assert np.array_equal(included, safe)

    def test_full_weight_exactly_on_misclassified_safe_points(self):
        m = Measure(const_g(0.4), s=1.0)
        assert weight(m, POINT, [-1])[0] == 1.0  # sign(g) != y, |g| < s
        assert weight(m, POINT, [1])[0] < 1.0

    def test_weight_monotone_in_margin(self):
        v = np.linspace(-2, 2, 101)
        w = m_weight(v)
        assert np.all(np.diff(w) <= 1e-15)
