import hashlib
import math

import numpy as np
import pytest

from massboost import HardDistSpec, RudeState, RudeWeakLearner, hard_distribution
from massboost.adversary import RhoOutOfRange, biased_labels, exsim_batch, wkl_rude
from massboost.core import LabeledSample

# chi-square critical value, df = 19, upper tail 0.001
CHI2_19_999 = 43.82


def spec(eta=0.1, alpha=0.2, rho=1e-4, seed=7, n=64):
    return HardDistSpec(n=n, eta=eta, alpha=alpha, rho=rho, seed=seed)


def biased_labels_per_point(seed, xs, eta_prime):
    """A frozen copy of the original labeling loop: one keyed hash per point, compared as a Python int."""
    out = np.empty(len(xs), dtype=np.int8)
    threshold = eta_prime * 2.0**64
    key = int(seed).to_bytes(16, "big", signed=False)
    for i, x in enumerate(xs):
        h = hashlib.blake2b(int(x).to_bytes(8, "big", signed=False), key=key, digest_size=8)
        out[i] = 1 if int.from_bytes(h.digest(), "big") < threshold else -1
    return out


class TestBiasedFunction:
    # 0.25 * 2^64 is an exact integer, where < and < ceil coincide trivially;
    # 0.104 is eta' of the shipped hard instance
    @pytest.mark.parametrize("seed,eta_prime", [(0, 0.104), (1, 0.104), (7, 0.104), (0, 0.25), (7, 0.25)])
    def test_matches_per_point_loop(self, seed, eta_prime):
        xs = np.concatenate([np.arange(20_000), [2**40, 2**63 - 1, 2**63]]).astype(np.uint64)
        got = biased_labels(seed, xs, eta_prime)
        assert got.dtype == np.int8
        assert got.tobytes() == biased_labels_per_point(seed, xs, eta_prime).tobytes()

    def test_negative_point_is_rejected(self):
        with pytest.raises(OverflowError):
            biased_labels(0, np.array([3, -1, 5]), 0.1)
        with pytest.raises(OverflowError):
            biased_labels_per_point(0, np.array([3, -1, 5]), 0.1)

    def test_threshold_at_a_digest(self):
        """eta' * 2^64 at each point's digest rounded to a float, and at that float's neighbours."""
        xs = np.arange(40)
        key = (3).to_bytes(16, "big")
        for x in xs:
            digest = hashlib.blake2b(int(x).to_bytes(8, "big"), key=key, digest_size=8).digest()
            t = float(int.from_bytes(digest, "big"))
            for threshold in (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)):
                eta_prime = float(threshold) / 2.0**64
                assert np.array_equal(biased_labels(3, xs, eta_prime), biased_labels_per_point(3, xs, eta_prime))

    def test_deterministic(self):
        xs = np.array([0, 1, 2**40, 2**63 - 1])
        assert np.array_equal(biased_labels(123, xs, 0.12), biased_labels(123, xs, 0.12))

    def test_zero_bias_constant_minus_one(self):
        assert np.all(biased_labels(5, np.arange(200), 0.0) == -1)

    def test_bias_concentrates(self):
        n = 100_000
        labels = biased_labels(99, np.arange(n), 0.12)
        frac = np.mean(labels == 1)
        assert abs(frac - 0.12) < 3 * math.sqrt(0.12 * 0.88 / n)

    def test_different_seeds_differ(self):
        a = biased_labels(1, np.arange(1000), 0.5)
        b = biased_labels(2, np.arange(1000), 0.5)
        assert np.any(a != b)


class TestHardDistSpec:
    def test_eta_prime(self):
        assert math.isclose(spec(eta=0.1, alpha=0.2).eta_prime, 0.104, rel_tol=1e-15)

    def test_rho_out_of_range(self):
        with pytest.raises(RhoOutOfRange):
            spec(rho=0.2 / 1000)  # must be strictly below alpha/1000
        with pytest.raises(RhoOutOfRange):
            spec(rho=-1e-6)


class TestHardDistribution:
    def test_rho_zero_noiseless(self):
        dist = hard_distribution(spec(rho=0.0), 10_000)
        assert dist.opt() == 0.0
        assert np.all(dist.eta == 0.0)

    def test_opt_is_rho_eta(self):
        s = spec(eta=0.1, alpha=0.2, rho=1e-4)
        dist = hard_distribution(s, 100_000)
        assert math.isclose(dist.opt(), 1e-4 * 0.1, rel_tol=1e-12)

    def test_massart_validity(self):
        s = spec()
        dist = hard_distribution(s, 50_000)
        assert set(np.unique(dist.eta)) <= {0.0, s.eta}
        noisy = dist.eta > 0
        assert np.all(dist.f[noisy] == -1)  # noise planted only on negatives
        assert dist.eta_bound < 0.5
        # positive fraction tracks eta'
        frac_pos = np.mean(dist.f == 1)
        assert abs(frac_pos - s.eta_prime) < 3 * math.sqrt(s.eta_prime / 50_000)

    def test_deterministic_given_seed(self):
        a = hard_distribution(spec(seed=3), 5000)
        b = hard_distribution(spec(seed=3), 5000)
        assert np.array_equal(a.f, b.f) and np.array_equal(a.eta, b.eta)


class TestExSim:
    def test_label_probability_formula(self):
        s = spec(eta=0.1, alpha=0.2, rho=1e-4)
        p_minus = 1.0 - s.eta_prime - s.rho + s.rho * s.eta
        assert math.isclose(p_minus, 0.89591, abs_tol=5e-6)
        batch = exsim_batch(s, np.random.default_rng(0), 200_000)
        assert abs(np.mean(batch.ys == -1) - p_minus) < 0.004

    def test_rho_zero_reduces_to_eta_prime(self):
        s = spec(rho=0.0)
        batch = exsim_batch(s, np.random.default_rng(1), 100_000)
        assert abs(np.mean(batch.ys == 1) - s.eta_prime) < 0.004

    def test_marginal_uniform_chi_square(self):
        s = spec(n=16)
        batch = exsim_batch(s, np.random.default_rng(2), 100_000)
        bins = np.floor(batch.xs[:, 0] / 2**16 * 20).astype(int)
        counts = np.bincount(bins, minlength=20)
        expected = len(batch) / 20
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_19_999
        # labels independent of x: conditional label rates agree across halves
        low = batch.ys[batch.xs[:, 0] < 2**15]
        high = batch.ys[batch.xs[:, 0] >= 2**15]
        assert abs(np.mean(low == 1) - np.mean(high == 1)) < 0.01


def atom_source(masses, plus_probs, seed):
    """Sample source over indexed atoms with given +1 label probabilities."""
    masses = np.asarray(masses, dtype=np.float64)
    masses = masses / masses.sum()
    plus = np.asarray(plus_probs, dtype=np.float64)
    rng = np.random.default_rng(seed)

    def source(count):
        idx = rng.choice(len(masses), size=count, p=masses)
        ys = np.where(rng.random(count) < plus[idx], 1, -1).astype(np.int8)
        return LabeledSample(idx.astype(np.float64).reshape(-1, 1), ys)

    return source


class TestWklRude:
    def test_heavy_atom_gets_majority_label(self):
        # one atom holds mass 0.5 and votes -1 with probability 0.9
        state = RudeState(m=4, T=50, gamma=0.2, scale=1.0)
        source = atom_source([0.5] + [0.5 / 400] * 400, [0.1] + [0.5] * 400, seed=3)
        h = wkl_rude(source, state, np.random.default_rng(4))
        assert len(h) >= 1
        match = np.all(h.points == 0.0, axis=1)
        assert match.any()
        assert h.labels[np.argmax(match)] == -1

    def test_light_atoms_yield_empty_set(self):
        # thousands of equally light atoms: nothing certifies as a heavy hitter
        state = RudeState(m=4, T=50, gamma=0.2, scale=1.0)
        source = atom_source(np.full(10_000, 1e-4), np.full(10_000, 0.9), seed=5)
        h = wkl_rude(source, state, np.random.default_rng(6))
        assert len(h) == 0
        xs = np.arange(10, dtype=np.float64).reshape(-1, 1)
        assert np.all(h(xs) == -1)

    def test_reproducibility_fixed_thresholds(self):
        # same rng seed fixes (v_h, v_y); independent samples, same hypothesis
        state = RudeState(m=4, T=50, gamma=0.2, scale=1.0)
        agree = 0
        trials = 20
        for trial in range(trials):
            h0 = wkl_rude(
                atom_source([0.3, 0.2, 0.05] + [0.45 / 300] * 300,
                            [0.9, 0.2, 0.5] + [0.5] * 300, seed=1000 + trial),
                state, np.random.default_rng(42),
            )
            h1 = wkl_rude(
                atom_source([0.3, 0.2, 0.05] + [0.45 / 300] * 300,
                            [0.9, 0.2, 0.5] + [0.5] * 300, seed=5000 + trial),
                state, np.random.default_rng(42),
            )
            same = len(h0) == len(h1) and np.array_equal(h0.points, h1.points) and np.array_equal(
                h0.labels, h1.labels
            )
            agree += int(same)
        assert agree >= int(0.9 * trials)

    def test_adapter_consumes_fixed_sample(self):
        state = RudeState(m=4, T=50, gamma=0.2, scale=0.05)
        learner = RudeWeakLearner(state)
        rng = np.random.default_rng(8)
        n = state.step1_size() + state.step2_size() + state.survivor_cap * state.step3_size()
        xs = rng.integers(0, 50, size=n).astype(np.float64).reshape(-1, 1)
        sample = LabeledSample(xs, np.where(rng.random(n) < 0.2, 1, -1).astype(np.int8))
        served = 0

        def source(count):
            nonlocal served
            served += count
            return sample[served - count : served]

        h = learner.train_from_source(source, rng)
        assert served <= n
        assert np.all(np.isin(h.labels, (-1, 1)))

    def test_advantage_on_biased_distribution(self):
        # on a heavily minus-biased source the default -1 answer already wins
        state = RudeState(m=4, T=50, gamma=0.01, scale=0.5)
        source = atom_source(np.full(2000, 5e-4), np.full(2000, 0.104), seed=11)
        h = wkl_rude(source, state, np.random.default_rng(12))
        sample = source(20_000)
        adv = 0.5 * float(np.mean(h(sample.xs) * sample.ys))
        assert adv >= state.gamma


class TestExSimSingle:
    def test_single_example_shape(self):
        s = spec(n=16)
        rng = np.random.default_rng(0)
        ex = exsim_batch(s, rng, 1)
        assert ex.xs.shape == (1, 1) and ex.ys.shape == (1,)
        assert ex.ys[0] in (-1, 1)
        assert 0 <= ex.xs[0, 0] < 2**16
