"""Stress harness: biased hard distribution and the heavy-hitter adversary.

The hard instance is a highly label-biased concept over 64-bit integers: a
keyed-hash function family labels each point +1 with probability eta', with
eta' = eta (1 + alpha/5), and a pseudorandomly chosen sliver of the negative
points (total mass rho) carries flip probability eta. The floor on achievable
error sits near eta' even though the information-theoretic optimum is only
rho * eta.

The adversarial weak learner gives away nothing beyond majority votes: it
labels estimated heavy hitters of its input distribution by their empirical
majority and everything else -1. Randomized thresholds v_h, v_y make the
output hypothesis insensitive to the particular sample, so two runs with the
same thresholds almost always return the same hypothesis.

Desk-scale note: the asymptotic polynomial sample sizes the analysis calls
for are replaced by a single `scale` multiplier on m^2/gamma (candidate
collection) and m*T/gamma (per-candidate estimation, reused for label
votes). The defaults keep every step a few hundred to a few thousand draws.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Tuple

import numpy as np

from .core import FiniteMassartDist, LabeledSample

__all__ = [
    "HardDistSpec",
    "HeavyHitterHypothesis",
    "RudeWeakLearner",
    "biased_labels",
    "hard_distribution",
    "wkl_rude",
]


def biased_labels(seed: int, xs: np.ndarray, eta_prime: float) -> np.ndarray:
    """Deterministic keyed-hash labeling of integer points: +1 with probability eta_prime over uniform x.

    x is labeled +1 when the 8-byte keyed blake2b digest of its 8 big-endian
    bytes, read as a big-endian integer, is below eta_prime * 2^64; for an
    integer that is the same as being below its ceiling.
    """
    xs = np.asarray(xs)
    if xs.size and xs.min() < 0:  # a negative point has no unsigned 8-byte form to hash
        raise OverflowError("biased_labels needs points in [0, 2^64)")
    keyed = hashlib.blake2b(key=int(seed).to_bytes(16, "big", signed=False), digest_size=8)
    buf = xs.astype(">u8").tobytes()

    def digest(i: int) -> bytes:
        h = keyed.copy()
        h.update(buf[i : i + 8])
        return h.digest()

    digests = np.fromiter(map(digest, range(0, len(buf), 8)), dtype="S8", count=len(buf) // 8).view(">u8")
    return np.where(digests < math.ceil(eta_prime * 2.0**64), np.int8(1), np.int8(-1))


@dataclass(frozen=True)
class HardDistSpec:
    """Parameters of the biased hard instance over 64-bit integers; one out of range raises ValueError."""

    eta: float
    alpha: float
    rho: float
    seed: int

    def __post_init__(self):
        if not (0.0 < self.eta < 0.5):
            raise ValueError(f"eta must be in (0, 1/2), got {self.eta}")
        if not (0.0 < self.alpha < 0.5 - self.eta):
            raise ValueError(f"alpha must be in (0, 1/2 - eta), got {self.alpha}")
        if not (0.0 <= self.rho < self.alpha / 1000.0):
            raise ValueError(f"rho must be in [0, alpha/1000), got {self.rho}")

    @property
    def eta_prime(self) -> float:
        return self.eta * (1.0 + self.alpha / 5.0)


def hard_distribution(spec: HardDistSpec, support_size: int) -> FiniteMassartDist:
    """Materialize the hard instance as a uniform finite support.

    Uses the integers 0 .. support_size - 1 (the keyed hash makes their
    labels pseudorandom regardless), labels them with the biased
    function, and plants flip probability eta on exactly round(rho *
    support_size) pseudorandomly chosen negative points, so the optimal
    error is rho * eta up to that one rounding.
    """
    if support_size < 1:
        raise ValueError(f"support_size must be at least 1, got {support_size}")
    xs = np.arange(support_size, dtype=np.float64).reshape(-1, 1)
    f = biased_labels(spec.seed, np.arange(support_size), spec.eta_prime)
    eta = np.zeros(support_size)
    k_noisy = int(round(spec.rho * support_size))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[spec.seed, 0x6E6F6973]))
    eta[rng.choice(np.flatnonzero(f == -1), size=k_noisy, replace=False)] = spec.eta
    p = np.full(support_size, 1.0 / support_size)
    return FiniteMassartDist(xs, p, f, eta, spec.eta)


# -- adversarial weak learner ---------------------------------------------------


@dataclass(frozen=True)
class RudeWeakLearner:
    """The heavy-hitter adversary as a weak learner with advertised advantage gamma.

    m is the booster's example budget and T its round bound; the harness
    passes the config's gamma, and the margin alpha is the hard instance's
    (HardDistSpec). scale multiplies the step sample sizes; survivor_cap
    bounds how many certified heavy hitters get label votes (largest
    estimated mass first).
    """

    m: int
    T: int
    gamma: float
    scale: float = 1.0
    survivor_cap: ClassVar[int] = 16

    def step1_size(self) -> int:
        return max(1, math.ceil(self.scale * self.m**2 / self.gamma))

    def step2_size(self) -> int:
        return max(1, math.ceil(self.scale * self.m * self.T / self.gamma))

    def train_from_source(
        self, source: Callable[[int], LabeledSample], rng: np.random.Generator
    ) -> "HeavyHitterHypothesis":
        """Run wkl_rude, drawing each step's examples lazily from the source."""
        return wkl_rude(source, self, rng)


@dataclass(frozen=True, slots=True)
class HeavyHitterHypothesis:
    """Explicit pair (X_hat, labels): stored labels on heavy hitters, -1 elsewhere; a value of tuples."""

    points: Tuple[Tuple[float, ...], ...]  # k coordinate tuples; () with no heavy hitter
    labels: Tuple[int, ...]  # k labels in {-1, +1}

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        out = np.full(xs.shape[0], -1, dtype=np.int8)
        for row, label in zip(self.points, self.labels):
            out[np.all(xs == row, axis=1)] = label
        return out

    def __len__(self) -> int:
        return len(self.labels)


def _distinct_rows(xs: np.ndarray) -> np.ndarray:
    """The distinct rows of xs in lexicographic order: the bytes of np.unique(xs, axis=0), which loads numpy.ma.

    Rows equal under == are one row; an (n, 0) array has one empty row.
    """
    if xs.shape[1]:
        xs = xs[np.lexsort(xs.T[::-1])]
    new = np.ones(len(xs), dtype=bool)
    new[1:] = np.any(xs[1:] != xs[:-1], axis=1)
    return xs[new]


def _match_rows(candidates: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row in the (lexicographically sorted) candidate array, or -1."""
    c = np.ascontiguousarray(candidates, dtype=np.float64)
    r = np.ascontiguousarray(np.atleast_2d(rows), dtype=np.float64)
    itemsize = c.dtype.itemsize * c.shape[1]
    cv = c.view(np.dtype((np.void, itemsize))).ravel()
    rv = r.view(np.dtype((np.void, itemsize))).ravel()
    pos = np.searchsorted(cv, rv)
    pos = np.clip(pos, 0, len(cv) - 1)
    hit = cv[pos] == rv
    return np.where(hit, pos, -1)


def wkl_rude(
    sample_source: Callable[[int], LabeledSample],
    learner: RudeWeakLearner,
    rng: np.random.Generator,
) -> HeavyHitterHypothesis:
    """Run the heavy-hitter adversary against a sample source.

    Step 1 collects candidate heavy hitters, the distinct rows of its
    sample in lexicographic order; step 2 estimates each
    candidate's probability from a fresh sample and keeps those at or above
    a uniformly drawn threshold v_h; step 3 draws a label threshold v_y and
    assigns each survivor the label +1 iff the +1 fraction among its fresh
    occurrences reaches v_y (no occurrences count as fraction 0). Everything
    outside the surviving set is labeled -1, and the hypothesis holds the
    survivors as coordinate tuples. The source returns the count asked, at
    least 1 each step, as booster.samp does.
    """
    s1 = sample_source(learner.step1_size())
    candidates = _distinct_rows(np.atleast_2d(s1.xs))

    s2 = sample_source(learner.step2_size())
    matches = _match_rows(candidates, s2.xs)
    counts = np.bincount(matches[matches >= 0], minlength=len(candidates))
    p_hat = counts / len(s2)

    v_h = rng.uniform(learner.gamma / (20.0 * learner.m), learner.gamma / (10.0 * learner.m))
    keep = p_hat >= v_h
    survivors = candidates[keep]
    surv_p = p_hat[keep]
    if len(survivors) > learner.survivor_cap:
        order = np.argsort(-surv_p, kind="stable")[: learner.survivor_cap]
        order = np.sort(order)
        survivors = survivors[order]
    points = tuple(map(tuple, survivors.tolist()))

    v_y = rng.uniform(0.5, 0.5 + learner.gamma / (10.0 * learner.m))
    labels = []
    for point in points:
        s3 = sample_source(learner.step2_size())
        inst = np.all(np.atleast_2d(s3.xs) == point, axis=1)
        n_inst = int(inst.sum())
        p1 = float(np.sum(s3.ys[inst] == 1)) / n_inst if n_inst > 0 else 0.0
        labels.append(1 if p1 >= v_y else -1)
    return HeavyHitterHypothesis(points, tuple(labels))
