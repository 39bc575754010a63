"""Reweighting measure, density, and the integral potential.

The measure weight of a labeled example (x, y) against a real-valued score g
with threshold s > 0 is

    mu(x, y) = M(y g(x)) if |g(x)| < s, else 0,
    M(v)     = 1 if v < 0, else exp(-v).

Points with |g(x)| >= s form the withheld (risky) set; both labels get weight
zero there, which is what preserves the bounded-noise property of the
rejection-sampled distribution. The potential of a score assigns each example
the full tail integral of M from y g(x), with closed forms

    phi(v) = exp(-v) for v >= 0,   phi(v) = 1 - v for v < 0,

and upper-bounds the density pointwise.

All logarithms and exponentials in this package are natural base; this is the
single place that convention is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Union

import numpy as np

from .core import FiniteMassartDist, LabeledSample

__all__ = [
    "Measure",
    "SampleScorer",
    "ZeroMass",
    "exact_density",
    "exact_potential",
    "m_weight",
    "mu_weight",
    "phi_point",
    "reweighted_noise_rate",
    "reweighted_noise_rates",
    "sample_weights",
]


class ZeroMass(ValueError):
    """Both label weights of a point are zero: the point is excluded from D_mu."""


def m_weight(v: Union[float, np.ndarray]):
    """Base weight M(v): 1 on negatives, exp(-v) on nonnegatives.

    Computed as exp(min(-v, 0)), which is the same function in one pass.
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.exp(np.minimum(-v, 0.0))
    return float(out) if out.ndim == 0 else out


def phi_point(v: Union[float, np.ndarray]):
    """Tail integral of M from v: exp(-v) for v >= 0, 1 - v for v < 0.

    Branch-free closed form: exp(min(-v, 0)) + max(-v, 0).
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.exp(np.minimum(-v, 0.0)) + np.maximum(-v, 0.0)
    return float(out) if out.ndim == 0 else out


class SampleScorer(Protocol):
    """Scores drawn examples for the measure mu with threshold s.

    A Measure scores a sample through its point function, g(sample.xs); the
    booster's ScoreState reads its per-atom scores at sample.idx.
    support_scores returns the scores of every atom of a finite support, in
    atom order, with the mask of the risky set |score| >= s: a Measure
    evaluates g(dist.xs), a ScoreState returns its sigma and cached mask.
    """

    s: float
    withhold: bool

    def sample_scores(self, sample: LabeledSample) -> np.ndarray: ...

    def support_scores(self, dist: FiniteMassartDist) -> tuple[np.ndarray, np.ndarray]: ...


@dataclass(frozen=True)
class Measure:
    """Measure mu_{g,s} induced by a score function and a withholding threshold.

    `g` maps an (n, d) array of points to an (n,) array of scores. With
    `withhold` disabled (the ablation used to demonstrate noise blow-up) the
    |g| >= s cutoff is skipped and weights are M(y g(x)) everywhere.
    """

    g: Callable[[np.ndarray], np.ndarray]
    s: float
    withhold: bool = True

    def scores(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self.g(xs), dtype=np.float64)

    def sample_scores(self, sample: LabeledSample) -> np.ndarray:
        return self.scores(sample.xs)

    def support_scores(self, dist: FiniteMassartDist) -> tuple[np.ndarray, np.ndarray]:
        scores = self.scores(dist.xs)
        return scores, np.abs(scores) >= self.s

    def weight(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return _mu_from_scores(self.scores(xs), ys, self.s, self.withhold)

    def weight_both_labels(self, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights for label +1 and label -1 at each score."""
        ones = np.ones_like(scores)
        w_plus = _mu_from_scores(scores, ones, self.s, self.withhold)
        return w_plus, _mu_from_scores(scores, -ones, self.s, self.withhold)


def _mu_from_scores(scores: np.ndarray, ys: np.ndarray, s: float, withhold: bool) -> np.ndarray:
    """Weight mu of labels ys at scores g(x), for threshold s."""
    w = m_weight(np.asarray(ys, dtype=np.float64) * scores)
    if withhold:
        w = np.where(np.abs(scores) >= s, 0.0, w)
    return w


def sample_weights(scorer: SampleScorer, sample: LabeledSample) -> np.ndarray:
    """Weight mu(x, y) of each example of a drawn sample."""
    return _mu_from_scores(scorer.sample_scores(sample), sample.ys, scorer.s, scorer.withhold)


def mu_weight(measure: Measure, x, y) -> float:
    """Weight of a single labeled example under the measure."""
    xs = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return float(measure.weight(xs, np.asarray([y]))[0])


def exact_density(dist: FiniteMassartDist, measure: Measure) -> float:
    """Exact expectation of the measure under the joint distribution."""
    scores = measure.scores(dist.xs)
    w_plus, w_minus = measure.weight_both_labels(scores)
    w_clean = np.where(dist.f == 1, w_plus, w_minus)
    w_flip = np.where(dist.f == 1, w_minus, w_plus)
    return float(np.dot(dist.p, (1.0 - dist.eta) * w_clean + dist.eta * w_flip))


def exact_potential(dist: FiniteMassartDist, g: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact expectation of phi_point(y g(x)) under the joint distribution."""
    scores = np.asarray(g(dist.xs), dtype=np.float64)
    margin_clean = dist.f * scores
    return float(
        np.dot(dist.p, (1.0 - dist.eta) * phi_point(margin_clean) + dist.eta * phi_point(-margin_clean))
    )


def reweighted_noise_rates(dist: FiniteMassartDist, measure: Measure) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom conditional flip probability under the rejection-sampled distribution.

    Returns (rates, included) where included marks atoms with positive total
    label weight; rates are only meaningful where included is True.
    """
    scores = measure.scores(dist.xs)
    w_plus, w_minus = measure.weight_both_labels(scores)
    w_clean = np.where(dist.f == 1, w_plus, w_minus)
    w_flip = np.where(dist.f == 1, w_minus, w_plus)
    num = dist.eta * w_flip
    den = num + (1.0 - dist.eta) * w_clean
    included = den > 0.0
    rates = np.divide(num, den, out=np.zeros_like(num), where=included)
    return rates, included


def reweighted_noise_rate(dist: FiniteMassartDist, measure: Measure, x) -> float:
    """Conditional flip probability of a single support point under D_mu.

    Raises ZeroMass when both label weights vanish (the point is withheld).
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    matches = np.where(np.all(dist.xs == x[None, :], axis=1))[0]
    if len(matches) == 0:
        raise ValueError("point is not in the support of the distribution")
    rates, included = reweighted_noise_rates(dist, measure)
    i = int(matches[0])
    if not included[i]:
        raise ZeroMass("both label weights are zero at this point")
    return float(rates[i])
