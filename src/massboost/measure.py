"""Reweighting measure, density, and the integral potential.

The measure weight of a labeled example (x, y) against a real-valued score g
with threshold s > 0 is

    mu(x, y) = M(y g(x)) if |g(x)| < s, else 0,
    M(v)     = 1 if v < 0, else exp(-v).

Points with |g(x)| >= s form the withheld (risky) set; both labels get weight
zero there, which is what preserves the bounded-noise property of the
rejection-sampled distribution. The ablation is s = inf, where no point is
withheld. The potential of a score assigns each example the full tail
integral of M from y g(x), with closed forms

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
    "exact_density",
    "exact_potential",
    "m_weight",
    "phi_point",
    "reweighted_noise_rates",
    "sample_weights",
]


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
    """

    s: float

    def sample_scores(self, sample: LabeledSample) -> np.ndarray: ...


@dataclass(frozen=True)
class Measure:
    """Measure mu_{g,s} induced by a score function and a threshold.

    `g` maps an (n, d) array of points to an (n,) array of scores. With
    s = inf (the ablation used to demonstrate noise blow-up) no point is
    withheld and weights are M(y g(x)) everywhere.
    """

    g: Callable[[np.ndarray], np.ndarray]
    s: float

    def scores(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self.g(xs), dtype=np.float64)

    def sample_scores(self, sample: LabeledSample) -> np.ndarray:
        return self.scores(sample.xs)


def _mu_from_scores(scores: np.ndarray, ys: np.ndarray, s: float) -> np.ndarray:
    """Weight mu of labels ys at scores g(x), for threshold s."""
    w = m_weight(np.asarray(ys, dtype=np.float64) * scores)
    return np.where(np.abs(scores) >= s, 0.0, w)


def sample_weights(scorer: SampleScorer, sample: LabeledSample) -> np.ndarray:
    """Weight mu(x, y) of each example of a drawn sample."""
    return _mu_from_scores(scorer.sample_scores(sample), sample.ys, scorer.s)


def _label_weights(dist: FiniteMassartDist, measure: Measure) -> tuple[np.ndarray, np.ndarray]:
    """Weights mu of each atom's true label f(x) and of its flipped label -f(x), from one evaluation of g."""
    scores = measure.scores(dist.xs)
    return (
        _mu_from_scores(scores, dist.f, measure.s),
        _mu_from_scores(scores, -dist.f, measure.s),
    )


def exact_density(dist: FiniteMassartDist, measure: Measure) -> float:
    """Exact expectation of the measure under the joint distribution."""
    w_clean, w_flip = _label_weights(dist, measure)
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
    w_clean, w_flip = _label_weights(dist, measure)
    num = dist.eta * w_flip
    den = num + (1.0 - dist.eta) * w_clean
    included = den > 0.0
    rates = np.divide(num, den, out=np.zeros_like(num), where=included)
    return rates, included
