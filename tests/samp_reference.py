"""Frozen reference of booster.samp's rejection sampling (not collected).

A copy of samp as it stood when it sliced every oracle batch down to its
accepted rows and concatenated the pieces, points included. The slicing
and concatenation are written out with plain array indexing here, since
LabeledSample no longer has methods for them. tests/test_booster.py checks
that samp returns the same bytes, draw for draw.
"""

import math

import numpy as np

from massboost.booster import DrawBudgetExceeded
from massboost.core import LabeledSample
from massboost.measure import sample_weights


def samp_reference(oracle, measure, m_wkl, rng, *, d_hat=1.0, delta=0.1):
    """Rejection-sample m_wkl examples; returns the sample and the raw draw count."""
    m_wkl = int(m_wkl)
    if m_wkl == 0:
        return oracle.sample_batch(0), 0
    d_ref = max(float(d_hat), 1e-12)
    budget = 10.0 * (math.log(1.0 / delta) / d_ref**2 + 2.0 * m_wkl / d_ref)
    budget = max(int(math.ceil(budget)), 10 * m_wkl)
    parts = []
    kept = raw = 0
    accept_rate = min(d_ref, 1.0)
    while kept < m_wkl:
        want = m_wkl - kept
        batch = min(math.ceil(want / max(accept_rate, 1e-3)), budget - raw)
        sample = oracle.sample_batch(batch)
        raw += batch
        keep = rng.random(batch) < sample_weights(measure, sample)
        parts.append(LabeledSample(sample.xs[keep], sample.ys[keep], sample.idx[keep]))
        kept += int(keep.sum())
        accept_rate = max(kept, 1) / raw
        if kept < m_wkl and raw >= budget:
            raise DrawBudgetExceeded(
                f"rejection sampling exceeded {budget} raw draws for {m_wkl} accepted"
            )
    xs = np.concatenate([p.xs for p in parts], axis=0)
    ys = np.concatenate([p.ys for p in parts], axis=0)
    idx = np.concatenate([p.idx for p in parts])
    return LabeledSample(xs[:m_wkl], ys[:m_wkl], idx[:m_wkl]), raw
