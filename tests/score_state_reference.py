"""Frozen reference of the exact per-round score arithmetic (not collected).

A copy of ScoreState, _step_scores and the exact-oracle branch of
over_confident as they stood before ScoreState wrote its temporaries into a
per-run workspace: every call allocates fresh arrays, and a state's sigma is
its own. tests/test_score_state.py checks that the workspace code returns
the same bits; bench/test_score_state_bench.py times both.
"""

import copy
from dataclasses import replace

import numpy as np

from massboost.booster import ExactStats
from massboost.core import LabeledSample, sign_pm1


def step_scores_reference(sigma, hv, b, lam, s, ablated):
    """One round of the score update."""
    if ablated:
        return sigma + lam * hv
    safe = np.abs(sigma) < s
    stepped = sigma + lam * hv
    if b:
        pulled = sigma - lam * np.where(sigma >= 0, 1.0, -1.0)
        return np.where(safe, stepped, pulled)
    return np.where(safe, stepped, sigma)


class ScoreStateReference:
    """The allocating ScoreState: scores on every atom, stepped and summarized."""

    def __init__(self, dist, lam, s, withhold):
        self.dist = dist
        self.lam = lam
        self.s = s
        self.withhold = withhold
        self.sigma = np.zeros(dist.n_atoms)
        self._f_plus = dist.f == 1
        self._a_plus = np.where(self._f_plus, dist.p * (1.0 - dist.eta), dist.p * dist.eta)
        self._a_minus = dist.p - self._a_plus
        self._b_label = self._a_plus - self._a_minus
        self._p_times_f = dist.p * dist.f
        self._prob_plus = float(self._a_plus.sum())
        self._prob_f_plus = float(dist.p[self._f_plus].sum())
        total = float(self._a_plus.sum() + self._a_minus.sum())
        self._stats = None
        self._stats = replace(self.stats(), density=total, potential=total)

    def at(self, sigma):
        """The state with scores sigma (a copy of them)."""
        nxt = copy.copy(self)
        nxt.sigma = np.array(sigma, dtype=np.float64)
        nxt._stats = None
        return nxt

    def sample_scores(self, sample):
        return self.sigma[sample.idx]

    def values(self, h):
        return np.clip(np.asarray(h(self.dist.xs), dtype=np.float64), -1.0, 1.0)

    def step(self, hv, b):
        return self.at(step_scores_reference(self.sigma, hv, b, self.lam, self.s, not self.withhold))

    def advantage(self, hv):
        st = self.stats()
        if st.density > 0.0:
            return 0.5 * float(np.dot(st.u_diff, hv)) / st.density
        return None

    def stats(self):
        if self._stats is not None:
            return self._stats
        sigma = self.sigma
        m_plus = np.exp(np.minimum(-sigma, 0.0))
        m_minus = np.exp(np.minimum(sigma, 0.0))
        safe = np.abs(sigma) < self.s
        if self.withhold:
            w_plus = np.where(safe, m_plus, 0.0)
            w_minus = np.where(safe, m_minus, 0.0)
        else:
            w_plus, w_minus = m_plus, m_minus
        u_plus = self._a_plus * w_plus
        u_minus = self._a_minus * w_minus
        den = u_plus + u_minus
        num = np.where(self._f_plus, u_minus, u_plus)
        rates = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
        pred_pos = sigma >= 0.0
        self._stats = ExactStats(
            density=float(np.dot(self._a_plus, w_plus) + np.dot(self._a_minus, w_minus)),
            potential=float(
                np.dot(self._a_plus, m_plus + np.maximum(-sigma, 0.0))
                + np.dot(self._a_minus, m_minus + np.maximum(sigma, 0.0))
            ),
            lerr=self._prob_plus - float(np.dot(self._b_label, pred_pos)),
            ferr=self._prob_f_plus - float(np.dot(self._p_times_f, pred_pos)),
            risky_mass=1.0 - float(np.dot(self.dist.p, safe)),
            max_noise_rate=float(rates.max()),
            u_diff=u_plus - u_minus,
        )
        return self._stats


def over_confident_reference(dist, scorer, eta, epsilon) -> bool:
    """The exact-oracle over-confidence decision, scoring every atom through sample_scores."""
    scores = scorer.sample_scores(LabeledSample(dist.xs, dist.f, np.arange(dist.n_atoms)))
    risky = np.abs(scores) >= scorer.s
    pr_risky = float(dist.p[risky].sum())
    if pr_risky <= epsilon / 4.0:
        return False
    preds = sign_pm1(scores)
    perr = np.where(preds == dist.f, dist.eta, 1.0 - dist.eta)
    cond_err = float(np.dot(dist.p[risky], perr[risky])) / pr_risky
    return cond_err >= eta + 3.0 * epsilon / 4.0
