"""The boosting loop and its subroutines.

The booster maintains a real-valued score G (initially 0), queries a weak
learner each round on a rejection-sampled reweighting of the input
distribution, and adds lambda-scaled weak hypotheses restricted to the safe
set {|G| < s}. When the aggregate becomes over-confident on the withheld
risky set {|G| >= s}, a recalibration step moves every risky score one lambda
toward zero. The loop stops once the estimated density of the reweighting
measure falls to the target kappa, and the final classifier is sign(G).

During a run G lives in one ScoreState, its value sigma on every atom of the
finite support, stepped once per round; a draw is scored by its atom index in
both modes. The run returns G as an AggregatedHypothesis, the ordered trace
((h_1, b_1), ..., (h_t, b_t)) of weak hypotheses and recalibration flags,
whose replay reproduces G anywhere and equals sigma on the support.

In exact-oracle mode the density and the over-confidence test are exact
expectations that draw nothing, which makes a run deterministic given the
weak learner, and each round records the exact statistics; Monte Carlo mode
estimates both with the sample sizes set by the failure budgets delta_dens
and delta_err, optionally shrunk by sample_scale for desk-scale experiments.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Protocol, Tuple

import numpy as np

from .core import FiniteMassartDist, LabeledSample, MassartOracle, sign_pm1
from .measure import SampleScorer, sample_weights

__all__ = [
    "AggregatedHypothesis",
    "BoostFailure",
    "BoostParams",
    "ConditionalDrawBudgetExceeded",
    "DegenerateThreshold",
    "DrawBudgetExceeded",
    "EpsilonTooSmall",
    "EtaZero",
    "ExactStats",
    "FixedHypothesisWeakLearner",
    "MaxRoundsExceeded",
    "RoundRecord",
    "RunTrace",
    "ScoreState",
    "WeakLearner",
    "boost",
    "compute_params",
    "density_sample_size",
    "est_density",
    "over_confident",
    "repeat_weak_learner",
    "repetition_schedule",
    "samp",
]

MODE_EXACT = "exact-oracle"
MODE_MC = "monte-carlo"
_MODE_ALIASES = {"exact": MODE_EXACT, "exact-oracle": MODE_EXACT, "mc": MODE_MC, "monte-carlo": MODE_MC}


class EpsilonTooSmall(ValueError):
    """epsilon is below 8*eta*alpha/(1-2*alpha), the minimum the analysis supports."""


class DegenerateThreshold(ValueError):
    """The withholding threshold s = log((1-eta)/(eta+c)) is not positive."""


class EtaZero(ValueError):
    """eta = 0 needs explicit s_max and kappa_min overrides (kappa=eta would never trigger)."""


class BoostFailure(RuntimeError):
    """A boosting run stopped before its density reached kappa.

    Leaving boost(), it carries the rounds completed: their trace, with the
    final score of every atom in trace.scores, and their aggregate.
    """

    trace: Optional["RunTrace"] = None
    aggregated: Optional["AggregatedHypothesis"] = None


class DrawBudgetExceeded(BoostFailure):
    """Rejection sampling burned far more raw draws than the density estimate justifies."""


class ConditionalDrawBudgetExceeded(BoostFailure):
    """The conditional error estimate could not fill its sample at the observed risky mass."""


class MaxRoundsExceeded(BoostFailure):
    """The boosting loop hit its round cap."""


# -- parameters ---------------------------------------------------------------


@dataclass(frozen=True)
class BoostParams:
    """All scalars the boosting loop needs, mostly derived by compute_params."""

    eta: float
    alpha: float
    gamma: float
    epsilon: float
    delta: float
    c: float
    s: float
    lam: float
    kappa: float
    delta_err: float
    delta_dens: float
    max_rounds: int
    sample_scale: float = 1.0
    mode: str = MODE_EXACT


def compute_params(
    eta: float,
    alpha: float,
    gamma: float,
    epsilon: float,
    delta: float,
    sample_scale: float = 1.0,
    mode: str = MODE_EXACT,
    *,
    max_rounds: Optional[int] = None,
    s_max: Optional[float] = None,
    kappa_min: Optional[float] = None,
) -> BoostParams:
    """Derive all boosting constants from the primitive inputs.

    c = 4*eta*alpha/(1-2*alpha), s = log((1-eta)/(eta+c)), lambda = gamma/8,
    kappa = eta, delta_err = delta*eta*gamma^2/1536, delta_dens the same with
    1024. Requires epsilon >= 2c. The realizable case eta = 0 must pass
    explicit s_max and kappa_min; kappa and the failure budgets then use
    max(eta, kappa_min) in place of eta.
    """
    if mode not in _MODE_ALIASES:
        raise ValueError(f"unknown mode {mode!r}")
    mode = _MODE_ALIASES[mode]
    if not (0.0 <= eta < 0.5):
        raise ValueError(f"eta must be in [0, 1/2), got {eta}")
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"alpha must be in (0, 1/2), got {alpha}")
    if not (0.0 < gamma < 0.5):
        raise ValueError(f"gamma must be in (0, 1/2), got {gamma}")
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    if sample_scale <= 0.0:
        raise ValueError("sample_scale must be positive")
    if eta == 0.0 and (s_max is None or kappa_min is None):
        raise EtaZero("eta = 0 requires explicit s_max and kappa_min overrides")

    c = 4.0 * eta * alpha / (1.0 - 2.0 * alpha)
    if eta + c > 0.0:
        s = math.log((1.0 - eta) / (eta + c))
    else:
        s = math.inf
    if s_max is not None:
        s = min(s, float(s_max))
    # alpha >= 1/2 - eta drives s to or below zero; surface that as the
    # threshold degenerating rather than a range error
    if not (s > 0.0) or math.isinf(s):
        raise DegenerateThreshold(f"threshold s = {s} must be positive and finite")
    # 2c rounds up for some exact boundary inputs (eta 0.2, alpha 0.1 gives
    # 0.20000000000000004), so equality is judged up to float rounding
    if epsilon < 2.0 * c and not math.isclose(epsilon, 2.0 * c, rel_tol=1e-12):
        raise EpsilonTooSmall(f"epsilon {epsilon} < 8*eta*alpha/(1-2*alpha) = {2.0 * c}")

    eta_eff = max(eta, kappa_min if kappa_min is not None else 0.0)
    lam = gamma / 8.0
    kappa = eta_eff
    delta_err = delta * eta_eff * gamma**2 / 1536.0
    delta_dens = delta * eta_eff * gamma**2 / 1024.0
    if max_rounds is None:
        max_rounds = math.ceil(10.0 * 128.0 / (eta_eff * gamma**2))
    return BoostParams(
        eta=eta,
        alpha=alpha,
        gamma=gamma,
        epsilon=epsilon,
        delta=delta,
        c=c,
        s=s,
        lam=lam,
        kappa=kappa,
        delta_err=delta_err,
        delta_dens=delta_dens,
        max_rounds=int(max_rounds),
        sample_scale=float(sample_scale),
        mode=mode,
    )


# -- aggregated hypothesis ----------------------------------------------------


@dataclass(frozen=True)
class AggregatedHypothesis:
    """The booster's state: step size, threshold, and the update trace.

    g(xs) replays the trace: per round, a point with |score| < s receives
    lam * h_i(x); otherwise, if the round recalibrated (b_i = 1), the score
    moves lam toward zero. Ablated aggregates (withholding disabled) add
    every hypothesis unconditionally.
    """

    lam: float
    s: float
    trace: Tuple[Tuple[Callable, bool], ...]
    ablated: bool = False

    def g(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        sigma = np.zeros(xs.shape[0])
        tmp = np.empty_like(sigma)
        for h, b in self.trace:
            hv = np.clip(np.asarray(h(xs), dtype=np.float64), -1.0, 1.0)
            risky = None if self.ablated else np.abs(sigma) >= self.s
            sigma = _step_scores(sigma, hv, b, self.lam, risky, np.empty_like(sigma), tmp)
        return sigma

    def __len__(self) -> int:
        return len(self.trace)


def _step_scores(
    sigma: np.ndarray, hv: np.ndarray, b: bool, lam: float, risky: Optional[np.ndarray],
    out: np.ndarray, tmp: np.ndarray,
) -> np.ndarray:
    """One round of the score update into out, shared by the loop and trace replay.

    risky is the mask |sigma| >= s, or None when withholding is ablated and
    every atom takes the step. A safe atom gets sigma + lam * hv; a risky one
    keeps sigma, or moves to sigma - lam * sign(sigma) if b. Each value comes
    from that one IEEE operation, whichever buffers hold it. out must not be
    sigma; tmp is scratch of sigma's shape.
    """
    np.multiply(hv, lam, out=tmp)
    np.add(sigma, tmp, out=out)
    if risky is None:
        return out
    if b:  # a risky sigma is nonzero, so copysign gives lam * sign(sigma) there
        np.subtract(sigma, np.copysign(lam, sigma, out=tmp), out=out, where=risky)
    else:
        np.copyto(out, sigma, where=risky)
    return out


@dataclass(frozen=True)
class ExactStats:
    """Exact expectations of one score state under the joint distribution."""

    density: float  # E[mu(x, y)]
    potential: float  # E[phi(y G(x))]
    lerr: float  # Pr[sign G(x) != y]
    ferr: float  # Pr[sign G(x) != f(x)]
    risky_mass: float  # Pr[|G(x)| >= s]
    max_noise_rate: float  # largest per-atom flip probability under D_mu
    # per atom, P(x, +1) mu(x, +1) - P(x, -1) mu(x, -1); a ScoreState
    # workspace row (see ScoreState)
    u_diff: np.ndarray


@dataclass
class _SignMemo:
    """lerr and ferr of the sign mask sigma >= 0 they were last computed for, kept in a row of its own."""

    sign: np.ndarray
    errors: Optional[Tuple[float, float]] = None


class ScoreState:
    """The aggregate's score G on every atom of a finite support.

    sigma[i] = G(dist.xs[i]). step() applies one round of the update rule to
    all atoms and returns the next state, so sigma equals
    AggregatedHypothesis.g(dist.xs) bit for bit: hypotheses are pointwise
    and _step_scores is elementwise. sample_scores reads sigma at the atom
    index every oracle draw carries, so no draw replays the trace.

    stats() computes a state's exact statistics on first use; each is a dot
    product of per-atom weights with the joint label masses
    a+ = P(x, y = +1) and a- = P(x, y = -1).

    The states stepped from one constructed state share its workspace, eight
    per-atom float rows and four per-atom bool rows allocated once, and write
    every per-atom float temporary into them, so a round of boost()
    allocates no float array of n_atoms elements. The float rows are two
    score rows, the values row, the u_diff row (scratch until stats() writes
    u_diff into it) and four scratch rows; the bool rows are two risky mask
    rows, a scratch row for the sign mask sigma >= 0 and the memo's row.

    Some statistics depend on a mask alone, and from round to round the masks
    rarely change, so stats() skips the work a mask makes constant. lerr and
    ferr depend only on the sign mask. The run's states share one memo of
    them, keyed by the contents of the sign mask they were computed for: the
    memo copies that mask into its own row, never into a row a step
    overwrites, and a state whose mask has the same contents reads the memo,
    whichever state of the run wrote it. With no atom risky, the risky mass
    is the run constant 1 - dot(p, 1) and no weight is zeroed; otherwise the
    safe row 1 - risky gives the risky mass and zeroes the weights.

    What a method returns from the workspace stays valid only as follows;
    copy what must live longer, as boost() copies the final scores.

    - sigma and the risky mask |sigma| >= s alternate between two buffers:
      step() writes into the one that does not hold this state's sigma. A
      state stays valid until the step after next, that is, until a state
      stepped from it is stepped in turn. Two states stepped from the same
      state share a buffer, and only the later one is valid.
    - values() returns the same row on every call.
    - ExactStats.u_diff is one row, overwritten when another state of the
      run computes its stats.
    """

    def __init__(self, dist: FiniteMassartDist, lam: float, s: float, withhold: bool):
        self.dist = dist
        self.lam = lam
        self.s = s
        self.withhold = withhold
        n = dist.n_atoms
        rows = np.zeros((8, n))
        self._score_rows = rows[:2]
        self._hv, self._u_diff, self._t1, self._t2, self._t3, self._t4 = rows[2:]
        masks = np.zeros((4, n), dtype=bool)
        self._risky_rows = masks[:2]
        self._sign_now = masks[2]
        self._sign_memo = _SignMemo(masks[3])
        self._buf = 0
        self.sigma = self._score_rows[0]
        self._risky_mask: Optional[np.ndarray] = None
        f_plus = dist.f == 1
        self._a_plus = np.where(f_plus, dist.p * (1.0 - dist.eta), dist.p * dist.eta)
        self._a_minus = dist.p - self._a_plus
        self._b_label = self._a_plus - self._a_minus
        self._p_times_f = dist.p * dist.f
        self._prob_plus = float(self._a_plus.sum())
        self._prob_f_plus = float(dist.p[f_plus].sum())
        # an atom without mass on its flipped label has noise rate exactly 0,
        # so rates are computed on the others only: first those with f = +1,
        # then those with f = -1
        flip = np.where(f_plus, self._a_minus, self._a_plus) > 0.0
        noisy_plus = np.flatnonzero(flip & f_plus)
        self._noisy = np.concatenate([noisy_plus, np.flatnonzero(flip & ~f_plus)])
        self._n_noisy_plus = len(noisy_plus)
        self._den_pos = np.empty(len(self._noisy), dtype=bool)
        self._risky_mass_none = 1.0 - float(np.dot(dist.p, np.ones(n)))
        # at G = 0 every weight is exactly 1, so density and potential are the
        # total mass; it is summed, not dotted, and round 1's recorded
        # pre-round values and advantage carry those bits
        total = float(self._a_plus.sum() + self._a_minus.sum())
        self._stats: Optional[ExactStats] = None
        self._stats = replace(self.stats(), density=total, potential=total)

    def sample_scores(self, sample: LabeledSample) -> np.ndarray:
        return self.sigma[sample.idx]

    def support_scores(self, dist: FiniteMassartDist) -> Tuple[np.ndarray, np.ndarray]:
        """sigma and its risky mask; dist is this state's own support."""
        return self.sigma, self._risky()

    def values(self, h: Callable) -> np.ndarray:
        """A hypothesis on every atom, clipped to [-1, 1] as the update rule applies it."""
        v = h(self.dist.xs)
        if isinstance(v, np.ndarray) and v.dtype.kind == "i":  # one pass: clipped in v's dtype, then converted
            return np.clip(v, -1, 1, out=self._hv)
        np.copyto(self._hv, v)
        return np.clip(self._hv, -1.0, 1.0, out=self._hv)

    def step(self, hv: np.ndarray, b: bool) -> "ScoreState":
        """The state after one round adding values hv, recalibrating the risky set if b."""
        nxt = copy.copy(self)
        nxt._buf = 1 - self._buf
        risky = self._risky() if self.withhold else None
        nxt.sigma = _step_scores(self.sigma, hv, b, self.lam, risky, self._score_rows[nxt._buf], self._t1)
        nxt._risky_mask = None
        nxt._stats = None
        return nxt

    def advantage(self, hv: np.ndarray) -> Optional[float]:
        """Exact advantage (1/2) E_mu[h(x) y] of values hv on the reweighted distribution."""
        st = self.stats()
        if st.density > 0.0:
            return 0.5 * float(np.dot(st.u_diff, hv)) / st.density
        return None

    def _risky(self) -> np.ndarray:
        """The mask |sigma| >= s, computed on first use; clobbers the scratch row t1."""
        if self._risky_mask is None:
            np.abs(self.sigma, out=self._t1)
            self._risky_mask = np.greater_equal(self._t1, self.s, out=self._risky_rows[self._buf])
        return self._risky_mask

    def stats(self) -> ExactStats:
        """The exact statistics of this state, computed on first use."""
        if self._stats is not None:
            return self._stats
        sigma, risky = self.sigma, self._risky()
        # M+ is built in the u_diff row and turned into u_diff in place, which
        # spares the memory traffic of one more row
        lo, m_minus, m_plus, phi = self._t1, self._t2, self._u_diff, self._t4
        # phi(v) = M(v) + max(-v, 0) with M(v) = exp(min(-v, 0)), at v = +-sigma;
        # min(-sigma, 0) is -max(sigma, 0) and max(-sigma, 0) is -min(sigma, 0)
        # up to the sign of a zero, which neither exp nor the sum with M >= 1 sees
        np.minimum(sigma, 0.0, out=lo)
        np.exp(lo, out=m_minus)
        np.add(m_minus, np.maximum(sigma, 0.0, out=m_plus), out=phi)
        pot_minus = np.dot(self._a_minus, phi)
        np.exp(np.negative(m_plus, out=m_plus), out=m_plus)
        np.subtract(m_plus, lo, out=phi)
        potential = float(np.dot(self._a_plus, phi) + pot_minus)
        if risky.any():
            safe = np.subtract(1.0, risky, out=phi)
            risky_mass = 1.0 - float(np.dot(self.dist.p, safe))
            # the weights mu: M zeroed on the risky set; M >= 0, so M * 0.0 is the +0.0 a masked copy writes
            if self.withhold:
                np.multiply(m_plus, safe, out=m_plus)
                np.multiply(m_minus, safe, out=m_minus)
        else:
            risky_mass = self._risky_mass_none
        # density and potential share the dot structure so the pointwise
        # mu <= phi inequality survives float accumulation; each dot runs
        # next to the product that reads the same two rows, while they are
        # in cache
        d_plus = np.dot(self._a_plus, m_plus)
        u_plus = np.multiply(self._a_plus, m_plus, out=m_plus)
        d_minus = np.dot(self._a_minus, m_minus)
        u_minus = np.multiply(self._a_minus, m_minus, out=m_minus)
        density = float(d_plus + d_minus)
        max_noise_rate = self._max_noise_rate(u_plus, u_minus)
        np.subtract(u_plus, u_minus, out=self._u_diff)
        lerr, ferr = self._sign_errors()
        self._stats = ExactStats(
            density=density,
            potential=potential,
            lerr=lerr,
            ferr=ferr,
            risky_mass=risky_mass,
            max_noise_rate=max_noise_rate,
            u_diff=self._u_diff,
        )
        return self._stats

    def _sign_errors(self) -> Tuple[float, float]:
        """lerr and ferr of sign(sigma), read off the run's memo unless the mask sigma >= 0 changed."""
        memo, now = self._sign_memo, np.greater_equal(self.sigma, 0.0, out=self._sign_now)
        if memo.errors is None or np.not_equal(now, memo.sign, out=now).any():  # the test spends now
            np.greater_equal(self.sigma, 0.0, out=memo.sign)
            pred_pos = np.greater_equal(self.sigma, 0.0, out=self._t4)
            memo.errors = (
                self._prob_plus - float(np.dot(self._b_label, pred_pos)),
                self._prob_f_plus - float(np.dot(self._p_times_f, pred_pos)),
            )
        return memo.errors

    def _max_noise_rate(self, u_plus: np.ndarray, u_minus: np.ndarray) -> float:
        """Largest flip mass over total mass on one atom; excluded atoms read 0."""
        k, kp = len(self._noisy), self._n_noisy_plus
        if k == 0:
            return 0.0
        num, den = self._t3[:k], self._t4[:k]
        np.take(u_plus, self._noisy, out=den)
        np.take(u_minus, self._noisy, out=num)  # the flipped label of f = +1 is -1
        np.add(den, num, out=den)
        np.take(u_plus, self._noisy[kp:], out=num[kp:])  # and that of f = -1 is +1
        np.divide(num, den, out=num, where=np.greater(den, 0.0, out=self._den_pos))
        return float(num.max())


# -- weak learner interface ---------------------------------------------------


class WeakLearner(Protocol):
    """Trainable producer of weak hypotheses.

    alpha and gamma are the advertised noise-tolerance margin and advantage.
    train_from_source draws the reweighted examples it needs through
    source(count) and returns a hypothesis.
    """

    alpha: float
    gamma: float

    def train_from_source(self, source: Callable[[int], LabeledSample], rng: np.random.Generator): ...


@dataclass
class FixedHypothesisWeakLearner:
    """Degenerate weak learner returning one fixed hypothesis (e.g. the true concept); draws nothing."""

    hypothesis: Callable
    alpha: float = 0.25
    gamma: float = 0.25

    def train_from_source(self, source: Callable[[int], LabeledSample], rng: np.random.Generator):
        return self.hypothesis


# -- subroutines --------------------------------------------------------------


def samp(
    oracle: MassartOracle,
    measure: SampleScorer,
    m_wkl: int,
    rng: np.random.Generator,
    *,
    d_hat: float = 1.0,
    delta: float = 0.1,
) -> Tuple[LabeledSample, int]:
    """Rejection-sample m_wkl examples from the reweighted distribution.

    Draws (x, y) from the oracle and keeps each with probability mu(x, y).
    Returns the accepted sample and the raw draw count. Raises
    DrawBudgetExceeded once raw draws pass ten times the
    log(1/delta)/d_hat^2 + 2*m_wkl/d_hat budget, the signature of a measure
    whose true density has collapsed.
    """
    m_wkl = int(m_wkl)
    if m_wkl == 0:
        return oracle.sample_batch(0), 0
    d_ref = max(float(d_hat), 1e-12)
    # m_wkl is already a desk-scaled request, so the budget uses the raw
    # concentration bound; scaling it again would trip on healthy measures
    budget = 10.0 * (math.log(1.0 / delta) / d_ref**2 + 2.0 * m_wkl / d_ref)
    budget = max(int(math.ceil(budget)), 10 * m_wkl)
    parts: List[LabeledSample] = []
    kept = raw = 0
    # first batch sized by the density estimate so a full-weight measure
    # draws exactly m_wkl; later batches use the observed acceptance rate
    accept_rate = min(d_ref, 1.0)
    while kept < m_wkl:
        want = m_wkl - kept
        batch = min(math.ceil(want / max(accept_rate, 1e-3)), budget - raw)
        sample = oracle.sample_batch(batch)
        raw += batch
        keep = rng.random(batch) < sample_weights(measure, sample)
        parts.append(sample[keep])
        kept += int(keep.sum())
        accept_rate = max(kept, 1) / raw
        if kept < m_wkl and raw >= budget:
            raise DrawBudgetExceeded(
                f"rejection sampling exceeded {budget} raw draws for {m_wkl} accepted"
            )
    return LabeledSample.concat(parts)[:m_wkl], raw


def density_sample_size(delta_dens: float, epsilon: float, eta: float, sample_scale: float = 1.0) -> int:
    """Draw count for the density estimate: ceil(scale * log(1/delta_dens) / (2 beta^2))."""
    beta = min(epsilon / 2.0, eta / 4.0)
    return int(math.ceil(sample_scale * math.log(1.0 / delta_dens) / (2.0 * beta**2)))


def est_density(
    oracle: MassartOracle,
    measure: SampleScorer,
    params: BoostParams,
) -> float:
    """Monte Carlo estimate of the measure's density: its mean weight on fresh draws.

    boost() calls it in Monte Carlo mode only; exact-oracle mode reads the
    exact density off its ScoreState.
    """
    n = density_sample_size(params.delta_dens, params.epsilon, params.eta, params.sample_scale)
    sample = oracle.sample_batch(n)
    return float(np.mean(sample_weights(measure, sample)))


def over_confident(
    oracle: MassartOracle,
    scorer: SampleScorer,
    params: BoostParams,
) -> bool:
    """Decide whether sign(G) is over-confident on the withheld risky set.

    Stage 1 checks whether the risky mass Pr[|G(x)| >= s] exceeds epsilon/4;
    if not, returns False. Stage 2 compares the misclassification rate of
    sign(G) conditioned on the risky set against eta + 3*epsilon/4. In
    exact-oracle mode both stages use exact expectations over the support.
    """
    s = scorer.s
    if params.mode == MODE_EXACT:
        dist = oracle.source
        scores, risky = scorer.support_scores(dist)
        p_risky = dist.p[risky]
        pr_risky = float(p_risky.sum())
        if pr_risky <= params.epsilon / 4.0:
            return False
        eta = dist.eta[risky]
        perr = np.where(sign_pm1(scores[risky]) == dist.f[risky], eta, 1.0 - eta)
        cond_err = float(np.dot(p_risky, perr)) / pr_risky
        return cond_err >= params.eta + 3.0 * params.epsilon / 4.0

    n1 = int(math.ceil(params.sample_scale * 32.0 * math.log(2.0 / params.delta_err) / params.epsilon**2))
    first = oracle.sample_batch(n1)
    frac = float(np.mean(np.abs(scorer.sample_scores(first)) >= s))
    if frac <= params.epsilon / 4.0:
        return False
    n2 = int(math.ceil(params.sample_scale * 8.0 * math.log(2.0 / params.delta_err) / params.epsilon**2))
    budget = int(math.ceil(10.0 * n2 / frac))
    mismatches = collected = raw = 0
    while collected < n2:
        batch = int(np.clip(math.ceil(1.3 * (n2 - collected) / frac), 64, budget - raw))
        sample = oracle.sample_batch(batch)
        raw += batch
        scores = scorer.sample_scores(sample)
        mask = np.abs(scores) >= s
        take = min(int(mask.sum()), n2 - collected)
        if take > 0:
            idx = np.where(mask)[0][:take]
            mismatches += int(np.sum(sample.ys[idx] != sign_pm1(scores[idx])))
            collected += take
        if collected < n2 and raw >= budget:
            raise ConditionalDrawBudgetExceeded(
                f"could not collect {n2} risky-conditioned examples within {budget} draws"
            )
    eps_hat = mismatches / n2
    return eps_hat >= params.eta + 3.0 * params.epsilon / 4.0


def repetition_schedule(delta_wkl: float, gamma: float, sample_scale: float = 1.0) -> Tuple[int, int]:
    """Candidate count and test sample size for the weak-learner repetition wrapper."""
    base = 2.0 * math.log(2.0 / delta_wkl)
    n_candidates = max(1, int(math.ceil(sample_scale * base)))
    test_size = max(1, int(math.ceil(sample_scale * base / gamma**2)))
    return n_candidates, test_size


def repeat_weak_learner(
    wkl: WeakLearner,
    mu_sample_source: Callable[[int, np.random.Generator], LabeledSample],
    params: BoostParams,
    rng: np.random.Generator,
):
    """Drive the weak learner's failure probability down by repetition.

    Trains one candidate per independent sample, measures each candidate's
    empirical advantage on a fresh test sample, and returns the best one
    (ties broken by first index). With a single scheduled candidate the test
    sample is skipped. A low-advantage winner is returned as-is; the loop's
    round cap is the backstop.
    """
    n_candidates, test_size = repetition_schedule(params.delta_err, params.gamma, params.sample_scale)
    streams = rng.spawn(n_candidates + 1)
    candidates = [
        wkl.train_from_source(lambda c, stream=stream: mu_sample_source(c, stream), stream) for stream in streams[:-1]
    ]
    if n_candidates == 1:
        return candidates[0]
    test = mu_sample_source(test_size, streams[-1])
    ys = test.ys.astype(np.float64)
    best_idx = 0
    best_adv = -np.inf
    for i, h in enumerate(candidates):
        hv = np.clip(np.asarray(h(test.xs), dtype=np.float64), -1.0, 1.0)
        adv = 0.5 * float(np.mean(hv * ys))
        if adv > best_adv:
            best_adv = adv
            best_idx = i
    return candidates[best_idx]


# -- run trace ----------------------------------------------------------------


@dataclass
class RoundRecord:
    """Per-round diagnostics; exact fields are None in Monte Carlo mode."""

    round: int
    d_hat: float
    overconfident: bool
    raw_draws: int
    d_exact: Optional[float] = None
    phi: Optional[float] = None
    lerr_exact: Optional[float] = None
    ferr_exact: Optional[float] = None
    d_exact_pre: Optional[float] = None
    phi_pre: Optional[float] = None
    adv_exact: Optional[float] = None
    max_noise_rate: Optional[float] = None
    risky_mass: Optional[float] = None


@dataclass
class RunTrace:
    """Ordered round records, draw total and final per-atom scores of one boosting run."""

    rows: List[RoundRecord] = field(default_factory=list)
    total_draws: int = 0
    scores: Optional[np.ndarray] = None  # final G on each atom; not part of the CSV

    # the RoundRecord fields the CSV carries, in column order
    CSV_FIELDS = ("round", "d_hat", "d_exact", "phi", "overconfident", "raw_draws", "lerr_exact", "ferr_exact")

    def to_csv(self) -> str:
        def cell(v) -> str:  # .17g prints an int or a bool as an integer
            return "" if v is None else format(v, ".17g")

        lines = [",".join(self.CSV_FIELDS)]
        lines += [",".join(cell(getattr(r, name)) for name in self.CSV_FIELDS) for r in self.rows]
        return "\n".join(lines) + "\n"

    @property
    def rounds(self) -> int:
        return len(self.rows)


# -- the boosting loop --------------------------------------------------------


def _exact_fields(pre: ScoreState, hv: np.ndarray, post: ScoreState) -> dict:
    """The exact RoundRecord fields of a round that stepped pre to post adding values hv.

    pre.advantage(hv) is read before post.stats(): every state of a run
    writes ExactStats.u_diff into the same workspace row, so post's stats
    would overwrite the row pre's advantage reads.
    """
    adv = pre.advantage(hv)
    a, b = pre.stats(), post.stats()
    return dict(d_exact=b.density, phi=b.potential, lerr_exact=b.lerr, ferr_exact=b.ferr, d_exact_pre=a.density,
                phi_pre=a.potential, adv_exact=adv, max_noise_rate=a.max_noise_rate, risky_mass=b.risky_mass)


def boost(
    oracle: MassartOracle,
    wkl: WeakLearner,
    params: BoostParams,
    rng: np.random.Generator,
    *,
    ablate_no_withholding: bool = False,
) -> Tuple[AggregatedHypothesis, RunTrace]:
    """Run the boosting loop until the measure density drops to kappa.

    Per round: draw reweighted samples, train and select a weak hypothesis,
    add it on the safe set, recalibrate the risky set when the aggregate is
    over-confident there, then re-estimate the density. Returns the final
    aggregated hypothesis and the per-round trace, whose scores field holds
    the final score of every atom. A BoostFailure that stops the loop (the
    round cap or a draw budget) leaves with the trace and aggregate of the
    rounds completed.

    The ablation flag disables the risky-set machinery entirely: weights are
    M(yG) with no cutoff, hypotheses apply everywhere, and no recalibration
    runs. It exists to demonstrate how unbounded reweighting destroys the
    bounded-noise property.
    """
    exact = params.mode == MODE_EXACT
    withhold = not ablate_no_withholding
    state = ScoreState(oracle.source, params.lam, params.s, withhold)
    trace: List[Tuple[Callable, bool]] = []
    run = RunTrace()
    d_hat = 1.0
    draws_mark = oracle.draws

    def source(count: int, r: np.random.Generator) -> LabeledSample:  # D_mu of the current state
        return samp(oracle, state, count, r, d_hat=d_hat, delta=params.delta)[0]

    def finish() -> AggregatedHypothesis:
        run.total_draws = oracle.draws
        run.scores = state.sigma.copy()
        return AggregatedHypothesis(params.lam, params.s, tuple(trace), ablated=not withhold)

    try:
        while d_hat > params.kappa:
            if len(trace) >= params.max_rounds:
                raise MaxRoundsExceeded(f"no termination within {params.max_rounds} rounds")
            # sample from D_mu and train
            h_t = repeat_weak_learner(wkl, source, params, rng)
            hv = state.values(h_t)
            # add h_t on the safe set; pull the risky set back if sign(G) is over-confident there
            added = state.step(hv, False)
            b_t = withhold and over_confident(oracle, added, params)
            pre, state = state, (state.step(hv, True) if b_t else added)
            trace.append((h_t, b_t))
            # measure the density and record the round
            if exact:
                fields = _exact_fields(pre, hv, state)
                d_hat = fields["d_exact"]
            else:
                fields = {}
                d_hat = est_density(oracle, state, params)
            run.rows.append(RoundRecord(len(trace), d_hat, b_t, oracle.draws - draws_mark, **fields))
            draws_mark = oracle.draws
    except BoostFailure as exc:
        exc.aggregated = finish()
        exc.trace = run
        raise
    return finish(), run
