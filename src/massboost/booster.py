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

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, List, Optional, Protocol, Tuple

import numpy as np

from .core import FiniteMassartDist, LabeledSample, MassartOracle, _atom_dot, label_errors, sign_pm1
from .measure import SampleScorer, sample_weights

__all__ = [
    "AggregatedHypothesis",
    "BoostFailure",
    "BoostParams",
    "ConditionalDrawBudgetExceeded",
    "DrawBudgetExceeded",
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
    """All scalars the boosting loop needs, mostly derived by compute_params; s = inf is the ablation."""

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
) -> BoostParams:
    """Derive all boosting constants from the primitive inputs.

    c = 4*eta*alpha/(1-2*alpha), s = log((1-eta)/(eta+c)), lambda = gamma/8,
    kappa = eta, delta_err = delta*eta*gamma^2/1536, delta_dens the same with
    1024. Requires Massart noise, 0 < eta < 1/2, and epsilon >= 2c; an
    input out of range raises ValueError with the check's message.
    """
    if mode not in _MODE_ALIASES:
        raise ValueError(f"unknown mode {mode!r}")
    mode = _MODE_ALIASES[mode]
    if not (0.0 < eta < 0.5):
        raise ValueError(f"eta must be in (0, 1/2), got {eta}")
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"alpha must be in (0, 1/2), got {alpha}")
    if not (0.0 < gamma < 0.5):
        raise ValueError(f"gamma must be in (0, 1/2), got {gamma}")
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    if sample_scale <= 0.0:
        raise ValueError("sample_scale must be positive")
    if max_rounds is not None and max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")

    c = 4.0 * eta * alpha / (1.0 - 2.0 * alpha)
    s = math.log((1.0 - eta) / (eta + c))
    # alpha >= 1/2 - eta drives s to or below zero, and a subnormal eta
    # overflows it to infinity; surface both as the threshold degenerating
    # rather than a range error
    if not (0.0 < s < math.inf):
        raise ValueError(f"threshold s = {s} of eta = {eta}, alpha = {alpha} must be positive and finite")
    # 2c rounds up for some exact boundary inputs (eta 0.2, alpha 0.1 gives
    # 0.20000000000000004), so equality is judged up to float rounding
    if epsilon < 2.0 * c and not math.isclose(epsilon, 2.0 * c, rel_tol=1e-12):
        raise ValueError(f"epsilon {epsilon} < 8*eta*alpha/(1-2*alpha) = {2.0 * c}")

    if max_rounds is None:
        max_rounds = math.ceil(10.0 * 128.0 / (eta * gamma**2))
    return BoostParams(
        eta=eta,
        alpha=alpha,
        gamma=gamma,
        epsilon=epsilon,
        delta=delta,
        c=c,
        s=s,
        lam=gamma / 8.0,
        kappa=eta,
        delta_err=delta * eta * gamma**2 / 1536.0,
        delta_dens=delta * eta * gamma**2 / 1024.0,
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
    moves lam toward zero. With s = inf (the ablation) no point is risky and
    every hypothesis is added everywhere. The replay updates one score row in
    place through the same two helpers as ScoreState, so each round
    allocates only the hypothesis's values.
    """

    lam: float
    s: float
    trace: Tuple[Tuple[Callable, bool], ...]

    def g(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        sigma = np.zeros(xs.shape[0])
        tmp, risky = np.empty_like(sigma), np.empty(sigma.shape, dtype=bool)
        for h, b in self.trace:
            hv = np.clip(np.asarray(h(xs), dtype=np.float64), -1.0, 1.0)
            np.greater_equal(np.abs(sigma, out=tmp), self.s, out=risky)
            _add_safe(sigma, hv, self.lam, risky, tmp)
            if b:
                _pull_risky(sigma, self.lam, risky, tmp)
        return sigma

    def __len__(self) -> int:
        return len(self.trace)


# The two halves of a round's score update, in place, shared by ScoreState
# and the trace replay. risky is the mask |sigma| >= s taken before the
# round, all False at the ablation's s = inf; tmp is scratch of sigma's shape.
# A risky score is nonzero (s > 0), so adding the +0.0 written over its step
# keeps its bits, and copysign gives lam * sign(sigma) there.


def _add_safe(sigma: np.ndarray, hv: np.ndarray, lam: float, risky: np.ndarray, tmp: np.ndarray) -> None:
    """sigma + lam * hv on the safe atoms; the risky ones keep sigma."""
    np.multiply(hv, lam, out=tmp)
    np.copyto(tmp, 0.0, where=risky)
    np.add(sigma, tmp, out=sigma)


def _pull_risky(sigma: np.ndarray, lam: float, risky: np.ndarray, tmp: np.ndarray) -> None:
    """sigma - lam * sign(sigma) on the risky atoms; the safe ones keep sigma."""
    np.subtract(sigma, np.copysign(lam, sigma, out=tmp), out=sigma, where=risky)


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


class ScoreState:
    """The aggregate's score G on every atom of a finite support, one per run.

    sigma[i] = G(dist.xs[i]). A round is step(hv), which adds lam * hv to the
    safe atoms |sigma| < s in place, then recalibrate() if the round
    recalibrates, which moves the atoms that were risky before that step one
    lam toward zero. Both run the helpers of AggregatedHypothesis.g, so sigma
    equals g(dist.xs) bit for bit: hypotheses are pointwise and the helpers
    elementwise. sample_scores reads sigma at the atom index every oracle
    draw carries, so no draw replays the trace.

    stats() computes the current scores' exact statistics on first use.
    Density and potential are dots (core._atom_dot) of per-atom weights with
    the joint label masses a+ = P(x, y = +1) and a- = P(x, y = -1); lerr and ferr are
    core.label_errors of sign(sigma), as summary.json's are of the final
    scores; the risky mass is p[risky].sum(), over_confident's stage 1.

    The state allocates its workspace once, six per-atom float rows and three
    per-atom bool rows. Construction allocates no per-atom row beyond the
    workspace and a+-, save the bool row f = +1, which it keeps with the
    indices of the noisy atoms; it builds its run constants in t1 and the
    mask rows. A round of boost() allocates no float array of n_atoms elements;
    only the risky mass gathers the masses of the risky atoms, and
    over_confident their indices and labels. The float rows are
    sigma, the values row, u_diff, phi and the scratch rows t1 and t2; the
    bool rows are the risky mask |sigma| >= s, the mask from before the last
    step and the sign row. step(), recalibrate() and the risky mask write
    t1; stats() writes t1, t2, phi, the sign row and u_diff, taking lerr and
    ferr off the sign row before its noise rates reuse it, and then
    over_confident only prefixes of t1, t2, phi and the sign row.

    With no score >= 0, as in almost every state of the heavy-hitter
    adversary's runs, every prediction is -1, wrong exactly where f = +1, so
    lerr and ferr are run constants, computed once. If no atom is risky
    either, the risky mass is 0.0 and no weight changes; min(sigma, 0) is
    sigma and max(sigma, 0) is +0.0 on every atom, so M+ = exp(-0.0) = 1:
    phi(sigma) is 1 - sigma, phi(-sigma) is M-, the density's a+ dot is the
    run constant dot(a+, 1) and u+ is a+ itself. Each value left is the same
    IEEE operation on the same inputs as on the general path, so both paths
    give the same bits.

    sigma, values() and ExactStats.u_diff are workspace rows: each stays
    valid until the next step(), values() or recalibrate(). Copy what must
    live longer, as boost() copies the final scores.
    """

    def __init__(self, dist: FiniteMassartDist, lam: float, s: float):
        self.dist = dist
        self.lam = lam
        self.s = s
        n = dist.n_atoms
        self.sigma, self._hv, self._u_diff, self._t1, self._t2, self._phi = np.zeros((6, n))
        self._risky_now, self._risky_before, self._sign_now = np.zeros((3, n), dtype=bool)
        self._risky_known = False
        self._f_plus = f_plus = dist.f == 1
        t1, flip, flip_plus = self._t1, self._risky_now, self._sign_now  # scratch until stats() below
        self._errors_negative = label_errors(dist.p, dist.eta, f_plus, out=t1)  # every -1 is wrong exactly where f = +1
        self._a_plus = np.multiply(dist.p, dist.eta)  # and p * (1 - eta) where f = +1
        np.multiply(dist.p, np.subtract(1.0, dist.eta, out=t1), out=t1)
        np.copyto(self._a_plus, t1, where=f_plus)
        self._a_minus = dist.p - self._a_plus
        # an atom without mass on its flipped label has noise rate exactly 0,
        # so rates are computed on the others only: first those with f = +1,
        # then those with f = -1
        np.greater(self._a_plus, 0.0, out=flip)
        np.greater(self._a_minus, 0.0, out=flip, where=f_plus)
        noisy_plus = np.flatnonzero(np.logical_and(flip, f_plus, out=flip_plus))
        self._noisy = np.concatenate([noisy_plus, np.flatnonzero(np.not_equal(flip, flip_plus, out=flip))])
        self._n_noisy_plus = len(noisy_plus)
        t1.fill(1.0)
        self._d_plus_one_signed = _atom_dot(self._a_plus, t1)
        # density and potential at G = 0 (every weight 1) are the total mass, summed; round 1's advantage divides by it
        total = float(self._a_plus.sum() + self._a_minus.sum())
        self._stats: Optional[ExactStats] = None
        self._stats = replace(self.stats(), density=total, potential=total)

    def sample_scores(self, sample: LabeledSample) -> np.ndarray:
        return self.sigma[sample.idx]

    def values(self, h: Callable) -> np.ndarray:
        """A hypothesis on every atom, clipped to [-1, 1] as the update rule applies it."""
        return np.clip(h(self.dist.xs), -1.0, 1.0, out=self._hv)

    def step(self, hv: np.ndarray) -> None:
        """Add lam * hv to the safe atoms, in place; the risky ones keep their scores."""
        risky = self._risky()
        _add_safe(self.sigma, hv, self.lam, risky, self._t1)
        # the mask before the step is recalibrate()'s; the other row takes the next one
        self._risky_before, self._risky_now = risky, self._risky_before
        self._risky_known, self._stats = False, None

    def recalibrate(self) -> None:
        """Move the atoms that were risky before the last step() one lam toward zero, in place."""
        _pull_risky(self.sigma, self.lam, self._risky_before, self._t1)
        self._risky_known, self._stats = False, None

    def advantage(self, hv: np.ndarray) -> Optional[float]:
        """Exact advantage (1/2) E_mu[h(x) y] of values hv on the reweighted distribution."""
        st = self.stats()
        if st.density > 0.0:
            return 0.5 * float(_atom_dot(st.u_diff, hv)) / st.density
        return None

    def over_confident(self, epsilon: float, eta: float) -> bool:
        """over_confident's exact test: stage 1 reads stats(), stage 2 gathers the risky atoms into scratch prefixes."""
        risky_mass = self.stats().risky_mass
        if risky_mass <= epsilon / 4.0:
            return False
        idx = np.flatnonzero(self._risky())
        k = len(idx)
        scores = np.take(self.sigma, idx, out=self._t1[:k], mode="clip")
        # sign(sigma) != f is sigma * f < 0, since a risky score is nonzero: |sigma| >= s > 0
        wrong = np.less(np.multiply(scores, self.dist.f[idx], out=scores), 0.0, out=self._sign_now[:k])
        p = np.take(self.dist.p, idx, out=self._t2[:k], mode="clip")
        eta_k = np.take(self.dist.eta, idx, out=self._t1[:k], mode="clip")  # t1 is free once the mask is taken
        cond_err = label_errors(p, eta_k, wrong, out=self._phi[:k])[0] / risky_mass
        return cond_err >= eta + 3.0 * epsilon / 4.0

    def _risky(self) -> np.ndarray:
        """The mask |sigma| >= s, computed on first use; clobbers the scratch row t1."""
        if not self._risky_known:
            np.greater_equal(np.abs(self.sigma, out=self._t1), self.s, out=self._risky_now)
            self._risky_known = True
        return self._risky_now

    def stats(self) -> ExactStats:
        """The exact statistics of the current scores, computed on first use (see the class docstring)."""
        if self._stats is not None:
            return self._stats
        sigma, risky = self.sigma, self._risky()
        sign = np.greater_equal(sigma, 0.0, out=self._sign_now)
        nonnegative = sign.any()
        # M+ is built in the u_diff row and turned into u+ in place, which
        # spares the memory traffic of one more row
        lo, m_minus, m_plus, phi = self._t1, self._t2, self._u_diff, self._phi
        if nonnegative or risky.any():
            # phi(v) = M(v) + max(-v, 0) with M(v) = exp(min(-v, 0)), at v = +-sigma;
            # min(-sigma, 0) is -max(sigma, 0) and max(-sigma, 0) is -min(sigma, 0)
            # up to the sign of a zero, which neither exp nor the sum with M >= 1 sees
            np.minimum(sigma, 0.0, out=lo)
            np.exp(lo, out=m_minus)
            np.add(m_minus, np.maximum(sigma, 0.0, out=m_plus), out=phi)
            pot_minus = _atom_dot(self._a_minus, phi)
            np.exp(np.negative(m_plus, out=m_plus), out=m_plus)
            np.subtract(m_plus, lo, out=phi)
            potential = float(_atom_dot(self._a_plus, phi) + pot_minus)
            risky_mass = float(self.dist.p[risky].sum())
            # the weights mu: M zeroed on the risky set; M >= 0, so M * 0.0 is the +0.0 a masked copy writes
            safe = np.subtract(1.0, risky, out=phi)
            np.multiply(m_plus, safe, out=m_plus)
            np.multiply(m_minus, safe, out=m_minus)
            # density and potential share the dot structure so the pointwise
            # mu <= phi inequality survives float accumulation; each dot runs
            # next to the product that reads the same two rows, while they are
            # in cache
            d_plus = _atom_dot(self._a_plus, m_plus)
            u_plus = np.multiply(self._a_plus, m_plus, out=m_plus)
            d_minus = _atom_dot(self._a_minus, m_minus)
            u_minus = np.multiply(self._a_minus, m_minus, out=m_minus)
            density = float(d_plus + d_minus)
        else:  # no risky atom and no score >= 0 (see the class docstring)
            np.exp(sigma, out=m_minus)
            pot_minus = _atom_dot(self._a_minus, m_minus)  # also the density's a- dot
            potential = float(_atom_dot(self._a_plus, np.subtract(1.0, sigma, out=phi)) + pot_minus)
            u_plus, u_minus = self._a_plus, np.multiply(self._a_minus, m_minus, out=m_minus)
            density, risky_mass = float(self._d_plus_one_signed + pot_minus), 0.0
        if nonnegative:
            wrong = np.not_equal(sign, self._f_plus, out=sign)  # sign(sigma) != f
            lerr, ferr = label_errors(self.dist.p, self.dist.eta, wrong, out=phi)
        else:
            lerr, ferr = self._errors_negative
        max_noise_rate = self._max_noise_rate(u_plus, u_minus)  # before u_diff overwrites u+ in its row
        np.subtract(u_plus, u_minus, out=self._u_diff)
        self._stats = ExactStats(density=density, potential=potential, lerr=lerr, ferr=ferr, risky_mass=risky_mass,
                                 max_noise_rate=max_noise_rate, u_diff=self._u_diff)
        return self._stats

    def _max_noise_rate(self, u_plus: np.ndarray, u_minus: np.ndarray) -> float:
        """Largest flip mass over total mass on one atom; excluded atoms read 0."""
        k, kp = len(self._noisy), self._n_noisy_plus
        if k == 0:
            return 0.0
        num, den = self._t1[:k], self._phi[:k]
        # mode="clip" moves no in-range index, and unlike "raise" it buffers no copy of out
        np.take(u_plus, self._noisy, out=den, mode="clip")
        np.take(u_minus, self._noisy, out=num, mode="clip")  # the flipped label of f = +1 is -1
        np.add(den, num, out=den)
        np.take(u_plus, self._noisy[kp:], out=num[kp:], mode="clip")  # and that of f = -1 is +1
        np.divide(num, den, out=num, where=np.greater(den, 0.0, out=self._sign_now[:k]))
        return float(num.max())


# -- weak learner interface ---------------------------------------------------


class WeakLearner(Protocol):
    """Trainable producer of weak hypotheses.

    gamma is the advertised advantage. train_from_source draws the
    reweighted examples it needs through source(count) and returns a
    hypothesis.
    """

    gamma: float

    def train_from_source(self, source: Callable[[int], LabeledSample], rng: np.random.Generator): ...


@dataclass
class FixedHypothesisWeakLearner:
    """Degenerate weak learner returning one fixed hypothesis (e.g. the true concept); draws nothing."""

    hypothesis: Callable
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

    Draws (x, y) from the oracle and accepts each with probability mu(x, y),
    recording only an accepted draw's atom index and label. Returns the
    first m_wkl accepted, their points gathered once by atom index, and the
    raw draw count. Raises
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
    idx_parts: List[np.ndarray] = []
    y_parts: List[np.ndarray] = []
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
        idx_parts.append(sample.idx[keep])
        y_parts.append(sample.ys[keep])
        kept += int(keep.sum())
        accept_rate = max(kept, 1) / raw
        if kept < m_wkl and raw >= budget:
            raise DrawBudgetExceeded(
                f"rejection sampling exceeded {budget} raw draws for {m_wkl} accepted"
            )
    idx = np.concatenate(idx_parts)[:m_wkl]
    return LabeledSample(oracle.source.xs[idx], np.concatenate(y_parts)[:m_wkl], idx), raw


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
    """Monte Carlo test of whether sign(G) is over-confident on the withheld risky set.

    Stage 1 estimates the risky mass Pr[|G(x)| >= s] on fresh draws; at most
    epsilon/4, it returns False. Stage 2 estimates the misclassification
    rate of sign(G) on draws that land in the risky set and compares it
    against eta + 3*epsilon/4. boost() calls it in Monte Carlo mode only;
    exact-oracle mode asks its ScoreState.over_confident.
    """
    s = scorer.s
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

    The streams are those of rng.spawn(n_candidates + 1), the last one for
    the test sample; it is spawned every round, used or not, so that every
    later spawn key is the same.
    """
    n_candidates, test_size = repetition_schedule(params.delta_err, params.gamma, params.sample_scale)
    *streams, test_stream = rng.spawn(n_candidates + 1)
    candidates = [
        wkl.train_from_source(lambda c, stream=stream: mu_sample_source(c, stream), stream) for stream in streams
    ]
    if n_candidates == 1:
        return candidates[0]
    test = mu_sample_source(test_size, test_stream)
    ys = test.ys.astype(np.float64)
    advantages = [0.5 * np.mean(np.clip(np.asarray(h(test.xs), dtype=np.float64), -1.0, 1.0) * ys) for h in candidates]
    return candidates[int(np.argmax(advantages))]


# -- run trace ----------------------------------------------------------------


@dataclass(kw_only=True)
class RoundRecord:
    """Per-round diagnostics and the trace CSV's columns, in order; exact fields are None in Monte Carlo mode."""

    round: int
    d_hat: float  # the exact density in exact mode
    phi: Optional[float] = None
    overconfident: bool
    raw_draws: int
    lerr_exact: Optional[float] = None
    ferr_exact: Optional[float] = None
    adv_exact: Optional[float] = None
    max_noise_rate: Optional[float] = None
    risky_mass: Optional[float] = None


@dataclass
class RunTrace:
    """Ordered round records, draw total and final per-atom scores of one boosting run.

    total_draws meters every oracle draw of the run. When a draw budget
    stops it, that includes the draws of the failed round, which has no
    row, so the rows' raw_draws then sum to less.
    """

    rows: List[RoundRecord] = field(default_factory=list)
    total_draws: int = 0
    scores: Optional[np.ndarray] = None  # final G on each atom as boost() returns it; a SeedResult's trace drops it

    def to_csv(self) -> str:
        """A header of RoundRecord's field names, then a line a round: .17g cells, empty for None."""
        names = [f.name for f in fields(RoundRecord)]
        lines = [",".join("" if (v := getattr(r, n)) is None else format(v, ".17g") for n in names) for r in self.rows]
        return "\n".join([",".join(names)] + lines) + "\n"  # .17g prints an int or a bool as an integer

    @property
    def rounds(self) -> int:
        return len(self.rows)


# -- the boosting loop --------------------------------------------------------


def boost(
    oracle: MassartOracle,
    wkl: WeakLearner,
    params: BoostParams,
    rng: np.random.Generator,
) -> Tuple[AggregatedHypothesis, RunTrace]:
    """Run the boosting loop until the measure density drops to kappa.

    Per round: draw reweighted samples, train and select a weak hypothesis,
    add it on the safe set, recalibrate the risky set when the aggregate is
    over-confident there, then re-estimate the density. Returns the final
    aggregated hypothesis and the per-round trace, whose scores field holds
    the final score of every atom. A BoostFailure that stops the loop (the
    round cap or a draw budget) leaves with the trace and aggregate of the
    rounds completed. Its scores are the aggregate's replay on the support,
    since the state may hold the step of a round that failed in its
    over-confidence test.

    params.s = inf is the no-withholding ablation: weights are M(yG) with no
    cutoff, hypotheses apply everywhere, and the over-confidence test, which
    could only answer False, is skipped. It demonstrates how unbounded
    reweighting destroys the bounded-noise property.
    """
    exact = params.mode == MODE_EXACT
    state = ScoreState(oracle.source, params.lam, params.s)
    trace: List[Tuple[Callable, bool]] = []
    run = RunTrace()
    d_hat = 1.0
    draws_start = draws_mark = oracle.draws

    def source(count: int, r: np.random.Generator) -> LabeledSample:  # D_mu of the current state
        return samp(oracle, state, count, r, d_hat=d_hat, delta=params.delta)[0]

    def finish(failed: bool) -> AggregatedHypothesis:
        agg = AggregatedHypothesis(params.lam, params.s, tuple(trace))
        run.total_draws = oracle.draws - draws_start
        run.scores = agg.g(oracle.source.xs) if failed else state.sigma.copy()
        return agg

    try:
        while d_hat > params.kappa:
            if len(trace) >= params.max_rounds:
                raise MaxRoundsExceeded(f"no termination within {params.max_rounds} rounds")
            # sample from D_mu and train
            h_t = repeat_weak_learner(wkl, source, params, rng)
            hv = state.values(h_t)
            exact_fields = {}
            if exact:  # h_t's advantage on D_mu, and D_mu's largest noise rate
                exact_fields = dict(adv_exact=state.advantage(hv), max_noise_rate=state.stats().max_noise_rate)
            # add h_t on the safe set; pull the risky set back if sign(G) is over-confident there
            state.step(hv)
            b_t = params.s < math.inf and (state.over_confident(params.epsilon, params.eta) if exact
                                           else over_confident(oracle, state, params))
            if b_t:
                state.recalibrate()
            trace.append((h_t, b_t))
            # measure the density and record the round
            if exact:
                st = state.stats()
                d_hat = st.density
                exact_fields.update(phi=st.potential, lerr_exact=st.lerr, ferr_exact=st.ferr, risky_mass=st.risky_mass)
            else:
                d_hat = est_density(oracle, state, params)
            run.rows.append(RoundRecord(round=len(trace), d_hat=d_hat, overconfident=b_t,
                                        raw_draws=oracle.draws - draws_mark, **exact_fields))
            draws_mark = oracle.draws
    except BoostFailure as exc:
        exc.aggregated = finish(True)
        exc.trace = run
        raise
    return finish(False), run
