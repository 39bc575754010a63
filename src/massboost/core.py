"""Domain core: finite Massart distributions, example oracles, exact metrics.

A Massart distribution is specified by a marginal over domain points, a true
labeling f(x) in {-1,+1}, and a per-point flip probability eta(x) <= eta < 1/2.
The finite-support form stores all four components explicitly, which makes
every expectation (misclassification error, function error, advantage,
measure density, potential) exactly computable by enumeration.

Conventions used throughout the package:

- labels are exactly -1 or +1; sign(0) = +1
- probabilities and weights are float64; threshold comparisons in algorithm
  code are exact (>=, <) with no epsilon slack
- randomness always flows through an injected numpy Generator; oracles own a
  private generator built from their seed, so identical seeds and identical
  call sequences reproduce identical example streams bit for bit
- hypotheses are callables mapping an (n, d) array of points to an (n,)
  array of values in [-1, 1]; hard decisions are taken by sign
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

__all__ = [
    "FiniteMassartDist",
    "LabeledSample",
    "MassartOracle",
    "exact_advantage",
    "exact_ferr",
    "exact_lerr",
    "label_errors",
    "dump_dist",
    "load_dist",
    "make_massart",
    "parse_dist",
    "save_dist",
]

PROB_SUM_TOL = 1e-9


def sign_pm1(values: np.ndarray) -> np.ndarray:
    """Sign with the convention sign(0) = +1, returned as int8 labels."""
    return np.where(np.asarray(values) >= 0, np.int8(1), np.int8(-1))


@dataclass(frozen=True)
class LabeledSample:
    """A record of labeled examples as arrays, with no methods but len (xs rows align with ys).

    idx carries the atom index of each row of an oracle draw, by which the
    booster scores it and samp gathers its point; hand-built samples may leave it None.
    """

    xs: np.ndarray
    ys: np.ndarray
    idx: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.ys)


class FiniteMassartDist:
    """Explicit table of (point, probability, true label, flip probability).

    All expectations over the induced joint distribution on (x, y) reduce to
    finite sums, with the probability of (x, y) equal to p_x * (1 - eta_x)
    when y = f(x) and p_x * eta_x otherwise. An invalid table raises
    ValueError with the check's message.
    """

    def __init__(self, xs, p, f, eta, eta_bound):
        # labels are checked before the int8 cast, which wraps or overflows other ints
        if not np.all(np.isin(f, (-1, 1))):
            raise ValueError("true labels must be -1 or +1")
        self.xs = np.ascontiguousarray(np.atleast_2d(np.asarray(xs, dtype=np.float64)))
        self.p = np.ascontiguousarray(p, dtype=np.float64)
        self.f = np.ascontiguousarray(f, dtype=np.int8)
        self.eta = np.ascontiguousarray(eta, dtype=np.float64)
        self.eta_bound = float(eta_bound)
        n = len(self.p)
        if self.xs.shape[0] != n or len(self.f) != n or len(self.eta) != n:
            raise ValueError("atom arrays must have matching lengths")
        if n == 0:
            raise ValueError("distribution needs at least one atom")
        if not np.all(np.isfinite(self.xs)):
            raise ValueError("atom coordinates must be finite")
        if not 0.0 <= self.eta_bound < 0.5:  # also rejects nan, against which no eta(x) compares
            raise ValueError(f"eta_bound must be in [0, 1/2), got {self.eta_bound}")
        if np.any(self.p < 0) or not np.all(np.isfinite(self.p)):
            raise ValueError("atom probabilities must be finite and nonnegative")
        total = float(self.p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")
        # renormalize only beyond float accumulation noise, so that reloading
        # an already-normalized table is bit exact
        if abs(total - 1.0) > 1e-13:
            self.p = self.p / total
        if np.any(self.eta < 0) or not np.all(np.isfinite(self.eta)):
            raise ValueError("flip probabilities must be finite and nonnegative")
        if np.any(self.eta > self.eta_bound):
            worst = float(self.eta.max())
            raise ValueError(f"eta(x) = {worst} exceeds bound {self.eta_bound}")
        # sorted, equal rows (-0.0 == 0.0) are adjacent; points of no coordinates are all equal
        rows = self.xs[np.lexsort(self.xs.T)] if self.dim else self.xs
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise ValueError("atom points must be distinct")

    @property
    def n_atoms(self) -> int:
        return len(self.p)

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    def opt(self) -> float:
        """Information-theoretic floor on misclassification error, E[eta(x)]."""
        return float(_atom_dot(self.p, self.eta))


def make_massart(atoms: Iterable, eta_bound: float) -> FiniteMassartDist:
    """Validate and normalize a raw atom list into a FiniteMassartDist.

    Each atom is (x, p, f, eta) with x a scalar or coordinate sequence.
    Probabilities must already sum to 1 within 1e-9; they are then
    renormalized exactly.
    """
    atoms = list(atoms)
    if not atoms:
        raise ValueError("empty atom list")
    xs = np.atleast_2d(np.asarray([np.atleast_1d(np.asarray(a[0], dtype=np.float64)) for a in atoms]))
    p = np.asarray([a[1] for a in atoms], dtype=np.float64)
    f = np.asarray([a[2] for a in atoms])
    eta = np.asarray([a[3] for a in atoms], dtype=np.float64)
    return FiniteMassartDist(xs, p, f, eta, eta_bound)


# -- exact metrics ------------------------------------------------------------


def _atom_dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """sum_i a[i] * b[i] over a support's atoms, the one per-atom dot of every exact statistic.

    A BLAS dot rounds unlike a.sum(), so a total that must equal a dot is dotted too (a sum as a
    dot with ones). Its summation order depends on the rows' strides, hence FiniteMassartDist's
    contiguous p and eta, and on the BLAS thread count: its bits hold at a fixed count only.
    """
    return np.dot(a, b)


def label_errors(p: np.ndarray, eta: np.ndarray, wrong: np.ndarray,
                 out: Optional[np.ndarray] = None) -> Tuple[float, float]:
    """lerr and ferr of a labeling that disagrees with f on the atoms of the bool mask wrong.

    On atoms of masses p and flip probabilities eta, lerr is the sum of
    p * (1 - eta if wrong else eta) and ferr that of p * wrong. out is a
    scratch float row of wrong's length; None allocates one.
    """
    row = np.empty(len(p)) if out is None else out
    np.copyto(row, wrong)
    ferr = float(_atom_dot(p, row))
    np.copyto(row, eta)
    np.subtract(1.0, eta, out=row, where=wrong)
    return float(_atom_dot(p, row)), ferr


def exact_lerr(dist: FiniteMassartDist, hypothesis) -> float:
    """Exact misclassification probability of a hypothesis under the joint distribution."""
    return label_errors(dist.p, dist.eta, sign_pm1(hypothesis(dist.xs)) != dist.f)[0]


def exact_ferr(dist: FiniteMassartDist, hypothesis) -> float:
    """Exact disagreement probability with the true labeling under the marginal."""
    return label_errors(dist.p, dist.eta, sign_pm1(hypothesis(dist.xs)) != dist.f)[1]


def exact_advantage(dist: FiniteMassartDist, hypothesis) -> float:
    """Exact correlation advantage (1/2) E[sign h(x) y], which is 1/2 - exact_lerr."""
    return 0.5 - exact_lerr(dist, hypothesis)


# -- oracles ------------------------------------------------------------------


class MassartOracle:
    """Seeded noisy example oracle over a finite Massart distribution.

    Each draw emits (x, y) with x from the marginal and y = -f(x) with
    probability exactly eta(x), independently per draw, and carries the
    index of its atom. The draw counter meters every emitted example so
    experiment reports can account for all oracle access.

    A draw u ~ U[0, 1) lands on the atom i with cum[i] <= u < cum[i + 1],
    where cum is the cumulative table of p padded with a leading 0.0; that
    is np.searchsorted(cum[1:], u, side="right"). The lookup guesses
    i = floor(u n), checks the guess against both neighbours, and sends the
    draws whose guess fails to searchsorted. With equal masses (every
    shipped instance) almost every guess holds; on a skewed table most
    guesses miss, and a lookup costs the search plus the check's passes.
    """

    def __init__(self, source: FiniteMassartDist, rng_seed: int):
        if not isinstance(source, FiniteMassartDist):
            raise TypeError("source must be a FiniteMassartDist")
        self.source = source
        self.rng = np.random.default_rng(int(rng_seed))
        self.draws = 0
        self._cum = np.zeros(source.n_atoms + 1)
        np.cumsum(source.p, out=self._cum[1:])
        self._cum[-1] = 1.0  # guard float roundoff at the top bin

    def _atoms(self, u: np.ndarray) -> np.ndarray:
        """The atom index of each draw u, equal to np.searchsorted(cum[1:], u, side="right")."""
        upper = self._cum[1:]
        # one float buffer serves the guess and both gathers; clipping keeps a
        # guess of n (u n rounded up) in range, and such a guess fails the check
        edge = u * len(upper)
        idx = edge.astype(np.intp)
        miss = u < np.take(self._cum, idx, mode="clip", out=edge)
        miss |= u >= np.take(upper, idx, mode="clip", out=edge)
        if miss.any():
            at = np.flatnonzero(miss)
            idx[at] = np.searchsorted(upper, u[at], side="right")
        return idx

    def sample_batch(self, count: int) -> LabeledSample:
        count = int(count)
        if count < 0:
            raise ValueError("count must be nonnegative")
        idx = self._atoms(self.rng.random(count))
        truth = self.source.f[idx]
        flips = self.rng.random(count) < self.source.eta[idx]
        ys = np.where(flips, -truth, truth)  # int8, as f is
        self.draws += count
        return LabeledSample(self.source.xs[idx], ys, idx)


# -- serialization ------------------------------------------------------------
#
# Line-oriented text format: a header row "d eta_bound", then one atom per
# line as "x_0 ... x_{d-1} p f eta". All reals at 17 significant digits so a
# round trip is bit exact.


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def dump_dist(dist: FiniteMassartDist) -> str:
    lines = [f"{dist.dim} {_fmt(dist.eta_bound)}"]
    for i in range(dist.n_atoms):
        coords = " ".join(_fmt(c) for c in dist.xs[i])
        lines.append(f"{coords} {_fmt(dist.p[i])} {int(dist.f[i])} {_fmt(dist.eta[i])}")
    return "\n".join(lines) + "\n"


def parse_dist(text: str) -> FiniteMassartDist:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty distribution file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {lines[0]!r}, expected 'd eta_bound'")
    d = int(header[0])
    if d < 1:
        raise ValueError(f"bad header {lines[0]!r}, the dimension d must be >= 1")
    eta_bound = float(header[1])
    fields = [("x", np.float64, (d,)), ("p", np.float64), ("f", np.int64), ("eta", np.float64)]
    # labels parse as integers, which refuses 1.0 and 1.5; with no atom line loadtxt would warn
    try:
        table = np.loadtxt(lines[1:], dtype=fields, comments=None, ndmin=1) if lines[1:] else np.empty(0, fields)
    except ValueError:
        for ln in lines[1:]:
            if len(ln.split()) != d + 3:
                raise ValueError(f"bad atom line {ln!r}, expected {d + 3} fields") from None
        raise
    return FiniteMassartDist(table["x"], table["p"], table["f"], table["eta"], eta_bound)


def save_dist(dist: FiniteMassartDist, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_dist(dist))


def load_dist(path) -> FiniteMassartDist:
    with open(path) as fh:
        return parse_dist(fh.read())
