"""Weak learning for unions of axis-aligned rectangles.

A rectangle is an intersection of strict inequalities sign * x[axis] < t,
one direction vector per inequality, at most 2d of them. A union of k such
rectangles labels points +1 inside and -1 outside. The weak learner hunts
for a rectangle written in the violated form (sign * x[axis] >= t, at most k
inequalities) that sits inside the negative region and carries enough
empirical mass, then predicts -1 on it and the outside-majority label
elsewhere. The companion enumerator walks all product choices of one
violated inequality per component rectangle, which is the exhaustive check
that such a negative rectangle with mass at least (negative mass)/(2d)^k
always exists.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import FiniteMassartDist, LabeledSample

__all__ = [
    "BoxHypothesis",
    "BoxWeakLearner",
    "EmptySample",
    "Ineq",
    "NegRectangle",
    "Rectangle",
    "RectangleUnion",
    "enumerate_negative_subrectangles",
    "wkl_box",
]

logger = logging.getLogger(__name__)


class EmptySample(ValueError):
    """The weak learner was handed an empty sample."""


Ineq = Tuple[int, int, float]  # (axis, direction in {-1,+1}, threshold)


@dataclass(frozen=True)
class Rectangle:
    """Intersection of strict inequalities direction * x[axis] < threshold."""

    ineqs: Tuple[Ineq, ...]

    def contains(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        inside = np.ones(xs.shape[0], dtype=bool)
        for axis, direction, t in self.ineqs:
            inside &= direction * xs[:, axis] < t
        return inside


@dataclass(frozen=True)
class NegRectangle:
    """Intersection of closed inequalities direction * x[axis] >= threshold.

    The complement form: each inequality is the exact violation of a strict
    rectangle inequality with the same (axis, direction, threshold).
    """

    ineqs: Tuple[Ineq, ...]

    def contains(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        inside = np.ones(xs.shape[0], dtype=bool)
        for axis, direction, t in self.ineqs:
            inside &= direction * xs[:, axis] >= t
        return inside


@dataclass(frozen=True)
class RectangleUnion:
    """Union of rectangles as a concept: +1 strictly inside any member, else -1."""

    rects: Tuple[Rectangle, ...]

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        inside = np.zeros(xs.shape[0], dtype=bool)
        for rect in self.rects:
            inside |= rect.contains(xs)
        return np.where(inside, 1, -1).astype(np.int8)


@dataclass(frozen=True)
class BoxHypothesis:
    """Weak hypothesis: -1 on b_best, the fallback label z outside.

    With constant_flag set there is no rectangle and the hypothesis is the
    constant z everywhere (z = +1 for the small-negative-fraction branch,
    the sample majority when no candidate met the mass floor, which only
    happens with k = 0).
    """

    b_best: Optional[NegRectangle]
    z: int
    constant_flag: bool = False

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        if self.constant_flag or self.b_best is None:
            return np.full(xs.shape[0], self.z, dtype=np.int8)
        return np.where(self.b_best.contains(xs), -1, self.z).astype(np.int8)


def _majority(ys: np.ndarray) -> int:
    """Majority label; ties (including empty input) default to +1."""
    return 1 if np.sum(ys == 1) >= np.sum(ys == -1) else -1


def _suffix_table(inv, m, axes: Tuple[int, ...], positive: np.ndarray) -> np.ndarray:
    """Counts and positive counts of the points with x[a] >= u_a[i_a] on every axis a in axes.

    u_a holds the m[a] sorted unique values of x[:, a] and inv[a] each
    point's index in it. Shape (2, m_a + 1, ...): index 0 counts all points,
    index 1 the positive ones; the extra last cell along each axis is a zero
    (the empty suffix). The suffix sums run as cumsums on reversed views, in
    place.
    """
    shape = tuple(m[a] + 1 for a in axes)
    flat = inv[axes[0]]
    for a in axes[1:]:
        flat = flat * (m[a] + 1) + inv[a]
    size = int(np.prod(shape))
    table = np.bincount(np.concatenate((flat, flat[positive] + size)), minlength=2 * size)
    table = table.astype(np.float64).reshape((2,) + shape)
    for ax in range(1, table.ndim):
        rev = table[(slice(None),) * ax + (slice(None, None, -1),)]
        np.cumsum(rev, axis=ax, out=rev)
    return table


def _box_counts(table: np.ndarray, signs, m) -> np.ndarray:
    """Counts of one block of candidates, read off a suffix table by inclusion-exclusion.

    signs[p] lists the directions the block uses on the table's p-th axis,
    whose m[p] unique coordinates are u. Direction +1 at index i keeps
    x >= u[i], the suffix itself. Direction -1 at index j keeps -x >= -u[m-1-j]:
    everything minus the suffix from m-j, so index j runs over the reversed
    coordinates exactly as the unique values of -x would. Both directions
    give the slab u[i] <= x <= u[m-1-j], the difference of two suffixes;
    when the slab is empty that difference is at most 0, and it is clipped
    to 0 so that every later step works on true counts.
    Every entry is an integer-valued float, so the counts are exact.
    """
    for p in range(len(signs) - 1, -1, -1):
        head = (slice(None),) * (p + 1)
        suffix = table[head + (slice(0, m[p]),)]
        rest = table[head + (slice(m[p], 0, -1),)]
        if signs[p] == (1,):
            table = suffix
        elif signs[p] == (-1,):
            table = table[head + (slice(0, 1),)] - rest
        else:
            table = np.expand_dims(suffix, p + 2) - np.expand_dims(rest, p + 1)
            np.maximum(table, 0.0, out=table)
    return table


def _axis_values(xs: np.ndarray):
    """(uniques, inverses, m): each axis's sorted unique values, every point's index in them, their counts."""
    uniques, inverses = zip(*(np.unique(xs[:, axis], return_inverse=True) for axis in range(xs.shape[1])))
    return uniques, inverses, [len(u) for u in uniques]


def _combos(d: int, k: int):
    """Every block's signed axes, in rank order.

    A block is one combination of at most k of the 2d signed axes (axis,
    direction), in itertools.combinations order over (0,+1), (0,-1), (1,+1),
    ...: all single inequalities first, then pairs, and so on.
    """
    families = [(axis, direction) for axis in range(d) for direction in (1, -1)]
    for r in range(1, k + 1):
        yield from itertools.combinations(families, r)


def _thresholds(uniques, combo):
    """Each signed axis's candidate thresholds: the sorted unique values of direction * x[:, axis]."""
    return [uniques[axis] if direction == 1 else -uniques[axis][::-1] for axis, direction in combo]


def _blocks(xs: np.ndarray, positive: np.ndarray, k: int):
    """Yield (signed axes, thresholds, counts) for every block of candidates, in rank order.

    A block's candidates (see _combos) are every choice of one threshold per
    signed axis among the sorted unique values of direction * x[:, axis].
    counts has shape (2, m_1, ..., m_r): the number of points and of
    positive points in each candidate. All blocks over the same set of
    distinct axes share one suffix table.
    """
    uniques, inverses, m = _axis_values(xs)
    tables = {}
    for combo in _combos(xs.shape[1], k):
        axes = tuple(sorted({axis for axis, _ in combo}))
        if axes not in tables:
            tables[axes] = _suffix_table(inverses, m, axes, positive)
        signs = [tuple(direction for a, direction in combo if a == axis) for axis in axes]
        yield combo, _thresholds(uniques, combo), _box_counts(tables[axes], signs, [m[axis] for axis in axes])


def _staircase(xs: np.ndarray, positive: np.ndarray, k: int, n: int, floor: float):
    """(signed axes, thresholds, cell) of the best positive-free candidate above the floor, or None.

    For blocks of one or two signed axes (k <= 2) and a positive floor, so
    that no empty candidate clears it. Along a signed axis, the candidate at index i keeps the points whose
    signed index q (the point's index among the sorted unique values of
    direction * x[:, axis]) is at least i; a slab keeps the points that
    pass both of its signed axes. So a block's counts and positive counts
    never increase with any index, and its positive-free cells form an
    up-set, a staircase. In row i (the first signed axis; a one-axis block
    is a single row that every point is in) the largest count among them
    sits at the first positive-free column: 1 + the largest second index of
    the positives in rows >= i, a scatter-max and a suffix max. Those
    columns never increase with the row, so a point lies in the staircase
    cells of one run of rows, from the first row whose column it reaches
    to its own row, and every staircase count comes from one difference
    array. A row with no positive-free cell gets the column past the last
    index, which keeps no point. The winner has the largest count above the
    floor, then the lowest block rank, then the first row, which is the
    C-order first such cell; it is the global minimum of wkl_box's key.
    """
    uniques, inverses, m = _axis_values(xs)
    signed = {}
    for axis, inv in enumerate(inverses):
        signed[axis, 1], signed[axis, -1] = inv, m[axis] - 1 - inv
    signed_pos = {family: q[positive] for family, q in signed.items()}
    best, best_count = None, 0
    for combo in _combos(xs.shape[1], k):
        cols = signed[combo[-1]]
        if len(combo) == 1:
            first = np.array([signed_pos[combo[0]].max(initial=-1) + 1])
            counts = np.array([np.count_nonzero(cols >= first[0])])
        else:
            rows, n_rows = signed[combo[0]], m[combo[0][0]]
            top = np.full(n_rows, -1)
            np.maximum.at(top, signed_pos[combo[0]], signed_pos[combo[1]])
            first = np.maximum.accumulate(top[::-1])[::-1] + 1
            start = np.minimum(np.searchsorted(-first, -cols), rows + 1)
            diff = np.bincount(start, minlength=n_rows + 1) - np.bincount(rows + 1, minlength=n_rows + 1)
            counts = np.cumsum(diff[:n_rows])
        counts = np.where(counts / n > floor, counts, 0)
        row = int(np.argmax(counts))
        if counts[row] > best_count:
            best_count = counts[row]
            cell = (row, int(first[row])) if len(combo) == 2 else (int(first[row]),)
            best = combo, _thresholds(uniques, combo), cell
    return best


def _pick(counts: np.ndarray, pos_counts: np.ndarray, n: int, floor: float):
    """(ratio, count, flat index) of the block's best cell, or None if no cell clears the floor.

    One linear pass each: the minimum positive fraction over the cells with
    count / n > floor, then the largest count among the cells at that
    fraction, of which argmax returns the first in flat (C) order.
    """
    ratio = np.divide(pos_counts, counts, out=np.full(counts.shape, np.inf), where=counts / n > floor)
    best = ratio.min()
    if best == np.inf:
        return None
    j = int(np.argmax(np.where(ratio == best, counts, -1.0)))
    return float(best), float(counts.flat[j]), j


def _exhaustive(xs: np.ndarray, positive: np.ndarray, k: int, n: int, floor: float):
    """(signed axes, thresholds, cell) of the candidate minimizing wkl_box's key over every cell, or None."""
    best_key, best = None, None  # (ratio, -count, block_rank, flat_idx)
    for block_rank, (combo, thresholds, counts) in enumerate(_blocks(xs, positive, k)):
        pick = _pick(counts[0], counts[1], n, floor)
        if pick is None:
            continue
        key = (pick[0], -pick[1], block_rank, pick[2])
        if best_key is None or key < best_key:
            best_key = key
            best = combo, thresholds, np.unravel_index(pick[2], counts.shape[1:])
    return best


def wkl_box(sample: LabeledSample, d: int, k: int, alpha: float) -> BoxHypothesis:
    """Train the rectangle weak learner on a labeled sample.

    If the observed negative fraction is below alpha/2, returns the constant
    +1 hypothesis. Otherwise considers every candidate rectangle with at
    most k closed inequalities, directions over the 2d signed axes and
    thresholds at sample coordinates, keeps those with empirical mass
    strictly above alpha / (8 (2d)^k), and returns the one minimizing the
    key (positive fraction inside, -count inside, block rank, flat index).
    A block is one combination of signed axes, ranked in enumeration order
    (one inequality first, then pairs, ...); its flat index is the C-order
    position of the thresholds' indices among the sorted unique values of
    each signed coordinate. If no candidate clears the floor, returns the
    constant sample majority; for a finite alpha only k = 0 gets there,
    because with k >= 1 the smallest thresholds keep the whole sample.

    The search has two stages. A candidate with no positive point inside
    has fraction 0, so if one clears the floor, the winner is among them.
    For k <= 2, _staircase finds the best such candidate of every block in
    a few passes over the sample, not a scan of its m_1 x m_2 cells: along
    each signed axis a block's counts and positive counts never increase,
    so its positive-free cells form a staircase, and the largest count in
    each row sits on the staircase's edge. Only when no block has a
    positive-free cell above the floor, and for every k >= 3 or alpha <= 0,
    does _exhaustive scan every cell: one suffix-sum table per set of
    distinct axes, shared by every block over those axes (_blocks,
    _box_counts), and a linear-time pick per block (_pick). All counts are
    exact integers, so the hypothesis is the one a direct enumeration of
    the candidates returns.
    """
    n = len(sample)
    if n == 0:
        raise EmptySample("weak learner needs a nonempty sample")
    xs = np.atleast_2d(np.asarray(sample.xs, dtype=np.float64))
    ys = np.asarray(sample.ys)
    if xs.shape[1] != d:
        raise ValueError(f"sample dimension {xs.shape[1]} != d = {d}")

    if np.mean(ys == -1) < alpha / 2.0:
        return BoxHypothesis(None, 1, constant_flag=True)

    floor = alpha / (8.0 * (2.0 * d) ** k)
    positive = ys == 1
    found = _staircase(xs, positive, k, n, floor) if k <= 2 and floor > 0 else None
    if found is None:
        found = _exhaustive(xs, positive, k, n, floor)
    if found is None:
        z = _majority(ys)
        logger.info("wkl_box: no candidate rectangle met the mass floor (only k = 0 admits none); constant %+d", z)
        return BoxHypothesis(None, z, constant_flag=True)

    combo, thresholds, cell = found
    best_rect = NegRectangle(
        tuple((axis, direction, float(t[i])) for (axis, direction), t, i in zip(combo, thresholds, cell))
    )
    outside = ~best_rect.contains(xs)
    z = _majority(ys[outside])
    return BoxHypothesis(best_rect, z, constant_flag=False)


def enumerate_negative_subrectangles(
    union: RectangleUnion, dist: FiniteMassartDist
) -> Tuple[NegRectangle, float]:
    """Exhaustive search for the heaviest negative rectangle of the product form.

    Every choice of one violated inequality per component rectangle yields a
    closed rectangle contained in the negative region; this walks all of
    them (at most (2d)^k), verifies containment on the support, and returns
    the one with maximum marginal mass. Returns mass 0 when the negative
    region is empty.
    """
    labels = union(dist.xs)
    negative = labels == -1
    if any(len(rect.ineqs) == 0 for rect in union.rects):
        # an unconstrained rectangle covers everything: nothing to violate
        return NegRectangle(()), 0.0
    best_rect = None
    best_mass = -1.0
    for choice in itertools.product(*(rect.ineqs for rect in union.rects)):
        cand = NegRectangle(tuple(choice))
        inside = cand.contains(dist.xs)
        if np.any(inside & ~negative):
            raise AssertionError("product rectangle escaped the negative region")
        mass = float(dist.p[inside].sum())
        if mass > best_mass:
            best_mass = mass
            best_rect = cand
    if best_rect is None:
        return NegRectangle(()), 0.0
    return best_rect, max(best_mass, 0.0)


@dataclass
class BoxWeakLearner:
    """Booster-facing adapter around wkl_box.

    The advertised advantage is alpha^2 / (C d)^k and the requested sample
    size is ceil(sample_scale * k (C d)^k / alpha^2); C defaults to 2,
    matching the (2d)^k combinatorics of the enumeration.
    """

    d: int
    k: int
    alpha: float
    c_const: float = 2.0
    sample_scale: float = 1.0

    @property
    def gamma(self) -> float:
        return self.alpha**2 / (self.c_const * self.d) ** self.k

    @property
    def sample_size(self) -> int:
        base = self.k * (self.c_const * self.d) ** self.k / self.alpha**2
        return max(1, int(np.ceil(self.sample_scale * base)))

    def train(self, sample: LabeledSample, rng: np.random.Generator) -> BoxHypothesis:
        return wkl_box(sample, self.d, self.k, self.alpha)

    def train_from_source(
        self, source: Callable[[int], LabeledSample], rng: np.random.Generator
    ) -> BoxHypothesis:
        """Train on one reweighted sample of sample_size examples."""
        return self.train(source(self.sample_size), rng)
