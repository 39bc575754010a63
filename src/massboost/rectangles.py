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
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import FiniteMassartDist, LabeledSample

__all__ = [
    "BoxHypothesis",
    "BoxWeakLearner",
    "Ineq",
    "NegRectangle",
    "Rectangle",
    "RectangleUnion",
    "enumerate_negative_subrectangles",
    "wkl_box",
]


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
        return np.where(inside, np.int8(1), np.int8(-1))


@dataclass(frozen=True)
class BoxHypothesis:
    """Weak hypothesis: -1 on b_best, the fallback label z outside.

    With b_best None there is no rectangle and the hypothesis is the
    constant z everywhere. wkl_box returns it only as the constant +1 of
    its small-negative-fraction branch: for k >= 1 and alpha > 0 some
    candidate always clears the mass floor.
    """

    b_best: Optional[NegRectangle]
    z: int

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        if self.b_best is None:
            return np.full(xs.shape[0], self.z, dtype=np.int8)
        return np.where(self.b_best.contains(xs), np.int8(-1), np.int8(self.z))


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
    return uniques, np.array(inverses), np.array([len(u) for u in uniques])


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
    """(signed axes, thresholds, cell, count, 0) of the best positive-free candidate above the floor, or None.

    For k = 1 or 2 and a positive floor, which no empty candidate clears.
    The candidate at index i of a signed axis keeps the points whose signed
    index (among the sorted unique values of direction * x[:, axis]) is at
    least i, so a block's positive-free cells form a staircase. In row i of
    a block (its first signed axis; a one-axis block is one row) the largest
    count among them lies on the staircase's edge: 1 + the largest column of
    the positives in rows >= i, which never increases with i. So a point
    counts in the rows from start, the first row whose edge it reaches, to
    its own row, and one difference array gives every row's count.

    signed holds every point's index on the 2d signed axes, one row per
    one-axis block. The pair blocks share padded (pairs, W) tables, W the
    largest unique count plus 1, block b in cells b * W onward; a padded row
    has edge 0 and keeps no point. start in column c is the number of rows
    with edge > c: W minus the edges' cumulative histogram at c. All counts
    stack in rank order into one (blocks, W) table, whose first maximum in
    C order, one argmax, is the largest count, then the lowest block rank,
    then the first row: if it clears the floor, the minimum of wkl_box's key.
    """
    uniques, inverses, m = _axis_values(xs)
    signed = np.stack((inverses, m[:, None] - 1 - inverses), axis=1).reshape(2 * len(m), n)
    signed_pos = signed[:, positive]
    edge = signed_pos.max(axis=1, initial=-1) + 1
    combos = list(_combos(len(m), k))
    counts = np.zeros((len(combos), m.max() + 1), dtype=np.intp)
    counts[: len(edge), 0] = np.count_nonzero(signed >= edge[:, None], axis=1)
    pairs = counts[len(edge) :]
    pair_axes = list(itertools.combinations(range(len(edge)), 2)) if k == 2 else []
    row_axis, col_axis = np.array(pair_axes, dtype=np.intp).reshape(-1, 2).T
    offset = np.arange(len(pairs))[:, None] * pairs.shape[1]
    top = np.full(pairs.size, -1)
    np.maximum.at(top, (offset + signed_pos[row_axis]).ravel(), signed_pos[col_axis].ravel())
    first = np.maximum.accumulate(top.reshape(pairs.shape)[:, ::-1], axis=1)[:, ::-1] + 1
    below = np.bincount((offset + first).ravel(), minlength=pairs.size).reshape(pairs.shape).cumsum(axis=1)
    rows = signed[row_axis]
    start = np.minimum(pairs.shape[1] - below.take(offset + signed[col_axis]), rows + 1)
    diff = np.bincount((offset + start).ravel(), minlength=pairs.size)
    diff -= np.bincount((offset + rows + 1).ravel(), minlength=pairs.size)
    np.cumsum(diff.reshape(pairs.shape), axis=1, out=pairs)
    block, row = np.unravel_index(int(np.argmax(counts)), counts.shape)
    if not counts[block, row] / n > floor:  # then no count clears it: c / n never falls as c grows
        return None
    combo = combos[block]
    cell = (int(edge[block]),) if block < len(edge) else (int(row), int(first[block - len(edge), row]))
    return combo, _thresholds(uniques, combo), cell, int(counts[block, row]), 0


def _pick(counts: np.ndarray, pos_counts: np.ndarray, n: int, floor: float):
    """(ratio, count, flat index) of the block's best cell.

    One linear pass each: the minimum positive fraction over the cells with
    count / n > floor, then the largest count among the cells at that
    fraction, of which argmax returns the first in flat (C) order. Cell
    (0, ..., 0) keeps all n points, so it clears wkl_box's floor, always < 1.
    """
    ratio = np.divide(pos_counts, counts, out=np.full(counts.shape, np.inf), where=counts / n > floor)
    best = ratio.min()
    j = int(np.argmax(np.where(ratio == best, counts, -1.0)))
    return float(best), float(counts.flat[j]), j


def _exhaustive(xs: np.ndarray, positive: np.ndarray, k: int, n: int, floor: float):
    """(signed axes, thresholds, cell, count, positive count) of the candidate minimizing wkl_box's key.

    Runs for k >= 3, or when _staircase finds nothing; every block has a candidate (see _pick).
    """
    best_key, best = None, None  # (ratio, -count, block_rank, flat_idx)
    for block_rank, (combo, thresholds, counts) in enumerate(_blocks(xs, positive, k)):
        pick = _pick(counts[0], counts[1], n, floor)
        key = (pick[0], -pick[1], block_rank, pick[2])
        if best_key is None or key < best_key:
            best_key = key
            best = (combo, thresholds, np.unravel_index(pick[2], counts.shape[1:]), int(pick[1]),
                    int(counts[1].flat[pick[2]]))
    return best


def wkl_box(sample: LabeledSample, d: int, k: int, alpha: float) -> BoxHypothesis:
    """Train the rectangle weak learner on a labeled sample.

    Needs a nonempty sample of dimension d, k >= 1 and alpha > 0, else
    raises ValueError. If the observed negative fraction is below alpha/2,
    returns the constant +1 hypothesis. Otherwise considers every candidate
    rectangle with at most k closed inequalities, directions over the 2d
    signed axes and thresholds at sample coordinates, keeps those with
    empirical mass strictly above alpha / (8 (2d)^k), and returns the one
    minimizing the key (positive fraction inside, -count inside, block rank,
    flat index). A block is one combination of signed axes, ranked in
    enumeration order (one inequality first, then pairs, ...); its flat
    index is the C-order position of the thresholds' indices among the
    sorted unique values of each signed coordinate. Some candidate clears
    the floor: each block's smallest thresholds keep all n points, and a
    floor of 1 or more needs alpha >= 16, which returns the constant +1.
    Outside the rectangle it answers the majority label, +1 on a tie, from
    the search's counts inside; labels are exactly -1 or +1 (core's
    convention).

    The search has two stages. A candidate with no positive point inside
    has fraction 0, so if one clears the floor, the winner is among them;
    for k = 1 or 2, _staircase finds it for all blocks in one batched pass
    over padded tables of their staircase edges, with one argmax over the
    stacked counts for the tie-break. Only when none clears the floor, and
    for k >= 3, does _exhaustive scan every cell, with one suffix-sum table
    per set of distinct axes (_blocks, _box_counts) and a linear-time pick
    per block (_pick). All counts are exact integers, so the hypothesis is
    the one a direct enumeration of the candidates returns.
    """
    n = len(sample)
    if n == 0:
        raise ValueError("weak learner needs a nonempty sample")
    xs = np.atleast_2d(np.asarray(sample.xs, dtype=np.float64))
    ys = np.asarray(sample.ys)
    if xs.shape[1] != d:
        raise ValueError(f"sample dimension {xs.shape[1]} != d = {d}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not alpha > 0.0:  # also rejects nan
        raise ValueError(f"alpha must be > 0, got {alpha}")

    if np.count_nonzero(ys == -1) / n < alpha / 2.0:
        return BoxHypothesis(None, 1)

    floor = alpha / (8.0 * (2.0 * d) ** k)
    positive = ys == 1
    found = _staircase(xs, positive, k, n, floor) if k <= 2 else None
    if found is None:
        found = _exhaustive(xs, positive, k, n, floor)
    combo, thresholds, cell, inside, positive_inside = found
    best_rect = NegRectangle(tuple((a, s, float(t[i])) for (a, s), t, i in zip(combo, thresholds, cell)))
    return BoxHypothesis(best_rect, 1 if 2 * (np.count_nonzero(positive) - positive_inside) >= n - inside else -1)


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
    best_rect, best_mass = None, -1.0
    for choice in itertools.product(*(rect.ineqs for rect in union.rects)):
        cand = NegRectangle(tuple(choice))
        inside = cand.contains(dist.xs)
        if np.any(inside & ~negative):
            raise AssertionError("product rectangle escaped the negative region")
        mass = float(dist.p[inside].sum())
        if mass > best_mass:
            best_mass = mass
            best_rect = cand
    return best_rect, max(best_mass, 0.0)


@dataclass
class BoxWeakLearner:
    """Booster-facing adapter around wkl_box.

    The advertised advantage is alpha^2 / (2d)^k and the requested sample
    size is ceil(sample_scale * k (2d)^k / alpha^2), after the (2d)^k
    combinatorics of the enumeration.
    """

    d: int
    k: int
    alpha: float
    sample_scale: float = 1.0

    @property
    def gamma(self) -> float:
        return self.alpha**2 / (2.0 * self.d) ** self.k

    @property
    def sample_size(self) -> int:
        base = self.k * (2.0 * self.d) ** self.k / self.alpha**2
        return max(1, int(np.ceil(self.sample_scale * base)))

    def train_from_source(
        self, source: Callable[[int], LabeledSample], rng: np.random.Generator
    ) -> BoxHypothesis:
        """Train on one reweighted sample of sample_size examples."""
        return wkl_box(source(self.sample_size), self.d, self.k, self.alpha)
