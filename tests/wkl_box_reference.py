"""Frozen copy of the original rectangle weak learner, the oracle of the differential tests.

massboost.rectangles.wkl_box computes the same hypothesis with shared
suffix tables and a linear-time pick; this copy enumerates each block
through its own histogram, suffix sums by flip/cumsum/flip and a full
lexsort of the cells. Keep it unchanged: the tests assert the two agree.
"""

import itertools
from typing import Optional

import numpy as np

from massboost.core import LabeledSample
from massboost.rectangles import BoxHypothesis, NegRectangle


def _majority(ys: np.ndarray) -> int:
    """Majority label, +1 on ties and empty input."""
    return 1 if np.count_nonzero(ys == 1) >= np.count_nonzero(ys == -1) else -1


def wkl_box_reference(sample: LabeledSample, d: int, k: int, alpha: float) -> BoxHypothesis:
    """The rectangle weak learner as first written: one histogram and a lexsort per block.

    If the observed negative fraction is below alpha/2, returns the constant
    +1 hypothesis. Otherwise enumerates every candidate rectangle with at
    most k closed inequalities, directions over the 2d signed axes and
    thresholds at sample coordinates, keeps those with empirical mass
    strictly above alpha / (8 (2d)^k), and returns the one minimizing the
    positive fraction inside (ties: larger support, then enumeration order).
    """
    n = len(sample)
    if n == 0:
        raise ValueError("weak learner needs a nonempty sample")
    xs = np.atleast_2d(np.asarray(sample.xs, dtype=np.float64))
    ys = np.asarray(sample.ys)
    if xs.shape[1] != d:
        raise ValueError(f"sample dimension {xs.shape[1]} != d = {d}")

    if np.mean(ys == -1) < alpha / 2.0:
        return BoxHypothesis(None, 1)

    floor = alpha / (8.0 * (2.0 * d) ** k)
    pos = (ys == 1).astype(np.float64)
    families = [(axis, direction) for axis in range(d) for direction in (1, -1)]
    projections = [direction * xs[:, axis] for axis, direction in families]
    fam_unique = [np.unique(proj, return_inverse=True) for proj in projections]

    best_key = None  # (ratio, -count, block_rank, flat_idx)
    best_rect: Optional[NegRectangle] = None
    block_rank = 0

    for r in range(1, k + 1):
        for combo in itertools.combinations(range(len(families)), r):
            uniques = [fam_unique[fi][0] for fi in combo]
            inverses = [fam_unique[fi][1] for fi in combo]
            shape = tuple(len(u) for u in uniques)
            flat = np.ravel_multi_index(tuple(inverses), shape)
            size = int(np.prod(shape))
            counts = np.bincount(flat, minlength=size).reshape(shape).astype(np.float64)
            pos_counts = np.bincount(flat, weights=pos, minlength=size).reshape(shape)
            # suffix sums along every axis: cell -> count of samples with all
            # projections >= the cell's thresholds
            for ax in range(r):
                counts = np.flip(np.cumsum(np.flip(counts, axis=ax), axis=ax), axis=ax)
                pos_counts = np.flip(np.cumsum(np.flip(pos_counts, axis=ax), axis=ax), axis=ax)
            counts = counts.ravel()
            pos_counts = pos_counts.ravel()
            mask = counts / n > floor
            if mask.any():
                idx = np.nonzero(mask)[0]
                ratio = pos_counts[idx] / counts[idx]
                order = np.lexsort((idx, -counts[idx], ratio))
                j = order[0]
                key = (float(ratio[j]), -float(counts[idx[j]]), block_rank, int(idx[j]))
                if best_key is None or key < best_key:
                    best_key = key
                    cell = np.unravel_index(idx[j], shape)
                    ineqs = tuple(
                        (families[fi][0], families[fi][1], float(uniques[pos_i][cell[pos_i]]))
                        for pos_i, fi in enumerate(combo)
                    )
                    best_rect = NegRectangle(ineqs)
            block_rank += 1

    if best_rect is None:
        z = _majority(ys)
        return BoxHypothesis(None, z)

    outside = ~best_rect.contains(xs)
    z = _majority(ys[outside])
    return BoxHypothesis(best_rect, z)
