"""k-nearest-neighbor classifier with Euclidean distance.

Probability of class 1 is the fraction of positive labels among the k
nearest training rows.  Distance ties resolve by training-row order so
prediction is deterministic.

Kernel SHAP asks for the probabilities of coalition blends: row (i, c) takes
``x[i, j]`` where ``z[c, j]`` is 1 and ``background[j]`` where it is 0.
``predict_coalitions`` scores them without building the blends.  Each squared
difference of a blend is an entry of one of two tables, ``(x_i - T)**2`` or
``(background - T)**2`` (T the training rows), so it sums table entries in
the order numpy's ``.sum(axis=-1)`` adds a contiguous last axis of M values:
- M < 8: left to right;
- 8 <= M <= 128: eight accumulators, accumulator q taking the columns
  j = q (mod 8) of the full 8-blocks in order, combined as
  ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the tail columns in order;
- M > 128: the first M//2 columns, rounded down to a multiple of 8, and the
  rest, each summed the same way, then added.
Every node of that tree depends only on the coalition's members among its
columns, so it is computed once per distinct sub-mask of z.  The distances
thus equal ``predict_proba``'s bit for bit and the neighbour vote is shared.
That order is numpy's pairwise-summation kernel, not a documented contract;
``tests/test_kernels.py`` guards it.  Plain rows keep ``.sum``, which is
faster than any explicit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_CHUNK = 256  # bound the (chunk, n_train, m) difference cube
_BLOCK = 2  # test rows per coalition block: bounds each (K, rows, n_train) table


def _sum_order(lo: int, hi: int):
    """numpy's summation tree over columns lo..hi-1 as nested (left, right)
    pairs of column indices."""
    n = hi - lo
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return (_sum_order(lo, lo + half), _sum_order(lo + half, hi))
    if n < 8:
        node, tail = lo, range(lo + 1, hi)
    else:
        acc = list(range(lo, lo + 8))
        full = lo + n - n % 8
        for j in range(lo + 8, full):
            q = (j - lo) % 8
            acc[q] = (acc[q], j)
        node = (((acc[0], acc[1]), (acc[2], acc[3])), ((acc[4], acc[5]), (acc[6], acc[7])))
        tail = range(full, hi)
    for j in tail:
        node = (node, j)
    return node


def _coalition_plan(z: np.ndarray):
    """Steps that build every node of the summation tree once per distinct
    sub-mask of z.  Slots 0..M-1 are the columns, each with values
    (background, x); step s fills slot M + s with
    ``slot[left][left_ids] + slot[right][right_ids]``.  Returns the steps,
    the root's slot and each coalition's id among the root's values."""
    member = np.asarray(z) == 1
    m = member.shape[1]
    steps = []

    def build(node):
        if isinstance(node, int):
            return node, member[:, node].astype(np.intp)
        (left, lid), (right, rid) = build(node[0]), build(node[1])
        width = rid.max(initial=0) + 1
        pairs, ids = np.unique(lid * width + rid, return_inverse=True)
        steps.append((left, right, pairs // width, pairs % width))
        return m + len(steps) - 1, ids

    root, ids = build(_sum_order(0, m))
    return steps, root, ids


@dataclass(eq=False)
class KNearestNeighbors:
    k: int = 5
    x: np.ndarray = field(default_factory=list)  # the fitted training rows and labels
    y: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        self.x, self.y = np.asarray(self.x, dtype=float), np.asarray(self.y, dtype=float)

    def fit(self, x, y, rng=None):
        self.x, self.y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return self

    def _vote(self, d2: np.ndarray) -> np.ndarray:
        """Positive fraction among each row's k nearest, d2 (rows, n_train)."""
        k = min(self.k, len(self.y))
        # every row nearer than the k-th distance, then the earliest
        # training rows tied with it until k are taken
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        nearer = d2 < kth
        tied = d2 == kth
        slots = k - nearer.sum(axis=1, keepdims=True)
        nearest = nearer | (tied & (np.cumsum(tied, axis=1) <= slots))
        # 0/1 labels: the sum is exact, so sum / k equals the mean
        return (nearest * self.y).sum(axis=1) / k

    def predict_proba(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(x.shape[0], dtype=float)
        for start in range(0, x.shape[0], _CHUNK):
            chunk = x[start:start + _CHUNK]
            d2 = ((chunk[:, None, :] - self.x[None, :, :]) ** 2).sum(axis=2)
            out[start:start + _CHUNK] = self._vote(d2)
        return out

    def predict_coalitions(self, x, background, z) -> np.ndarray:
        """(n, K) probabilities of the blends of x's rows with background
        under the 0/1 coalition rows z (K, M); equal to ``predict_proba`` on
        the materialized blends, bit for bit."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty((x.shape[0], len(z)), dtype=float)
        for start, d2 in self._coalition_distances(x, background, z):
            votes = self._vote(d2.reshape(-1, d2.shape[2]))
            out[start:start + _BLOCK] = votes.reshape(d2.shape[:2]).T
        return out

    def _coalition_distances(self, x, background, z):
        """Yield (start, d2) per block of _BLOCK rows of x: d2 (K, rows,
        n_train) holds each blend's squared distance to each training row."""
        steps, root, ids = _coalition_plan(z)
        t = self.x.T  # (M, n_train)
        away = (np.asarray(background, dtype=float)[:, None] - t) ** 2
        for start in range(0, x.shape[0], _BLOCK):
            block = x[start:start + _BLOCK].T  # (M, rows)
            # slot j holds column j's squared differences: [0] background, [1] x
            table = np.empty((len(t), 2, block.shape[1], t.shape[1]))
            table[:, 0] = away[:, None]
            table[:, 1] = (block[:, :, None] - t[:, None, :]) ** 2
            slots = list(table)
            for left, right, lid, rid in steps:
                slots.append(slots[left][lid] + slots[right][rid])
                slots[left] = slots[right] = None  # each node feeds one parent
            yield start, slots[root][ids]
