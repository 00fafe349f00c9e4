"""k-nearest-neighbor classifier with Euclidean distance.

Probability of class 1 is the fraction of positive labels among the k
nearest training rows.  Distance ties resolve by training-row order so
prediction is deterministic.

Every prediction scores blends of per-column value tables: with values
(n, V, M) and integer ids (K, M), blend (i, c) takes
``values[i, ids[c, j], j]`` in column j.  A plain row is V = 1 and K = 1;
``TrainedModel.predict_blends`` hands over the explainers' one-column
copies (the base table in every column but one) and kernel SHAP's
coalition blends (the values (background, x) with ``ids = z``) as they
are.  One path sums them all: a squared distance adds its M columns'
squared differences on one tree, ``_sum_order(M)``'s pairwise levels, and
``_plan(ids)`` builds each node of that tree once per distinct sub-row of
ids from the tables ``(values - T)**2`` (T the training rows).  So a
blend's distances equal those of its materialized row, bit for bit.
A plain row's plan depends on M alone, so ``_row_plan`` builds it once per
M.  Rows go through in blocks of at most ``_BLENDS`` blends.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

_BLENDS = 128  # blends per block: bounds each (K, rows, n_train) distance table


def _sum_order(m: int):
    """Pairwise summation tree over m columns as nested (left, right) pairs:
    adjacent nodes pair up level by level, an odd last one carried up."""
    nodes = list(range(m))
    while len(nodes) > 1:
        nodes = list(zip(nodes[0::2], nodes[1::2])) + nodes[len(nodes) - len(nodes) % 2:]
    return nodes[0]


def _plan(ids):
    """Steps that build every node of ``_sum_order``'s tree once per distinct
    sub-row of the integer ids (K, M).  Slots 0..M-1 are the columns, each
    with its V value tables; step s fills slot M + s with
    ``slot[left][left_ids] + slot[right][right_ids]``, its pairs distinct and
    ascending.  Returns the steps, the root's slot and each blend's id among
    the root's values."""
    ids = np.asarray(ids).astype(np.intp)
    m = ids.shape[1]
    counts = (ids.max(axis=0, initial=0) + 1).tolist()  # value ids per column
    steps = []

    def build(node):
        if isinstance(node, int):
            return node, ids[:, node], counts[node]
        (left, lid, _), (right, rid, nr) = build(node[0]), build(node[1])
        pairs, new = np.unique(lid * nr + rid, return_inverse=True)
        steps.append((left, right, pairs // nr, pairs % nr))
        return m + len(steps) - 1, new, len(pairs)

    root, root_ids, _ = build(_sum_order(m))
    return steps, root, root_ids


@functools.lru_cache(maxsize=None)
def _row_plan(m: int):
    """``_plan`` of a plain row, the ids (1, m) of zeros."""
    return _plan(np.zeros((1, m), dtype=np.intp))


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
        # rows nearer than the k-th distance, then the earliest tied ones up to k
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        nearer = d2 < kth
        tied = d2 == kth
        slots = k - nearer.sum(axis=1, keepdims=True)
        nearest = nearer | (tied & (np.cumsum(tied, axis=1) <= slots))
        # 0/1 labels: the sum is exact, so sum / k equals the mean
        return (nearest * self.y).sum(axis=1) / k

    def predict_proba(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._predict(x[:, None, :], _row_plan(x.shape[1]))[:, 0]

    def predict_blends(self, values, ids) -> np.ndarray:
        """(n, K) probabilities of the blends of values (n, V, M) under ids
        (K, M); equal to ``predict_proba`` on the materialized blends, bit for bit."""
        return self._predict(values, _plan(ids))

    def _predict(self, values, plan) -> np.ndarray:
        """(n, K) probabilities of the blends of values (n, V, M) that
        ``plan``, the ``_plan`` of the ids (K, M), builds."""
        out = np.empty((len(values), len(plan[2])))
        for start, d2 in self._distances(values, plan):
            votes = self._vote(d2.reshape(-1, d2.shape[2]))
            out[start:start + d2.shape[1]] = votes.reshape(d2.shape[:2]).T
        return out

    def _distances(self, values, plan):
        """Yield (start, d2) per block of rows of values (n, V, M): d2 (K,
        rows, n_train) holds the squared distance to each training row of
        each blend that ``plan``, the ``_plan`` of the ids (K, M), builds."""
        steps, root, root_ids = plan
        t = np.ascontiguousarray(self.x.T)  # (M, n_train): unit stride along n_train
        rows = max(1, _BLENDS // max(len(root_ids), 1))
        for start in range(0, len(values), rows):
            block = values[start:start + rows].transpose(2, 1, 0)  # (M, V, rows)
            # slot j holds column j's V tables of squared differences
            slots = list((block[..., None] - t[:, None, None, :]) ** 2)
            for left, right, lid, rid in steps:
                slots.append(slots[left][lid] + slots[right][rid])
                slots[left] = slots[right] = None  # each node feeds one parent
            yield start, slots[root][root_ids]
