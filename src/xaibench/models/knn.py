"""k-nearest-neighbor classifier with Euclidean distance.

Probability of class 1 is the fraction of positive labels among the k
nearest training rows.  Distance ties resolve by training-row order so
prediction is deterministic.

A squared distance adds its M columns' squared differences on one tree,
``_sum_order(M)``'s pairwise levels.  Kernel SHAP asks for the probabilities
of coalition blends: row (i, c) takes ``x[i, j]`` where ``z[c, j]`` is 1 and
``background[j]`` where it is 0.  ``predict_coalitions`` builds each node of
that tree once per distinct sub-mask of z from the tables ``(x_i - T)**2``
and ``(background - T)**2`` (T the training rows), so its distances equal
``predict_proba``'s on the materialized blends bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_CHUNK = 256  # bound the (m, chunk, n_train) difference cube
_BLOCK = 2  # test rows per coalition block: bounds each (K, rows, n_train) table


def _sum_order(m: int):
    """Pairwise summation tree over m columns as nested (left, right) pairs:
    adjacent nodes pair up level by level, an odd last one carried up."""
    nodes = list(range(m))
    while len(nodes) > 1:
        nodes = list(zip(nodes[0::2], nodes[1::2])) + nodes[len(nodes) - len(nodes) % 2:]
    return nodes[0]


def _level_sum(d: np.ndarray) -> np.ndarray:
    """d summed over its first axis on ``_sum_order``'s tree, in place (one add
    per level, each even node taking its odd neighbour); returns a copy."""
    while len(d) > 1:
        d[0:len(d) - 1:2] += d[1::2]
        d = d[0::2]
    return d[0].copy()


def _coalition_plan(z: np.ndarray):
    """Steps that build every node of ``_sum_order``'s tree once per distinct
    sub-mask of z.  Slots 0..M-1 are the columns, each with values (background,
    x); step s fills slot M + s with ``slot[left][left_ids] + slot[right][right_ids]``.
    Returns the steps, the root's slot and each coalition's id among its values."""
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

    root, ids = build(_sum_order(m))
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
        out = np.empty(x.shape[0], dtype=float)
        for start in range(0, x.shape[0], _CHUNK):
            out[start:start + _CHUNK] = self._vote(self._distances(x[start:start + _CHUNK]))
        return out

    def _distances(self, x) -> np.ndarray:
        """(rows, n_train) squared distances of x's rows, on ``_sum_order``'s tree."""
        t = np.ascontiguousarray(self.x.T)  # (M, n_train): unit stride along n_train
        return _level_sum((x.T[:, :, None] - t[:, None, :]) ** 2)

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
