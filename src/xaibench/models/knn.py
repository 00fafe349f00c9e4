"""k-nearest-neighbor classifier with Euclidean distance.

Probability of class 1 is the fraction of positive labels among the k
nearest training rows.  Distance ties resolve by training-row order so
prediction is deterministic.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 256  # bound the (chunk, n_train, m) difference cube


class KNearestNeighbors:
    def __init__(self, k: int = 5):
        self.k = k
        self.x_ = None
        self.y_ = None

    def fit(self, x, y, rng=None):
        self.x_ = np.asarray(x, dtype=float)
        self.y_ = np.asarray(y, dtype=float)
        return self

    def predict_proba(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k = min(self.k, len(self.y_))
        out = np.empty(x.shape[0], dtype=float)
        for start in range(0, x.shape[0], _CHUNK):
            chunk = x[start:start + _CHUNK]
            d2 = ((chunk[:, None, :] - self.x_[None, :, :]) ** 2).sum(axis=2)
            # every row nearer than the k-th distance, then the earliest
            # training rows tied with it until k are taken
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
            nearer = d2 < kth
            tied = d2 == kth
            slots = k - nearer.sum(axis=1, keepdims=True)
            nearest = nearer | (tied & (np.cumsum(tied, axis=1) <= slots))
            # 0/1 labels: the sum is exact, so sum / k equals the mean
            out[start:start + _CHUNK] = (nearest * self.y_).sum(axis=1) / k
        return out

    def to_dict(self) -> dict:
        return {"k": self.k, "x": self.x_.tolist(), "y": self.y_.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "KNearestNeighbors":
        obj = cls(d["k"])
        obj.x_ = np.array(d["x"], dtype=float)
        obj.y_ = np.array(d["y"], dtype=float)
        return obj
