"""Gradient boosting of depth-limited regression trees on logistic loss.

Stands in for LightGBM as the black-box ensemble representative: shrinkage,
a fixed round count and Newton leaf values, without leaf-wise growth or
histogram binning.
"""

from __future__ import annotations

import numpy as np

from .tree import regression_tree, tree_predict


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class GradientBoostedTrees:
    def __init__(self, n_rounds: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3, min_samples_leaf: int = 5):
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.base_score_ = 0.0
        self.trees_ = []

    def fit(self, x, y, rng=None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        p0 = np.clip(np.mean(y), 1e-6, 1 - 1e-6)
        self.base_score_ = float(np.log(p0 / (1 - p0)))
        f = np.full(len(y), self.base_score_)
        self.trees_ = []
        for _ in range(self.n_rounds):
            p = _sigmoid(f)
            tree = regression_tree(x, y - p, p * (1 - p), self.max_depth,
                                   self.min_samples_leaf)
            f = f + self.learning_rate * tree_predict(tree, x)
            self.trees_.append(tree)
        return self

    def predict_proba(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = np.full(x.shape[0], self.base_score_)
        for root in self.trees_:
            f += self.learning_rate * tree_predict(root, x)
        return _sigmoid(f)

    def to_dict(self) -> dict:
        return {
            "n_rounds": self.n_rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "base_score": self.base_score_,
            "trees": self.trees_,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GradientBoostedTrees":
        obj = cls(d["n_rounds"], d["learning_rate"], d["max_depth"], d["min_samples_leaf"])
        obj.base_score_ = d["base_score"]
        obj.trees_ = d["trees"]
        return obj
