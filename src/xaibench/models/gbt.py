"""Gradient boosting of depth-limited regression trees on logistic loss.

Stands in for LightGBM as the black-box ensemble representative: shrinkage,
a fixed round count and Newton leaf values, without leaf-wise growth or
histogram binning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mlp import sigmoid
from .tree import feature_order, regression_tree, tree_predict


@dataclass(eq=False)
class GradientBoostedTrees:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 5
    base_score: float = 0.0  # the fitted state
    trees: list = field(default_factory=list)

    def fit(self, x, y, rng=None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        p0 = np.clip(np.mean(y), 1e-6, 1 - 1e-6)
        self.base_score = float(np.log(p0 / (1 - p0)))
        f = np.full(len(y), self.base_score)
        order = feature_order(x)  # x is the same in every round
        self.trees = []
        for _ in range(self.n_rounds):
            p = sigmoid(f)
            tree = regression_tree(x, y - p, p * (1 - p), order, self.max_depth,
                                   self.min_samples_leaf)
            f = f + self.learning_rate * tree_predict(tree, x)
            self.trees.append(tree)
        return self

    def predict_proba(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = np.full(x.shape[0], self.base_score)
        for root in self.trees:
            f += self.learning_rate * tree_predict(root, x)
        return sigmoid(f)
