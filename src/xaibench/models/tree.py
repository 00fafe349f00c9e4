"""CART-style binary trees: ``regression_tree``, the squared-error CART that
grows both the Gini classifier and the gradient-boosting weak learner.

One split search serves both models.  On 0/1 labels the Gini impurity
2p(1 - p) is twice the label variance, so a split's weighted Gini decrease
is exactly 2/n times its squared-error decrease (Breiman et al., 1984): the
two criteria rank every split of a node alike, up to rounding.

Trees are plain nested dicts so they serialize to JSON losslessly.  A node's
split search scores all features in one vectorized pass.  Gains within
_GAIN_TOL tie, inside a feature and between features alike: each feature
keeps its first (lowest) threshold within _GAIN_TOL of its best gain, and a
later feature wins only by more than _GAIN_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_GAIN_TOL = 1e-12


def _best_split(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best (feature, threshold, gain) of the (n, m) node block by
    sum-of-squares reduction, or None.  Works on one row per feature, so
    every scan runs along a contiguous axis."""
    n, m = x.shape
    rows = np.arange(m)
    total = float(np.sum(y))
    total2 = float(np.sum(y * y))
    parent_sse = total2 - total * total / n
    order = np.argsort(x.T, axis=1, kind="stable")  # (m, n)
    xs = x[order, rows[:, None]]
    ys = y[order]
    # row counts left and right of a split after sorted position i
    left_n = np.arange(1, n)
    right_n = n - left_n
    left_sum = np.cumsum(ys, axis=1)[:, :-1]
    left_sum2 = np.cumsum(ys * ys, axis=1)[:, :-1]
    right_sum = total - left_sum
    right_sum2 = total2 - left_sum2
    sse = (left_sum2 - left_sum ** 2 / left_n) + (right_sum2 - right_sum ** 2 / right_n)
    legal = (xs[:, :-1] < xs[:, 1:]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    gain = np.where(legal, parent_sse - sse, -np.inf)
    pos = np.argmax(gain >= gain.max(axis=1, keepdims=True) - _GAIN_TOL, axis=1)
    top = gain[rows, pos]
    best = None
    for j, (k, g) in enumerate(zip(pos.tolist(), top.tolist())):
        if g > _GAIN_TOL and (best is None or g > best[2] + _GAIN_TOL):
            best = (j, float(0.5 * (xs[j, k] + xs[j, k + 1])), g)
    return best


def _predict_node(node: dict, x: np.ndarray, out: np.ndarray, idx: np.ndarray):
    if "value" in node:
        out[idx] = node["value"]
        return
    go_left = x[idx, node["feature"]] <= node["threshold"]
    _predict_node(node["left"], x, out, idx[go_left])
    _predict_node(node["right"], x, out, idx[~go_left])


def tree_predict(node: dict, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[0], dtype=float)
    _predict_node(node, x, out, np.arange(x.shape[0]))
    return out


def tree_features_used(node: dict, acc=None) -> set:
    """Indices of features the tree actually splits on."""
    if acc is None:
        acc = set()
    if "value" not in node:
        acc.add(node["feature"])
        tree_features_used(node["left"], acc)
        tree_features_used(node["right"], acc)
    return acc


@dataclass(eq=False)
class DecisionTreeClassifier:
    """Binary CART with Gini impurity; leaves hold the class-1 fraction.
    ``regression_tree`` grows it on the labels with unit hessians: its split
    is the Gini-best one (module docstring), its Newton leaf sum(y) / n the
    label mean and its equal-gradients stop the pure-node stop."""

    max_depth: int | None  # None: unbounded
    min_samples_leaf: int = 1
    root: dict = field(default_factory=dict)  # the fitted tree

    def fit(self, x, y, rng=None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        # a tree on n rows is at most n - 1 deep, so depth n never binds
        depth = len(y) if self.max_depth is None else self.max_depth
        self.root = regression_tree(x, y, np.ones(len(y)), depth, self.min_samples_leaf)
        return self

    def predict_proba(self, x) -> np.ndarray:
        return tree_predict(self.root, x)

    def features_used(self) -> set:
        return tree_features_used(self.root)


def regression_tree(x: np.ndarray, grad: np.ndarray, hess: np.ndarray, max_depth: int,
                    min_samples_leaf: int) -> dict:
    """Squared-error CART on the gradient ``grad``: the boosting weak
    learner, and on 0/1 labels with unit ``hess`` the Gini classifier (module
    docstring).  A node splits while depth remains, both children can hold
    ``min_samples_leaf`` rows and its gradients differ; each leaf takes the
    Newton step sum(grad) / sum(hess)."""
    best = None
    if max_depth > 0 and len(grad) >= 2 * min_samples_leaf and not np.all(grad == grad[0]):
        best = _best_split(x, grad, min_samples_leaf)
    if best is None:
        return {"value": float(np.sum(grad) / max(float(np.sum(hess)), 1e-12))}
    j, thr, _ = best
    mask = x[:, j] <= thr
    return {
        "feature": j,
        "threshold": thr,
        "left": regression_tree(x[mask], grad[mask], hess[mask], max_depth - 1,
                                min_samples_leaf),
        "right": regression_tree(x[~mask], grad[~mask], hess[~mask], max_depth - 1,
                                 min_samples_leaf),
    }
