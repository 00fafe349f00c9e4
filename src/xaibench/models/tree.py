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

Each feature is sorted once per tree, or once per boosted fit, since boosting
never changes x: ``feature_order`` gives the (m, n) stable argsort of every
column, and each child takes its rows by a stable filter of its parent's
order (the presorted exact greedy search of SLIQ, Mehta et al. 1996, and
XGBoost, Chen & Guestrin 2016).  A stable filter of a stable argsort is the
stable argsort of the subset, so every node sees the sorted block, sums and
ties that sorting it afresh would give, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_GAIN_TOL = 1e-12


def feature_order(x: np.ndarray) -> np.ndarray:
    """Each column's row ids in ascending value order, ties in row order:
    the (m, n) ``order`` that ``regression_tree`` takes."""
    return np.argsort(x.T, axis=1, kind="stable")


def _best_split(x: np.ndarray, grad: np.ndarray, y: np.ndarray, order: np.ndarray,
                min_leaf: int):
    """Best (feature, threshold, gain) of a node by sum-of-squares reduction,
    or None.  ``x`` and ``grad`` are the full arrays, ``y`` the node's
    gradients in ascending row order and ``order`` (m, n) its row ids sorted
    by each feature (module docstring).  Works on one row per feature, so
    every scan runs along a contiguous axis."""
    m, n = order.shape
    rows = np.arange(m)
    total = float(np.sum(y))
    total2 = float(np.sum(y * y))
    parent_sse = total2 - total * total / n
    xs = x[order, rows[:, None]]
    ys = grad[order]
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
        self.root = regression_tree(x, y, np.ones(len(y)), feature_order(x), depth,
                                    self.min_samples_leaf)
        return self

    def predict_proba(self, x) -> np.ndarray:
        return tree_predict(self.root, x)

    def features_used(self) -> set:
        return tree_features_used(self.root)


def regression_tree(x: np.ndarray, grad: np.ndarray, hess: np.ndarray, order: np.ndarray,
                    max_depth: int, min_samples_leaf: int) -> dict:
    """Squared-error CART on the gradient ``grad``: the boosting weak
    learner, and on 0/1 labels with unit ``hess`` the Gini classifier (module
    docstring).  ``order`` is ``feature_order(x)``; each child's order is the
    stable filter of its parent's by the split.  A node splits while depth
    remains, both children can hold ``min_samples_leaf`` rows and its
    gradients differ; each leaf takes the Newton step sum(grad) / sum(hess)."""
    return _grow(x, grad, hess, np.arange(len(grad)), order, max_depth, min_samples_leaf)


def _grow(x, grad, hess, idx, order, max_depth, min_leaf) -> dict:
    """The subtree of the node holding rows ``idx`` (ascending), whose
    per-feature sorted row ids are ``order``."""
    y = grad[idx]
    best = None
    if max_depth > 0 and len(y) >= 2 * min_leaf and not np.all(y == y[0]):
        best = _best_split(x, grad, y, order, min_leaf)
    if best is None:
        return {"value": float(np.sum(y) / max(float(np.sum(hess[idx])), 1e-12))}
    j, thr, _ = best
    side = x[:, j] <= thr
    left = side[order]
    m = len(order)
    return {
        "feature": j,
        "threshold": thr,
        "left": _grow(x, grad, hess, idx[side[idx]], order[left].reshape(m, -1),
                      max_depth - 1, min_leaf),
        "right": _grow(x, grad, hess, idx[~side[idx]], order[~left].reshape(m, -1),
                       max_depth - 1, min_leaf),
    }
