"""CART-style binary trees: a Gini classifier and ``regression_tree``, the
squared-error weak learner for gradient boosting.

Trees are plain nested dicts so they serialize to JSON losslessly.  A node's
split search scores all features in one vectorized pass; each feature keeps
its first (lowest-threshold) maximum, then features are visited in index
order and a later one wins only by more than _GAIN_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_GAIN_TOL = 1e-12


def _split_candidates(x: np.ndarray, min_leaf: int):
    """Sort all columns of the (n, m) node block at once.  Returns the row
    order, the sorted block, the left/right row counts of a split after
    sorted position i, and the (n - 1, m) mask of legal splits."""
    n = x.shape[0]
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    left_n = np.arange(1, n)[:, None]
    right_n = n - left_n
    legal = (xs[:-1] < xs[1:]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    return order, xs, left_n, right_n, legal


def _pick_split(xs: np.ndarray, gain: np.ndarray, legal: np.ndarray):
    """Apply the tie rule (module docstring) to an (n - 1, m) gain block."""
    gain = np.where(legal, gain, -np.inf)
    pos = np.argmax(gain, axis=0)
    top = gain[pos, np.arange(gain.shape[1])]
    best = None
    for j, (k, g) in enumerate(zip(pos.tolist(), top.tolist())):
        if g > _GAIN_TOL and (best is None or g > best[2] + _GAIN_TOL):
            best = (j, float(0.5 * (xs[k, j] + xs[k + 1, j])), g)
    return best


def _best_split_classification(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best (feature, threshold, gain) under Gini impurity, or None."""
    n = x.shape[0]
    total_pos = float(np.sum(y))
    p = total_pos / n
    parent_gini = 2.0 * p * (1.0 - p)
    order, xs, left_n, right_n, legal = _split_candidates(x, min_leaf)
    left_pos = np.cumsum(y[order], axis=0)[:-1]
    right_pos = total_pos - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    weighted = (left_n * 2 * pl * (1 - pl) + right_n * 2 * pr * (1 - pr)) / n
    return _pick_split(xs, parent_gini - weighted, legal)


def _best_split_regression(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best (feature, threshold, gain) by sum-of-squares reduction, or None."""
    n = x.shape[0]
    total = float(np.sum(y))
    total2 = float(np.sum(y * y))
    parent_sse = total2 - total * total / n
    order, xs, left_n, right_n, legal = _split_candidates(x, min_leaf)
    ys = y[order]
    left_sum = np.cumsum(ys, axis=0)[:-1]
    left_sum2 = np.cumsum(ys * ys, axis=0)[:-1]
    right_sum = total - left_sum
    right_sum2 = total2 - left_sum2
    sse = (left_sum2 - left_sum ** 2 / left_n) + (right_sum2 - right_sum ** 2 / right_n)
    return _pick_split(xs, parent_sse - sse, legal)


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
    """Binary CART with Gini impurity; leaves hold the class-1 fraction."""

    max_depth: int | None  # None: unbounded
    min_samples_leaf: int = 1
    root: dict = field(default_factory=dict)  # the fitted tree

    def fit(self, x, y, rng=None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self.root = self._build(x, y, depth=0)
        return self

    def _build(self, x, y, depth):
        p = float(np.mean(y))
        if (p == 0.0 or p == 1.0
                or (self.max_depth is not None and depth >= self.max_depth)
                or len(y) < 2 * self.min_samples_leaf):
            return {"value": p}
        best = _best_split_classification(x, y, self.min_samples_leaf)
        if best is None:
            return {"value": p}
        j, thr, _ = best
        mask = x[:, j] <= thr
        return {
            "feature": j,
            "threshold": thr,
            "left": self._build(x[mask], y[mask], depth + 1),
            "right": self._build(x[~mask], y[~mask], depth + 1),
        }

    def predict_proba(self, x) -> np.ndarray:
        return tree_predict(self.root, x)

    def features_used(self) -> set:
        return tree_features_used(self.root)


def regression_tree(x: np.ndarray, grad: np.ndarray, hess: np.ndarray, max_depth: int,
                    min_samples_leaf: int) -> dict:
    """Squared-error CART on the gradient ``grad``, the boosting weak learner;
    each leaf takes the Newton step sum(grad) / sum(hess)."""
    best = None
    if max_depth > 0 and len(grad) >= 2 * min_samples_leaf and not np.all(grad == grad[0]):
        best = _best_split_regression(x, grad, min_samples_leaf)
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
