"""Hyperparameter tuning with stratified 4-fold cross-validation on AUC,
plus the TrainedModel wrapper, a codec record (``data.to_record`` /
``from_record``) whose estimator is a record of its own and whose
``format_version`` has one legal value.  Every explainer predicts through
it: plain rows through ``predict_proba``, and every synthetic row (the
one-column copies of dalex, eli5, skater and eXirt, kernel SHAP's
coalition blends) through ``predict_blends``.  Any object with
``predict_proba`` can be wrapped, since only a record's estimator is
checked against ``MODEL_KINDS``."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..data import Dataset, DatasetError, RecordError, from_record
from ..seeding import rng_for
from ..metrics import roc_auc_score
from .gbt import GradientBoostedTrees
from .knn import KNearestNeighbors
from .mlp import MultilayerPerceptron
from .tree import DecisionTreeClassifier

MODEL_KINDS = ("gbt", "mlp", "cart", "knn")

# Kinds whose prediction for a row does not depend on the other rows of the
# call, bit for bit.  The MLP's is not: BLAS blocks its matmuls by row count.
ROW_EXACT = ("gbt", "cart", "knn")

_MODEL_FORMAT_VERSION = 1

_ESTIMATORS = {
    "gbt": GradientBoostedTrees,
    "mlp": MultilayerPerceptron,
    "cart": DecisionTreeClassifier,
    "knn": KNearestNeighbors,
}


def default_grids() -> dict:
    """Hyperparameter candidates per model kind, in tie-break order."""
    return {
        "gbt": [
            {"n_rounds": 100, "learning_rate": 0.1, "max_depth": 3},
            {"n_rounds": 50, "learning_rate": 0.1, "max_depth": 3},
            {"n_rounds": 100, "learning_rate": 0.1, "max_depth": 2},
        ],
        "mlp": [
            {"hidden_units": 8},
            {"hidden_units": 16},
            {"hidden_units": 32},
        ],
        "cart": [
            {"max_depth": 3},
            {"max_depth": 5},
            {"max_depth": 7},
            {"max_depth": None},
        ],
        "knn": [
            {"k": 3},
            {"k": 5},
            {"k": 7},
            {"k": 11},
        ],
    }


@dataclass
class TrainedModel:
    """A fitted classifier plus its training metadata."""

    kind: str
    estimator: object
    n_features: int
    feature_names: tuple
    seed: int
    hyperparams: dict
    cv_score: float
    format_version: int = _MODEL_FORMAT_VERSION

    def __post_init__(self):
        if self.format_version != _MODEL_FORMAT_VERSION:
            raise RecordError(f"unsupported model format version {self.format_version!r}")
        self.feature_names = tuple(self.feature_names)  # a record's list
        if self.n_features != len(self.feature_names):
            raise RecordError(f"n_features is {self.n_features}, but there are "
                              f"{len(self.feature_names)} feature names")
        if isinstance(self.estimator, dict):  # a record's estimator
            if self.kind not in _ESTIMATORS:
                raise RecordError(f"unknown model kind {self.kind!r}")
            self.estimator = from_record(_ESTIMATORS[self.kind], self.estimator)

    def _checked(self, features) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[-1] != self.n_features:
            raise DatasetError(
                f"model expects {self.n_features} features, got {features.shape[-1]}")
        return features

    def predict_proba(self, features) -> np.ndarray:
        return np.clip(self.estimator.predict_proba(self._checked(features)), 0.0, 1.0)

    def predict_blends(self, values, ids) -> np.ndarray:
        """(n, K) probabilities of the blends of the value tables (n, V, M)
        under the integer ids (K, M): blend (i, c) takes
        ``values[i, ids[c, j], j]`` in column j.  The estimator scores them
        itself when it can (kNN).  A ``ROW_EXACT`` kind gets one call on all
        n * K blend rows, any other kind one call per id row on its n rows."""
        values, ids = self._checked(values), np.asarray(ids, dtype=np.intp)
        (n, _, m), k = values.shape, len(ids)
        if hasattr(self.estimator, "predict_blends"):
            proba = self.estimator.predict_blends(values, ids)
        elif self.kind in ROW_EXACT:
            rows = values[:, ids, np.arange(m)].reshape(n * k, m)
            proba = self.estimator.predict_proba(rows).reshape(n, k)
        else:
            proba = np.empty((n, k))
            for c, row in enumerate(ids):  # C order, as a copy of the rows would be
                blend = np.ascontiguousarray(values[:, row, np.arange(m)])
                proba[:, c] = self.estimator.predict_proba(blend)
        return np.clip(proba, 0.0, 1.0)


def build_estimator(kind: str, params: dict):
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _ESTIMATORS[kind](**params)


def stratified_kfold(labels, folds: int, seed: int):
    """Deterministic stratified folds: list of (train_idx, val_idx)."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(labels), dtype=int)
    for c in (0, 1):
        idx = rng.permutation(np.flatnonzero(labels == c))
        for pos, i in enumerate(idx):
            assignment[i] = pos % folds
    out = []
    for f in range(folds):
        val = np.flatnonzero(assignment == f)
        tr = np.flatnonzero(assignment != f)
        out.append((tr, val))
    return out


def _boosting_prefix(kind: str, params: dict, fitted: list):
    """The gbt of ``params`` as the first trees of a longer fit in ``fitted``
    with otherwise equal params, or None.  Boosting draws no random numbers,
    so an n-round fit is the first n trees of any longer one, tree for tree."""
    if kind != "gbt":
        return None
    n = params["n_rounds"]
    for est in fitted:
        prefix = replace(est, n_rounds=n, trees=est.trees[:n])
        if est.n_rounds >= n and all(getattr(prefix, k) == v for k, v in params.items()):
            return prefix
    return None


def train(kind: str, train_data: Dataset, folds: int, seed: int) -> TrainedModel:
    """Grid search over ``default_grids()[kind]`` by mean AUC across ``folds``
    stratified folds, then refit the winner on the full split.

    Ties go to the earliest candidate in the declared grid order.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    y = train_data.labels
    if len(np.unique(y)) < 2:
        raise DatasetError("training data contains a single class")
    x = train_data.features
    splits = stratified_kfold(y, folds, seed)
    fitted = [[] for _ in splits]  # each fold's tuning fits
    best_params, best_score = None, -np.inf
    for pi, params in enumerate(default_grids()[kind]):
        scores = []
        for fi, (tr, val) in enumerate(splits):
            est = _boosting_prefix(kind, params, fitted[fi])
            if est is None:
                est = build_estimator(kind, params)
                est.fit(x[tr], y[tr], rng=rng_for(seed, "cv", pi, fi))
                fitted[fi].append(est)
            scores.append(roc_auc_score(y[val], est.predict_proba(x[val])))
        mean_auc = float(np.mean(scores))
        if mean_auc > best_score + 1e-12:
            best_score = mean_auc
            best_params = params
    est = build_estimator(kind, best_params)
    est.fit(x, y, rng=rng_for(seed, "final"))
    return TrainedModel(
        kind=kind,
        estimator=est,
        n_features=train_data.n_features,
        feature_names=train_data.feature_names,
        seed=seed,
        hyperparams=dict(best_params),
        cv_score=best_score,
    )

