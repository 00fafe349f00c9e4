"""Hyperparameter tuning with stratified 4-fold cross-validation on AUC,
plus the TrainedModel wrapper and its JSON serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..data import Dataset, DatasetError, atomic_open
from ..seeding import rng_for
from ..metrics import roc_auc_score
from .gbt import GradientBoostedTrees
from .knn import KNearestNeighbors
from .mlp import MultilayerPerceptron
from .tree import DecisionTreeClassifier

MODEL_KINDS = ("gbt", "mlp", "cart", "knn")

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

    def predict_proba(self, features) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[1] != self.n_features:
            raise DatasetError(
                f"model expects {self.n_features} features, got {features.shape[1]}")
        return np.clip(self.estimator.predict_proba(features), 0.0, 1.0)

    def predict(self, features) -> np.ndarray:
        return (self.predict_proba(features) >= 0.5).astype(int)


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
    best_params, best_score = None, -np.inf
    for pi, params in enumerate(default_grids()[kind]):
        scores = []
        for fi, (tr, val) in enumerate(splits):
            est = build_estimator(kind, params)
            est.fit(x[tr], y[tr], rng=rng_for(seed, "cv", pi, fi))
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


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format_version": _MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "n_features": model.n_features,
        "feature_names": list(model.feature_names),
        "seed": model.seed,
        "hyperparams": model.hyperparams,
        "cv_score": model.cv_score,
        "estimator": model.estimator.to_dict(),
    }


def model_from_dict(d: dict) -> TrainedModel:
    if d.get("format_version") != _MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {d.get('format_version')!r}")
    est = _ESTIMATORS[d["kind"]].from_dict(d["estimator"])
    return TrainedModel(
        kind=d["kind"],
        estimator=est,
        n_features=d["n_features"],
        feature_names=tuple(d["feature_names"]),
        seed=d["seed"],
        hyperparams=d["hyperparams"],
        cv_score=d["cv_score"],
    )


def save_model(model: TrainedModel, path) -> None:
    with atomic_open(path) as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
