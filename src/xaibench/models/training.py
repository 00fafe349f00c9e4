"""Hyperparameter tuning with stratified 4-fold cross-validation on AUC,
plus the TrainedModel wrapper, a codec record (``data.to_record`` /
``from_record``) whose estimator is a record of its own and whose
``format_version`` has one legal value.  Every explainer predicts through
it: plain rows through ``predict_proba``, and every synthetic row (the
one-column copies of dalex, eli5, skater and eXirt, kernel SHAP's
coalition blends) through ``predict_blends``.  Any object with
``predict_proba`` can be wrapped, since only a record's estimator is
checked against ``MODEL_KINDS``.

``fit_pool`` fits the tuning grid and lofo's refits on a process pool; each
fit draws only from its own generator, so it is the same bit for bit there."""

from __future__ import annotations

import contextlib
import os
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


def _fit_job(job):
    """Fit one job: ``(estimator, x, y, rng)`` gives the fitted estimator,
    and a ``fit_many`` group ``(mlp, xs, y, rngs)`` the list of its nets."""
    est, x, y, rng = job
    return est.fit_many(x, y, rng) if isinstance(rng, list) else est.fit(x, y, rng=rng)


def fit_each(jobs) -> list:
    """Fit every job in this process, in order."""
    return [_fit_job(job) for job in jobs]


@contextlib.contextmanager
def fit_pool():
    """Yield ``fit(jobs)``, which fits a list of independent jobs (see
    ``_fit_job``) and returns them in order.  With two or more workers, one
    per CPU in ``os.sched_getaffinity``, and two or more jobs, they run on a
    ``fork`` process pool, opened by the first such call and closed on exit;
    otherwise ``fit_each`` fits them here.  A job's exception reaches the
    caller with its type and message.  ``fork``, not ``spawn``: a spawned
    worker imports numpy and xaibench again, which costs more than the pool
    saves; the pool forks its workers before it starts its own threads, and
    xaibench starts none."""
    workers = len(os.sched_getaffinity(0))
    pool = None

    def fit(jobs):
        nonlocal pool
        if workers < 2 or len(jobs) < 2:
            return fit_each(jobs)
        if pool is None:
            import multiprocessing  # here only, so it stays out of the import time
            pool = multiprocessing.get_context("fork").Pool(workers)
        return pool.map(_fit_job, jobs, chunksize=1)

    try:
        yield fit
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()


def _prefix_sources(kind: str, grid: list) -> list:
    """Per candidate, the index of an earlier fitted gbt candidate with equal
    params but at least as many rounds, or None.  Boosting draws no random
    numbers, so an n-round fit is the first n trees of any longer one."""
    sources = []
    for params in grid:
        longer = [j for j, other in enumerate(grid[:len(sources)])
                  if kind == "gbt" and sources[j] is None
                  and other["n_rounds"] >= params["n_rounds"]
                  and dict(other, n_rounds=0) == dict(params, n_rounds=0)]
        sources.append(longer[0] if longer else None)
    return sources


def train(kind: str, train_data: Dataset, folds: int, seed: int, fit=fit_each) -> TrainedModel:
    """Grid search over ``default_grids()[kind]`` by mean AUC across ``folds``
    stratified folds, then refit the winner on the full split.  ``fit`` (a
    ``fit_pool`` or ``fit_each``) fits every (candidate, fold) that is not a
    boosting prefix of an earlier one.

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
    grid = default_grids()[kind]
    sources = _prefix_sources(kind, grid)
    cells = [(pi, fi) for pi, src in enumerate(sources) if src is None
             for fi in range(len(splits))]
    jobs = [(build_estimator(kind, grid[pi]), x[splits[fi][0]], y[splits[fi][0]],
             rng_for(seed, "cv", pi, fi)) for pi, fi in cells]
    fitted = dict(zip(cells, fit(jobs)))
    best_params, best_score = None, -np.inf
    for pi, (params, src) in enumerate(zip(grid, sources)):
        scores = []
        for fi, (_, val) in enumerate(splits):
            est = fitted[pi if src is None else src, fi]
            if src is not None:
                n = params["n_rounds"]
                est = replace(est, n_rounds=n, trees=est.trees[:n])
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
