"""Six global feature-relevance ranking algorithms behind one interface.

Re-implementations of the mechanisms popularized by Dalex (column inversion),
Eli5 (mean decrease accuracy), Lofo (leave-one-feature-out retraining),
kernel SHAP, Skater (prediction-entropy change) and eXirt (IRT ability drop).
Each ``explain_*`` takes ``(model, train, test, cfg,
perturbation_fraction=0.0)`` and returns a RelevanceRank, but
``explain_exirt`` returns ``(rank, fit)`` with its pool's 3PL fit, and
``explain_lofo_style`` also accepts the ``refits`` of :func:`lofo_refits`.

All randomness flows through per-feature seed streams derived from the
config seed, so equal seeds give identical ranks regardless of evaluation
order.

dalex, eli5, skater and eXirt build every perturbed copy of the test set
first and score them all through one ``TrainedModel.predict_blocks`` call.
On gbt, cart and kNN, a row's prediction does not depend on the other rows
of the call, so that is one ``predict_proba`` on the stacked copies and
gives the same bits as a call per copy.  The MLP gets a call per copy: BLAS
blocks its matmuls by row count, so a stacked call would differ in the low
bits.  Scores are then accumulated in the order of the per-copy loops.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .irt import ResponseMatrix, fit_3pl
from .metrics import accuracy_score, labels_from_proba, roc_auc_score
from .models.training import (TrainedModel, build_estimator, predict_blends,
                              stratified_kfold)
from .seeding import derive_seed, rng_for

EXPLAINERS = ("dalex", "eli5", "exirt", "lofo", "shap", "skater")

EXACT_SHAP_LIMIT = 4096  # enumerate all coalitions when 2^M is at most this

DALEX_SUBSAMPLE = 0.8  # dalex row subsampling per repetition


class ExplainerError(ValueError):
    """Raised for invalid explainer configuration or schema mismatches."""


@dataclass(frozen=True)
class ExplainerConfig:
    repetitions: int = 5
    coalition_budget: int = 2048
    seed: int = 0
    bootstrap_respondents: int = 20  # extra eXirt pool members
    cv_folds: int = 4  # lofo folds over the training split

    def __post_init__(self):
        if self.repetitions < 1:
            raise ExplainerError("repetitions must be >= 1")
        if self.bootstrap_respondents < 0:
            raise ExplainerError("bootstrap_respondents must be >= 0")
        if self.cv_folds < 2:
            raise ExplainerError("cv_folds must be >= 2")


@dataclass(frozen=True)
class RelevanceRank:
    """Ordered features, most relevant first, with aligned scores."""

    ordered_features: tuple
    scores: tuple
    explainer: str
    model_kind: str
    perturbation_fraction: float = 0.0
    score_std: tuple | None = None  # lofo records fold dispersion

    def __post_init__(self):
        for name in ("ordered_features", "scores", "score_std"):
            if getattr(self, name) is not None:  # a record's lists become tuples
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.ordered_features) != len(self.scores):
            raise ExplainerError("scores must align with the feature order")
        if any(s1 < s2 - 1e-12 for s1, s2 in zip(self.scores, self.scores[1:])):
            raise ExplainerError("scores must be non-increasing along the order")

    def positions(self) -> dict:
        """feature -> 1-based rank position."""
        return {f: i + 1 for i, f in enumerate(self.ordered_features)}


def rank_from_scores(feature_names, scores, explainer, model_kind,
                     perturbation_fraction=0.0, score_std=None) -> RelevanceRank:
    """Sort descending by score; ties break by ascending feature index."""
    scores = [float(s) for s in scores]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    std = None
    if score_std is not None:
        std = tuple(float(score_std[i]) for i in order)
    return RelevanceRank(
        ordered_features=tuple(feature_names[i] for i in order),
        scores=tuple(scores[i] for i in order),
        explainer=explainer,
        model_kind=model_kind,
        perturbation_fraction=perturbation_fraction,
        score_std=std,
    )


def _stratified_subsample(labels, fraction, rng):
    idx = []
    for c in (0, 1):
        members = np.flatnonzero(labels == c)
        take = max(1, int(round(fraction * len(members)))) if len(members) else 0
        idx.extend(rng.choice(members, size=take, replace=False).tolist())
    idx.sort()
    return np.array(idx, dtype=int)


def _shuffled(features: np.ndarray, j: int, rng) -> np.ndarray:
    """A copy of ``features`` with column j permuted by one draw of ``rng``."""
    x = np.array(features, copy=True)
    x[:, j] = x[rng.permutation(len(x)), j]
    return x


def explain_dalex_style(model: TrainedModel, train: Dataset, test: Dataset,
                        cfg: ExplainerConfig, perturbation_fraction=0.0) -> RelevanceRank:
    """Column-inversion relevance: reflect each test column about its mean
    and measure the AUC drop, averaged over row subsamples."""
    col_mean = test.features.mean(axis=0)
    m = test.n_features
    subsample_labels, blocks = [], []  # per rep: the subsample, then its m inversions
    for rep in range(cfg.repetitions):
        rng = rng_for(cfg.seed, "dalex", rep)
        idx = _stratified_subsample(test.labels, DALEX_SUBSAMPLE, rng)
        x = test.features[idx]
        subsample_labels.append(test.labels[idx])
        blocks.append(x)
        for j in range(m):
            inv = np.array(x, copy=True)
            inv[:, j] = 2.0 * col_mean[j] - inv[:, j]
            blocks.append(inv)
    proba = iter(model.predict_blocks(blocks))
    drops = np.zeros(m)
    for y in subsample_labels:
        base_auc = roc_auc_score(y, next(proba))
        for j in range(m):
            drops[j] += base_auc - roc_auc_score(y, next(proba))
    drops /= cfg.repetitions
    return rank_from_scores(test.feature_names, drops, "dalex", model.kind,
                            perturbation_fraction)


def _shuffle_relevance(model: TrainedModel, test: Dataset, cfg: ExplainerConfig,
                       explainer: str, scorer, perturbation_fraction) -> RelevanceRank:
    """Per-feature column-shuffle relevance: ``cfg.repetitions`` shuffles of
    each feature, each from its own stream, all predicted in one call.
    ``scorer(base)`` takes the unshuffled predictions and returns the score
    of one shuffled copy's predictions; a feature's relevance is its mean."""
    shuffles = [(j, _shuffled(test.features, j, rng_for(cfg.seed, explainer, name, rep)))
                for j, name in enumerate(test.feature_names) for rep in range(cfg.repetitions)]
    base, *proba = model.predict_blocks([test.features] + [x for _, x in shuffles])
    score = scorer(base)
    scores = np.zeros(test.n_features)
    for (j, _), p in zip(shuffles, proba):
        scores[j] += score(p)
    scores /= cfg.repetitions
    return rank_from_scores(test.feature_names, scores, explainer, model.kind,
                            perturbation_fraction)


def explain_eli5_style(model: TrainedModel, train: Dataset, test: Dataset,
                       cfg: ExplainerConfig, perturbation_fraction=0.0) -> RelevanceRank:
    """Mean decrease accuracy under per-feature column shuffles."""
    def drop(base):
        base_acc = accuracy_score(test.labels, labels_from_proba(base))
        return lambda p: base_acc - accuracy_score(test.labels, labels_from_proba(p))
    return _shuffle_relevance(model, test, cfg, "eli5", drop, perturbation_fraction)


def lofo_refits(model: TrainedModel, train: Dataset, cfg: ExplainerConfig) -> list:
    """Leave-one-feature-out refits of the model's kind (with its tuned
    hyperparameters) on each CV fold of the training split.

    Returns one ``(base, without)`` pair per fold: ``base`` is fitted on every
    feature and ``without[j]`` without feature j.  With a single feature,
    ``without[0]`` is the fold's positive rate (a constant predictor).  An
    estimator with ``fit_many`` (the MLP) trains a fold's M leave-one-out
    nets in one call, each from the same stream as a lone ``fit`` would use.
    """
    kind, hyperparams = model.kind, model.hyperparams
    y_tr = train.labels
    folds = stratified_kfold(y_tr, cfg.cv_folds, derive_seed(cfg.seed, "lofo-folds"))
    m = train.n_features
    refits = []
    for fi, (tr, _val) in enumerate(folds):
        x_fold, y_fold = train.features[tr], y_tr[tr]
        base = build_estimator(kind, hyperparams)
        base.fit(x_fold, y_fold, rng=rng_for(cfg.seed, "lofo", fi, "base"))
        if m == 1:
            # no features left: constant majority-rate predictor
            without = [float(np.mean(y_fold))]
        elif hasattr(base, "fit_many"):
            without = base.fit_many([np.delete(x_fold, j, axis=1) for j in range(m)], y_fold,
                                    [rng_for(cfg.seed, "lofo", fi, j) for j in range(m)])
        else:
            without = []
            for j in range(m):
                est = build_estimator(kind, hyperparams)
                est.fit(np.delete(x_fold, j, axis=1), y_fold, rng=rng_for(cfg.seed, "lofo", fi, j))
                without.append(est)
        refits.append((base, without))
    return refits


def explain_lofo_style(model: TrainedModel, train: Dataset, test: Dataset,
                       cfg: ExplainerConfig, perturbation_fraction=0.0,
                       refits=None) -> RelevanceRank:
    """Leave-one-feature-out retraining.

    Scores the test set against :func:`lofo_refits` (built here when
    ``refits`` is None): per fold, the AUC drop when feature j is left out;
    relevance is the mean drop across folds, with the fold standard
    deviation kept alongside.
    """
    if train.feature_names != test.feature_names:
        raise ExplainerError("train/test feature sets differ")
    if refits is None:
        refits = lofo_refits(model, train, cfg)
    m = test.n_features
    drops = np.zeros((len(refits), m))
    for fi, (base, without) in enumerate(refits):
        base_auc = roc_auc_score(test.labels, base.predict_proba(test.features))
        for j, est in enumerate(without):
            if m == 1:
                proba = np.full(test.n_rows, est)
            else:
                proba = est.predict_proba(np.delete(test.features, j, axis=1))
            drops[fi, j] = base_auc - roc_auc_score(test.labels, proba)
    return rank_from_scores(test.feature_names, drops.mean(axis=0), "lofo", model.kind,
                            perturbation_fraction, score_std=drops.std(axis=0, ddof=0))


def shap_exact(m: int, budget: int, exact: bool | None = None) -> bool:
    """Whether kernel SHAP over M features enumerates every coalition (by
    default when 2^M <= EXACT_SHAP_LIMIT).  Sampling needs a coalition budget
    of at least M + 2."""
    if exact is None:
        exact = 2 ** m <= EXACT_SHAP_LIMIT
    if not exact and budget < m + 2:
        raise ExplainerError("coalition_budget must be >= M + 2 in sampling mode")
    return exact


def _coalitions(m: int, cfg: ExplainerConfig, exact: bool | None):
    """Coalition rows z (K, M) and their kernel weights."""
    if shap_exact(m, cfg.coalition_budget, exact):
        # every proper, non-empty coalition; bit j of the mask is member j
        z = ((np.arange(1, 2 ** m - 1)[:, None] >> np.arange(m)) & 1).astype(float)
        sizes = z.sum(axis=1).astype(int)
        comb = np.array([math.comb(m, s) for s in range(m + 1)])
        return z, (m - 1) / (comb[sizes] * sizes * (m - sizes))
    rng = rng_for(cfg.seed, "shap-coalitions")
    sizes = np.arange(1, m)
    size_w = (m - 1) / (sizes * (m - sizes))
    drawn_sizes = rng.choice(sizes, size=max(cfg.coalition_budget - 2 * m, 0),
                             p=size_w / size_w.sum())
    drawn = np.zeros((len(drawn_sizes), m))
    for row, s in zip(drawn, drawn_sizes):
        row[rng.choice(m, size=int(s), replace=False)] = 1.0
    # always cover every singleton and all-but-one coalition, interleaved
    eye = np.eye(m)
    z = np.vstack([np.stack([eye, 1.0 - eye], axis=1).reshape(2 * m, m), drawn])
    return z, np.ones(len(z))  # sampling already follows the kernel law


def shapley_values(model: TrainedModel, x: np.ndarray, background_row: np.ndarray,
                   cfg: ExplainerConfig, exact: bool | None = None) -> np.ndarray:
    """Kernel SHAP values for each row of x against a single reference row.

    Exact mode enumerates every coalition when 2^M <= EXACT_SHAP_LIMIT;
    sampled mode draws coalitions by the kernel size distribution.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m = x.shape[1]
    if m == 1:
        fx = model.predict_proba(x)
        f0 = model.predict_proba(background_row[None, :])[0]
        return (fx - f0)[:, None]
    z, weights = _coalitions(m, cfg, exact)
    # constrained weighted least squares: phi sums to f(x) - f0, so solve for
    # the first M - 1 values with the last member's column eliminated
    zt = z[:, :-1] - z[:, -1:]
    # C order keeps the sums of the Gram product equal to zt.T @ diag(weights) @ zt;
    # the Fortran-ordered zt.T * weights changes them in the last bit
    wzt = np.multiply(zt.T, weights, order="C")
    solver = np.linalg.solve(wzt @ zt, wzt)  # (M - 1, K)
    fx = model.predict_proba(x)
    f0 = float(model.predict_proba(background_row[None, :])[0])
    # synthetic inputs: coalition members keep x, the rest take the reference
    if hasattr(model, "predict_coalitions"):
        preds = model.predict_coalitions(x, background_row, z)
    else:  # a bare model with predict_proba alone
        preds = predict_blends(model.predict_proba, x, background_row, z)
    phi_head = (preds - f0 - np.outer(fx - f0, z[:, -1])) @ solver.T
    return np.column_stack([phi_head, fx - f0 - phi_head.sum(axis=1)])


def brute_force_shapley(predict, x_row: np.ndarray, background_row: np.ndarray) -> np.ndarray:
    """Definition-level Shapley values by full subset enumeration.

    Independent oracle for the kernel estimator; feasible for small M.
    """
    x_row = np.asarray(x_row, dtype=float)
    m = len(x_row)

    def value(subset):
        blend = np.array(background_row, dtype=float)
        for j in subset:
            blend[j] = x_row[j]
        return float(predict(blend[None, :])[0])

    phi = np.zeros(m)
    others = list(range(m))
    for j in range(m):
        rest = [k for k in others if k != j]
        for r in range(m):
            for subset in itertools.combinations(rest, r):
                weight = (math.factorial(r) * math.factorial(m - r - 1)
                          / math.factorial(m))
                phi[j] += weight * (value(subset + (j,)) - value(subset))
    return phi


def explain_kernel_shap(model: TrainedModel, train: Dataset, test: Dataset,
                        cfg: ExplainerConfig, perturbation_fraction=0.0) -> RelevanceRank:
    """Global kernel SHAP rank: mean absolute Shapley value over test rows,
    with excluded features replaced by the training (background) column means."""
    phi = shapley_values(model, test.features, train.features.mean(axis=0), cfg)
    return rank_from_scores(test.feature_names, np.abs(phi).mean(axis=0), "shap",
                            model.kind, perturbation_fraction)


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return -(p * np.log2(p) + (1 - p) * np.log2(1 - p))


def explain_skater_style(model: TrainedModel, train: Dataset, test: Dataset,
                         cfg: ExplainerConfig, perturbation_fraction=0.0) -> RelevanceRank:
    """Entropy-perturbation relevance: mean absolute change of the binary
    prediction entropy when a feature column is shuffled."""
    def entropy_change(base):
        base_entropy = _binary_entropy(base)
        return lambda p: float(np.mean(np.abs(_binary_entropy(p) - base_entropy)))
    return _shuffle_relevance(model, test, cfg, "skater", entropy_change,
                              perturbation_fraction)


def _exirt_pool(model: TrainedModel, test: Dataset, cfg: ExplainerConfig) -> ResponseMatrix:
    """eXirt's respondents x test rows correctness matrix: the original
    model, one feature-shuffled probe per feature, then the bootstrap
    respondents."""
    y = test.labels
    probes = [_shuffled(test.features, j, rng_for(cfg.seed, "exirt", name))
              for j, name in enumerate(test.feature_names)]
    rows = [labels_from_proba(p) == y for p in model.predict_blocks([test.features, *probes])]
    base_correct = rows[0]
    for b in range(cfg.bootstrap_respondents):
        rng = rng_for(cfg.seed, "exirt-bootstrap", b)
        resample = rng.integers(0, test.n_rows, size=test.n_rows)
        # the bootstrap respondent answers only the items present in its
        # resampled copy; items left out count as incorrect (the binary
        # matrix has no missing-response state)
        selected = np.zeros(test.n_rows, dtype=bool)
        selected[np.unique(resample)] = True
        rows.append(selected & base_correct)
    return ResponseMatrix(np.array(rows))


def explain_exirt(model: TrainedModel, train: Dataset, test: Dataset,
                  cfg: ExplainerConfig, perturbation_fraction=0.0) -> tuple:
    """IRT-ability relevance ranking.

    Builds the respondent pool from the original model, one
    feature-shuffled probe per feature and bootstrap respondents that
    answer only the items covered by a row-resampled copy of the test set,
    fits its 3PL model, and scores each feature by the ability drop of its
    shuffled probe relative to the original model.

    Returns (rank, fit); the fit also feeds the ICC and reliability outputs.
    """
    fit = fit_3pl(_exirt_pool(model, test, cfg))
    theta = fit.theta  # rows: original, one probe per feature, bootstrap
    rank = rank_from_scores(test.feature_names, theta[0] - theta[1:1 + test.n_features],
                            "exirt", model.kind, perturbation_fraction)
    return rank, fit
