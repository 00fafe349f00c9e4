"""Six global feature-relevance ranking algorithms behind one interface.

Re-implementations of the mechanisms popularized by Dalex (column inversion),
Eli5 (mean decrease accuracy), Lofo (leave-one-feature-out retraining),
kernel SHAP, Skater (prediction-entropy change) and eXirt (IRT ability drop).
Each ``explain_*`` takes ``(model, train, test, cfg, perturbation_fraction=0.0)``
and returns a RelevanceRank; ``explain_exirt`` returns ``(rank, fit)``.

All randomness flows through per-feature seed streams derived from the
config seed, so equal seeds give identical ranks regardless of evaluation
order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset
from .irt import build_response_matrix, fit_3pl
from .metrics import accuracy_score, labels_from_proba, roc_auc_score
from .models.training import TrainedModel, build_estimator, stratified_kfold
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
        if len(self.ordered_features) != len(self.scores):
            raise ExplainerError("scores must align with the feature order")
        if any(s1 < s2 - 1e-12 for s1, s2 in zip(self.scores, self.scores[1:])):
            raise ExplainerError("scores must be non-increasing along the order")

    def positions(self) -> dict:
        """feature -> 1-based rank position."""
        return {f: i + 1 for i, f in enumerate(self.ordered_features)}

    def as_dict(self) -> dict:
        """JSON-ready fields; ``score_std`` only when the explainer records it."""
        d = asdict(self)
        if self.score_std is None:
            del d["score_std"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RelevanceRank":
        std = d.get("score_std")
        return cls(tuple(d["ordered_features"]), tuple(d["scores"]), d["explainer"],
                   d["model_kind"], d["perturbation_fraction"],
                   None if std is None else tuple(std))


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


def _check_schema(model: TrainedModel, data: Dataset):
    if model.n_features != data.n_features:
        raise ExplainerError(
            f"model expects {model.n_features} features, data has {data.n_features}")


def _stratified_subsample(labels, fraction, rng):
    idx = []
    for c in (0, 1):
        members = np.flatnonzero(labels == c)
        take = max(1, int(round(fraction * len(members)))) if len(members) else 0
        idx.extend(rng.choice(members, size=take, replace=False).tolist())
    idx.sort()
    return np.array(idx, dtype=int)


def explain_dalex_style(model: TrainedModel, train: Dataset, test: Dataset,
                        cfg: ExplainerConfig, perturbation_fraction=0.0) -> RelevanceRank:
    """Column-inversion relevance: reflect each test column about its mean
    and measure the AUC drop, averaged over row subsamples."""
    _check_schema(model, test)
    col_mean = test.features.mean(axis=0)
    m = test.n_features
    drops = np.zeros(m)
    for rep in range(cfg.repetitions):
        rng = rng_for(cfg.seed, "dalex", rep)
        idx = _stratified_subsample(test.labels, DALEX_SUBSAMPLE, rng)
        x = test.features[idx]
        y = test.labels[idx]
        base_auc = roc_auc_score(y, model.predict_proba(x))
        for j in range(m):
            inv = np.array(x, copy=True)
            inv[:, j] = 2.0 * col_mean[j] - inv[:, j]
            drops[j] += base_auc - roc_auc_score(y, model.predict_proba(inv))
    drops /= cfg.repetitions
    return rank_from_scores(test.feature_names, drops, "dalex", model.kind,
                            perturbation_fraction)


def explain_eli5_style(model: TrainedModel, train: Dataset, test: Dataset,
                       cfg: ExplainerConfig, perturbation_fraction=0.0) -> RelevanceRank:
    """Mean decrease accuracy under per-feature column shuffles."""
    _check_schema(model, test)
    y = test.labels
    base_acc = accuracy_score(y, labels_from_proba(model.predict_proba(test.features)))
    m = test.n_features
    drops = np.zeros(m)
    for j, name in enumerate(test.feature_names):
        for rep in range(cfg.repetitions):
            rng = rng_for(cfg.seed, "eli5", name, rep)
            x = np.array(test.features, copy=True)
            x[:, j] = x[rng.permutation(test.n_rows), j]
            acc = accuracy_score(y, labels_from_proba(model.predict_proba(x)))
            drops[j] += base_acc - acc
    drops /= cfg.repetitions
    return rank_from_scores(test.feature_names, drops, "eli5", model.kind,
                            perturbation_fraction)


def explain_lofo_style(model: TrainedModel, train: Dataset, test: Dataset,
                       cfg: ExplainerConfig, perturbation_fraction=0.0) -> RelevanceRank:
    """Leave-one-feature-out retraining.

    Per CV fold of the training split, refit the model's kind (with its tuned
    hyperparameters) minus each feature in turn and record the AUC drop on
    the test set; relevance is the mean drop across folds, with the fold
    standard deviation kept alongside.
    """
    if train.feature_names != test.feature_names:
        raise ExplainerError("train/test feature sets differ")
    kind, hyperparams = model.kind, model.hyperparams
    y_tr = train.labels
    folds = stratified_kfold(y_tr, cfg.cv_folds, derive_seed(cfg.seed, "lofo-folds"))
    m = train.n_features
    drops = np.zeros((len(folds), m))
    for fi, (tr, _val) in enumerate(folds):
        base = build_estimator(kind, hyperparams)
        base.fit(train.features[tr], y_tr[tr], rng=rng_for(cfg.seed, "lofo", fi, "base"))
        base_auc = roc_auc_score(test.labels, base.predict_proba(test.features))
        for j in range(m):
            if m == 1:
                # no features left: constant majority-rate predictor
                rate = float(np.mean(y_tr[tr]))
                proba = np.full(test.n_rows, rate)
            else:
                x_fold = np.delete(train.features[tr], j, axis=1)
                est = build_estimator(kind, hyperparams)
                est.fit(x_fold, y_tr[tr], rng=rng_for(cfg.seed, "lofo", fi, j))
                proba = est.predict_proba(np.delete(test.features, j, axis=1))
            drops[fi, j] = base_auc - roc_auc_score(test.labels, proba)
    return rank_from_scores(train.feature_names, drops.mean(axis=0), "lofo", kind,
                            perturbation_fraction, score_std=drops.std(axis=0, ddof=0))


def _shapley_kernel_weights(m: int, sizes: np.ndarray) -> np.ndarray:
    w = np.empty(len(sizes), dtype=float)
    for i, s in enumerate(sizes):
        w[i] = (m - 1) / (math.comb(m, s) * s * (m - s))
    return w


def _solve_kernel_shap(z: np.ndarray, weights: np.ndarray):
    """Precompute the WLS solver for the constrained kernel SHAP system.

    Returns a function mapping (y_coalition_matrix, fx_minus_f0) to the
    (n_instances, M) matrix of Shapley values.
    """
    m = z.shape[1]
    zt = z[:, :-1] - z[:, -1:]
    w = np.diag(weights)
    gram = zt.T @ w @ zt
    solver = np.linalg.solve(gram, zt.T @ w)  # (M-1, K)

    def solve(y, fx_delta):
        # y: (n, K), fx_delta: (n,)
        adj = y - np.outer(fx_delta, z[:, -1])
        phi_head = adj @ solver.T
        phi_last = fx_delta - phi_head.sum(axis=1)
        return np.column_stack([phi_head, phi_last]) if m > 1 else phi_last[:, None]

    return solve


def _coalition_matrix_exact(m: int) -> np.ndarray:
    rows = []
    for mask in range(1, 2 ** m - 1):  # proper, non-empty coalitions
        rows.append([(mask >> j) & 1 for j in range(m)])
    return np.array(rows, dtype=float)


def _coalition_matrix_sampled(m: int, budget: int, rng) -> np.ndarray:
    sizes = np.arange(1, m)
    size_w = (m - 1) / (sizes * (m - sizes))
    size_w = size_w / size_w.sum()
    rows = []
    # always cover all singleton and all-but-one coalitions
    for j in range(m):
        single = np.zeros(m)
        single[j] = 1.0
        rows.append(single)
        rows.append(1.0 - single)
    remaining = max(budget - len(rows), 0)
    drawn_sizes = rng.choice(sizes, size=remaining, p=size_w)
    for s in drawn_sizes:
        row = np.zeros(m)
        row[rng.choice(m, size=int(s), replace=False)] = 1.0
        rows.append(row)
    return np.array(rows, dtype=float)


def shapley_values(model: TrainedModel, x: np.ndarray, background_row: np.ndarray,
                   cfg: ExplainerConfig, exact: bool | None = None) -> np.ndarray:
    """Kernel SHAP values for each row of x against a single reference row.

    Exact mode enumerates every coalition when 2^M <= EXACT_SHAP_LIMIT;
    sampled mode draws coalitions by the kernel size distribution.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, m = x.shape
    if m == 1:
        fx = model.predict_proba(x)
        f0 = model.predict_proba(background_row[None, :])[0]
        return (fx - f0)[:, None]
    if exact is None:
        exact = 2 ** m <= EXACT_SHAP_LIMIT
    if exact:
        z = _coalition_matrix_exact(m)
        weights = _shapley_kernel_weights(m, z.sum(axis=1).astype(int))
    else:
        if cfg.coalition_budget < m + 2:
            raise ExplainerError("coalition_budget must be >= M + 2 in sampling mode")
        rng = rng_for(cfg.seed, "shap-coalitions")
        z = _coalition_matrix_sampled(m, cfg.coalition_budget, rng)
        weights = np.ones(len(z))  # sampling already follows the kernel law
    solve = _solve_kernel_shap(z, weights)
    # synthetic inputs: coalition members keep x, the rest take the reference
    fx = model.predict_proba(x)
    f0 = float(model.predict_proba(background_row[None, :])[0])
    k = len(z)
    blends = (z[None, :, :] * x[:, None, :]
              + (1.0 - z[None, :, :]) * background_row[None, None, :])
    preds = model.predict_proba(blends.reshape(n * k, m)).reshape(n, k)
    return solve(preds - f0, fx - f0)


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
    _check_schema(model, test)
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
    _check_schema(model, test)
    base_entropy = _binary_entropy(model.predict_proba(test.features))
    m = test.n_features
    scores = np.zeros(m)
    for j, name in enumerate(test.feature_names):
        for rep in range(cfg.repetitions):
            rng = rng_for(cfg.seed, "skater", name, rep)
            x = np.array(test.features, copy=True)
            x[:, j] = x[rng.permutation(test.n_rows), j]
            ent = _binary_entropy(model.predict_proba(x))
            scores[j] += float(np.mean(np.abs(ent - base_entropy)))
    scores /= cfg.repetitions
    return rank_from_scores(test.feature_names, scores, "skater", model.kind,
                            perturbation_fraction)


def explain_exirt(model: TrainedModel, train: Dataset, test: Dataset,
                  cfg: ExplainerConfig, perturbation_fraction=0.0):
    """IRT-ability relevance ranking.

    Builds a respondent pool from the original model, one feature-shuffled
    probe per feature and bootstrap respondents that answer only the items
    covered by a row-resampled copy of the test set, fits the 3PL model,
    and scores each feature by the ability drop of its shuffled probe
    relative to the original model.

    Returns (rank, fit); the fit also feeds the ICC and reliability outputs.
    """
    _check_schema(model, test)
    base_labels = model.predict(test.features)
    pool = [("original", base_labels)]
    for j, name in enumerate(test.feature_names):
        rng = rng_for(cfg.seed, "exirt", name)
        x = np.array(test.features, copy=True)
        x[:, j] = x[rng.permutation(test.n_rows), j]
        pool.append((f"shuffled:{name}", model.predict(x)))
    y = test.labels
    base_correct = (base_labels == y).astype(int)
    for b in range(cfg.bootstrap_respondents):
        rng = rng_for(cfg.seed, "exirt-bootstrap", b)
        resample = rng.integers(0, test.n_rows, size=test.n_rows)
        # the bootstrap respondent answers only the items present in its
        # resampled copy; items left out count as incorrect (the binary
        # matrix has no missing-response state)
        selected = np.zeros(test.n_rows, dtype=bool)
        selected[np.unique(resample)] = True
        boot_labels = np.where(selected & (base_correct == 1), y, 1 - y)
        pool.append((f"bootstrap:{b}", boot_labels))
    matrix = build_response_matrix(pool, test)
    fit = fit_3pl(matrix)
    theta = {rid: t for rid, t in zip(matrix.respondent_ids, fit.abilities.theta)}
    scores = [theta["original"] - theta[f"shuffled:{name}"]
              for name in test.feature_names]
    rank = rank_from_scores(test.feature_names, scores, "exirt", model.kind,
                            perturbation_fraction)
    return rank, fit
