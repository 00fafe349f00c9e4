"""End-to-end orchestration: load, standardize, split, tune, perturb,
evaluate, explain, IRT, stability, stats, report.

Each stage persists its artifacts under the output directory and later
stages reload them, so running the stage subcommands in order produces
byte-identical final outputs to a single run_all with the same seed.
Stage seeds derive from the master seed and stage labels, so subsets
reproduce the values they would have inside a full run.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import data as datamod
from .data import (PERTURBATION_KINDS, PerturbationSpec, atomic_open, level_key, load_csv,
                   save_csv, split, zscore_apply, zscore_fit)
from .explainers import (
    EXPLAINERS,
    ExplainerConfig,
    RelevanceRank,
    explain_dalex_style,
    explain_eli5_style,
    explain_exirt,
    explain_kernel_shap,
    explain_lofo_style,
    explain_skater_style,
)
from .irt import (
    ReliabilitySummary,
    default_theta_grid,
    fit_from_dict,
    fit_to_dict,
    icc,
    summarize,
)
from .metrics import MetricReport, classification_report
from .models import MODEL_KINDS, load_model, save_model, train
from .report import RunReport, write_report
from .seeding import derive_seed
from .stability import StabilityRecord, stability_sum
from .stats import MeasurementTable, PosthocMatrix, friedman, nemenyi

METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "roc_auc")

STAGES = ("train", "perturb", "explain", "irt", "stability", "stats", "report")


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class RunConfig:
    dataset: str
    out_dir: str
    train_fraction: float = 0.7
    perturbation_kind: str = "permutation"
    fractions: tuple = (0.0, 0.04, 0.06, 0.10)
    noise_scale: float = 1.0
    models: tuple = MODEL_KINDS
    explainers: tuple = EXPLAINERS
    cv_folds: int = 4
    repetitions: int = 5
    coalition_budget: int = 2048
    bootstrap_respondents: int = 20
    master_seed: int = 7

    def __post_init__(self):
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "explainers", tuple(self.explainers))
        if 0.0 not in self.fractions:
            raise ValueError("fractions must include 0 (the unperturbed baseline)")
        if not all(0.0 <= f <= 1.0 for f in self.fractions):
            raise ValueError(f"fractions must lie in [0, 1], got {self.fractions}")
        keys = [level_key(f) for f in self.fractions]
        if len(set(keys)) != len(keys):
            raise ValueError(f"fractions must map to distinct levels, got {keys}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if self.perturbation_kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {self.perturbation_kind!r}")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.bootstrap_respondents < 0:
            raise ValueError("bootstrap_respondents must be >= 0")
        if not self.models:
            raise ValueError("need at least one model kind")
        for kind in self.models:
            if kind not in MODEL_KINDS:
                raise ValueError(f"unknown model kind {kind!r}")
        if not self.explainers:
            raise ValueError("need at least one explainer")
        for e in self.explainers:
            if e not in EXPLAINERS:
                raise ValueError(f"unknown explainer {e!r}")

    def explainer_config(self, explainer: str, kind: str, fraction: float) -> ExplainerConfig:
        return ExplainerConfig(
            repetitions=self.repetitions,
            coalition_budget=self.coalition_budget,
            bootstrap_respondents=self.bootstrap_respondents,
            cv_folds=self.cv_folds,
            seed=derive_seed(self.master_seed, "explain", explainer, kind,
                             level_key(fraction)),
        )

    def echo(self) -> dict:
        d = asdict(self)
        d["fractions"] = list(self.fractions)
        d["models"] = list(self.models)
        d["explainers"] = list(self.explainers)
        return d


def _path(cfg: RunConfig, *parts) -> str:
    return os.path.join(cfg.out_dir, *parts)


def _require(cfg: RunConfig, stage: str, *parts) -> str:
    p = _path(cfg, *parts)
    if not os.path.exists(p):
        raise PipelineError(stage, f"missing input artifact: {p} "
                                   f"(run the earlier stages first)")
    return p


def _write_json(path, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with atomic_open(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run_config(cfg: RunConfig) -> dict:
    """The config a run's artifacts depend on: the echo minus ``out_dir``."""
    return {k: v for k, v in cfg.echo().items() if k != "out_dir"}


def _check_config(cfg: RunConfig, stage: str) -> dict:
    """Refuse to consume artifacts that the train stage wrote under another
    config; returns the prepared/stats.json record."""
    meta = _read_json(_require(cfg, stage, "prepared", "stats.json"))
    recorded, current = meta.get("config", {}), _run_config(cfg)
    differ = sorted(k for k in recorded.keys() | current.keys()
                    if recorded.get(k) != current.get(k))
    if differ:
        raise PipelineError(stage, f"{cfg.out_dir} holds artifacts of a run with a "
                                   f"different config; differing keys: {', '.join(differ)}")
    return meta


def stage_train(cfg: RunConfig) -> None:
    """Load, split, standardize and tune every configured model kind."""
    try:
        dataset = load_csv(cfg.dataset)
    except datamod.DatasetError as exc:
        raise PipelineError("train", str(exc))
    train_raw, test_raw = split(dataset, cfg.train_fraction,
                                derive_seed(cfg.master_seed, "split"))
    stats = zscore_fit(train_raw)
    train_std = zscore_apply(train_raw, stats)
    os.makedirs(_path(cfg, "prepared"), exist_ok=True)
    save_csv(train_std, _path(cfg, "prepared", "train.csv"))
    save_csv(test_raw, _path(cfg, "prepared", "test_raw.csv"))
    _write_json(_path(cfg, "prepared", "stats.json"), {
        "config": _run_config(cfg),
        "mean": stats.mean.tolist(),
        "stddev": stats.stddev.tolist(),
        "dataset": {
            "path": cfg.dataset,
            "n_rows": dataset.n_rows,
            "n_features": dataset.n_features,
            "class_counts": {str(k): v for k, v in dataset.class_counts().items()},
            "feature_names": list(dataset.feature_names),
        },
    })
    os.makedirs(_path(cfg, "models"), exist_ok=True)
    for kind in cfg.models:
        model = train(kind, train_std, cfg.cv_folds, derive_seed(cfg.master_seed, "train", kind))
        save_model(model, _path(cfg, "models", f"{kind}.json"))


def stage_perturb(cfg: RunConfig) -> None:
    """Manufacture the standardized test variants, one per fraction."""
    meta = _check_config(cfg, "perturb")
    test_raw = load_csv(_require(cfg, "perturb", "prepared", "test_raw.csv"))
    stats = datamod.StandardizationStats(np.array(meta["mean"]), np.array(meta["stddev"]))
    os.makedirs(_path(cfg, "variants"), exist_ok=True)
    for f in cfg.fractions:
        spec = PerturbationSpec(
            kind=cfg.perturbation_kind,
            fraction=f,
            noise_scale=cfg.noise_scale,
            seed=derive_seed(cfg.master_seed, "perturb", cfg.perturbation_kind,
                             level_key(f)),
        )
        variant = zscore_apply(datamod.perturb(test_raw, spec), stats)
        save_csv(variant, _path(cfg, "variants", f"test_{level_key(f)}.csv"))


def _load_models(cfg: RunConfig, stage: str) -> dict:
    out = {}
    for kind in cfg.models:
        path = _require(cfg, stage, "models", f"{kind}.json")
        out[kind] = load_model(path)
    return out


def _load_variants(cfg: RunConfig, stage: str) -> dict:
    out = {}
    for f in cfg.fractions:
        path = _require(cfg, stage, "variants", f"test_{level_key(f)}.csv")
        out[f] = load_csv(path)
    return out


def stage_explain(cfg: RunConfig) -> None:
    """Evaluate every (model, level) cell and produce every configured
    explainer's rank; eXirt fits are persisted for the irt stage."""
    _check_config(cfg, "explain")
    models = _load_models(cfg, "explain")
    variants = _load_variants(cfg, "explain")
    train_std = load_csv(_require(cfg, "explain", "prepared", "train.csv"))
    # Looked up per call, not at import: bench/tracing.py rebinds these names.
    explain = {"dalex": explain_dalex_style, "eli5": explain_eli5_style,
               "exirt": explain_exirt, "lofo": explain_lofo_style,
               "shap": explain_kernel_shap, "skater": explain_skater_style}

    metrics = {}
    ranks = []
    os.makedirs(_path(cfg, "irt"), exist_ok=True)
    for kind in cfg.models:
        model = models[kind]
        metrics[kind] = {}
        for f in cfg.fractions:
            test = variants[f]
            proba = model.predict_proba(test.features)
            metrics[kind][level_key(f)] = classification_report(test.labels, proba).as_dict()
            for explainer in cfg.explainers:
                rank = explain[explainer](model, train_std, test,
                                          cfg.explainer_config(explainer, kind, f), f)
                if explainer == "exirt":
                    rank, fit = rank
                    _write_json(_path(cfg, "irt", f"fit_{kind}_{level_key(f)}.json"),
                                fit_to_dict(fit))
                ranks.append(rank.as_dict())
    _write_json(_path(cfg, "metrics.json"), metrics)
    _write_json(_path(cfg, "ranks.json"), ranks)


def _load_fit(cfg: RunConfig, stage: str, kind: str, fraction: float):
    return fit_from_dict(_read_json(
        _require(cfg, stage, "irt", f"fit_{kind}_{level_key(fraction)}.json")))


def stage_irt(cfg: RunConfig) -> None:
    """Reliability summaries from the eXirt fits."""
    _check_config(cfg, "irt")
    reliability = {}
    if "exirt" in cfg.explainers:
        for kind in cfg.models:
            reliability[kind] = {level_key(f): asdict(summarize(_load_fit(cfg, "irt", kind, f)))
                                 for f in cfg.fractions}
    _write_json(_path(cfg, "reliability.json"), reliability)


def stage_stability(cfg: RunConfig) -> None:
    _check_config(cfg, "stability")
    ranks = [RelevanceRank.from_dict(d) for d in
             _read_json(_require(cfg, "stability", "ranks.json"))]
    nonzero = tuple(sorted(f for f in cfg.fractions if f > 0))
    records = []
    if nonzero:
        for explainer in cfg.explainers:
            for kind in cfg.models:
                group = [r for r in ranks
                         if r.explainer == explainer and r.model_kind == kind]
                baseline = next(r for r in group if r.perturbation_fraction == 0.0)
                perturbed = [r for r in group if r.perturbation_fraction > 0]
                records.append(stability_sum(baseline, perturbed, fractions=nonzero).as_dict())
    _write_json(_path(cfg, "stability.json"), records)


def stage_stats(cfg: RunConfig) -> None:
    _check_config(cfg, "stats")
    metrics = _read_json(_require(cfg, "stats", "metrics.json"))
    treatments, columns = [], []
    for kind in cfg.models:
        for f in cfg.fractions:
            lvl = level_key(f)
            label = f"{kind}: original" if f == 0 else f"{kind}: {lvl}%"
            treatments.append(label)
            columns.append([metrics[kind][lvl][m] for m in METRIC_NAMES])
    out = {"friedman": None, "nemenyi": None}
    if len(treatments) >= 2:
        table = MeasurementTable(METRIC_NAMES, tuple(treatments),
                                 np.array(columns, dtype=float).T)
        stat, p = friedman(table)
        out["friedman"] = {"statistic": stat, "p_value": p}
        out["nemenyi"] = nemenyi(table).as_dict()
    _write_json(_path(cfg, "statstest.json"), out)


def stage_report(cfg: RunConfig) -> RunReport:
    meta = _check_config(cfg, "report")
    metrics_raw = _read_json(_require(cfg, "report", "metrics.json"))
    ranks_raw = _read_json(_require(cfg, "report", "ranks.json"))
    reliability_raw = _read_json(_require(cfg, "report", "reliability.json"))
    stability_raw = _read_json(_require(cfg, "report", "stability.json"))
    stats_raw = _read_json(_require(cfg, "report", "statstest.json"))

    models_meta = {kind: {"hyperparams": m.hyperparams, "cv_score": m.cv_score, "seed": m.seed}
                   for kind, m in _load_models(cfg, "report").items()}
    metrics = {k: {lvl: MetricReport(**m) for lvl, m in levels.items()}
               for k, levels in metrics_raw.items()}
    reliability = {k: {lvl: ReliabilitySummary(**s) for lvl, s in levels.items()}
                   for k, levels in reliability_raw.items()}
    ranks = [RelevanceRank.from_dict(d) for d in ranks_raw]
    stability = [StabilityRecord.from_dict(d, cfg.fractions) for d in stability_raw]
    post = stats_raw["nemenyi"]
    nem = None if post is None else PosthocMatrix.from_dict(post)
    icc_curves = {}
    if "exirt" in cfg.explainers:
        grid = default_theta_grid()
        for kind in cfg.models:
            for f in cfg.fractions:
                icc_curves[f"{kind}:{level_key(f)}"] = icc(
                    _load_fit(cfg, "report", kind, f).items, grid)
    report = RunReport(
        dataset_summary=meta["dataset"],
        config=cfg.echo(),
        models=models_meta,
        metrics=metrics,
        reliability=reliability,
        ranks=ranks,
        stability=stability,
        friedman=stats_raw["friedman"],
        nemenyi=nem,
        icc=icc_curves,
    )
    write_report(report, cfg.out_dir)
    return report


_STAGE_FUNCS = {
    "train": stage_train,
    "perturb": stage_perturb,
    "explain": stage_explain,
    "irt": stage_irt,
    "stability": stage_stability,
    "stats": stage_stats,
    "report": stage_report,
}


def run_stage(cfg: RunConfig, stage: str):
    if stage not in _STAGE_FUNCS:
        raise PipelineError(stage, "unknown stage")
    return _STAGE_FUNCS[stage](cfg)


def run_all(cfg: RunConfig) -> RunReport:
    """Execute every stage in order and return the consolidated report."""
    report = None
    for stage in STAGES:
        result = run_stage(cfg, stage)
        if stage == "report":
            report = result
    return report
