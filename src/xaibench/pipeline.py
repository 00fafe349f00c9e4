"""End-to-end orchestration in three stages: train (tune the models),
explain (explain every perturbed test variant, fit eXirt) and report
(metrics, reliability, stability, post-hoc tests, verdicts, rendering).

Every stage derives the split, its standardization and the perturbed test
variants from the dataset and the seed (``_prepare``), in milliseconds.
Only the expensive results pass between stages: the models, the ranks and
the eXirt fits.  So the stage subcommands run in order give byte-identical
outputs to one run_all.  Stage seeds derive from the master seed and stage
labels, so subsets reproduce the values they would have inside a full run.

``_write_json`` writes every stage artifact (models, ranks, eXirt fits and
``prepared/stats.json``) as compact JSON, records through the
``data.to_record`` codec; ``from_record`` reads them back, and a refused
one names its file.  Only the human-facing ``report.json`` is indented
(``report.write_report``).  ``prepared/stats.json``, the config echo plus the
dataset file's sha256, is train's commit marker: train removes it, every
other file a run writes and the files older versions wrote first, and
writes it last, and later stages refuse to start unless it matches their
config and dataset.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import data as datamod
from .data import (PerturbationSpec, RecordError, atomic_open, from_record, level_key,
                   load_csv, require_type, split, to_record, zscore)
# bench/tracing.py rebinds this name to time CSV writes; nothing here calls it
from .data import save_csv  # noqa: F401
from .explainers import (
    EXPLAINERS,
    ExplainerConfig,
    ExplainerError,
    RelevanceRank,
    explain_dalex_style,
    explain_eli5_style,
    explain_exirt,
    explain_kernel_shap,
    explain_lofo_style,
    explain_skater_style,
    lofo_refits,
    shap_exact,
)
from .irt import IrtFit, default_theta_grid, icc, summarize
from .metrics import classification_report
from .models import MODEL_KINDS, TrainedModel, fit_pool, train
from .report import RunReport, check_slots, verdicts, write_report
from .seeding import derive_seed
from .stability import stability_sum
from .stats import MeasurementTable, friedman, nemenyi

METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "roc_auc")


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
        for name in ("cv_folds", "repetitions", "coalition_budget", "bootstrap_respondents",
                     "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers echo as JSON
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "explainers", tuple(self.explainers))
        if 0.0 not in self.fractions:
            raise ValueError("fractions must include 0 (the unperturbed baseline)")
        for f in self.fractions:
            self.perturbation_spec(f)  # PerturbationSpec checks kind, range and noise_scale
        keys = [level_key(f) for f in self.fractions]
        if len(set(keys)) != len(keys):
            raise ValueError(f"fractions must map to distinct levels, got {keys}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        ExplainerConfig(self.repetitions, self.coalition_budget,
                        bootstrap_respondents=self.bootstrap_respondents,
                        cv_folds=self.cv_folds)  # checks repetitions, pool size and folds
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
        for name, entries in (("models", self.models), ("explainers", self.explainers)):
            if len(set(entries)) != len(entries):
                raise ValueError(f"{name} must be distinct, got {list(entries)}")

    def perturbation_spec(self, fraction: float) -> PerturbationSpec:
        return PerturbationSpec(
            kind=self.perturbation_kind,
            fraction=fraction,
            noise_scale=self.noise_scale,
            seed=derive_seed(self.master_seed, "perturb", self.perturbation_kind,
                             level_key(fraction)),
        )

    def explainer_config(self, explainer: str, kind: str, fraction: float) -> ExplainerConfig:
        # lofo refits on the training split, and no level changes that split
        level = () if explainer == "lofo" else (level_key(fraction),)
        return ExplainerConfig(
            repetitions=self.repetitions,
            coalition_budget=self.coalition_budget,
            bootstrap_respondents=self.bootstrap_respondents,
            cv_folds=self.cv_folds,
            seed=derive_seed(self.master_seed, "explain", explainer, kind, *level),
        )

    def echo(self) -> dict:
        """The config a run's outputs depend on: every field but ``out_dir``."""
        return {k: v for k, v in to_record(self).items() if k != "out_dir"}


def _path(cfg: RunConfig, *parts) -> str:
    return os.path.join(cfg.out_dir, *parts)


def _write_json(path, obj) -> None:
    """``obj`` as one line of sorted-key JSON and a newline, written atomically."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def _read_json(path, top=object):
    """The JSON document at ``path``, refused unless its top level is a ``top``."""
    with open(path, "r", encoding="utf-8") as fh:
        return require_type(json.load(fh), top, "top level")


def _load(cfg: RunConfig, stage: str, read, *parts):
    """``read(path)`` of an upstream artifact; a missing file, or one that
    ``read`` refuses, is named."""
    path = _path(cfg, *parts)
    if not os.path.exists(path):
        raise PipelineError(stage, f"missing input artifact: {path} "
                                   f"(run the earlier stages first)")
    try:
        return read(path)
    except ValueError as exc:
        raise PipelineError(stage, f"{path}: {exc}")


def _fingerprint(cfg: RunConfig, stage: str) -> dict:
    """What ``prepared/stats.json`` records: the config echo and the sha256
    of the dataset file's bytes."""
    try:
        with open(cfg.dataset, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise PipelineError(stage, f"cannot read dataset {cfg.dataset}: {exc.strerror}")
    return dict(cfg.echo(), dataset_sha256=digest)


def _check_config(cfg: RunConfig, stage: str) -> None:
    """Refuse to consume artifacts that the train stage wrote under another
    config or from another dataset."""
    recorded = _load(cfg, stage, lambda p: _read_json(p, dict), "prepared", "stats.json")
    current = _fingerprint(cfg, stage)
    both = recorded.keys() & current.keys()
    differ = sorted(k for k in recorded.keys() | current.keys()
                    if k not in both or recorded[k] != current[k])
    if differ:
        raise PipelineError(stage, f"{_path(cfg, 'prepared', 'stats.json')}: written by a run "
                                   f"with a different config or dataset; differing keys: "
                                   f"{', '.join(differ)}")


def _prepare(cfg: RunConfig, stage: str):
    """The dataset, its standardized training split and the standardized
    test variant of every fraction, derived from the dataset and the seed;
    a run these could not serve is refused first."""
    try:
        dataset = load_csv(cfg.dataset)
        if "shap" in cfg.explainers:  # refuse the budget before any fit
            shap_exact(dataset.n_features, cfg.coalition_budget)
        train_raw, test_raw = split(dataset, cfg.train_fraction,
                                    derive_seed(cfg.master_seed, "split"))
    except (datamod.DatasetError, ExplainerError) as exc:
        raise PipelineError(stage, str(exc))
    # tuning and lofo fold the training split; each fold needs both classes
    smaller = min(train_raw.class_counts().values())
    if cfg.cv_folds > smaller:
        raise PipelineError(stage, f"cv_folds={cfg.cv_folds} exceeds the smaller "
                                   f"training class count {smaller}")
    # a one-class test split gives every AUC the 0.5 fallback and every
    # dalex and eli5 score 0, so the run would "succeed" with no signal
    absent = [c for c, n in test_raw.class_counts().items() if n == 0]
    if absent:
        raise PipelineError(stage, f"the test split has no rows of class {absent[0]}; "
                                   f"lower train_fraction={cfg.train_fraction}")
    # through the module: bench/tracing.py rebinds datamod.perturb
    train_std, *tests = zscore(train_raw, *(datamod.perturb(test_raw, cfg.perturbation_spec(f))
                                            for f in cfg.fractions))
    return dataset, train_std, dict(zip(cfg.fractions, tests))


def stage_train(cfg: RunConfig) -> None:
    """Check the dataset and its split, clear old outputs, then tune every model kind."""
    fingerprint = _fingerprint(cfg, "train")  # before parsing: a later edit is refused
    _, train_std, _ = _prepare(cfg, "train")
    # stats.json, the commit marker, goes first and comes back last; every
    # file a run writes goes too, and the CSVs and metrics.json of older
    # versions, so no earlier run's output outlives this one
    stale = [path for pattern in [("prepared", "stats.json"), ("ranks.json",),
                                  ("irt", "fit_*.json"), ("models", "*.json"), ("report.json",),
                                  ("heatmap.svg",), ("icc_*.svg",), ("bump_*.svg",),
                                  ("metrics.json",), ("prepared", "*.csv")]
             for path in glob.glob(os.path.join(glob.escape(cfg.out_dir), *pattern))]
    if any(os.path.samefile(path, cfg.dataset) for path in stale):
        raise PipelineError("train", f"dataset {cfg.dataset} is one of the files train "
                                     f"clears from --out {cfg.out_dir}; move it elsewhere")
    for path in stale:
        os.remove(path)
    with fit_pool() as pool:  # one pool for every kind's tuning fits
        for kind in cfg.models:
            model = train(kind, train_std, cfg.cv_folds,
                          derive_seed(cfg.master_seed, "train", kind), pool)
            _write_json(_path(cfg, "models", f"{kind}.json"), to_record(model))
    _write_json(_path(cfg, "prepared", "stats.json"), fingerprint)


def _read_models(cfg: RunConfig, stage: str, feature_names: tuple) -> dict:
    """Every configured model, refused unless it names the dataset's features."""
    def read(path):
        model = from_record(TrainedModel, _read_json(path))
        if model.feature_names != feature_names:
            raise RecordError(f"model features {list(model.feature_names)} are not "
                              f"the dataset's {list(feature_names)}")
        return model
    return {kind: _load(cfg, stage, read, "models", f"{kind}.json") for kind in cfg.models}


def stage_explain(cfg: RunConfig) -> None:
    """Produce every configured explainer's rank of every (model, level)
    cell on its perturbed test variant; eXirt's 3PL fits are persisted for
    the report stage."""
    _check_config(cfg, "explain")
    _, train_std, variants = _prepare(cfg, "explain")
    models = _read_models(cfg, "explain", train_std.feature_names)
    # Looked up per call, not at import: bench/tracing.py rebinds these names.
    explain = {"dalex": explain_dalex_style, "eli5": explain_eli5_style,
               "exirt": explain_exirt, "lofo": explain_lofo_style,
               "shap": explain_kernel_shap, "skater": explain_skater_style}

    ranks = []
    with fit_pool() as pool:  # one pool for every kind's lofo refits
        for kind in cfg.models:
            model = models[kind]
            if "lofo" in cfg.explainers:
                # one set of refits per kind scores every level
                refits = lofo_refits(model, train_std, cfg.explainer_config("lofo", kind, 0.0),
                                     pool)
                explain["lofo"] = functools.partial(explain_lofo_style, refits=refits)
            for f, test in variants.items():
                for explainer in cfg.explainers:
                    result = explain[explainer](model, train_std, test,
                                                cfg.explainer_config(explainer, kind, f), f)
                    if explainer == "exirt":
                        result, fit = result
                        _write_json(_path(cfg, "irt", f"fit_{kind}_{level_key(f)}.json"),
                                    to_record(fit))
                    ranks.append(to_record(result))
    _write_json(_path(cfg, "ranks.json"), ranks)


def _posthoc(cfg: RunConfig, metrics: dict):
    """Friedman test and Nemenyi matrix over the (kind, level) treatments,
    with the classification metrics as blocks; (None, None) below two
    treatments."""
    treatments, columns = [], []
    for kind in cfg.models:
        for f in cfg.fractions:
            lvl = level_key(f)
            label = f"{kind}: original" if f == 0 else f"{kind}: {lvl}%"
            treatments.append(label)
            columns.append([getattr(metrics[kind][lvl], m) for m in METRIC_NAMES])
    if len(treatments) < 2:
        return None, None
    table = MeasurementTable(METRIC_NAMES, tuple(treatments),
                             np.array(columns, dtype=float).T)
    stat, p = friedman(table)
    return {"statistic": stat, "p_value": p}, nemenyi(table)


def stage_report(cfg: RunConfig) -> RunReport:
    """Compute the classification metrics, reliability, rank stability, the
    post-hoc tests and the paper's verdicts from the explain stage's
    artifacts, and write the report."""
    _check_config(cfg, "report")
    dataset, _, variants = _prepare(cfg, "report")
    models = _read_models(cfg, "report", dataset.feature_names)
    ranks = _load(cfg, "report", lambda p: [from_record(RelevanceRank, d)
                                            for d in _read_json(p, list)], "ranks.json")
    reliability, fits, curves = {}, {}, {}
    if "exirt" in cfg.explainers:
        grid = default_theta_grid()
        for kind in cfg.models:
            reliability[kind], fits[kind] = {}, {}
            for f in cfg.fractions:
                lvl = level_key(f)
                fit = _load(cfg, "report", lambda p: from_record(IrtFit, _read_json(p)),
                            "irt", f"fit_{kind}_{lvl}.json")
                reliability[kind][lvl] = summarize(fit)
                fits[kind][lvl] = {"iterations": fit.iterations, "converged": fit.converged}
                curves[kind, lvl] = (grid, icc(fit.a, fit.b, fit.c, grid), fit.a < 0)
    pair_ranks = check_slots(cfg.echo(), ranks)  # level 0 first in each pair
    metrics = {kind: {level_key(f): classification_report(t.labels, m.predict_proba(t.features))
                      for f, t in variants.items()}
               for kind, m in models.items()}
    friedman_result, nem = _posthoc(cfg, metrics)
    stability = [stability_sum(r) for r in pair_ranks.values() if len(r) > 1]
    report = RunReport(
        dataset={"path": cfg.dataset, "n_rows": dataset.n_rows,
                 "n_features": dataset.n_features,
                 "class_counts": {str(k): v for k, v in dataset.class_counts().items()},
                 "feature_names": list(dataset.feature_names)},
        config=cfg.echo(),
        models={kind: {"hyperparams": m.hyperparams, "cv_score": m.cv_score, "seed": m.seed}
                for kind, m in models.items()},
        metrics=metrics,
        reliability=reliability,
        fits=fits,
        ranks=ranks,
        stability=stability,
        friedman=friedman_result,
        nemenyi=nem,
        verdicts=verdicts(cfg.models, reliability, stability),
    )
    write_report(report, curves, pair_ranks, cfg.out_dir)
    return report


STAGES = {"train": stage_train, "explain": stage_explain, "report": stage_report}  # in order


def run_stage(cfg: RunConfig, stage: str):
    if stage not in STAGES:
        raise PipelineError(stage, "unknown stage")
    return STAGES[stage](cfg)


def run_all(cfg: RunConfig) -> RunReport:
    """Execute every stage in order and return the report stage's report."""
    for stage in STAGES:
        result = run_stage(cfg, stage)
    return result  # report is the last stage
