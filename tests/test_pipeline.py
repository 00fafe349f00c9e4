"""Pipeline orchestration, staged artifact flow and the CLI."""

import dataclasses
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from xaibench import cli, explainers, pipeline
from xaibench.data import Dataset, level_key, load_csv, save_csv
from xaibench.datasets import make_synthetic_diabetes
from xaibench.data import from_record
from xaibench.irt import IrtFit, ReliabilitySummary, fit_3pl, reliability_compare, summarize
from xaibench.metrics import classification_report
from xaibench.models import TrainedModel
from xaibench.pipeline import (
    STAGES,
    PipelineError,
    RunConfig,
    _write_json,
    run_all,
    run_stage,
)
from xaibench.stability import StabilityRecord, stability_order


@pytest.fixture(scope="module")
def small_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    save_csv(make_synthetic_diabetes(seed=29, n_rows=160, n_positive=56), path)
    return str(path)


def small_config(dataset, out_dir):
    return RunConfig(dataset=dataset, out_dir=str(out_dir),
                     models=("cart",), explainers=("eli5", "exirt"))


@pytest.fixture(scope="module")
def completed_run(small_dataset_path, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    cfg = small_config(small_dataset_path, out_dir)
    report = run_all(cfg)
    return cfg, report, str(out_dir)


class TestRunConfig:
    def test_fraction_zero_required(self, small_dataset_path):
        with pytest.raises(ValueError, match="baseline"):
            RunConfig(dataset=small_dataset_path, out_dir="x",
                      fractions=(0.04, 0.10))

    def test_unknown_model_rejected(self, small_dataset_path):
        with pytest.raises(ValueError, match="model kind"):
            RunConfig(dataset=small_dataset_path, out_dir="x", models=("svm",))

    def test_unknown_explainer_rejected(self, small_dataset_path):
        with pytest.raises(ValueError, match="explainer"):
            RunConfig(dataset=small_dataset_path, out_dir="x",
                      explainers=("lime",))

    @pytest.mark.parametrize("bad, match", [
        ({"fractions": (0.0, 0.1, 0.1)}, "distinct levels"),
        ({"fractions": (0.0, 0.04, 0.041)}, "distinct levels"),
        ({"fractions": (0.0, 1.5)}, r"\[0, 1\]"),
        ({"fractions": (0.0, -0.1)}, r"\[0, 1\]"),
        ({"cv_folds": 1}, "cv_folds"),
        ({"repetitions": 0}, "repetitions"),
        ({"train_fraction": 1.5}, "train_fraction"),
        ({"perturbation_kind": "gaussian"}, "perturbation kind"),
        ({"noise_scale": -1}, "noise_scale"),
        ({"bootstrap_respondents": -3}, "bootstrap_respondents"),
        ({"models": ("cart", "cart")}, "models must be distinct"),
        ({"explainers": ("eli5", "eli5")}, "explainers must be distinct"),
        ({"repetitions": 2.5}, "repetitions must be an integer"),
        ({"cv_folds": 3.0}, "cv_folds must be an integer"),
        ({"coalition_budget": 100.5}, "coalition_budget must be an integer"),
        ({"bootstrap_respondents": 1.5}, "bootstrap_respondents must be an integer"),
        ({"master_seed": 1.5}, "master_seed must be an integer"),
        ({"repetitions": True}, "repetitions must be an integer"),
        ({"master_seed": "7"}, "master_seed must be an integer"),
        ({"noise_scale": float("nan")}, "noise_scale must be finite"),
        ({"noise_scale": float("inf")}, "noise_scale must be finite"),
    ])
    def test_invalid_values_rejected_at_construction(self, small_dataset_path, bad, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(dataset=small_dataset_path, out_dir="x", **bad)

    def test_numpy_integer_counts_become_ints(self, small_dataset_path):
        cfg = RunConfig(dataset=small_dataset_path, out_dir="x", cv_folds=np.int64(3),
                        repetitions=np.int32(2), master_seed=np.uint8(9))
        assert (cfg.cv_folds, cfg.repetitions, cfg.master_seed) == (3, 2, 9)
        assert json.loads(json.dumps(cfg.echo()))["master_seed"] == 9
        assert all(type(v) is int for v in (cfg.cv_folds, cfg.repetitions, cfg.master_seed))

    def test_echo_omits_grids(self, small_dataset_path):
        cfg = RunConfig(dataset=small_dataset_path, out_dir="x")
        echoed = cfg.echo()
        assert "grids" not in echoed
        assert "out_dir" not in echoed  # two runs differing only in out_dir echo the same
        assert echoed["master_seed"] == 7

    def test_only_lofo_seeds_ignore_the_level(self, small_dataset_path):
        # lofo refits on the training split, which no level changes
        cfg = RunConfig(dataset=small_dataset_path, out_dir="x")
        for explainer, distinct in (("lofo", 1), ("eli5", len(cfg.fractions))):
            seeds = {cfg.explainer_config(explainer, "gbt", f).seed for f in cfg.fractions}
            assert len(seeds) == distinct, explainer


def run_files(cfg: RunConfig) -> set:
    """The commit marker, the models, the ranks, the eXirt fits, the report
    and its SVGs: every file a run under cfg writes."""
    levels = [level_key(f) for f in cfg.fractions]
    expected = {"prepared/stats.json", "ranks.json", "report.json", "heatmap.svg"}
    for kind in cfg.models:
        expected |= {f"models/{kind}.json"} | {f"bump_{e}_{kind}.svg" for e in cfg.explainers}
        if "exirt" in cfg.explainers:
            expected |= {f"irt/fit_{kind}_{lvl}.json" for lvl in levels}
            expected |= {f"icc_{kind}_{lvl}.svg" for lvl in levels}
    return expected


def written_files(out_dir) -> set:
    return {os.path.relpath(os.path.join(d, n), out_dir).replace(os.sep, "/")
            for d, _, names in os.walk(out_dir) for n in names}


class TestRunAll:
    def test_artifact_files_exist(self, completed_run):
        """A run writes the files of ``run_files`` and nothing else: the
        splits, the test variants and the metrics are cheap to recompute from
        the dataset and the seed, and every table is a report.json section."""
        cfg, _, out_dir = completed_run
        assert written_files(out_dir) == run_files(cfg)

    def test_a_one_feature_dataset_runs_end_to_end(self, tmp_path):
        """M = 1 reaches kNN's one-column sum, the one-feature branches of
        lofo and kernel SHAP, one-row bump charts, Spearman's n = 1 case and
        eXirt pools with one probe."""
        full = make_synthetic_diabetes(seed=29, n_rows=120, n_positive=42)
        save_csv(Dataset(full.features[:, :1], full.labels, full.feature_names[:1]),
                 tmp_path / "one.csv")
        out = tmp_path / "run"
        assert cli.main(["run", "--dataset", str(tmp_path / "one.csv"), "--out", str(out),
                         "--cv-folds", "2", "--levels", "0,10"]) == 0
        cfg = RunConfig(dataset=str(tmp_path / "one.csv"), out_dir=str(out),
                        fractions=(0.0, 0.10), cv_folds=2)
        assert written_files(out) == run_files(cfg)
        with open(out / "report.json", encoding="utf-8") as fh:
            ranks = json.load(fh)["ranks"]
        assert len(ranks) == len(cfg.models) * len(cfg.explainers) * 2
        assert {tuple(r["ordered_features"]) for r in ranks} == {("pregnancies",)}

    @pytest.mark.parametrize("artifact, key, section", [
        ("ranks.json", None, "ranks"),
    ])
    def test_artifact_equals_its_report_section(self, completed_run, artifact, key,
                                                section):
        _, _, out_dir = completed_run
        with open(os.path.join(out_dir, artifact), encoding="utf-8") as fh:
            got = json.load(fh)
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert (got if key is None else got[key]) == report[section]

    def test_reliability_summarizes_the_saved_fits(self, completed_run):
        """Each reliability cell summarizes its saved fit, and the fits
        section says how that fit ended."""
        cfg, _, out_dir = completed_run
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        assert sorted(d["reliability"]) == sorted(d["fits"]) == list(cfg.models)
        for kind, levels in d["reliability"].items():
            assert sorted(levels) == sorted(level_key(f) for f in cfg.fractions)
            for lvl, cell in levels.items():
                path = os.path.join(out_dir, "irt", f"fit_{kind}_{lvl}.json")
                with open(path, encoding="utf-8") as fh:
                    fit = from_record(IrtFit, json.load(fh))
                assert cell == dataclasses.asdict(summarize(fit))
                assert d["fits"][kind][lvl] == {"iterations": fit.iterations,
                                                "converged": fit.converged}

    def test_verdicts_recompute_from_the_reliability_and_stability_sections(
            self, completed_run):
        cfg, _, out_dir = completed_run
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        reliability = {kind: {lvl: ReliabilitySummary(**cell) for lvl, cell in levels.items()}
                       for kind, levels in d["reliability"].items()}
        kinds = d["config"]["models"]
        assert d["verdicts"] == {
            "reliability": {lvl: {x: {y: reliability_compare(reliability[x][lvl],
                                                             reliability[y][lvl])
                                      for y in kinds[i + 1:]}
                                  for i, x in enumerate(kinds[:-1])}
                            for lvl in reliability[kinds[0]]},
            "stability_order": stability_order([from_record(StabilityRecord, r)
                                                for r in d["stability"]]),
        }
        assert sorted(d["verdicts"]["stability_order"]) == sorted(cfg.explainers)

    def test_report_needs_every_saved_fit(self, completed_run, tmp_path):
        cfg, _, out_dir = completed_run
        copy = str(tmp_path / "copy")
        shutil.copytree(out_dir, copy)
        os.remove(os.path.join(copy, "irt", "fit_cart_10.json"))
        with pytest.raises(PipelineError, match=r"\[report\].*missing"):
            run_stage(dataclasses.replace(cfg, out_dir=copy), "report")

    @pytest.mark.parametrize("artifact, drop, slot", [
        ("ranks.json", lambda ranks: [r for r in ranks if not (
            r["explainer"] == "eli5" and r["perturbation_fraction"] == 0.0)],
         "missing rank slot: eli5:cart:0"),
        ("ranks.json", lambda ranks: ranks + [r for r in ranks if (
            r["explainer"] == "eli5" and r["perturbation_fraction"] == 0.0)],
         "repeated rank slot: eli5:cart:0"),
        ("ranks.json", lambda ranks: [dict(r, ordered_features=r["ordered_features"][:-1] + [
            "renamed"]) if r["explainer"] == "eli5" and r["perturbation_fraction"] == 0.1
            else r for r in ranks],
         "rank slot eli5:cart:10 covers other features than eli5:cart:0"),
    ], ids=("rank", "repeated-rank", "other-features"))
    def test_report_names_a_missing_slot_before_using_it(self, completed_run, tmp_path,
                                                         artifact, drop, slot):
        cfg, _, out_dir = completed_run
        copy = str(tmp_path / "copy")
        shutil.copytree(out_dir, copy)
        path = os.path.join(copy, artifact)
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        _write_json(path, drop(loaded))
        with pytest.raises(ValueError, match=slot):
            run_stage(dataclasses.replace(cfg, out_dir=copy), "report")

    def test_report_counts_scale_with_config(self, completed_run):
        _, report, out_dir = completed_run
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        assert len(d["ranks"]) == 2 * 1 * 4  # explainers x models x levels
        assert len(d["stability"]) == 2 * 1
        assert sum(len(v) for v in d["metrics"].values()) == 4
        assert len(d["nemenyi"]["labels"]) == 4  # one model x four levels
        assert report.friedman is not None

    def test_standardized_train_split(self, completed_run):
        cfg, _, _ = completed_run
        _, train, _ = pipeline._prepare(cfg, "train")
        assert np.allclose(train.features.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(train.features.std(axis=0, ddof=1), 1.0, atol=1e-9)

    def test_metrics_score_each_level_on_its_own_variant(self, completed_run):
        """report computes each (model, level) metric cell from the saved
        model and that level's test variant; the levels' cells differ."""
        cfg, report, out_dir = completed_run
        _, _, variants = pipeline._prepare(cfg, "report")
        with open(os.path.join(out_dir, "models", "cart.json"), encoding="utf-8") as fh:
            model = from_record(TrainedModel, json.load(fh))
        cells = report.metrics["cart"]
        assert cells == {level_key(f): classification_report(t.labels,
                                                             model.predict_proba(t.features))
                         for f, t in variants.items()}
        assert len({dataclasses.astuple(c) for c in cells.values()}) > 1

    def test_prepare_names_the_stage_that_calls_it(self, small_dataset_path):
        cfg = dataclasses.replace(small_config(small_dataset_path, "unused"), cv_folds=200)
        for stage in STAGES:
            with pytest.raises(PipelineError, match=rf"^\[{stage}\] cv_folds=200 exceeds"):
                pipeline._prepare(cfg, stage)

    def test_an_edited_dataset_is_refused_by_name(self, small_dataset_path, tmp_path):
        """stats.json records the sha256 of the dataset train read; explain
        and report refuse to go on once the file changes."""
        path = tmp_path / "data.csv"
        shutil.copyfile(small_dataset_path, path)
        cfg = small_config(str(path), tmp_path / "run")
        run_stage(cfg, "train")
        run_stage(cfg, "explain")
        with open(os.path.join(cfg.out_dir, "prepared", "stats.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)
        assert recorded == dict(cfg.echo(), dataset_sha256=hashlib.sha256(
            path.read_bytes()).hexdigest())
        data = load_csv(path)
        features = data.features.copy()
        features[0, 0] += 1.0  # one cell
        save_csv(data.with_features(features), path)
        for stage in ("explain", "report"):
            with pytest.raises(PipelineError, match=rf"\[{stage}\] .*stats\.json: .*"
                                                    rf"differing keys: dataset_sha256$"):
                run_stage(cfg, stage)

    def test_missing_artifacts_raise_stage_errors(self, small_dataset_path, tmp_path):
        cfg = small_config(small_dataset_path, tmp_path / "fresh")
        with pytest.raises(PipelineError, match=r"\[explain\].*missing"):
            run_stage(cfg, "explain")

    def test_train_refuses_a_sampled_shap_budget_before_any_fit(self, tmp_path):
        # 13 features: 2^13 coalitions exceed the exact limit, so shap samples,
        # and sampling needs a budget of at least M + 2 = 15
        rng = np.random.default_rng(0)
        x = rng.normal(size=(80, 13))
        path = tmp_path / "wide.csv"
        save_csv(Dataset(x, (x[:, 0] > 0).astype(int), tuple(f"f{j}" for j in range(13))),
                 path)
        cfg = RunConfig(dataset=str(path), out_dir=str(tmp_path / "out"), models=("cart",),
                        explainers=("shap",), coalition_budget=5)
        with pytest.raises(PipelineError, match=r"\[train\].*coalition_budget"):
            run_stage(cfg, "train")
        assert list(tmp_path.glob("out/models/*")) == []

    def test_train_refuses_more_folds_than_the_smaller_class_before_any_write(self, tmp_path):
        # 24 rows split 17 / 7; the training split has 6 positives, so 12
        # folds would leave half the validation folds without a positive
        path = tmp_path / "tiny.csv"
        save_csv(make_synthetic_diabetes(seed=29, n_rows=24, n_positive=9), path)
        cfg = RunConfig(dataset=str(path), out_dir=str(tmp_path / "out"), models=("cart",),
                        explainers=("eli5",), cv_folds=12)
        with pytest.raises(PipelineError, match=r"\[train\] cv_folds=12 exceeds the "
                                                r"smaller training class count 6"):
            run_stage(cfg, "train")
        assert not (tmp_path / "out").exists()
        run_stage(dataclasses.replace(cfg, cv_folds=6), "train")  # one positive per fold
        assert (tmp_path / "out" / "models" / "cart.json").exists()

    def test_train_refuses_a_class_split_cannot_stratify_before_any_write(self, tmp_path):
        path = tmp_path / "one_positive.csv"
        save_csv(make_synthetic_diabetes(seed=29, n_rows=30, n_positive=1), path)
        cfg = RunConfig(dataset=str(path), out_dir=str(tmp_path / "out"), models=("cart",),
                        explainers=("eli5",))
        with pytest.raises(PipelineError, match=r"\[train\] class 1 has fewer than 2 members"):
            run_stage(cfg, "train")
        assert not (tmp_path / "out").exists()

    def test_train_refuses_a_test_split_without_a_class_before_any_write(self, tmp_path):
        # 30 rows with 2 positives: train_fraction=0.9 puts both in training,
        # so every AUC would read the single-class 0.5 and dalex/eli5 score 0
        path = tmp_path / "two_positives.csv"
        save_csv(make_synthetic_diabetes(seed=29, n_rows=30, n_positive=2), path)
        cfg = RunConfig(dataset=str(path), out_dir=str(tmp_path / "out"), models=("cart",),
                        explainers=("dalex", "eli5"), train_fraction=0.9, cv_folds=2)
        with pytest.raises(PipelineError, match=r"\[train\] the test split has no rows "
                                                r"of class 1"):
            run_stage(cfg, "train")
        assert not (tmp_path / "out").exists()

    def test_train_drops_what_a_run_under_another_config_left(self, small_dataset_path,
                                                              tmp_path):
        """train and explain at 5 repetitions, then train at 2: the report
        stage finds no ranks or fits of the 5-repetition run."""
        cfg = RunConfig(dataset=small_dataset_path, out_dir=str(tmp_path / "run"),
                        models=("cart", "knn"), explainers=("eli5", "exirt"),
                        fractions=(0.0, 0.1), cv_folds=2, repetitions=5)
        run_stage(cfg, "train")
        run_stage(cfg, "explain")
        two = dataclasses.replace(cfg, repetitions=2)
        run_stage(two, "train")
        assert not (tmp_path / "run" / "ranks.json").exists()
        assert list((tmp_path / "run" / "irt").glob("fit_*.json")) == []
        with pytest.raises(PipelineError, match=r"\[report\] missing input artifact: "
                                                r".*ranks\.json"):
            run_stage(two, "report")

    def test_train_leaves_only_the_new_runs_files(self, small_dataset_path, tmp_path):
        """A second run into one directory with fewer models and explainers
        leaves no model, chart or fit of the first, nor the files older
        versions wrote; a file no version writes stays."""
        def run(out, models, explainers):
            assert cli.main(["run", "--dataset", small_dataset_path, "--out", str(out),
                             "--models", models, "--explainers", explainers,
                             "--levels", "0,10", "--cv-folds", "2"]) == 0

        def files(root):
            return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())

        out = tmp_path / "out"
        run(out, "cart,knn", "eli5,exirt")
        planted = ["metrics.json", "prepared/train.csv", "prepared/test_raw.csv", "notes.txt"]
        for name in planted:
            (out / name).write_text("planted\n")
        run(out, "cart", "eli5")
        run(tmp_path / "fresh", "cart", "eli5")
        assert files(out) == sorted(files(tmp_path / "fresh") + ["notes.txt"])

    @pytest.mark.parametrize("name", ["prepared/data.csv", "metrics.json"])
    def test_train_refuses_a_dataset_it_would_remove(self, small_dataset_path, tmp_path,
                                                     monkeypatch, capsys, name):
        """A dataset that train's cleanup would match is refused by name
        before any file goes: the dataset and the earlier run stay intact."""
        monkeypatch.chdir(tmp_path)
        args = ["--models", "cart", "--explainers", "eli5", "--levels", "0,10",
                "--cv-folds", "2"]
        assert cli.main(["run", "--dataset", small_dataset_path, "--out", "hz", *args]) == 0
        os.makedirs(os.path.dirname(os.path.join("hz", name)) or ".", exist_ok=True)
        shutil.copy(small_dataset_path, os.path.join("hz", name))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        dataset = os.path.join("hz", name)
        assert cli.main(["run", "--dataset", dataset, "--out", "hz", *args]) == 1
        assert capsys.readouterr().err == (f"error: [train] dataset {dataset} is one of the "
                                           f"files train clears from --out hz; move it "
                                           f"elsewhere\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_a_train_that_stops_early_leaves_no_commit_marker(self, small_dataset_path,
                                                              tmp_path, monkeypatch):
        """A train under another config that fails on its second model kind
        leaves no stats.json, so explain refuses to start."""
        cfg = RunConfig(dataset=small_dataset_path, out_dir=str(tmp_path / "run"),
                        models=("cart", "knn"), explainers=("eli5",), fractions=(0.0, 0.1),
                        cv_folds=2)
        run_stage(cfg, "train")
        trained, original = [], pipeline.train

        def stops_at_the_second_kind(kind, *args):
            trained.append(kind)
            if len(trained) == 2:
                raise RuntimeError("stopped")
            return original(kind, *args)

        monkeypatch.setattr(pipeline, "train", stops_at_the_second_kind)
        other = dataclasses.replace(cfg, master_seed=cfg.master_seed + 1)
        with pytest.raises(RuntimeError, match="stopped"):
            run_stage(other, "train")
        assert trained == ["cart", "knn"]
        with pytest.raises(PipelineError, match=r"\[explain\] missing input artifact: "
                                                r".*stats\.json"):
            run_stage(other, "explain")

    def test_mixed_configs_are_refused(self, completed_run):
        cfg, _, _ = completed_run
        other = dataclasses.replace(cfg, master_seed=cfg.master_seed + 1)
        with pytest.raises(PipelineError, match=r"\[explain\].*master_seed"):
            run_stage(other, "explain")

    def test_unknown_stage_rejected(self, small_dataset_path, tmp_path):
        cfg = small_config(small_dataset_path, tmp_path / "x")
        with pytest.raises(PipelineError):
            run_stage(cfg, "tune")


class TestExplainDispatch:
    def test_explainers_are_looked_up_per_call(self, completed_run, tmp_path,
                                               monkeypatch):
        """The benchmark tracer times each explainer by rebinding its name in
        xaibench.pipeline; stage_explain must call through those names."""
        cfg, _, out_dir = completed_run
        copy = str(tmp_path / "copy")
        shutil.copytree(out_dir, copy)
        calls = Counter()
        for name in [n for n in dir(pipeline) if n.startswith("explain_")]:
            def counted(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        pipeline.stage_explain(dataclasses.replace(cfg, out_dir=copy))
        # one model x four levels
        assert calls == {"explain_eli5_style": 4, "explain_exirt": 4}
        with open(os.path.join(out_dir, "ranks.json"), "rb") as fh:
            original = fh.read()
        with open(os.path.join(copy, "ranks.json"), "rb") as fh:
            assert fh.read() == original

    def test_exirt_fits_one_pool_per_cell(self, small_dataset_path, tmp_path, monkeypatch):
        cfg = RunConfig(dataset=small_dataset_path, out_dir=str(tmp_path / "run"),
                        models=("cart", "knn"), explainers=("exirt", "eli5"),
                        fractions=(0.0, 0.1), cv_folds=2)
        run_stage(cfg, "train")
        shapes = []

        def counted(matrix, *args):
            shapes.append(matrix.entries.shape)
            return fit_3pl(matrix, *args)
        monkeypatch.setattr(explainers, "fit_3pl", counted)
        run_stage(cfg, "explain")
        # one call per (model, level) cell; rows: the model, 8 probes, 20 bootstraps
        assert shapes == [(29, 48)] * (2 * 2)
        with open(os.path.join(cfg.out_dir, "ranks.json"), encoding="utf-8") as fh:
            slots = [(r["model_kind"], r["perturbation_fraction"], r["explainer"])
                     for r in json.load(fh)]
        # each eXirt rank keeps its place in the model, level, explainer order
        assert slots == [(k, f, e) for k in cfg.models for f in cfg.fractions
                         for e in cfg.explainers]
        assert sorted(os.listdir(os.path.join(cfg.out_dir, "irt"))) == [
            "fit_cart_0.json", "fit_cart_10.json", "fit_knn_0.json", "fit_knn_10.json"]

    def test_lofo_refits_once_per_kind_and_scores_every_level(self, small_dataset_path,
                                                              tmp_path, monkeypatch):
        cfg = RunConfig(dataset=small_dataset_path, out_dir=str(tmp_path / "run"),
                        models=("cart", "knn"), explainers=("lofo",),
                        fractions=(0.0, 0.1, 0.2), cv_folds=2)
        for stage in ("train", "explain"):
            run_stage(cfg, stage)
        with open(os.path.join(cfg.out_dir, "ranks.json"), "rb") as fh:
            original = fh.read()
        calls = Counter()
        for name in ("lofo_refits", "explain_lofo_style"):
            def counted(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        pipeline.stage_explain(cfg)
        # two kinds x three levels
        assert calls == {"lofo_refits": 2, "explain_lofo_style": 6}
        with open(os.path.join(cfg.out_dir, "ranks.json"), "rb") as fh:
            assert fh.read() == original


class TestArtifactWrites:
    def test_failed_serialization_keeps_previous_file(self, tmp_path):
        # each writer fails partway on its second payload: after the first
        # row of the CSV, inside the JSON object
        good_csv = Dataset(np.eye(2), [0, 1], ("x", "y"))
        bad_csv = SimpleNamespace(feature_names=("x", "y"), features=np.eye(2),
                                  labels=[0, object()])
        writers = (
            (_write_json, "fit_cart_0.json", {"a": 1}, {"a": 2, "b": object()}),
            (lambda path, d: save_csv(d, path), "test_0.csv", good_csv, bad_csv),
        )
        for i, (write, name, good, bad) in enumerate(writers):
            folder = tmp_path / str(i)
            os.makedirs(folder)
            path = str(folder / name)
            write(path, good)
            with open(path, "rb") as fh:
                before = fh.read()
            with pytest.raises(TypeError):
                write(path, bad)
            with open(path, "rb") as fh:
                assert fh.read() == before
            assert os.listdir(folder) == [name]


class TestTracerHooks:
    def test_tracer_installs(self, tmp_path):
        """The benchmark tracer rebinds names in xaibench.pipeline and
        xaibench.report, and its worker imports level_key from
        xaibench.report.  A renamed or dropped import fails here, and so
        does a stage that stops calling through a traced name: each
        explainer, the report writer, each report-stage helper the tracer
        rebinds and the 3PL fit must record time in a traced run."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = tmp_path / "data.csv"
        save_csv(make_synthetic_diabetes(seed=29, n_rows=120, n_positive=42), path)
        code = "\n".join((
            "import json, sys",
            "sys.path[:0] = sys.argv[1:3]",
            "import tracing",
            "from xaibench.pipeline import STAGES, RunConfig, run_stage",
            "from xaibench.report import level_key",
            "tracer = tracing.Tracer()",
            "tracing.install(tracer)",
            "cfg = RunConfig(dataset=sys.argv[3], out_dir=sys.argv[4], models=('cart', 'knn'),",
            "                fractions=(0.0, 0.1), cv_folds=2, coalition_budget=64)",
            "for stage in STAGES:",
            "    with tracer.span('pipeline.' + stage):",
            "        run_stage(cfg, stage)",
            "print(json.dumps(tracing.layer_metrics(tracer.spans, tracer.counts)))",
        ))
        proc = subprocess.run([sys.executable, "-c", code, os.path.join(root, "src"),
                               os.path.join(root, "bench"), str(path),
                               str(tmp_path / "out")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(proc.stdout)
        timed = [k for k in layers if k.startswith("explainers.")] + [
            "report.write_report_s", "stability.stability_sum_s", "irt.icc_s",
            "stats.friedman_s", "stats.nemenyi_s", "report.render_icc_svg_s"]
        assert len(timed) == 12
        assert {k: layers[k] for k in timed if not layers[k] > 0} == {}
        # eXirt fits through explainers.fit_3pl, once per (model, level) cell
        with open(tmp_path / "out" / "irt" / "fit_cart_0.json", encoding="utf-8") as fh:
            fit = json.load(fh)
        assert layers["irt.fit_3pl_s"] > 0
        assert layers["irt.fit_3pl_calls"] == 2 * 2
        assert layers["irt.response_cells"] == 2 * 2 * len(fit["theta"]) * len(fit["a"])


class TestStageComposition:
    def test_cli_stages_match_run_all(self, small_dataset_path, completed_run,
                                      tmp_path):
        _, _, all_dir = completed_run
        staged_dir = str(tmp_path / "staged")
        args = ["--dataset", small_dataset_path, "--out", staged_dir,
                "--models", "cart", "--explainers", "eli5,exirt"]
        for stage in STAGES:
            assert cli.main([stage] + args) == 0
        # the same config in another out_dir writes the same files, byte for byte
        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in pathlib.Path(root).rglob("*") if p.is_file()}
        staged, whole = tree(staged_dir), tree(all_dir)
        assert sorted(staged) == sorted(whole)
        assert [name for name in whole if staged[name] != whole[name]] == []


class TestCli:
    def test_synth_data_writes_loadable_csv(self, tmp_path):
        path = str(tmp_path / "synth.csv")
        assert cli.main(["synth-data", "--out", path]) == 0
        data = load_csv(path)
        assert data.n_rows == 768
        assert data.class_counts()[1] == 268

    def test_synth_data_creates_missing_directories(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for path in ("new/dir/data.csv", "bare.csv"):  # a nested and a bare relative path
            assert cli.main(["synth-data", "--out", path]) == 0
            assert load_csv(path).n_rows == 768
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                      if p.is_file()) == ["bare.csv", "new/dir/data.csv"]  # no .tmp left

    def test_synth_data_seed_changes_content(self, tmp_path):
        a, b, c = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
        cli.main(["synth-data", "--out", a, "--seed", "1"])
        cli.main(["synth-data", "--out", b, "--seed", "1"])
        cli.main(["synth-data", "--out", c, "--seed", "2"])
        assert open(a).read() == open(b).read()
        assert open(a).read() != open(c).read()

    @pytest.mark.parametrize("parts, edit, named", [
        (("irt", "fit_cart_10.json"), lambda d: dict(d, note="x"),
         r"IrtFit record keys: missing \[\], unknown \['note'\]"),
        (("irt", "fit_cart_10.json"), lambda d: {k: v for k, v in d.items() if k != "history"},
         r"IrtFit record keys: missing \['history'\], unknown \[\]"),
        (("ranks.json",), lambda d: [{k: v for k, v in d[0].items() if k != "scores"}] + d[1:],
         r"RelevanceRank record keys: missing \['scores'\], unknown \[\]"),
        (("models", "cart.json"), lambda d: dict(d, note="x"),
         r"TrainedModel record keys: missing \[\], unknown \['note'\]"),
        (("models", "cart.json"), lambda d: dict(d, kind="svm"), r"unknown model kind 'svm'"),
        (("models", "cart.json"),
         lambda d: dict(d, estimator={k: v for k, v in d["estimator"].items() if k != "root"}),
         r"DecisionTreeClassifier record keys: missing \['root'\], unknown \[\]"),
        (("models", "cart.json"), lambda d: dict(d, estimator=dict(d["estimator"], extra=1)),
         r"DecisionTreeClassifier record keys: missing \[\], unknown \['extra'\]"),
        (("prepared", "stats.json"),
         lambda d: {k: v for k, v in d.items() if k != "dataset_sha256"},
         r"differing keys: dataset_sha256$"),
        (("prepared", "stats.json"), lambda d: dict(d, extra=None),
         r"differing keys: extra$"),
        (("prepared", "stats.json"), lambda d: "{", r"Expecting property name"),
        (("ranks.json",), lambda d: [dict(d[0], scores=None)] + d[1:],
         r"RelevanceRank record: object of type 'NoneType' has no len\(\)"),
        (("prepared", "stats.json"), lambda d: [], r"top level must be a dict, got list"),
        (("models", "cart.json"), lambda d: dict(d, feature_names=None),
         r"TrainedModel record: 'NoneType' object is not iterable"),
        (("models", "cart.json"), lambda d: dict(d, format_version=2),
         r"unsupported model format version 2$"),
        (("models", "cart.json"), lambda d: [],
         r"TrainedModel record must be a dict, got list$"),
        (("models", "cart.json"), lambda d: dict(d, n_features=d["n_features"] + 1),
         r"n_features is 9, but there are 8 feature names$"),
        (("models", "cart.json"),
         lambda d: dict(d, feature_names=[f"x{i}" for i in range(d["n_features"])]),
         r"model features \['x0', .*\] are not the dataset's \['pregnancies', "),
    ], ids=("unknown", "missing", "rank", "model", "model-kind", "estimator-missing",
            "estimator-unknown", "stats-missing", "stats-unknown", "stats-not-json",
            "rank-scores-null", "stats-not-object", "model-names-null", "model-version",
            "model-not-object", "model-n-features", "model-feature-names"))
    def test_report_names_the_keys_of_a_bad_fit_file(self, small_dataset_path, completed_run,
                                                     tmp_path, capsys, parts, edit, named):
        """A malformed record file fails the report stage with its path and
        what is wrong with it (the offending keys, a mistyped value or a top
        level of the wrong type), not with a traceback."""
        _, _, out_dir = completed_run
        copy = str(tmp_path / "copy")
        shutil.copytree(out_dir, copy)
        path = os.path.join(copy, *parts)
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        edited = edit(loaded)
        if isinstance(edited, str):  # text that is not JSON
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(edited)
        else:
            _write_json(path, edited)
        rc = cli.main(["report", "--dataset", small_dataset_path, "--out", copy,
                       "--models", "cart", "--explainers", "eli5,exirt"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [report] {path}: ")
        assert re.search(named, err)
        assert "Traceback" not in err

    def test_missing_dataset_is_an_error(self, tmp_path, capsys):
        assert cli.main(["run", "--out", str(tmp_path / "o")]) == 1
        assert "dataset" in capsys.readouterr().err

    def test_nonexistent_dataset_fails_cleanly(self, tmp_path, capsys):
        rc = cli.main(["train", "--dataset", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_with_cli_override(self, small_dataset_path, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            f"dataset = {small_dataset_path}\n"
            f"out = {tmp_path / 'from_file'}\n"
            "seed = 99  # inline comment\n"
            "models = cart\n"
            "levels = 0,10\n")
        parsed = cli.parse_config_file(config_path)
        assert parsed["seed"] == 99
        args = cli.make_parser().parse_args(
            ["run", "--config", str(config_path), "--seed", "123"])
        cfg = cli.build_config(args)
        assert cfg.master_seed == 123  # CLI beats the file
        assert cfg.models == ("cart",)
        assert cfg.fractions == (0.0, 0.10)

    def test_config_file_and_flags_build_equal_configs(self, small_dataset_path, tmp_path):
        out = str(tmp_path / "o")
        settings = {
            "dataset": small_dataset_path, "out": out, "seed": "5",
            "train_fraction": "0.6", "perturbation_kind": "noise",
            "models": "cart,knn", "explainers": "eli5,shap", "levels": "0,5",
            "noise_scale": "0.5", "cv_folds": "3", "repetitions": "2",
            "coalition_budget": "64", "bootstrap_respondents": "4",
        }
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        flags = [a for k, v in settings.items() for a in ("--" + k.replace("_", "-"), v)]
        parser = cli.make_parser()
        from_file = cli.build_config(parser.parse_args(["run", "--config", str(path)]))
        from_flags = cli.build_config(parser.parse_args(["run"] + flags))
        assert from_file == from_flags == RunConfig(
            dataset=small_dataset_path, out_dir=out, master_seed=5, train_fraction=0.6,
            perturbation_kind="noise", models=("cart", "knn"), explainers=("eli5", "shap"),
            fractions=(0.0, 0.05), noise_scale=0.5, cv_folds=3, repetitions=2,
            coalition_budget=64, bootstrap_respondents=4)

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_noise_scale_refused_before_train(self, small_dataset_path, tmp_path,
                                                         capsys, scale):
        """NaN never equals itself, so explain used to refuse it as another
        config after train had fitted every model; inf made the noisy test
        features non-finite."""
        out = tmp_path / "o"
        assert cli.main(["run", "--dataset", small_dataset_path, "--out", str(out),
                         "--perturbation-kind", "noise", "--noise-scale", scale,
                         "--models", "cart", "--explainers", "eli5"]) == 1
        assert "noise_scale must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_value_refused_before_train(self, small_dataset_path, tmp_path,
                                                   capsys):
        out = tmp_path / "o"
        path = tmp_path / "bad.cfg"
        path.write_text(f"dataset = {small_dataset_path}\nout = {out}\n"
                        "perturbation_kind = gaussian\n")
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: {path}:3: perturbation_kind: "
                                           f"unknown perturbation kind 'gaussian'\n")
        assert not os.path.exists(out / "models")

    def test_config_file_value_that_run_config_refuses_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("dataset = x\n# folds\ncv_folds = 1\n")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: cv_folds: cv_folds must be >= 2\n"

    def test_flag_value_that_run_config_refuses_keeps_the_plain_message(self, tmp_path,
                                                                       capsys):
        assert cli.main(["run", "--dataset", "x", "--out", str(tmp_path / "o"),
                         "--cv-folds", "1"]) == 1
        assert capsys.readouterr().err == "error: cv_folds must be >= 2\n"

    @pytest.mark.parametrize("line", ["cv_folds = three", "levels = 0,x"])
    def test_config_file_bad_value_names_the_file_line_and_key(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"dataset = x\n{line}\n")
        assert cli.main(["run", "--config", str(path)]) == 1
        key = line.split(" ")[0]
        assert capsys.readouterr().err.startswith(f"error: {path}:2: {key}: ")

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dataset = x\nturbo = yes\n")
        with pytest.raises(ValueError, match="unknown key"):
            cli.parse_config_file(path)

    def test_config_file_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            cli.parse_config_file(path)

    def test_config_file_key_set_twice(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("seed = 1\n# the same key again\nseed = 2\n")
        with pytest.raises(ValueError) as exc:
            cli.parse_config_file(path)
        assert str(exc.value) == f"{path}:3: key 'seed' already set on line 1"
        assert cli.main(["run", "--config", str(path), "--dataset", "x",
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: key 'seed' already set on line 1\n"
        assert not (tmp_path / "o").exists()

    def test_subcommands_are_the_stages(self):
        parser = cli.make_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        assert sorted(sub.choices) == ["explain", "report", "run", "synth-data", "train"]

    @pytest.mark.parametrize("removed", ["perturb", "irt", "stability", "stats"])
    def test_removed_stage_is_a_usage_error(self, removed, small_dataset_path, tmp_path,
                                            capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([removed, "--dataset", small_dataset_path, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_cli_full_run(self, small_dataset_path, tmp_path):
        out = str(tmp_path / "cli_run")
        rc = cli.main(["run", "--dataset", small_dataset_path, "--out", out,
                       "--models", "cart", "--explainers", "eli5",
                       "--levels", "0,10"])
        assert rc == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        assert len(d["ranks"]) == 2  # one explainer x one model x two levels
        assert d["reliability"] == {}  # exirt disabled -> no reliability slots
