"""Pipeline orchestration, staged artifact flow and the CLI."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from xaibench import cli, pipeline
from xaibench.data import Dataset, load_csv, save_csv
from xaibench.datasets import make_synthetic_diabetes
from xaibench.pipeline import (
    STAGES,
    PipelineError,
    RunConfig,
    _write_json,
    run_all,
    run_stage,
)


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
    ])
    def test_invalid_values_rejected_at_construction(self, small_dataset_path, bad, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(dataset=small_dataset_path, out_dir="x", **bad)

    def test_echo_omits_grids(self, small_dataset_path):
        cfg = RunConfig(dataset=small_dataset_path, out_dir="x")
        echoed = cfg.echo()
        assert "grids" not in echoed
        assert echoed["master_seed"] == 7


class TestRunAll:
    def test_artifact_files_exist(self, completed_run):
        _, _, out_dir = completed_run
        for rel in ("prepared/train.csv", "prepared/test_raw.csv",
                    "prepared/stats.json", "models/cart.json",
                    "variants/test_0.csv", "variants/test_10.csv",
                    "metrics.json", "ranks.json", "reliability.json",
                    "stability.json", "statstest.json", "report.json",
                    "metrics.csv", "ranks.csv", "stability.csv",
                    "nemenyi.csv", "heatmap.svg",
                    "icc_cart_0.svg", "bump_eli5_cart.svg", "irt/fit_cart_0.json"):
            assert os.path.exists(os.path.join(out_dir, rel)), rel
        assert not [n for n in os.listdir(os.path.join(out_dir, "irt"))
                    if n.startswith("icc_")]

    @pytest.mark.parametrize("artifact, key, section", [
        ("ranks.json", None, "ranks"),
        ("reliability.json", None, "reliability"),
        ("stability.json", None, "stability"),
        ("metrics.json", None, "metrics"),
        ("statstest.json", "nemenyi", "nemenyi"),
    ])
    def test_artifact_equals_its_report_section(self, completed_run, artifact, key,
                                                section):
        _, _, out_dir = completed_run
        with open(os.path.join(out_dir, artifact), encoding="utf-8") as fh:
            got = json.load(fh)
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert (got if key is None else got[key]) == report[section]

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
        _, _, out_dir = completed_run
        train = load_csv(os.path.join(out_dir, "prepared", "train.csv"))
        assert np.allclose(train.features.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(train.features.std(axis=0, ddof=1), 1.0, atol=1e-9)

    def test_missing_artifacts_raise_stage_errors(self, small_dataset_path, tmp_path):
        cfg = small_config(small_dataset_path, tmp_path / "fresh")
        with pytest.raises(PipelineError, match=r"\[explain\].*missing"):
            run_stage(cfg, "explain")

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
            def counted(*args, _name=name, _original=getattr(pipeline, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(pipeline, name, counted)
        pipeline.stage_explain(dataclasses.replace(cfg, out_dir=copy))
        # one model x four levels
        assert calls == {"explain_eli5_style": 4, "explain_exirt": 4}
        with open(os.path.join(out_dir, "ranks.json"), "rb") as fh:
            original = fh.read()
        with open(os.path.join(copy, "ranks.json"), "rb") as fh:
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
    def test_tracer_installs(self):
        """The benchmark tracer rebinds names in xaibench.pipeline and
        xaibench.report; a renamed or dropped import fails here."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = ("import sys; sys.path[:0] = sys.argv[1:]; "
                "import tracing; tracing.install(tracing.Tracer())")
        proc = subprocess.run([sys.executable, "-c", code, os.path.join(root, "src"),
                               os.path.join(root, "bench")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestStageComposition:
    def test_cli_stages_match_run_all(self, small_dataset_path, completed_run,
                                      tmp_path):
        _, _, all_dir = completed_run
        staged_dir = str(tmp_path / "staged")
        args = ["--dataset", small_dataset_path, "--out", staged_dir,
                "--models", "cart", "--explainers", "eli5,exirt"]
        for stage in STAGES:
            assert cli.main([stage] + args) == 0
        with open(os.path.join(all_dir, "report.json"), encoding="utf-8") as fh:
            full = json.load(fh)
        with open(os.path.join(staged_dir, "report.json"), encoding="utf-8") as fh:
            staged = json.load(fh)
        # the config echo embeds out_dir, which legitimately differs
        full.pop("config")
        staged.pop("config")
        assert staged == full
        for name in sorted(os.listdir(all_dir)):
            if not name.endswith(".svg"):
                continue
            with open(os.path.join(all_dir, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(staged_dir, name), "rb") as fh:
                b = fh.read()
            assert a == b, name


class TestCli:
    def test_synth_data_writes_loadable_csv(self, tmp_path):
        path = str(tmp_path / "synth.csv")
        assert cli.main(["synth-data", "--out", path]) == 0
        data = load_csv(path)
        assert data.n_rows == 768
        assert data.class_counts()[1] == 268

    def test_synth_data_seed_changes_content(self, tmp_path):
        a, b, c = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
        cli.main(["synth-data", "--out", a, "--seed", "1"])
        cli.main(["synth-data", "--out", b, "--seed", "1"])
        cli.main(["synth-data", "--out", c, "--seed", "2"])
        assert open(a).read() == open(b).read()
        assert open(a).read() != open(c).read()

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

    def test_bad_config_value_refused_before_train(self, small_dataset_path, tmp_path,
                                                   capsys):
        out = tmp_path / "o"
        path = tmp_path / "bad.cfg"
        path.write_text(f"dataset = {small_dataset_path}\nout = {out}\n"
                        "perturbation_kind = gaussian\n")
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "gaussian" in capsys.readouterr().err
        assert not os.path.exists(out / "models")

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
