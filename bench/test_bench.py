"""Tests for the benchmark's own code: generators, span arithmetic and the
output check.  Run with ``PYTHONPATH=src python -m pytest bench``."""

import itertools

import numpy as np
import pytest

import check
import tracing
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    a, b = workloads.make_dataset(w, 3), workloads.make_dataset(w, 3)
    assert a.feature_names == b.feature_names
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert (a.n_rows, int(a.labels.sum())) == (w.n_rows, w.n_positive)
    assert not np.array_equal(a.features, workloads.make_dataset(w, 4).features)


def test_seed_zero_uses_the_paper_seeds():
    from xaibench.datasets import make_synthetic_diabetes

    w = workloads.WORKLOADS["paper-default"]
    want = make_synthetic_diabetes(101, n_rows=w.n_rows, n_positive=w.n_positive)
    np.testing.assert_array_equal(workloads.make_dataset(w, 0).features, want.features)
    cfg = workloads.make_config(w, 0, "data.csv", "out")
    assert cfg.master_seed == 7


def test_wide_features_appends_eight_columns():
    w = workloads.WORKLOADS["wide-features"]
    data = workloads.make_dataset(w, 0)
    assert data.n_features == 16
    assert data.feature_names[8:12] == tuple(f"{n}_noisy" for n in workloads.NOISY_COPIES)


def _spans():
    # stage [0, 10] > train [1, 3] and lofo [4, 9]; lofo > fits [5, 6] and [5.5, 7]
    return [
        ["pipeline.train", 0.0, 10.0, -1],
        ["models.train", 1.0, 3.0, 0],
        ["explainers.lofo", 4.0, 9.0, 0],
        ["models.gbt.fit", 5.0, 6.0, 2],
        ["models.gbt.fit", 5.5, 7.0, 2],
    ]


def test_self_time_subtracts_merged_child_intervals():
    assert tracing.self_times(_spans()) == [3.0, 2.0, 3.0, 1.0, 1.5]


def test_stage_self_time_plus_children_adds_up_to_stage_time():
    m = tracing.layer_metrics(_spans(), {})
    children = m["models.train_s"] + 5.0  # lofo span duration
    assert m["pipeline.self_s"] + children == m["pipeline.train_s"] == 10.0
    assert m["explainers.lofo_s"] == 3.0  # 5 s minus the merged fits [5, 7]
    assert m["models.gbt.fit_s"] == 2.5  # summed durations, not merged
    assert m["irt.converged_frac"] == 0.0


def test_tracer_records_nesting_and_counts():
    t = tracing.Tracer()
    inner = t.wrap("models.knn.predict", lambda x: x, tracing._predict_count("knn"))
    outer = t.wrap("explainers.shap", lambda: inner([1, 2, 3]))
    outer()
    assert [(s[0], s[3]) for s in t.spans] == [("explainers.shap", -1),
                                                ("models.knn.predict", 0)]
    assert t.counts["models.knn.predict_rows"] == 3


EXPECT = {"features": ["a", "b", "c"], "models": ["gbt", "knn"], "levels": ["0", "10"],
          "explainers": ["shap", "exirt"]}


def _report():
    ranks = [{"explainer": e, "model_kind": k, "perturbation_fraction": f,
              "ordered_features": ["c", "a", "b"]}
             for e, k, f in itertools.product(EXPECT["explainers"], EXPECT["models"],
                                              (0.0, 0.1))]
    cell = {"accuracy": 0.7, "precision": 0.6, "recall": 0.5, "f1": 0.55, "roc_auc": 0.8}
    return {
        "ranks": ranks,
        "metrics": {k: {lvl: dict(cell) for lvl in EXPECT["levels"]}
                    for k in EXPECT["models"]},
        "stability": [{"explainer": "shap", "model_kind": "gbt",
                       "rho_by_fraction": {"10": -0.5}}],
    }


def test_check_accepts_a_complete_report():
    assert check.check_report(_report(), EXPECT) == []


def test_check_rejects_a_missing_rank():
    report = _report()
    del report["ranks"][3]
    errors = check.check_report(report, EXPECT)
    assert any("missing rank" in e for e in errors)
    assert any("7 ranks" in e for e in errors)


def test_check_rejects_an_out_of_range_rho():
    report = _report()
    report["stability"][0]["rho_by_fraction"]["10"] = 1.5
    assert any("rho" in e for e in check.check_report(report, EXPECT))


def test_check_rejects_a_rank_that_is_not_a_permutation():
    report = _report()
    report["ranks"][0]["ordered_features"] = ["a", "a", "b"]
    assert any("permutation" in e for e in check.check_report(report, EXPECT))


def test_check_rejects_an_out_of_range_metric():
    report = _report()
    report["metrics"]["knn"]["10"]["roc_auc"] = 1.01
    assert any("roc_auc" in e for e in check.check_report(report, EXPECT))


def test_history_check():
    assert check.check_history([-5.0, -4.0, -4.0])
    assert not check.check_history([-5.0, -4.0, -4.5])
