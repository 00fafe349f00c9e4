"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
verdict lines.  The slow criteria share a single session-scoped default
pipeline run.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from xaibench.data import Dataset
from xaibench.datasets import write_synthetic_diabetes
from xaibench.explainers import (
    ExplainerConfig,
    brute_force_shapley,
    explain_dalex_style,
    explain_eli5_style,
    explain_exirt,
    explain_kernel_shap,
    explain_lofo_style,
    explain_skater_style,
    shapley_values,
)
from xaibench.irt import (
    X_MORE_RELIABLE,
    ReliabilitySummary,
    ResponseMatrix,
    fit_3pl,
    p_correct,
    reliability_compare,
)
from xaibench.models import train
from xaibench.pipeline import RunConfig, run_all
from xaibench.stability import spearman
from xaibench.explainers import RelevanceRank
from xaibench.stats import MeasurementTable, friedman, nemenyi

from conftest import as_trained


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} ({name}): {status} -- {detail}")
    assert ok, f"criterion {number:02d} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """One full pipeline run with the default configuration."""
    base = tmp_path_factory.mktemp("default-run")
    dataset_path = str(base / "data.csv")
    write_synthetic_diabetes(dataset_path)
    out_dir = str(base / "out")
    cfg = RunConfig(dataset=dataset_path, out_dir=out_dir)
    start = time.time()
    run_all(cfg)
    elapsed = time.time() - start
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    return {"cfg": cfg, "report": report, "out_dir": out_dir, "elapsed": elapsed}


def test_criterion_01_three_pl_evaluation():
    v = float(p_correct(1.54, -2.18, 0.14, 0.0))
    checks = [abs(v - 0.9711) <= 1e-3]
    for a, b, c in ((1.54, -2.18, 0.14), (0.9, 1.3, 0.0), (2.0, 0.0, 0.25)):
        checks.append(float(p_correct(a, b, c, b)) == c + (1.0 - c) / 2.0)
    _verdict(1, "3PL evaluation", all(checks),
             f"p_correct(1.54,-2.18,0.14,0)={v:.5f}; midpoint identity exact")


def test_criterion_02_irt_parameter_recovery():
    rng = np.random.default_rng(20240817)
    r, n = 200, 100
    a = rng.uniform(0.8, 2.0, n)
    b = rng.uniform(-2.0, 2.0, n)
    c = rng.uniform(0.0, 0.25, n)
    theta = rng.uniform(-2.0, 2.0, r)
    p = p_correct(a, b, c, theta[:, None])
    u = (rng.random((r, n)) < p).astype(int)
    matrix = ResponseMatrix(u)
    start = time.time()
    fit = fit_3pl(matrix)
    elapsed = time.time() - start
    corr = float(np.corrcoef(fit.theta, theta)[0, 1])
    b_err = float(np.mean(np.abs(fit.b - b)))
    sign_rate = float(np.mean(np.sign(fit.a) == np.sign(a)))
    monotone = bool(np.all(np.diff(fit.history) >= -1e-9))
    ok = (corr >= 0.85 and b_err <= 0.5 and sign_rate >= 0.80
          and monotone and elapsed < 60)
    _verdict(2, "IRT recovery", ok,
             f"corr={corr:.3f} mean|b_err|={b_err:.3f} sign_rate={sign_rate:.2f} "
             f"monotone={monotone} elapsed={elapsed:.1f}s")


class _QuadraticModel:
    """Nonlinear probability surface so the Shapley check is non-trivial."""

    kind = "quadratic"

    def __init__(self, m, seed=0):
        rng = np.random.default_rng(seed)
        self.w = rng.normal(0.0, 1.0, m)
        self.q = rng.normal(0.0, 0.5, (m, m))
        self.n_features = m

    def predict_proba(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = x @ self.w + np.einsum("ni,ij,nj->n", x, self.q, x) / self.n_features
        return 1.0 / (1.0 + np.exp(-z))


def test_criterion_03_shapley_correctness():
    start = time.time()
    rng = np.random.default_rng(42)
    cfg = ExplainerConfig(seed=5, coalition_budget=2048)
    exact_vs_brute = 0.0
    for m in range(2, 9):
        model = _QuadraticModel(m, seed=m)
        x = rng.normal(0.0, 1.0, m)
        ref = rng.normal(0.0, 1.0, m)
        brute = brute_force_shapley(model.predict_proba, x, ref)
        kernel = shapley_values(as_trained(model, m), x[None, :], ref, cfg, exact=True)[0]
        exact_vs_brute = max(exact_vs_brute, float(np.max(np.abs(kernel - brute))))
    model8 = _QuadraticModel(8, seed=1)
    xs = rng.normal(0.0, 1.0, (50, 8))
    ref = rng.normal(0.0, 1.0, 8)
    phi = shapley_values(as_trained(model8, 8), xs, ref, cfg, exact=True)
    f0 = float(model8.predict_proba(ref[None, :])[0])
    efficiency_gap = float(np.max(np.abs(
        phi.sum(axis=1) - (model8.predict_proba(xs) - f0))))
    model11 = _QuadraticModel(11, seed=2)
    xs11 = rng.normal(0.0, 1.0, (5, 11))
    ref11 = rng.normal(0.0, 1.0, 11)
    exact11 = shapley_values(as_trained(model11, 11), xs11, ref11, cfg, exact=True)
    sampled11 = shapley_values(as_trained(model11, 11), xs11, ref11, cfg, exact=False)
    sampled_gap = float(np.max(np.abs(exact11 - sampled11)))
    elapsed = time.time() - start
    ok = (exact_vs_brute <= 1e-6 and efficiency_gap <= 1e-6
          and sampled_gap <= 0.05 and elapsed < 60)
    _verdict(3, "Shapley correctness", ok,
             f"exact_vs_brute={exact_vs_brute:.2e} efficiency={efficiency_gap:.2e} "
             f"sampled_gap={sampled_gap:.4f} elapsed={elapsed:.1f}s")


def _rank_from_order(order, names):
    n = len(order)
    return RelevanceRank(
        ordered_features=tuple(names[i] for i in order),
        scores=tuple(float(n - k) for k in range(n)),
        explainer="test", model_kind="test")


def test_criterion_04_spearman_oracle():
    max_gap = 0.0
    for n in range(2, 6):
        names = tuple(f"f{i}" for i in range(n))
        for pa in itertools.permutations(range(n)):
            ra = _rank_from_order(pa, names)
            pos_a = ra.positions()
            for pb in itertools.permutations(range(n)):
                rb = _rank_from_order(pb, names)
                pos_b = rb.positions()
                va = np.array([pos_a[f] for f in names], dtype=float)
                vb = np.array([pos_b[f] for f in names], dtype=float)
                oracle = float(np.corrcoef(va, vb)[0, 1])
                max_gap = max(max_gap, abs(spearman(ra, rb) - oracle))
    names8 = tuple(f"f{i}" for i in range(8))
    identity = _rank_from_order(range(8), names8)
    swapped = _rank_from_order((0, 1, 2, 4, 3, 5, 6, 7), names8)
    rho = spearman(identity, swapped)
    expected = 1.0 - 6.0 * 2.0 / (8 * (64 - 1))  # 0.976190...
    adjacent_ok = abs(rho - expected) <= 1e-9 and f"{rho:.6f}" == "0.976190"
    ok = max_gap <= 1e-9 and adjacent_ok
    _verdict(4, "Spearman oracle", ok,
             f"max_gap_vs_pearson_on_ranks={max_gap:.2e} adjacent_swap_rho={rho:.6f}")


def test_criterion_05_friedman_nemenyi():
    blocks = ("m1", "m2", "m3")
    same = MeasurementTable(blocks, ("a", "b", "c", "d"),
                            np.tile(np.array([[0.4], [0.7], [0.2]]), (1, 4)))
    stat0, p0 = friedman(same)
    post0 = nemenyi(same)
    ordered = MeasurementTable(blocks, ("a", "b", "c"),
                               np.array([[0.1, 0.2, 0.3],
                                         [0.4, 0.5, 0.6],
                                         [0.7, 0.8, 0.9]]))
    stat6, _ = friedman(ordered)
    symmetric_ok = True
    rng = np.random.default_rng(9)
    for _ in range(5):
        table = MeasurementTable(blocks, ("a", "b", "c", "d"),
                                 rng.random((3, 4)))
        post = nemenyi(table)
        symmetric_ok &= bool(np.array_equal(post.p, post.p.T))
        symmetric_ok &= bool(np.all(np.diag(post.p) == 1.0))
    ok = (stat0 == 0.0 and abs(p0 - 1.0) <= 1e-9
          and bool(np.all(np.abs(post0.p - 1.0) <= 1e-9))
          and stat6 == 6.0 and symmetric_ok)
    _verdict(5, "Friedman/Nemenyi", ok,
             f"identical stat={stat0} p={p0}; ordered stat={stat6}; "
             f"symmetry/diag hold={symmetric_ok}")


def test_criterion_06_pipeline_trend(default_run):
    metrics = default_run["report"]["metrics"]
    trend_ok = all(metrics[kind]["10"]["roc_auc"] <= metrics[kind]["0"]["roc_auc"] + 0.02
                   for kind in metrics)
    gbt0 = metrics["gbt"]["0"]
    band_ok = 0.70 <= gbt0["accuracy"] <= 0.82 and 0.62 <= gbt0["roc_auc"] <= 0.80
    elapsed = default_run["elapsed"]
    ok = trend_ok and band_ok and elapsed < 600
    _verdict(6, "pipeline trend", ok,
             f"trend_ok={trend_ok} gbt0 acc={gbt0['accuracy']:.3f} "
             f"auc={gbt0['roc_auc']:.3f} elapsed={elapsed:.0f}s")


def test_criterion_07_reliability_direction(default_run):
    rel = default_run["report"]["reliability"]["gbt"]
    b_ok = rel["0"]["mean_difficulty"] <= rel["10"]["mean_difficulty"]
    c_ok = rel["0"]["mean_guessing"] <= rel["10"]["mean_guessing"]
    gbt = ReliabilitySummary(mean_difficulty=-2.18, mean_discrimination=1.54,
                             mean_guessing=0.14, mean_ability=0.0,
                             negative_item_count=0)
    mlp = ReliabilitySummary(mean_difficulty=-1.77, mean_discrimination=1.75,
                             mean_guessing=0.18, mean_ability=0.0,
                             negative_item_count=0)
    verdict = reliability_compare(gbt, mlp)
    ok = b_ok and c_ok and verdict == X_MORE_RELIABLE
    _verdict(7, "eXirt reliability direction", ok,
             f"gbt difficulty {rel['0']['mean_difficulty']:.2f}->"
             f"{rel['10']['mean_difficulty']:.2f} guessing "
             f"{rel['0']['mean_guessing']:.3f}->{rel['10']['mean_guessing']:.3f} "
             f"compare={verdict}")


def test_criterion_08_null_feature_soundness():
    rng = np.random.default_rng(31)
    n = 320
    signal = rng.normal(0.0, 1.0, n)
    helper = rng.normal(0.0, 1.0, n)
    noise = rng.normal(0.0, 1.0, n)
    labels = ((signal > 0.0) & (helper > 0.0)).astype(int)
    data = Dataset(np.column_stack([signal, helper, noise]), labels,
                   ("signal", "helper", "noise"))
    train_data = data.take(np.arange(0, 220))
    test_data = data.take(np.arange(220, n))
    model = train("cart", train_data, 4, seed=17)
    assert 2 not in model.estimator.features_used(), \
        "the cart model must never split on the noise feature"
    cfg = ExplainerConfig(seed=11)
    ranks = {
        "dalex": explain_dalex_style(model, train_data, test_data, cfg),
        "eli5": explain_eli5_style(model, train_data, test_data, cfg),
        "lofo": explain_lofo_style(model, train_data, test_data, cfg),
        "shap": explain_kernel_shap(model, train_data, test_data, cfg),
        "skater": explain_skater_style(model, train_data, test_data, cfg),
        "exirt": explain_exirt(model, train_data, test_data, cfg)[0],
    }
    tolerances = {"lofo": 0.02, "shap": 1e-9}
    failures = []
    for name, rank in ranks.items():
        last_feature = rank.ordered_features[-1]
        noise_score = rank.scores[rank.ordered_features.index("noise")]
        tol = tolerances.get(name, 1e-12)
        if last_feature != "noise" or abs(noise_score) > tol:
            failures.append(f"{name}: last={last_feature} score={noise_score!r}")
    _verdict(8, "null-feature soundness", not failures,
             "; ".join(failures) if failures else
             "all six explainers rank the noise feature last with score 0")


def _small_config(dataset_path, out_dir):
    return RunConfig(dataset=dataset_path, out_dir=out_dir,
                     models=("cart", "knn"), explainers=("eli5", "exirt", "shap"))


def test_criterion_09_determinism(tmp_path):
    dataset_path = str(tmp_path / "data.csv")
    write_synthetic_diabetes(dataset_path, seed=23)
    out_dir = str(tmp_path / "run")
    cfg = _small_config(dataset_path, out_dir)

    def snapshot():
        run_all(cfg)
        names = sorted(f for f in os.listdir(out_dir)
                       if f == "report.json" or f.endswith(".svg"))
        blobs = {}
        for name in names:
            with open(os.path.join(out_dir, name), "rb") as fh:
                blobs[name] = fh.read()
        return blobs

    first = snapshot()
    second = snapshot()
    mismatches = []
    if sorted(first) != sorted(second):
        mismatches.append("different artifact sets")
    mismatches.extend(name for name in first
                      if first.get(name) != second.get(name))
    _verdict(9, "determinism", not mismatches,
             f"compared {len(first)} artifacts byte-for-byte across two runs"
             + (f"; mismatched: {mismatches}" if mismatches else ""))


def test_criterion_10_artifact_counts(default_run):
    report = default_run["report"]
    n_ranks = len(report["ranks"])
    n_metrics = sum(len(v) for v in report["metrics"].values())
    n_reliability = sum(len(v) for v in report["reliability"].values())
    n_stability = len(report["stability"])
    n_posthoc = 1 if report["nemenyi"] is not None else 0
    ok = (n_ranks == 96 and n_metrics == 16 and n_reliability == 16
          and n_stability == 24 and n_posthoc == 1)
    _verdict(10, "artifact counts", ok,
             f"ranks={n_ranks} metrics={n_metrics} reliability={n_reliability} "
             f"stability={n_stability} posthoc={n_posthoc}")
