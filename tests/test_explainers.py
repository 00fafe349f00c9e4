"""The six relevance rankers plus the shared rank machinery."""

import numpy as np
import pytest

from xaibench.data import Dataset
from xaibench.explainers import (
    EXPLAINERS,
    ExplainerConfig,
    ExplainerError,
    RelevanceRank,
    brute_force_shapley,
    explain_dalex_style,
    explain_eli5_style,
    explain_exirt,
    explain_kernel_shap,
    explain_lofo_style,
    explain_skater_style,
    rank_from_scores,
    shapley_values,
)
from xaibench.models import train

from conftest import LinearProbaModel, make_signal_noise_dataset


@pytest.fixture(scope="module")
def fitted():
    """A gbt model trained on signal/helper/noise data, plus the splits."""
    data = make_signal_noise_dataset(n_rows=260, seed=3)
    train_data = data.take(np.arange(0, 180))
    test_data = data.take(np.arange(180, 260))
    model = train("gbt", train_data, 4, seed=19)
    return model, train_data, test_data


class TestRankMachinery:
    def test_rank_from_scores_sorts_descending(self):
        rank = rank_from_scores(("a", "b", "c"), [0.1, 0.9, 0.5], "eli5", "gbt")
        assert rank.ordered_features == ("b", "c", "a")
        assert rank.scores == (0.9, 0.5, 0.1)

    def test_ties_break_by_feature_index(self):
        rank = rank_from_scores(("a", "b", "c"), [0.5, 0.5, 0.5], "eli5", "gbt")
        assert rank.ordered_features == ("a", "b", "c")

    def test_positions_are_one_based(self):
        rank = rank_from_scores(("a", "b"), [0.0, 1.0], "eli5", "gbt")
        assert rank.positions() == {"b": 1, "a": 2}

    def test_non_monotone_scores_rejected(self):
        with pytest.raises(ExplainerError):
            RelevanceRank(("a", "b"), (0.1, 0.9), "eli5", "gbt")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ExplainerError):
            RelevanceRank(("a", "b"), (0.1,), "eli5", "gbt")

    def test_config_validation(self):
        with pytest.raises(ExplainerError):
            ExplainerConfig(repetitions=0)
        with pytest.raises(ExplainerError):
            ExplainerConfig(cv_folds=1)
        with pytest.raises(ExplainerError):
            ExplainerConfig(bootstrap_respondents=-1)


class TestShapley:
    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(2)
        model = LinearProbaModel([1.0, -2.0, 0.5], bias=0.3)
        x = rng.normal(size=3)
        ref = rng.normal(size=3)
        brute = brute_force_shapley(model.predict_proba, x, ref)
        kernel = shapley_values(model, x[None, :], ref,
                                ExplainerConfig(seed=0), exact=True)[0]
        assert np.max(np.abs(kernel - brute)) <= 1e-9

    def test_efficiency(self):
        rng = np.random.default_rng(3)
        model = LinearProbaModel(rng.normal(size=5))
        xs = rng.normal(size=(20, 5))
        ref = rng.normal(size=5)
        phi = shapley_values(model, xs, ref, ExplainerConfig(seed=0), exact=True)
        f0 = model.predict_proba(ref[None, :])[0]
        assert np.allclose(phi.sum(axis=1), model.predict_proba(xs) - f0, atol=1e-9)

    def test_single_feature_is_direct_difference(self):
        model = LinearProbaModel([2.0])
        x = np.array([[1.0]])
        ref = np.array([0.0])
        phi = shapley_values(model, x, ref, ExplainerConfig(seed=0))
        expected = model.predict_proba(x) - model.predict_proba(ref[None, :])
        assert np.allclose(phi[:, 0], expected)

    def test_sampled_close_to_exact(self):
        rng = np.random.default_rng(4)
        model = LinearProbaModel(rng.normal(size=6))
        xs = rng.normal(size=(5, 6))
        ref = rng.normal(size=6)
        cfg = ExplainerConfig(seed=0, coalition_budget=2048)
        exact = shapley_values(model, xs, ref, cfg, exact=True)
        sampled = shapley_values(model, xs, ref, cfg, exact=False)
        assert np.max(np.abs(exact - sampled)) <= 0.05

    def test_budget_too_small_rejected(self):
        model = LinearProbaModel(np.ones(6))
        with pytest.raises(ExplainerError):
            shapley_values(model, np.ones((1, 6)), np.zeros(6),
                           ExplainerConfig(seed=0, coalition_budget=4), exact=False)

    def test_irrelevant_feature_gets_zero(self):
        model = LinearProbaModel([1.5, 0.0])  # second feature ignored
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(10, 2))
        ref = rng.normal(size=2)
        phi = shapley_values(model, xs, ref, ExplainerConfig(seed=0), exact=True)
        assert np.max(np.abs(phi[:, 1])) <= 1e-9


class TestRankers:
    def test_signal_outranks_noise_everywhere(self, fitted):
        model, train_data, test_data = fitted
        cfg = ExplainerConfig(seed=13)
        ranks = [
            explain_dalex_style(model, train_data, test_data, cfg),
            explain_eli5_style(model, train_data, test_data, cfg),
            explain_lofo_style(model, train_data, test_data, cfg),
            explain_kernel_shap(model, train_data, test_data, cfg),
            explain_skater_style(model, train_data, test_data, cfg),
            explain_exirt(model, train_data, test_data, cfg)[0],
        ]
        assert sorted(r.explainer for r in ranks) == sorted(EXPLAINERS)
        for rank in ranks:
            pos = rank.positions()
            assert pos["signal"] < pos["noise_0"], rank.explainer
            assert set(rank.ordered_features) == set(test_data.feature_names)

    def test_deterministic_given_config(self, fitted):
        model, train_data, test_data = fitted
        cfg = ExplainerConfig(seed=13)
        a = explain_eli5_style(model, train_data, test_data, cfg)
        b = explain_eli5_style(model, train_data, test_data, cfg)
        assert a == b
        c = explain_eli5_style(model, train_data, test_data, ExplainerConfig(seed=14))
        assert c.explainer == "eli5"  # may or may not equal a; only shape-checked

    def test_schema_mismatch_rejected(self, fitted):
        model, train_data, test_data = fitted
        wrong = Dataset(test_data.features[:, 1:], test_data.labels,
                        test_data.feature_names[1:])
        with pytest.raises(ExplainerError):
            explain_eli5_style(model, train_data, wrong, ExplainerConfig(seed=0))

    def test_lofo_records_fold_dispersion(self, fitted):
        model, train_data, test_data = fitted
        rank = explain_lofo_style(model, train_data, test_data, ExplainerConfig(seed=13))
        assert rank.score_std is not None
        assert len(rank.score_std) == test_data.n_features
        assert all(s >= 0 for s in rank.score_std)

    def test_exirt_returns_fit_with_pool_sized_matrix(self, fitted):
        model, train_data, test_data = fitted
        cfg = ExplainerConfig(seed=13, bootstrap_respondents=5)
        rank, fit = explain_exirt(model, train_data, test_data, cfg)
        # pool = original + one probe per feature + bootstrap respondents
        assert len(fit.abilities.theta) == 1 + test_data.n_features + 5
        assert rank.explainer == "exirt"

    def test_exirt_ignored_feature_scores_zero(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(120, 2))
        labels = (x[:, 0] > 0).astype(int)
        data = Dataset(x, labels, ("used", "ignored"))
        model = train("cart", data, 4, seed=5)
        assert model.estimator.features_used() == {0}
        rank, _ = explain_exirt(model, data, data, ExplainerConfig(seed=9))
        assert rank.scores[rank.ordered_features.index("ignored")] == 0.0
