"""The six relevance rankers plus the shared rank machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xaibench.data import Dataset, DatasetError, to_record
from xaibench.explainers import (
    DALEX_SUBSAMPLE,
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
    lofo_refits,
    rank_from_scores,
    shapley_values,
    _stratified_subsample,
)
from xaibench.irt import ResponseMatrix, fit_3pl
from xaibench.metrics import accuracy_score, labels_from_proba, roc_auc_score
from xaibench.models import MODEL_KINDS, stratified_kfold, train
from xaibench.models.training import build_estimator
from xaibench.seeding import derive_seed, rng_for

from conftest import LinearProbaModel, make_signal_noise_dataset


@pytest.fixture(scope="module")
def fitted():
    """A gbt model trained on signal/helper/noise data, plus the splits."""
    data = make_signal_noise_dataset(n_rows=260, seed=3)
    train_data = data.take(np.arange(0, 180))
    test_data = data.take(np.arange(180, 260))
    model = train("gbt", train_data, 4, seed=19)
    return model, train_data, test_data


def ref_dalex(model, test, cfg):
    """dalex with one predict_proba call per subsample and per inversion."""
    col_mean = test.features.mean(axis=0)
    drops = np.zeros(test.n_features)
    for rep in range(cfg.repetitions):
        idx = _stratified_subsample(test.labels, DALEX_SUBSAMPLE, rng_for(cfg.seed, "dalex", rep))
        x, y = test.features[idx], test.labels[idx]
        base_auc = roc_auc_score(y, model.predict_proba(x))
        for j in range(test.n_features):
            inv = np.array(x, copy=True)
            inv[:, j] = 2.0 * col_mean[j] - inv[:, j]
            drops[j] += base_auc - roc_auc_score(y, model.predict_proba(inv))
    return rank_from_scores(test.feature_names, drops / cfg.repetitions, "dalex", model.kind)


def ref_shuffled(test, j, rng):
    x = np.array(test.features, copy=True)
    x[:, j] = x[rng.permutation(test.n_rows), j]
    return x


def ref_eli5(model, test, cfg):
    """eli5 with one predict_proba call per shuffle."""
    y = test.labels
    base_acc = accuracy_score(y, labels_from_proba(model.predict_proba(test.features)))
    drops = np.zeros(test.n_features)
    for j, name in enumerate(test.feature_names):
        for rep in range(cfg.repetitions):
            x = ref_shuffled(test, j, rng_for(cfg.seed, "eli5", name, rep))
            drops[j] += base_acc - accuracy_score(y, labels_from_proba(model.predict_proba(x)))
    return rank_from_scores(test.feature_names, drops / cfg.repetitions, "eli5", model.kind)


def ref_skater(model, test, cfg):
    """skater with one predict_proba call per shuffle."""
    def entropy(p):
        p = np.clip(p, 1e-12, 1 - 1e-12)
        return -(p * np.log2(p) + (1 - p) * np.log2(1 - p))

    base = entropy(model.predict_proba(test.features))
    scores = np.zeros(test.n_features)
    for j, name in enumerate(test.feature_names):
        for rep in range(cfg.repetitions):
            x = ref_shuffled(test, j, rng_for(cfg.seed, "skater", name, rep))
            scores[j] += float(np.mean(np.abs(entropy(model.predict_proba(x)) - base)))
    return rank_from_scores(test.feature_names, scores / cfg.repetitions, "skater", model.kind)


def ref_exirt(model, test, cfg):
    """eXirt built from label vectors: each respondent's 0/1 predictions, one
    predict_proba call per respondent, scored against the test labels.  The
    pool is the original model, one probe per feature, then the bootstrap
    respondents, and abilities are read by that position."""
    y = test.labels
    base_labels = (model.predict_proba(test.features) >= 0.5).astype(int)
    pool = [base_labels]
    for j, name in enumerate(test.feature_names):
        x = ref_shuffled(test, j, rng_for(cfg.seed, "exirt", name))
        pool.append((model.predict_proba(x) >= 0.5).astype(int))
    base_correct = (base_labels == y).astype(int)
    for b in range(cfg.bootstrap_respondents):
        rng = rng_for(cfg.seed, "exirt-bootstrap", b)
        resample = rng.integers(0, test.n_rows, size=test.n_rows)
        selected = np.zeros(test.n_rows, dtype=bool)
        selected[np.unique(resample)] = True
        pool.append(np.where(selected & (base_correct == 1), y, 1 - y))
    fit = fit_3pl(ResponseMatrix(np.array([(labels == y).astype(int) for labels in pool])))
    theta = fit.theta
    scores = [theta[0] - theta[1 + j] for j in range(test.n_features)]
    return rank_from_scores(test.feature_names, scores, "exirt", model.kind), fit


def ref_lofo_refits(model, train_data, cfg):
    """lofo refits fitted one net at a time, each with its own ``fit`` call
    on the stream ``lofo_refits`` gives it."""
    y = train_data.labels
    m = train_data.n_features
    refits = []
    folds = stratified_kfold(y, cfg.cv_folds, derive_seed(cfg.seed, "lofo-folds"))
    for fi, (tr, _) in enumerate(folds):
        x_fold, y_fold = train_data.features[tr], y[tr]
        base = build_estimator(model.kind, model.hyperparams)
        base.fit(x_fold, y_fold, rng=rng_for(cfg.seed, "lofo", fi, "base"))
        without = [float(np.mean(y_fold))] if m == 1 else [
            build_estimator(model.kind, model.hyperparams).fit(
                np.delete(x_fold, j, axis=1), y_fold, rng=rng_for(cfg.seed, "lofo", fi, j))
            for j in range(m)]
        refits.append((base, without))
    return refits


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_efficiency(self, m, exact, seed):
        """Sum of phi = f(x) - f(ref), exact and sampled (Lundberg & Lee 2017)."""
        rng = np.random.default_rng(seed)
        model = LinearProbaModel(rng.normal(size=m), bias=rng.normal())
        xs = rng.normal(size=(5, m))
        ref = rng.normal(size=m)
        cfg = ExplainerConfig(seed=seed, coalition_budget=64)
        phi = shapley_values(model, xs, ref, cfg, exact=exact)
        f0 = model.predict_proba(ref[None, :])[0]
        assert np.allclose(phi.sum(axis=1), model.predict_proba(xs) - f0, rtol=0, atol=1e-9)

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
        with pytest.raises(DatasetError, match="^model expects 3 features, got 2$"):
            explain_eli5_style(model, train_data, wrong, ExplainerConfig(seed=0))

    def test_lofo_records_fold_dispersion(self, fitted):
        model, train_data, test_data = fitted
        rank = explain_lofo_style(model, train_data, test_data, ExplainerConfig(seed=13))
        assert rank.score_std is not None
        assert len(rank.score_std) == test_data.n_features
        assert all(s >= 0 for s in rank.score_std)

    def test_lofo_prebuilt_refits_score_like_a_plain_call(self, fitted):
        model, train_data, test_data = fitted
        cfg = ExplainerConfig(seed=13, cv_folds=3)
        refits = lofo_refits(model, train_data, cfg)
        assert len(refits) == 3
        assert all(len(without) == train_data.n_features for _, without in refits)
        assert (explain_lofo_style(model, train_data, test_data, cfg, 0.1, refits=refits)
                == explain_lofo_style(model, train_data, test_data, cfg, 0.1))

    def test_lofo_single_feature_refits_are_positive_rates(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 1))
        data = Dataset(x, (x[:, 0] > 0).astype(int), ("only",))
        model = train("cart", data, 4, seed=5)
        cfg = ExplainerConfig(seed=2)
        refits = lofo_refits(model, data, cfg)
        assert all(isinstance(without[0], float) for _, without in refits)
        assert (explain_lofo_style(model, data, data, cfg, refits=refits)
                == explain_lofo_style(model, data, data, cfg))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_lofo_mlp_refits_equal_one_net_at_a_time(self, m):
        data = make_signal_noise_dataset(n_rows=150, seed=4)
        data = Dataset(data.features[:, :m], data.labels, data.feature_names[:m])
        train_data, test_data = data.take(np.arange(100)), data.take(np.arange(100, 150))
        model = train("mlp", train_data, 2, seed=21)
        cfg = ExplainerConfig(seed=13, cv_folds=3)
        refits = lofo_refits(model, train_data, cfg)
        want = ref_lofo_refits(model, train_data, cfg)
        assert len(refits) == len(want) == 3
        for (base, without), (want_base, want_without) in zip(refits, want):
            assert len(without) == len(want_without) == m
            for net, want_net in zip([base, *without], [want_base, *want_without]):
                if isinstance(want_net, float):
                    assert net == want_net  # the constant predictor
                else:
                    assert to_record(net) == to_record(want_net)
        assert (to_record(explain_lofo_style(model, train_data, test_data, cfg, refits=refits))
                == to_record(explain_lofo_style(model, train_data, test_data, cfg, refits=want)))

    def test_exirt_returns_fit_with_pool_sized_matrix(self, fitted):
        model, train_data, test_data = fitted
        cfg = ExplainerConfig(seed=13, bootstrap_respondents=5)
        rank, fit = explain_exirt(model, train_data, test_data, cfg)
        # pool = original + one probe per feature + bootstrap respondents
        assert len(fit.theta) == 1 + test_data.n_features + 5
        assert rank.explainer == "exirt"

    @pytest.mark.parametrize("kind, bootstrap", [("gbt", 3), ("knn", 20), ("cart", 4),
                                                 ("mlp", 4)])
    def test_exirt_matches_the_label_vector_reference(self, fitted, kind, bootstrap):
        _, train_data, test_data = fitted
        # knn misses some test rows, so bootstrap rows differ from plain selections
        model = train(kind, train_data, 4, seed=19)
        cfg = ExplainerConfig(seed=13, bootstrap_respondents=bootstrap)
        rank, fit = explain_exirt(model, train_data, test_data, cfg)
        want_rank, want_fit = ref_exirt(model, test_data, cfg)
        assert rank == want_rank
        assert to_record(fit) == to_record(want_fit)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_batched_explainers_equal_a_predict_call_per_variant(self, fitted, kind):
        # gbt, cart and knn score every variant in one stacked call, mlp one per block
        _, train_data, test_data = fitted
        model = train(kind, train_data, 4, seed=19)
        cfg = ExplainerConfig(seed=13, repetitions=3)
        for explain, ref in ((explain_dalex_style, ref_dalex), (explain_eli5_style, ref_eli5),
                             (explain_skater_style, ref_skater)):
            assert (to_record(explain(model, train_data, test_data, cfg))
                    == to_record(ref(model, test_data, cfg))), explain.__name__

    def test_exirt_ignored_feature_scores_zero(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(120, 2))
        labels = (x[:, 0] > 0).astype(int)
        data = Dataset(x, labels, ("used", "ignored"))
        model = train("cart", data, 4, seed=5)
        assert model.estimator.features_used() == {0}
        rank, _ = explain_exirt(model, data, data, ExplainerConfig(seed=9))
        assert rank.scores[rank.ordered_features.index("ignored")] == 0.0
