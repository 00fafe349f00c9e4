"""Classifier families, cross-validated tuning and model serialization."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xaibench.data import Dataset, DatasetError, from_record, to_record
from xaibench.metrics import roc_auc_score
from xaibench.models import (
    MODEL_KINDS,
    DecisionTreeClassifier,
    GradientBoostedTrees,
    KNearestNeighbors,
    MultilayerPerceptron,
    default_grids,
    stratified_kfold,
    train,
)
from xaibench.models.training import ROW_EXACT, TrainedModel, build_estimator
from xaibench.seeding import rng_for

from conftest import make_signal_noise_dataset


def blend_proba(predict_proba, x, background, z):
    """(n, K) ``predict_proba`` of the materialized coalition blends: row
    (i, c) takes x[i, j] where z[c, j] is 1 and background[j] where it is 0."""
    (n, m), k = x.shape, len(z)
    blends = z[None, :, :] * x[:, None, :] + (1.0 - z[None, :, :]) * background[None, None, :]
    return predict_proba(blends.reshape(n * k, m)).reshape(n, k)


class Overshoot:
    """Row sums as scores: they leave [0, 1], so the wrapper must clip them."""

    def predict_proba(self, x):
        return x.sum(axis=1)


class OvershootCoalitions(Overshoot):
    """The same scores, with a coalition method as kNN has."""

    def predict_coalitions(self, x, background, z):
        return blend_proba(self.predict_proba, x, background, z)


class CountingOvershoot(Overshoot):
    """Overshoot that records the row count of each call."""

    def __init__(self):
        self.calls = []

    def predict_proba(self, x):
        self.calls.append(len(x))
        return super().predict_proba(x)


def ref_train(kind, train_data, folds, seed):
    """``train`` with a fit per grid candidate and fold."""
    y, x = train_data.labels, train_data.features
    splits = stratified_kfold(y, folds, seed)
    best_params, best_score = None, -np.inf
    for pi, params in enumerate(default_grids()[kind]):
        scores = []
        for fi, (tr, val) in enumerate(splits):
            est = build_estimator(kind, params)
            est.fit(x[tr], y[tr], rng=rng_for(seed, "cv", pi, fi))
            scores.append(roc_auc_score(y[val], est.predict_proba(x[val])))
        mean_auc = float(np.mean(scores))
        if mean_auc > best_score + 1e-12:
            best_score, best_params = mean_auc, params
    est = build_estimator(kind, best_params)
    est.fit(x, y, rng=rng_for(seed, "final"))
    return TrainedModel(kind, est, train_data.n_features, train_data.feature_names, seed,
                        dict(best_params), best_score)


@pytest.fixture(scope="module")
def trained_kinds():
    data = make_signal_noise_dataset()
    return data, {kind: train(kind, data, 4, seed=11) for kind in MODEL_KINDS}


def separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, 3))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
    return x, y


class TestDecisionTree:
    def test_learns_a_threshold(self):
        x, y = separable()
        tree = DecisionTreeClassifier(max_depth=3)
        tree.fit(x, y)
        acc = np.mean((tree.predict_proba(x) >= 0.5) == y)
        assert acc >= 0.9

    def test_features_used_excludes_irrelevant(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 2))
        y = (x[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=4)
        tree.fit(x, y)
        assert tree.features_used() == {0}

    def test_max_depth_respected(self):
        x, y = separable(seed=2)
        deep = DecisionTreeClassifier(max_depth=None)
        deep.fit(x, y)
        # perfect fit when unconstrained on distinct rows
        assert np.mean((deep.predict_proba(x) >= 0.5) == y) == 1.0
        stump = DecisionTreeClassifier(max_depth=1)
        stump.fit(x, y)
        assert len(stump.features_used()) <= 1

    def test_serialization_round_trip(self):
        x, y = separable(seed=3)
        tree = DecisionTreeClassifier(max_depth=3)
        tree.fit(x, y)
        clone = from_record(DecisionTreeClassifier, to_record(tree))
        assert np.array_equal(clone.predict_proba(x), tree.predict_proba(x))


class TestGradientBoostedTrees:
    def test_training_loss_decreases(self):
        x, y = separable(seed=4)
        gbt = GradientBoostedTrees(n_rounds=40)
        gbt.fit(x, y)
        # the loss after round k is that of the model made of the first k trees
        losses = []
        for k in range(1, 41):
            p = replace(gbt, trees=gbt.trees[:k]).predict_proba(x)
            p = np.clip(p, 1e-12, 1 - 1e-12)
            losses.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
        assert len(losses) == 40
        assert losses[-1] < losses[0]
        assert min(losses) == losses[-1] or losses[-1] <= losses[0] * 0.5

    def test_beats_single_tree_on_auc(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(400, 4))
        y = ((x[:, 0] * x[:, 1] + 0.5 * x[:, 2]) > 0).astype(int)
        x_test = rng.normal(size=(200, 4))
        y_test = ((x_test[:, 0] * x_test[:, 1] + 0.5 * x_test[:, 2]) > 0).astype(int)
        gbt = GradientBoostedTrees(n_rounds=100, max_depth=3)
        gbt.fit(x, y)
        stump = DecisionTreeClassifier(max_depth=1)
        stump.fit(x, y)
        assert (roc_auc_score(y_test, gbt.predict_proba(x_test))
                > roc_auc_score(y_test, stump.predict_proba(x_test)))

    def test_serialization_round_trip(self):
        x, y = separable(seed=6)
        gbt = GradientBoostedTrees(n_rounds=10)
        gbt.fit(x, y)
        clone = from_record(GradientBoostedTrees, to_record(gbt))
        assert np.allclose(clone.predict_proba(x), gbt.predict_proba(x))


class TestKNearestNeighbors:
    def test_matches_manual_neighbors(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
        y = np.array([0, 0, 0, 1, 1])
        knn = KNearestNeighbors(k=3)
        knn.fit(x, y)
        proba = knn.predict_proba(np.array([[0.5], [10.5]]))
        assert proba[0] == 0.0
        assert proba[1] == pytest.approx(2 / 3)

    def test_k_one_memorizes(self):
        x, y = separable(seed=7)
        knn = KNearestNeighbors(k=1)
        knn.fit(x, y)
        assert np.array_equal((knn.predict_proba(x) >= 0.5).astype(int), y)


class TestMultilayerPerceptron:
    def test_learns_separable_data(self):
        x, y = separable(n=300, seed=8)
        mlp = MultilayerPerceptron(hidden_units=8)
        mlp.fit(x, y, rng=np.random.default_rng(0))
        assert np.mean((mlp.predict_proba(x) >= 0.5) == y) >= 0.9

    def test_deterministic_given_rng_seed(self):
        x, y = separable(seed=9)
        a = MultilayerPerceptron(hidden_units=8)
        a.fit(x, y, rng=np.random.default_rng(3))
        b = MultilayerPerceptron(hidden_units=8)
        b.fit(x, y, rng=np.random.default_rng(3))
        assert np.array_equal(a.predict_proba(x), b.predict_proba(x))


class TestStratifiedKfold:
    def test_partition_properties(self):
        labels = np.array([0] * 60 + [1] * 40)
        folds = stratified_kfold(labels, 4, seed=1)
        assert len(folds) == 4
        all_val = np.concatenate([val for _, val in folds])
        assert sorted(all_val) == list(range(100))
        for tr, val in folds:
            assert len(np.intersect1d(tr, val)) == 0
            # rough class balance in every validation fold
            assert 8 <= np.sum(labels[val] == 1) <= 12


class TestTrain:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_all_kinds_fit_and_score(self, kind, signal_noise_data):
        model = train(kind, signal_noise_data, 4, seed=11)
        assert model.kind == kind
        assert model.cv_score > 0.6
        assert model.hyperparams in default_grids()[kind]
        proba = model.predict_proba(signal_noise_data.features)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_deterministic(self, signal_noise_data):
        a = train("gbt", signal_noise_data, 4, seed=11)
        b = train("gbt", signal_noise_data, 4, seed=11)
        assert a.hyperparams == b.hyperparams
        assert np.array_equal(a.predict_proba(signal_noise_data.features),
                              b.predict_proba(signal_noise_data.features))

    def test_single_class_rejected(self):
        data = Dataset(np.random.default_rng(0).normal(size=(20, 2)),
                       np.zeros(20, dtype=int), ("a", "b"))
        with pytest.raises(DatasetError):
            train("cart", data, 4, seed=0)

    def test_unknown_kind_rejected(self, signal_noise_data):
        with pytest.raises(ValueError):
            train("svm", signal_noise_data, 4, seed=0)

    def test_predict_proba_checks_dimensions(self, signal_noise_data):
        model = train("cart", signal_noise_data, 4, seed=11)
        with pytest.raises(ValueError):
            model.predict_proba(np.ones((4, 99)))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_coalitions_equals_predict_proba_on_the_blends(self, kind,
                                                                   signal_noise_data):
        # knn scores the coalitions itself; gbt, cart and mlp predict the blends
        model = train(kind, signal_noise_data, 4, seed=11)
        x = signal_noise_data.features[:7]
        background = signal_noise_data.features.mean(axis=0)
        z = ((np.arange(8)[:, None] >> np.arange(3)) & 1).astype(float)
        want = blend_proba(model.predict_proba, x, background, z)
        assert model.predict_coalitions(x, background, z).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_coalitions_of_no_coalition_is_empty(self, kind, signal_noise_data):
        # a one-feature kernel SHAP has no proper coalition to score
        model = train(kind, signal_noise_data, 4, seed=11)
        x = signal_noise_data.features[:7]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.predict_coalitions(x, x.mean(axis=0), np.zeros((0, 3)))
        assert got.shape == (7, 0) and got.dtype == float

    @pytest.mark.parametrize("estimator", [Overshoot(), OvershootCoalitions()])
    def test_predict_coalitions_checks_and_clips_like_predict_proba(self, estimator):
        model = TrainedModel("knn", estimator, 2, ("a", "b"), 0, {}, 0.5)
        x = np.array([[0.25, 0.5], [-2.0, 3.0]])
        background = np.array([-1.0, 0.0])
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        got = model.predict_coalitions(x, background, z)
        assert got.tolist() == [[0.0, 0.25, 0.0, 0.75], [0.0, 0.0, 1.0, 1.0]]
        assert got.tobytes() == blend_proba(model.predict_proba, x, background, z).tobytes()
        with pytest.raises(DatasetError, match="expects 2 features, got 3"):
            model.predict_coalitions(np.ones((2, 3)), np.ones(3), np.ones((1, 3)))

    @pytest.mark.parametrize("seed, winner", [(0, {"n_rounds": 100, "max_depth": 3}),
                                              (2, {"n_rounds": 50, "max_depth": 3}),
                                              (1, {"n_rounds": 100, "max_depth": 2})])
    def test_gbt_tuning_by_prefix_equals_a_fit_per_candidate(self, seed, winner):
        # the 50-round candidate is scored from the 100-round fit's first trees
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(80, 3))
        data = Dataset(x, (x[:, 0] + rng.normal(size=80) > 0).astype(int), ("a", "b", "c"))
        got, want = train("gbt", data, 3, seed), ref_train("gbt", data, 3, seed)
        assert got.hyperparams == dict(winner, learning_rate=0.1) == want.hyperparams
        assert got.cv_score.hex() == want.cv_score.hex()
        assert to_record(got.estimator) == to_record(want.estimator)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MODEL_KINDS),
           st.lists(st.one_of(st.just(1), st.integers(1, 300)), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_predict_blocks_equals_a_call_per_block(self, trained_kinds, kind, sizes, seed):
        # blocks over 256 rows cross knn's distance chunks at other offsets
        data, models = trained_kinds
        rng = np.random.default_rng(seed)
        blocks = [data.features[rng.integers(0, data.n_rows, n)] for n in sizes]
        for x in blocks[::2]:  # shuffled and off-grid values, as explainers make
            x[:, rng.integers(x.shape[1])] = rng.normal(size=len(x)) * 3.0
        got = models[kind].predict_blocks(blocks)
        assert len(got) == len(blocks)
        for proba, x in zip(got, blocks):
            assert proba.tobytes() == models[kind].predict_proba(x).tobytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_blocks_stacks_only_row_exact_kinds(self, kind):
        estimator = CountingOvershoot()
        model = TrainedModel(kind, estimator, 2, ("a", "b"), 0, {}, 0.5)
        blocks = [[[0.25, 0.5], [-2.0, 3.0]], [[0.5, 0.25]], [[1.0, 1.0], [0.0, 0.0]]]
        got = model.predict_blocks(blocks)
        assert [p.tolist() for p in got] == [[0.75, 1.0], [0.75], [1.0, 0.0]]
        assert estimator.calls == ([5] if kind in ROW_EXACT else [2, 1, 2])
        with pytest.raises(DatasetError, match="expects 2 features, got 3"):
            model.predict_blocks([np.ones((1, 2)), np.ones((1, 3))])

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_save_load_round_trip(self, kind, signal_noise_data):
        model = train(kind, signal_noise_data, 4, seed=11)
        loaded = from_record(TrainedModel, json.loads(json.dumps(to_record(model))))
        assert loaded.kind == model.kind
        assert loaded.feature_names == model.feature_names
        assert loaded.hyperparams == model.hyperparams
        assert np.allclose(loaded.predict_proba(signal_noise_data.features),
                           model.predict_proba(signal_noise_data.features))
