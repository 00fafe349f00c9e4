"""Classifier families, cross-validated tuning and model serialization."""

import numpy as np
import pytest

from xaibench.data import Dataset, DatasetError
from xaibench.metrics import roc_auc_score
from xaibench.models import (
    MODEL_KINDS,
    DecisionTreeClassifier,
    GradientBoostedTrees,
    KNearestNeighbors,
    MultilayerPerceptron,
    default_grids,
    load_model,
    save_model,
    stratified_kfold,
    train,
)

from conftest import make_signal_noise_dataset


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
        clone = DecisionTreeClassifier.from_dict(tree.to_dict())
        assert np.array_equal(clone.predict_proba(x), tree.predict_proba(x))


class TestGradientBoostedTrees:
    def test_training_loss_decreases(self):
        x, y = separable(seed=4)
        gbt = GradientBoostedTrees(n_rounds=40)
        gbt.fit(x, y)
        losses = gbt.train_loss_
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
        clone = GradientBoostedTrees.from_dict(gbt.to_dict())
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
    def test_save_load_round_trip(self, kind, tmp_path, signal_noise_data):
        model = train(kind, signal_noise_data, 4, seed=11)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == model.kind
        assert loaded.feature_names == model.feature_names
        assert loaded.hyperparams == model.hyperparams
        assert np.allclose(loaded.predict_proba(signal_noise_data.features),
                           model.predict_proba(signal_noise_data.features))
