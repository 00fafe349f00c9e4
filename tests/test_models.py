"""Classifier families, cross-validated tuning and model serialization."""

import functools
import itertools
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xaibench import explainers
from xaibench.data import Dataset, DatasetError, from_record, to_record
from xaibench.metrics import roc_auc_score
from xaibench.models import (
    MODEL_KINDS,
    DecisionTreeClassifier,
    GradientBoostedTrees,
    KNearestNeighbors,
    MultilayerPerceptron,
    default_grids,
    knn,
    stratified_kfold,
    train,
)
from xaibench.models.training import ROW_EXACT, TrainedModel, build_estimator
from xaibench.seeding import rng_for

from conftest import LinearProbaModel, make_signal_noise_dataset


def materialize(values, ids):
    """(n, K, M) blend rows of the value tables (n, V, M) under the ids
    (K, M), one table at a time: blend (i, c) takes values[i, ids[c, j], j]."""
    out = np.empty((len(values), len(ids), values.shape[2]))
    for c, row in enumerate(ids):
        out[:, c] = values[:, 0]
        for v in range(1, values.shape[1]):
            out[:, c] = np.where(row == v, values[:, v], out[:, c])
    return out


def blend_proba(predict_proba, values, ids):
    """(n, K) ``predict_proba`` of the materialized blends, one call per blend."""
    blends = materialize(values, ids)
    proba = [predict_proba(np.ascontiguousarray(blends[:, c])) for c in range(len(ids))]
    return np.array(proba).reshape(len(ids), len(values)).T


class Overshoot:
    """Row sums as scores: they leave [0, 1], so the wrapper must clip them."""

    def predict_proba(self, x):
        return x.sum(axis=1)


class OvershootBlends(Overshoot):
    """The same scores, with a blend method as kNN has."""

    def predict_blends(self, values, ids):
        return blend_proba(self.predict_proba, values, ids)


class CountingOvershoot(Overshoot):
    """Overshoot that records the row count of each call."""

    def __init__(self):
        self.calls = []

    def predict_proba(self, x):
        self.calls.append(len(x))
        return super().predict_proba(x)


# one small fit per kind and width, shared by the blend property's examples
_PROPERTY_ESTIMATORS = {
    "gbt": lambda: GradientBoostedTrees(n_rounds=10, max_depth=2),
    "mlp": lambda: MultilayerPerceptron(hidden_units=4, epochs=20),
    "cart": lambda: DecisionTreeClassifier(max_depth=4),
    "knn": lambda: KNearestNeighbors(k=3),
}


@functools.lru_cache(maxsize=None)
def property_model(kind, m):
    """A TrainedModel of ``kind`` (or a bare linear model) over m features."""
    rng = np.random.default_rng(m)
    x = rng.normal(size=(60, m))
    y = (x.sum(axis=1) + rng.normal(size=60) > 0).astype(int)
    est = (LinearProbaModel(rng.normal(size=m)) if kind == "bare"
           else _PROPERTY_ESTIMATORS[kind]().fit(x, y, rng=rng_for(m, kind)))
    return TrainedModel(kind, est, m, tuple(f"x{j}" for j in range(m)), 0, {}, 0.5)


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
    def test_predict_coalitions_equals_predict_proba_on_the_blends(self, trained_kinds, kind):
        # kernel SHAP's call: tables (background, x), ids the coalitions z
        data, models = trained_kinds
        x = data.features[:7]
        background = np.broadcast_to(data.features.mean(axis=0), x.shape)
        values = np.stack([background, x], axis=1)
        z = (np.arange(8)[:, None] >> np.arange(3)) & 1
        want = blend_proba(models[kind].predict_proba, values, z)
        assert models[kind].predict_blends(values, z).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MODEL_KINDS), st.one_of(st.just(1), st.integers(1, 300)),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_predict_blocks_equals_a_call_per_block(self, trained_kinds, kind, n, t, seed):
        # the explainers' one-column copies of trained models on data rows,
        # each equal to a predict_proba call on that copy alone; over 128
        # rows, knn's blend blocks break at other offsets
        data, models = trained_kinds
        rng = np.random.default_rng(seed)
        base = data.features[rng.integers(0, data.n_rows, n)]
        tables = [rng.permutation(base) for _ in range(t)]
        for x in tables[::2]:  # shuffled and off-grid values, as explainers make
            x[:, rng.integers(x.shape[1])] = rng.normal(size=n) * 3.0
        got = explainers._copies(models[kind], base, tables)
        assert got.shape == (n, 1 + data.n_features * t)
        assert got[:, 0].tobytes() == models[kind].predict_proba(base).tobytes()
        for j, (r, x) in itertools.product(range(data.n_features), enumerate(tables)):
            copy = base.copy()
            copy[:, j] = x[:, j]
            assert got[:, 1 + j * t + r].tobytes() == models[kind].predict_proba(copy).tobytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_blends_of_no_blend_is_empty(self, trained_kinds, kind):
        # a one-feature kernel SHAP has no proper coalition to score
        data, models = trained_kinds
        values = np.stack([data.features[:7], data.features[7:14]], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = models[kind].predict_blends(values, np.zeros((0, 3), dtype=int))
        assert got.shape == (7, 0) and got.dtype == float

    @pytest.mark.parametrize("estimator", [Overshoot(), OvershootBlends()])
    def test_predict_blends_checks_and_clips_like_predict_proba(self, estimator):
        model = TrainedModel("knn", estimator, 2, ("a", "b"), 0, {}, 0.5)
        x = np.array([[0.25, 0.5], [-2.0, 3.0]])
        values = np.stack([np.broadcast_to([-1.0, 0.0], x.shape), x], axis=1)
        ids = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        got = model.predict_blends(values, ids)
        assert got.tolist() == [[0.0, 0.25, 0.0, 0.75], [0.0, 0.0, 1.0, 1.0]]
        assert got.tobytes() == blend_proba(model.predict_proba, values, ids).tobytes()
        with pytest.raises(DatasetError, match="expects 2 features, got 3"):
            model.predict_blends(np.ones((2, 2, 3)), np.ones((1, 3), dtype=int))

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

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(MODEL_KINDS + ("bare",)), st.data())
    def test_predict_blends_equals_predict_proba_on_the_blends(self, kind, data):
        # knn scores the blends itself, gbt and cart in one call, mlp and a
        # bare model one call per blend: each equals a call per materialized blend
        v, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 20))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        pool = rng.integers(0, v, size=(data.draw(st.integers(1, 30)), m))
        ids = pool[rng.integers(0, len(pool), size=data.draw(st.integers(0, 70)))]  # repeats
        rows = max(1, knn._BLENDS // max(len(ids), 1))  # knn's rows per block at this K
        n = data.draw(st.integers(1, 3 * rows + 1))
        if data.draw(st.booleans()):  # integer grid: many kNN distances tie
            values = rng.integers(-2, 3, size=(n, v, m)).astype(float)
        else:
            values = rng.normal(size=(n, v, m)) * 10.0 ** rng.integers(-3, 4, size=(n, v, m))
        model = property_model(kind, m)
        got = model.predict_blends(values, ids)
        assert got.shape == (n, len(ids))
        assert got.tobytes() == blend_proba(model.predict_proba, values, ids).tobytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS + ("bare",))
    def test_predict_blends_calls_row_exact_kinds_once(self, kind):
        estimator = CountingOvershoot()
        model = TrainedModel(kind, estimator, 2, ("a", "b"), 0, {}, 0.5)
        values = np.array([[[0.25, 0.5], [-2.0, 3.0], [0.5, 0.25]],
                           [[1.0, 1.0], [0.0, 0.0], [0.5, -0.5]]])  # (n, V, M) = (2, 3, 2)
        ids = np.array([[0, 0], [0, 2], [2, 1]])
        got = model.predict_blends(values, ids)
        assert got.tolist() == [[0.75, 0.5, 1.0], [1.0, 0.5, 0.5]]
        assert estimator.calls == ([6] if kind in ROW_EXACT else [2, 2, 2])

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_save_load_round_trip(self, kind, signal_noise_data):
        model = train(kind, signal_noise_data, 4, seed=11)
        loaded = from_record(TrainedModel, json.loads(json.dumps(to_record(model))))
        assert loaded.kind == model.kind
        assert loaded.feature_names == model.feature_names
        assert loaded.hyperparams == model.hyperparams
        assert np.allclose(loaded.predict_proba(signal_noise_data.features),
                           model.predict_proba(signal_noise_data.features))
