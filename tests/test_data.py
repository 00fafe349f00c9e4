"""Ingestion, standardization, splitting and perturbation behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xaibench.data import (
    EPSILON,
    Dataset,
    DatasetError,
    PerturbationSpec,
    load_csv,
    perturb,
    save_csv,
    split,
    zscore,
)


def small_dataset():
    features = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
    return Dataset(features, [0, 1, 0, 1], ("x", "y"))


class TestDataset:
    def test_shape_accessors(self):
        d = small_dataset()
        assert d.n_rows == 4
        assert d.n_features == 2
        assert d.class_counts() == {0: 2, 1: 2}

    def test_features_are_immutable(self):
        d = small_dataset()
        with pytest.raises(ValueError):
            d.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            d.labels[0] = 1

    def test_rejects_non_binary_labels(self):
        with pytest.raises(DatasetError):
            Dataset(np.ones((3, 1)), [0, 1, 2], ("x",))

    def test_rejects_non_finite_features(self):
        with pytest.raises(DatasetError):
            Dataset(np.array([[1.0], [np.inf]]), [0, 1], ("x",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(DatasetError):
            Dataset(np.ones((2, 2)), [0, 1], ("x", "x"))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DatasetError):
            Dataset(np.ones((3, 1)), [0, 1], ("x",))

    def test_take_subsets_rows(self):
        d = small_dataset().take([0, 2])
        assert d.n_rows == 2
        assert list(d.labels) == [0, 0]


class TestCsvRoundTrip:
    def test_save_load_identity(self, tmp_path):
        d = small_dataset()
        path = tmp_path / "data.csv"
        save_csv(d, path)
        loaded = load_csv(path)
        assert loaded.feature_names == d.feature_names
        assert np.array_equal(loaded.features, d.features)
        assert np.array_equal(loaded.labels, d.labels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            load_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        for cell in ("oops", "inf", "-inf", "nan"):
            path.write_text(f"x,y,class\n1,2,0\n1,{cell},1\n")
            with pytest.raises(DatasetError, match=r"row 3, column 2"):
                load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x,y,class\n1,2,0\n1,2\n")
        with pytest.raises(DatasetError, match="row 3"):
            load_csv(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("x,class\n1,0\n2,3\n")
        with pytest.raises(DatasetError, match="label"):
            load_csv(path)


class TestStandardization:
    def test_fit_matches_sample_moments(self):
        d = small_dataset()
        other = d.with_features(d.features[::-1] * 2.0)
        _, z = zscore(d, other)
        expected = (other.features - d.features.mean(axis=0)) / d.features.std(axis=0, ddof=1)
        assert np.allclose(z.features, expected)

    def test_apply_gives_zero_mean_unit_sd(self):
        (z,) = zscore(small_dataset())
        assert np.allclose(z.features.mean(axis=0), 0.0)
        assert np.allclose(z.features.std(axis=0, ddof=1), 1.0)

    def test_constant_column_uses_epsilon_guard(self):
        d = Dataset(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]),
                    [0, 1, 0], ("x", "const"))
        z, shifted = zscore(d, d.with_features(d.features + 1.0))
        assert np.all(z.features[:, 1] == 0.0)
        assert np.all(shifted.features[:, 1] == 1.0 / EPSILON)
        assert np.all(np.isfinite(z.features))


class TestSplit:
    def make(self, n=100, pos=40, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.array([1] * pos + [0] * (n - pos))
        return Dataset(rng.normal(size=(n, 3)), labels, ("a", "b", "c"))

    def test_sizes_and_stratification(self):
        d = self.make()
        train, test = split(d, 0.7, seed=1)
        assert train.n_rows == 70
        assert test.n_rows == 30
        # per-class counts within one of exact stratification
        assert abs(train.class_counts()[1] - 28) <= 1
        assert abs(test.class_counts()[1] - 12) <= 1

    def test_partition_is_disjoint_and_complete(self):
        d = self.make()
        train, test = split(d, 0.7, seed=1)
        combined = np.vstack([train.features, test.features])
        assert combined.shape[0] == d.n_rows
        original = {tuple(row) for row in d.features}
        assert {tuple(row) for row in combined} == original

    def test_deterministic_given_seed(self):
        d = self.make()
        t1, _ = split(d, 0.7, seed=5)
        t2, _ = split(d, 0.7, seed=5)
        t3, _ = split(d, 0.7, seed=6)
        assert np.array_equal(t1.features, t2.features)
        assert not np.array_equal(t1.features, t3.features)

    def test_invalid_fraction(self):
        with pytest.raises(DatasetError):
            split(self.make(), 1.0, seed=0)

    def test_tiny_class_rejected(self):
        d = Dataset(np.ones((4, 1)), [0, 0, 0, 1], ("x",))
        with pytest.raises(DatasetError, match="class 1"):
            split(d, 0.5, seed=0)


class TestPerturb:
    def make(self, n=200, seed=2):
        rng = np.random.default_rng(seed)
        return Dataset(rng.normal(size=(n, 4)), rng.integers(0, 2, n),
                       ("a", "b", "c", "d"))

    def test_fraction_zero_is_identity(self):
        d = self.make()
        for kind in ("noise", "permutation"):
            out = perturb(d, PerturbationSpec(kind, 0.0, seed=3))
            assert np.array_equal(out.features, d.features)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 60), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_permutation_preserves_marginals(self, n, fraction, seed):
        # integer values repeat, so each column's multiset must survive exactly
        rng = np.random.default_rng(seed)
        d = Dataset(rng.integers(0, 4, size=(n, 3)).astype(float),
                    rng.integers(0, 2, n), ("a", "b", "c"))
        out = perturb(d, PerturbationSpec("permutation", fraction, seed=seed))
        for j in range(d.n_features):
            assert np.sort(out.features[:, j]).tolist() == np.sort(d.features[:, j]).tolist()

    def test_permutation_touches_at_most_the_chosen_rows(self):
        d = self.make()
        out = perturb(d, PerturbationSpec("permutation", 0.1, seed=3))
        changed = np.any(out.features != d.features, axis=1)
        assert changed.sum() <= int(np.ceil(0.1 * d.n_rows))

    def test_noise_sd_scales_with_fraction(self):
        d = self.make(n=4000)
        small = perturb(d, PerturbationSpec("noise", 0.04, seed=3))
        large = perturb(d, PerturbationSpec("noise", 0.10, seed=3))
        sd_small = np.std(small.features - d.features)
        sd_large = np.std(large.features - d.features)
        assert sd_large > sd_small * 2.0

    def test_labels_never_change(self):
        d = self.make()
        out = perturb(d, PerturbationSpec("permutation", 0.5, seed=3))
        assert np.array_equal(out.labels, d.labels)

    def test_invalid_specs(self):
        with pytest.raises(DatasetError):
            PerturbationSpec("typo", 0.1)
        with pytest.raises(DatasetError):
            PerturbationSpec("noise", -0.1)
        with pytest.raises(DatasetError):
            PerturbationSpec("noise", 0.1, noise_scale=-1.0)

    def test_deterministic_given_seed(self):
        d = self.make()
        a = perturb(d, PerturbationSpec("permutation", 0.1, seed=9))
        b = perturb(d, PerturbationSpec("permutation", 0.1, seed=9))
        assert np.array_equal(a.features, b.features)
