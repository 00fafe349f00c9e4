"""Friedman and Nemenyi, cross-checked against scipy's Friedman test."""

import numpy as np
import pytest
from scipy.stats import friedmanchisquare

from xaibench.stats import (
    MeasurementTable,
    PosthocMatrix,
    StatsError,
    friedman,
    nemenyi,
)


def table(values, blocks=None, treatments=None):
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    return MeasurementTable(
        blocks or tuple(f"b{i}" for i in range(n)),
        treatments or tuple(f"t{j}" for j in range(k)),
        values,
    )


class TestMeasurementTable:
    def test_rejects_small_tables(self):
        with pytest.raises(StatsError):
            table(np.ones((1, 3)))
        with pytest.raises(StatsError):
            table(np.ones((3, 1)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(StatsError):
            MeasurementTable(("a",), ("x", "y"), np.ones((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(StatsError):
            table([[1.0, np.nan], [0.0, 1.0]])


class TestFriedman:
    def test_identical_columns_zero_statistic(self):
        stat, p = friedman(table(np.tile([[0.3], [0.6], [0.1]], (1, 4))))
        assert stat == 0.0
        assert p == 1.0

    def test_strictly_ordered_three_by_three(self):
        stat, p = friedman(table([[1, 2, 3], [1, 2, 3], [1, 2, 3]]))
        assert stat == 6.0
        assert 0.0 < p < 0.05

    def test_matches_scipy_on_random_data(self):
        rng = np.random.default_rng(12)
        values = rng.random((8, 5))  # continuous, ties almost surely absent
        stat, p = friedman(table(values))
        ref_stat, ref_p = friedmanchisquare(*values.T)
        assert stat == pytest.approx(float(ref_stat), abs=1e-9)
        assert p == pytest.approx(float(ref_p), abs=1e-9)

    def test_ties_get_average_ranks(self):
        # one tied pair per block; statistic stays finite and non-negative
        stat, p = friedman(table([[1.0, 1.0, 2.0], [3.0, 3.0, 4.0]]))
        assert stat >= 0.0
        assert 0.0 <= p <= 1.0


class TestNemenyi:
    def test_identical_columns_all_p_one(self):
        post = nemenyi(table(np.tile([[0.3], [0.6], [0.1]], (1, 4))))
        assert np.all(np.abs(post.p - 1.0) <= 1e-9)

    def test_separated_treatments_get_small_p(self):
        values = np.column_stack([np.full(10, 0.1), np.full(10, 0.5),
                                  np.full(10, 0.9)])
        values += np.random.default_rng(0).normal(0, 1e-3, values.shape)
        post = nemenyi(table(values))
        assert post.p[0, 2] < 0.05
        assert post.p[0, 2] < post.p[0, 1]

    def test_matrix_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            post = nemenyi(table(rng.random((6, 4))))
            assert np.array_equal(post.p, post.p.T)
            assert np.all(np.diag(post.p) == 1.0)
            assert np.all((post.p >= 0) & (post.p <= 1))


class TestPosthocMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(StatsError):
            PosthocMatrix(("a", "b"), np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(StatsError):
            PosthocMatrix(("a", "b"), np.array([[0.9, 0.2], [0.2, 1.0]]))
