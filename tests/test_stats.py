"""Friedman and Nemenyi, cross-checked against scipy: its Friedman test,
and the chi-square and studentized-range tails the library computes without
scipy."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, friedmanchisquare, rankdata, studentized_range

from xaibench.stats import (
    MeasurementTable,
    PosthocMatrix,
    StatsError,
    _chi2_sf,
    _studentized_range_sf,
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


class TestTails:
    """The closed-form chi-square tail and the studentized-range quadrature
    against the scipy.stats functions they replace."""

    @settings(max_examples=500, deadline=None)
    @given(st.integers(2, 40), st.floats(0.0, 100.0))
    def test_chi2_sf_matches_scipy(self, k, stat):
        assert _chi2_sf(stat, k - 1) == pytest.approx(float(chi2.sf(stat, k - 1)), rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 20), st.lists(st.floats(0.0, 8.0), min_size=1, max_size=4))
    def test_studentized_range_sf_matches_scipy(self, k, qs):
        got = _studentized_range_sf(np.array(qs), k)
        want = [float(studentized_range.sf(q, k, np.inf)) for q in qs]
        assert np.all(np.abs(got - want) <= 1e-12), (got, want)

    def test_exactly_one_at_zero(self):
        assert [_chi2_sf(0.0, nu) for nu in range(1, 40)] == [1.0] * 39
        for k in range(2, 21):
            assert _studentized_range_sf(np.zeros(3), k).tolist() == [1.0] * 3

    def test_chi2_sf_never_above_one(self):
        # near 0 the rounded sum of the positive terms can pass 1 by an ulp
        assert max(_chi2_sf(x, nu) for x in np.logspace(-12, 0, 50) for nu in range(1, 40)) <= 1.0

    def test_nemenyi_matrix_matches_scipy_pairwise(self):
        values = np.random.default_rng(14).random((6, 5))
        post = nemenyi(table(values))
        mean_ranks = rankdata(values, axis=1).mean(axis=0)
        denom = np.sqrt(5 * 6 / (6.0 * 6))
        for i, j in itertools.combinations(range(5), 2):
            q = abs(mean_ranks[i] - mean_ranks[j]) / denom * np.sqrt(2.0)
            assert post.p[i, j] == pytest.approx(float(studentized_range.sf(q, 5, np.inf)),
                                                 abs=1e-12)


class TestPosthocMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(StatsError):
            PosthocMatrix(("a", "b"), np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(StatsError):
            PosthocMatrix(("a", "b"), np.array([[0.9, 0.2], [0.2, 1.0]]))
