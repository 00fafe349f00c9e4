"""3PL engine: evaluation, response matrices, fitting, ICCs, summaries and
the reliability comparison rule."""

import json
import warnings

import numpy as np
import pytest

from xaibench.data import RecordError, from_record, to_record
from xaibench.irt import (
    AMBIGUOUS,
    X_MORE_RELIABLE,
    Y_MORE_RELIABLE,
    IrtError,
    IrtFit,
    ReliabilitySummary,
    ResponseMatrix,
    default_theta_grid,
    fit_3pl,
    icc,
    p_correct,
    reliability_compare,
    summarize,
)


class TestPCorrect:
    def test_reference_value(self):
        assert float(p_correct(1.54, -2.18, 0.14, 0.0)) == pytest.approx(0.9711, abs=1e-3)

    def test_midpoint_identity(self):
        for a, b, c in ((1.0, 0.0, 0.2), (2.0, -1.5, 0.0), (0.7, 3.0, 0.25)):
            assert float(p_correct(a, b, c, b)) == c + (1 - c) / 2

    def test_limits(self):
        assert float(p_correct(2.0, 0.0, 0.1, 50.0)) == pytest.approx(1.0, abs=1e-9)
        assert float(p_correct(2.0, 0.0, 0.1, -50.0)) == pytest.approx(0.1, abs=1e-9)

    def test_monotone_in_theta_for_positive_a(self):
        grid = np.linspace(-4, 4, 41)
        p = p_correct(1.3, 0.5, 0.15, grid)
        assert np.all(np.diff(p) > 0)

    def test_negative_a_decreases(self):
        grid = np.linspace(-4, 4, 41)
        p = p_correct(-1.3, 0.5, 0.15, grid)
        assert np.all(np.diff(p) < 0)

    def test_vectorized_matches_scalar(self):
        a = np.array([0.9, 1.4])
        b = np.array([-1.0, 0.5])
        c = np.array([0.0, 0.2])
        vec = p_correct(a, b, c, 0.3)
        for i in range(2):
            assert vec[i] == float(p_correct(a[i], b[i], c[i], 0.3))


class TestResponseMatrix:
    def test_validation(self):
        with pytest.raises(IrtError):
            ResponseMatrix(np.array([[0, 2], [1, 0]]))
        with pytest.raises(IrtError):
            ResponseMatrix(np.array([[0, 1]]))

    @pytest.mark.parametrize("entries", [[[0.7, 1.0], [1.9, 0.0]],
                                         [[0.0, 1.0], [np.nan, 0.0]],
                                         [[0.0, 1.0], [np.inf, 0.0]]])
    def test_non_binary_values_are_rejected_before_the_integer_cast(self, entries):
        # the cast would truncate 0.7 to 0 and warn on NaN before any check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IrtError, match="binary"):
                ResponseMatrix(entries)

    def test_bool_and_float_binary_entries_become_read_only_ints(self):
        given = np.array([[1.0, 0.0], [0.0, 1.0]])
        for entries in (given, given.astype(bool)):
            m = ResponseMatrix(entries)
            assert m.entries.dtype == int
            assert m.entries.tolist() == [[1, 0], [0, 1]]
            assert not m.entries.flags.writeable
        assert given.flags.writeable  # the caller's array is copied, not frozen


def simulated_matrix(r=60, n=40, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.8, 2.0, n)
    b = rng.uniform(-2.0, 2.0, n)
    c = rng.uniform(0.0, 0.25, n)
    theta = rng.uniform(-2.0, 2.0, r)
    p = p_correct(a, b, c, theta[:, None])
    u = (rng.random((r, n)) < p).astype(int)
    return ResponseMatrix(u), theta


class TestFit3pl:
    def test_objective_history_non_decreasing(self):
        matrix, _ = simulated_matrix()
        fit = fit_3pl(matrix)
        assert np.all(np.diff(fit.history) >= -1e-9)
        assert fit.iterations == len(fit.history)

    def test_recovers_ability_ordering(self):
        matrix, theta = simulated_matrix()
        fit = fit_3pl(matrix)
        assert np.corrcoef(fit.theta, theta)[0, 1] > 0.8

    def test_parameters_respect_bounds(self):
        matrix, _ = simulated_matrix(seed=6)
        fit = fit_3pl(matrix)
        assert np.all((fit.a >= -4) & (fit.a <= 4))
        assert np.all((fit.b >= -6) & (fit.b <= 6))
        assert np.all((fit.c >= 0) & (fit.c <= 0.5))
        assert np.all((fit.theta >= -4) & (fit.theta <= 4))

    def test_deterministic(self):
        matrix, _ = simulated_matrix(seed=7)
        f1 = fit_3pl(matrix)
        f2 = fit_3pl(matrix)
        assert np.array_equal(f1.b, f2.b)
        assert np.array_equal(f1.theta, f2.theta)

    def test_degenerate_rows_keep_shape(self):
        u = np.vstack([np.ones(6, dtype=int), np.zeros(6, dtype=int),
                       np.array([1, 0, 1, 0, 1, 0])])
        m = ResponseMatrix(u)
        fit = fit_3pl(m)
        assert fit.a.shape == (6,)
        assert fit.theta.shape == (3,)

    def test_max_outer_limits_iterations(self):
        matrix, _ = simulated_matrix()
        fit = fit_3pl(matrix, max_outer=3)
        assert fit.iterations <= 3

    def test_dict_round_trip(self):
        matrix, _ = simulated_matrix(seed=8)
        fit = fit_3pl(matrix, max_outer=5)
        back = from_record(IrtFit, to_record(fit))
        assert np.array_equal(back.a, fit.a)
        assert np.array_equal(back.theta, fit.theta)
        assert back.history == fit.history
        assert back.converged == fit.converged

    @pytest.mark.parametrize("edit, named", [
        (lambda d: dict(d, extra=1), r"missing \[\], unknown \['extra'\]"),
        (lambda d: {k: v for k, v in d.items() if k not in ("theta", "converged")},
         r"missing \['converged', 'theta'\], unknown \[\]"),
    ], ids=("unknown", "missing"))
    def test_dict_with_missing_or_unknown_keys_refused(self, edit, named):
        d = to_record(fit_3pl(simulated_matrix(seed=8)[0], max_outer=2))
        with pytest.raises(RecordError, match=named):
            from_record(IrtFit, edit(d))

    def test_saved_json_keeps_the_nested_layouts_text(self):
        """irt/fit_*.json is written with json.dump(sort_keys=True, indent=1);
        its text equals the one built from the field layout of the nested
        item-parameter and ability records: a, b, c, theta, then the trace."""
        fit = fit_3pl(simulated_matrix(seed=8)[0], max_outer=5)
        nested = {"a": fit.a.tolist(), "b": fit.b.tolist(), "c": fit.c.tolist(),
                  "theta": fit.theta.tolist(), "history": list(fit.history),
                  "iterations": fit.iterations, "converged": fit.converged}
        for kwargs in ({"sort_keys": True, "indent": 1}, {}):
            assert json.dumps(to_record(fit), **kwargs) == json.dumps(nested, **kwargs)
        tiny = IrtFit([1.5, -0.25], [0.0, 2.0], [0.1, 0.0], [0.5],
                      history=(-4.0, -3.0), iterations=2, converged=True)
        assert json.dumps(to_record(tiny)) == (
            '{"a": [1.5, -0.25], "b": [0.0, 2.0], "c": [0.1, 0.0], "theta": [0.5], '
            '"history": [-4.0, -3.0], "iterations": 2, "converged": true}')


class TestIrtFit:
    def fields(self, **change):
        d = {"a": [1.0, -2.0], "b": [0.5, 1.5], "c": [0.1, 0.3], "theta": [0.0, 1.0, -1.0],
             "history": (0.0,), "iterations": 1, "converged": True}
        d.update(change)
        return d

    @pytest.mark.parametrize("change, match", [
        ({"a": [[1.0, -2.0]]}, "a must be a vector"),
        ({"theta": 0.5}, "theta must be a vector"),
        ({"a": [1.0, 4.5]}, "a outside bounds"),
        ({"b": [-6.5, 0.0]}, "b outside bounds"),
        ({"c": [0.1, 0.6]}, "c outside bounds"),
        ({"c": [-0.1, 0.0]}, "c outside bounds"),
        ({"theta": [0.0, 4.2]}, "theta outside bounds"),
        ({"c": [0.1]}, "share a length"),
    ])
    def test_rejects_bad_vectors(self, change, match):
        with pytest.raises(IrtError, match=match):
            IrtFit(**self.fields(**change))

    def test_vectors_become_read_only_float_copies(self):
        a = np.array([1, -2])
        fit = IrtFit(**self.fields(a=a))
        for name in ("a", "b", "c", "theta"):
            v = getattr(fit, name)
            assert v.dtype == float and not v.flags.writeable, name
        assert fit.a.tolist() == [1.0, -2.0]
        assert a.flags.writeable


class TestIcc:
    def test_curve_shapes_and_flags(self):
        a, b, c = np.array([1.0, -1.0]), np.array([0.0, 0.0]), np.array([0.1, 0.1])
        grid = default_theta_grid()
        curves = icc(a, b, c, grid)
        assert curves.shape == (2, len(grid))
        # the a < 0 flag the report draws in red is exactly the falling curve
        assert np.array_equal(np.all(np.diff(curves, axis=1) < 0, axis=1), a < 0)
        assert np.all(np.diff(curves[0]) > 0)

    def test_rows_equal_per_item_curves(self):
        a, b, c = np.array([1.3, -0.7, 2.5]), np.array([-1.0, 0.4, 2.0]), \
            np.array([0.0, 0.2, 0.45])
        grid = default_theta_grid()
        curves = icc(a, b, c, grid)
        for i in range(len(a)):
            assert np.array_equal(curves[i], p_correct(a[i], b[i],
                                                       c[i], grid))

    def test_rejects_unsorted_grid(self):
        a, b, c = np.array([1.0]), np.array([0.0]), np.array([0.1])
        with pytest.raises(IrtError):
            icc(a, b, c, np.array([0.0, -1.0, 1.0]))


class TestSummarize:
    def test_means_and_negative_count(self):
        fit_like = IrtFit(np.array([1.0, -2.0]), np.array([0.5, 1.5]),
                          np.array([0.1, 0.3]), np.array([1.0, -1.0, 0.0]),
                          history=(0.0,), iterations=1, converged=True)
        s = summarize(fit_like)
        assert s.mean_difficulty == 1.0
        assert s.mean_discrimination == -0.5
        assert s.mean_guessing == pytest.approx(0.2)
        assert s.mean_ability == 0.0
        assert s.negative_item_count == 1


def _summary(b, a, c, theta=0.0):
    return ReliabilitySummary(mean_difficulty=b, mean_discrimination=a,
                              mean_guessing=c, mean_ability=theta,
                              negative_item_count=0)


class TestReliabilityCompare:
    def test_unanimous(self):
        x = _summary(-2.0, 2.0, 0.1)
        y = _summary(-1.0, 1.0, 0.3)
        assert reliability_compare(x, y) == X_MORE_RELIABLE
        assert reliability_compare(y, x) == Y_MORE_RELIABLE

    def test_two_to_one_with_small_dissent(self):
        x = _summary(-2.0, 1.0, 0.1)
        y = _summary(-1.0, 1.02, 0.3)  # dissent 0.02 < TIE_EPSILON
        assert reliability_compare(x, y) == X_MORE_RELIABLE

    def test_two_to_one_with_dominated_dissent(self):
        # dissent 0.21 exceeds TIE_EPSILON but is below the strongest
        # supporting margin (0.41), so the majority still wins
        x = _summary(-2.18, 1.54, 0.14)
        y = _summary(-1.77, 1.75, 0.18)
        assert reliability_compare(x, y) == X_MORE_RELIABLE

    def test_large_dissent_is_ambiguous(self):
        x = _summary(-2.0, 1.0, 0.10)
        y = _summary(-1.9, 1.97, 0.17)  # dissent 0.97 dwarfs the support
        assert reliability_compare(x, y) == AMBIGUOUS

    def test_equal_summaries_ambiguous(self):
        x = _summary(-1.0, 1.0, 0.1)
        assert reliability_compare(x, x) == AMBIGUOUS

    def test_antisymmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = _summary(*rng.normal(size=3))
            y = _summary(*rng.normal(size=3))
            vx = reliability_compare(x, y)
            vy = reliability_compare(y, x)
            flipped = {X_MORE_RELIABLE: Y_MORE_RELIABLE,
                       Y_MORE_RELIABLE: X_MORE_RELIABLE,
                       AMBIGUOUS: AMBIGUOUS}
            assert vy == flipped[vx]

    def test_optional_ability_vote_can_decide(self):
        # 2-vs-1 with an overwhelming dissent is ambiguous; mean ability casts
        # no vote, however strongly it favours x
        x = _summary(-2.0, 1.0, 0.10, theta=2.0)
        y = _summary(-1.9, 2.0, 0.17, theta=0.0)
        assert reliability_compare(x, y) == AMBIGUOUS
