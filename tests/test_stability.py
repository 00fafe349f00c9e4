"""Spearman-based rank stability analytics."""

import pytest
from hypothesis import given, settings, strategies as st

from xaibench.explainers import RelevanceRank
from xaibench.stability import (
    StabilityError,
    StabilityRecord,
    spearman,
    stability_order,
    stability_sum,
)


def make_rank(order, fraction=0.0, explainer="eli5", kind="gbt"):
    n = len(order)
    return RelevanceRank(tuple(order), tuple(float(n - i) for i in range(n)),
                         explainer, kind, fraction)


class TestSpearman:
    def test_identical_is_one(self):
        r = make_rank(["a", "b", "c"])
        assert spearman(r, r) == 1.0

    def test_full_reversal_is_minus_one(self):
        a = make_rank(["a", "b", "c", "d"])
        b = make_rank(["d", "c", "b", "a"])
        assert spearman(a, b) == -1.0

    def test_single_feature_is_one(self):
        a = make_rank(["a"])
        assert spearman(a, a) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(list("abcdefg")), st.permutations(list("abcdefg")),
           st.integers(1, 7))
    def test_bounded_and_symmetric(self, order_a, order_b, n):
        kept = set("abcdefg"[:n])
        a = make_rank([f for f in order_a if f in kept])
        b = make_rank([f for f in order_b if f in kept])
        rho = spearman(a, b)
        assert -1.0 <= rho <= 1.0
        assert rho == spearman(b, a)

    def test_adjacent_swap_known_value(self):
        a = make_rank(list("abcdefgh"))
        b = make_rank(list("abdcefgh"))
        assert spearman(a, b) == pytest.approx(1 - 12 / (8 * 63), abs=1e-12)

    def test_mismatched_feature_sets_rejected(self):
        a = make_rank(["a", "b"])
        b = make_rank(["a", "c"])
        with pytest.raises(StabilityError):
            spearman(a, b)

    def test_symmetric(self):
        a = make_rank(["a", "b", "c", "d", "e"])
        b = make_rank(["c", "a", "e", "b", "d"])
        assert spearman(a, b) == spearman(b, a)


class TestStabilitySum:
    FRACTIONS = (0.04, 0.06, 0.10)

    def perturbed(self, orders):
        return [make_rank(order, fraction=f)
                for order, f in zip(orders, self.FRACTIONS)]

    def test_sum_of_rhos(self):
        baseline = make_rank(["a", "b", "c"])
        perturbed = self.perturbed([["a", "b", "c"],
                                    ["a", "c", "b"],
                                    ["c", "b", "a"]])
        rec = stability_sum([baseline, *perturbed])
        assert rec.rho_by_fraction["4"] == 1.0
        assert rec.rho_by_fraction["6"] == 0.5
        assert rec.rho_by_fraction["10"] == -1.0
        assert list(rec.rho_by_fraction) == ["4", "6", "10"]
        assert rec.sum == pytest.approx(0.5)
        assert rec.explainer == "eli5"
        assert rec.model_kind == "gbt"

    def test_inconsistent_features_rejected(self):
        ranks = [make_rank(["a", "b"], fraction=0.0),
                 make_rank(["a", "c"], fraction=0.04)]
        with pytest.raises(StabilityError):
            stability_sum(ranks)


class TestStabilityOrder:
    def test_orders_by_total_sum_descending(self):
        records = [
            StabilityRecord("shap", "gbt", {}, 2.5),
            StabilityRecord("shap", "mlp", {}, 0.4),
            StabilityRecord("lofo", "gbt", {}, 1.0),
            StabilityRecord("lofo", "mlp", {}, 0.2),
        ]
        assert stability_order(records) == ["shap", "lofo"]

    def test_ties_break_alphabetically(self):
        records = [StabilityRecord("skater", "gbt", {}, 1.0),
                   StabilityRecord("dalex", "gbt", {}, 1.0)]
        assert stability_order(records) == ["dalex", "skater"]
