"""Rank-stability analytics: Spearman correlations of perturbed versus
baseline ranks, per-model correlation sums, explainer ordering and
bump-chart tables."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .data import level_key
from .explainers import RelevanceRank


class StabilityError(ValueError):
    pass


@dataclass(frozen=True)
class StabilityRecord:
    explainer: str
    model_kind: str
    rho_by_fraction: dict  # perturbation fraction -> Spearman rho
    sum: float

    def as_dict(self) -> dict:
        """JSON-ready fields, with levels keyed by level_key."""
        return dict(asdict(self), rho_by_fraction={
            level_key(f): v for f, v in self.rho_by_fraction.items()})


def spearman(rank_a: RelevanceRank, rank_b: RelevanceRank) -> float:
    """Tie-free Spearman rho over rank positions: 1 - 6 sum(d^2) / (n(n^2-1))."""
    if set(rank_a.ordered_features) != set(rank_b.ordered_features):
        raise StabilityError("ranks cover different feature sets")
    n = len(rank_a.ordered_features)
    if n == 1:
        return 1.0
    pos_b = rank_b.positions()
    d2 = sum((i + 1 - pos_b[f]) ** 2 for i, f in enumerate(rank_a.ordered_features))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def stability_sum(baseline: RelevanceRank, perturbed, fractions) -> StabilityRecord:
    """Rho against baseline per nonzero fraction, plus their sum.

    ``fractions`` names the perturbation levels that must be present.
    """
    by_fraction = {}
    for rank in perturbed:
        f = rank.perturbation_fraction
        if f in by_fraction:
            raise StabilityError(f"duplicate rank for fraction {f}")
        by_fraction[f] = rank
    missing = [f for f in fractions if f not in by_fraction]
    if missing:
        raise StabilityError(f"missing perturbation fractions: {missing}")
    rho = {f: spearman(baseline, by_fraction[f]) for f in sorted(fractions)}
    return StabilityRecord(
        explainer=baseline.explainer,
        model_kind=baseline.model_kind,
        rho_by_fraction=rho,
        sum=float(sum(rho.values())),
    )


def bump_chart_data(records) -> list:
    """Long-form (fraction, feature, position) rows for one explainer/model,
    ordered by fraction then position."""
    rows = []
    feature_set = None
    for rank in sorted(records, key=lambda r: r.perturbation_fraction):
        if feature_set is None:
            feature_set = set(rank.ordered_features)
        elif set(rank.ordered_features) != feature_set:
            raise StabilityError("inconsistent feature sets across ranks")
        for pos, feat in enumerate(rank.ordered_features, start=1):
            rows.append((rank.perturbation_fraction, feat, pos))
    return rows


def stability_order(records) -> list:
    """Explainers sorted by their total correlation sum across models,
    descending; ties break alphabetically."""
    totals = {}
    for rec in records:
        totals[rec.explainer] = totals.get(rec.explainer, 0.0) + rec.sum
    return sorted(totals, key=lambda e: (-totals[e], e))
