"""Rank-stability analytics: Spearman correlations of perturbed versus
baseline ranks, per-model correlation sums and explainer ordering."""

from __future__ import annotations

from dataclasses import dataclass

from .data import level_key
from .explainers import RelevanceRank


class StabilityError(ValueError):
    pass


@dataclass(frozen=True)
class StabilityRecord:
    explainer: str
    model_kind: str
    rho_by_fraction: dict  # level_key of the perturbed level -> Spearman rho
    sum: float


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


def stability_sum(ranks) -> StabilityRecord:
    """Rho of each later rank against the first, the baseline, plus their sum.

    ``ranks`` are one (explainer, model) pair's ranks in ascending level
    order, as ``report.check_slots`` returns them.
    """
    baseline = ranks[0]
    rho = {level_key(r.perturbation_fraction): spearman(baseline, r) for r in ranks[1:]}
    return StabilityRecord(
        explainer=baseline.explainer,
        model_kind=baseline.model_kind,
        rho_by_fraction=rho,
        sum=float(sum(rho.values())),
    )


def stability_order(records) -> list:
    """Explainers sorted by their total correlation sum across models,
    descending; ties break alphabetically."""
    totals = {}
    for rec in records:
        totals[rec.explainer] = totals.get(rec.explainer, 0.0) + rec.sum
    return sorted(totals, key=lambda e: (-totals[e], e))
