"""Friedman test over within-block ranks and the Nemenyi post-hoc pairwise
p-value matrix (studentized-range tail, infinite degrees of freedom)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2, studentized_range

from .metrics import average_ranks


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class MeasurementTable:
    """Blocks (rows, e.g. metrics) by treatments (columns, e.g. model/level)."""

    blocks: tuple
    treatments: tuple
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "treatments", tuple(self.treatments))
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise StatsError("need at least a 2x2 table")
        if v.shape != (len(self.blocks), len(self.treatments)):
            raise StatsError("values shape must match blocks x treatments")
        if not np.all(np.isfinite(v)):
            raise StatsError("values must be finite")


@dataclass(frozen=True)
class PosthocMatrix:
    labels: tuple
    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "labels", tuple(self.labels))
        if p.shape != (len(self.labels), len(self.labels)):
            raise StatsError("p matrix must be square and match the labels")
        if not np.allclose(p, p.T):
            raise StatsError("p matrix must be symmetric")
        if not np.allclose(np.diag(p), 1.0):
            raise StatsError("diagonal must be exactly 1")


def _within_block_ranks(values: np.ndarray) -> np.ndarray:
    return np.vstack([average_ranks(row) for row in values])


def friedman(table: MeasurementTable):
    """Friedman chi-square statistic and p-value (k - 1 degrees of freedom).

    Tied values receive average ranks; an all-tied table yields statistic 0
    and p = 1 by definition rather than an error.
    """
    ranks = _within_block_ranks(table.values)
    n, k = ranks.shape
    rank_sums = ranks.sum(axis=0)
    stat = 12.0 / (n * k * (k + 1)) * float(np.sum(rank_sums ** 2)) - 3.0 * n * (k + 1)
    stat = max(stat, 0.0)
    p = float(chi2.sf(stat, k - 1)) if stat > 0 else 1.0
    return float(stat), p


def nemenyi(table: MeasurementTable) -> PosthocMatrix:
    """Pairwise p-values from mean-rank differences via the studentized
    range with infinite degrees of freedom."""
    ranks = _within_block_ranks(table.values)
    n, k = ranks.shape
    mean_ranks = ranks.mean(axis=0)
    denom = np.sqrt(k * (k + 1) / (6.0 * n))
    p = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            q = abs(mean_ranks[i] - mean_ranks[j]) / denom * np.sqrt(2.0)
            pij = float(np.clip(studentized_range.sf(q, k, np.inf), 0.0, 1.0))
            p[i, j] = p[j, i] = pij
    return PosthocMatrix(table.treatments, p)
