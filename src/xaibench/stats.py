"""Friedman test over within-block ranks and the Nemenyi post-hoc pairwise
p-value matrix, from numpy and ``math`` alone.  Friedman: chi-square tail at
integer nu, h = x/2 (Abramowitz & Stegun 26.4.4-5), sum_{i<nu/2} e^-h h^i/i!
for even nu, erfc(sqrt h) + sum_{i<(nu-1)/2} e^-h h^(i+1/2)/Gamma(i+3/2) for
odd nu.  Nemenyi: studentized-range tail at infinite df (Lund & Lund 1983),
1 - k int phi(z) [Phi(z) - Phi(z - q)]^(k-1) dz on 256 Gauss-Legendre nodes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import average_ranks

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(256)
_normal_cdf = np.vectorize(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)), otypes=[float])


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


def _chi2_sf(x: float, nu: int) -> float:
    """P(X > x) for X chi-square with integer ``nu`` >= 1 degrees of freedom."""
    h, odd = x / 2.0, nu % 2
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    term = math.exp(-h) * (2.0 * math.sqrt(h / math.pi) if odd else 1.0)
    for i in range(nu // 2):  # every term is positive, so nothing cancels
        total, term = total + term, term * (h / (i + 1 + 0.5 * odd))
    return min(total, 1.0)


def _studentized_range_sf(q: np.ndarray, k: int) -> np.ndarray:
    """P(Q > q) for the range Q of k standard normals, per entry of ``q``."""
    half = (18.0 + q[:, None]) / 2.0  # over [-9, 9 + q]; phi(z) < 1e-18 outside
    z = -9.0 + half * (_NODES + 1.0)
    density = half * _WEIGHTS * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = k * np.sum(density * (_normal_cdf(z) - _normal_cdf(z - q[:, None])) ** (k - 1), axis=1)
    return np.clip(1.0 - cdf, 0.0, 1.0)


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
    return float(stat), _chi2_sf(stat, k - 1)  # exactly 1.0 at stat 0


def nemenyi(table: MeasurementTable) -> PosthocMatrix:
    """Pairwise p-values from mean-rank differences via the studentized
    range with infinite degrees of freedom."""
    ranks = _within_block_ranks(table.values)
    n, k = ranks.shape
    mean_ranks = ranks.mean(axis=0)
    denom = np.sqrt(k * (k + 1) / (6.0 * n))
    i, j = np.triu_indices(k, 1)
    p = np.ones((k, k))
    p[i, j] = p[j, i] = _studentized_range_sf(np.abs(mean_ranks[i] - mean_ranks[j])
                                              / denom * np.sqrt(2.0), k)
    return PosthocMatrix(table.treatments, p)
