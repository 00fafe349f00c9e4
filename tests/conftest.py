"""Shared fixtures: small synthetic datasets and lightweight models."""

import numpy as np
import pytest

from xaibench.data import Dataset
from xaibench.models.training import TrainedModel


def make_signal_noise_dataset(n_rows=240, seed=3, n_extra=1):
    """Binary dataset where 'signal' determines the label exactly, 'helper'
    correlates with it, and 'noise_*' columns are pure noise."""
    rng = np.random.default_rng(seed)
    signal = rng.normal(0.0, 1.0, n_rows)
    labels = (signal > 0.0).astype(int)
    helper = signal + rng.normal(0.0, 0.8, n_rows)
    cols = [signal, helper]
    names = ["signal", "helper"]
    for i in range(n_extra):
        cols.append(rng.normal(0.0, 1.0, n_rows))
        names.append(f"noise_{i}")
    return Dataset(np.column_stack(cols), labels, tuple(names))


@pytest.fixture
def signal_noise_data():
    return make_signal_noise_dataset()


def as_trained(estimator, m):
    """A bare model with ``predict_proba`` over m features as a TrainedModel,
    the one model type the explainers take."""
    return TrainedModel("bare", estimator, m, tuple(f"x{j}" for j in range(m)), 0, {}, 0.0)


class LinearProbaModel:
    """Sigmoid of a fixed linear score; handy as a smooth test function."""

    def __init__(self, weights, bias=0.0):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = float(bias)

    def predict_proba(self, x):
        z = np.atleast_2d(np.asarray(x, dtype=float)) @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-z))
