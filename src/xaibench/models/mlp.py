"""Single-hidden-layer perceptron trained by mini-batch SGD on cross-entropy.

tanh hidden units, logistic output.  Initialization and batch order come
from the supplied generator, so training is reproducible given a seed.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z):
    # minimum/maximum is np.clip without its wrapper's per-call overhead
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500), 500)))


class MultilayerPerceptron:
    def __init__(self, hidden_units: int = 16, learning_rate: float = 0.1,
                 epochs: int = 150, batch_size: int = 32):
        self.hidden_units = hidden_units
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.w1_ = None
        self.b1_ = None
        self.w2_ = None
        self.b2_ = 0.0

    def fit(self, x, y, rng=None):
        rng = rng or np.random.default_rng(0)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n, m = x.shape
        h = self.hidden_units
        scale = 1.0 / np.sqrt(m)
        self.w1_ = rng.normal(0.0, scale, size=(m, h))
        self.b1_ = np.zeros(h)
        self.w2_ = rng.normal(0.0, 1.0 / np.sqrt(h), size=h)
        self.b2_ = 0.0
        bs = self.batch_size
        for _ in range(self.epochs):
            order = rng.permutation(n)
            xo, yo = x[order], y[order]
            for start in range(0, n, bs):
                xb, yb = xo[start:start + bs], yo[start:start + bs]
                a = np.tanh(xb @ self.w1_ + self.b1_)
                p = _sigmoid(a @ self.w2_ + self.b2_)
                delta = (p - yb) / len(yb)  # dL/dz for cross-entropy + sigmoid
                gw2 = a.T @ delta
                gb2 = float(delta.sum())
                da = delta[:, None] * self.w2_ * (1 - a ** 2)
                gw1 = xb.T @ da
                gb1 = da.sum(axis=0)
                lr = self.learning_rate
                self.w2_ -= lr * gw2
                self.b2_ -= lr * gb2
                self.w1_ -= lr * gw1
                self.b1_ -= lr * gb1
        return self

    def predict_proba(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a = np.tanh(x @ self.w1_ + self.b1_)
        return _sigmoid(a @ self.w2_ + self.b2_)

    def to_dict(self) -> dict:
        return {
            "hidden_units": self.hidden_units,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "w1": self.w1_.tolist(),
            "b1": self.b1_.tolist(),
            "w2": self.w2_.tolist(),
            "b2": self.b2_,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MultilayerPerceptron":
        obj = cls(d["hidden_units"], d["learning_rate"], d["epochs"], d["batch_size"])
        obj.w1_ = np.array(d["w1"], dtype=float)
        obj.b1_ = np.array(d["b1"], dtype=float)
        obj.w2_ = np.array(d["w2"], dtype=float)
        obj.b2_ = float(d["b2"])
        return obj
