"""Single-hidden-layer perceptron trained by mini-batch SGD on cross-entropy.

tanh hidden units, logistic output.  Initialization and batch order come
from the supplied generator, so training is reproducible given a seed.

:meth:`MultilayerPerceptron.fit_many` trains K nets with equal
hyperparameters in lockstep: the weights are stacked to (K, m, h) and
(K, h, 1), and each minibatch step is one (K, bs, m) ``np.matmul`` block in
place of K Python-level steps.  Every net draws from its own generator in
the single-net order (w1, w2, then one permutation per epoch), and every
matmul slice is the 2-D product a single net would compute, so each net
ends with the same weights as when trained alone.  :meth:`fit` is the case
K = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


def sigmoid(z):
    # minimum/maximum is np.clip without its wrapper's per-call overhead
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500), 500)))


@dataclass(eq=False)
class MultilayerPerceptron:
    hidden_units: int = 16
    learning_rate: float = 0.1
    epochs: int = 150
    batch_size: int = 32
    w1: np.ndarray = field(default_factory=list)  # the fitted weights
    b1: np.ndarray = field(default_factory=list)
    w2: np.ndarray = field(default_factory=list)
    b2: float = 0.0

    def __post_init__(self):
        self.w1, self.b1, self.w2 = (np.asarray(w, float) for w in (self.w1, self.b1, self.w2))
        self.b2 = float(self.b2)

    def fit(self, x, y, rng):
        (net,) = self.fit_many([x], y, [rng])
        self.w1, self.b1, self.w2, self.b2 = net.w1, net.b1, net.w2, net.b2
        return self

    def fit_many(self, xs, y, rngs) -> list:
        """Train one net per ``(xs[k], rngs[k])`` on the shared labels ``y``,
        with this net's hyperparameters; every ``xs[k]`` has the same shape.
        Returns the K fitted nets."""
        x = np.stack([np.asarray(xk, dtype=float) for xk in xs])  # (K, n, m)
        y = np.asarray(y, dtype=float)
        k, n, m = x.shape
        h = self.hidden_units
        # w2 and the outputs are columns, (K, h, 1) and (K, bs, 1), so each
        # step is a batched matmul with no reshaping
        w1 = np.stack([r.normal(0.0, 1.0 / np.sqrt(m), size=(m, h)) for r in rngs])
        b1 = np.zeros((k, 1, h))
        w2 = np.stack([r.normal(0.0, 1.0 / np.sqrt(h), size=(h, 1)) for r in rngs])
        b2 = np.zeros((k, 1, 1))
        nets = np.arange(k)[:, None]
        bs, lr = self.batch_size, self.learning_rate
        for _ in range(self.epochs):
            order = np.stack([r.permutation(n) for r in rngs])  # (K, n)
            xo, yo = x[nets, order], y[order][:, :, None]
            for start in range(0, n, bs):
                xb, yb = xo[:, start:start + bs], yo[:, start:start + bs]
                a = np.tanh(xb @ w1 + b1)
                p = sigmoid(a @ w2 + b2)
                delta = (p - yb) / yb.shape[1]  # dL/dz for cross-entropy + sigmoid
                gw2 = a.transpose(0, 2, 1) @ delta
                gb2 = delta.sum(axis=1, keepdims=True)
                da = delta * w2.transpose(0, 2, 1) * (1 - a ** 2)
                gw1 = xb.transpose(0, 2, 1) @ da
                gb1 = da.sum(axis=1, keepdims=True)
                w2 -= lr * gw2
                b2 -= lr * gb2
                w1 -= lr * gw1
                b1 -= lr * gb1
        return [replace(self, w1=w1[i], b1=b1[i, 0], w2=w2[i, :, 0], b2=b2[i, 0, 0])
                for i in range(k)]

    def predict_proba(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a = np.tanh(x @ self.w1 + self.b1)
        return sigmoid(a @ self.w2 + self.b2)
