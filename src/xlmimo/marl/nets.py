"""Two-hidden-layer perceptrons with hand-written backprop.

Training stays in float64 numpy so gradients can be checked against central
finite differences exactly.  Actors squash their raw outputs onto bounded
action ranges with a scaled logistic; critics are unsquashed scalar heads.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Mlp",
    "Actor",
    "sigmoid",
    "global_norm",
    "clip_gradients",
    "sgd_step",
    "soft_update",
]

# negative-side slope of every hidden leaky rectifier
LEAKY_SLOPE = 0.01


def sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Mlp:
    """Fully-connected net: affine / leaky-rectifier pairs, linear head."""

    def __init__(self, sizes, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = [int(s) for s in sizes]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def _leaky(self, z):
        return np.maximum(z, LEAKY_SLOPE * z)

    def _leaky_grad(self, z):
        return np.where(z > 0, 1.0, LEAKY_SLOPE)

    def forward(self, x) -> np.ndarray:
        return self._forward_cached(np.asarray(x, dtype=float))[0]

    def _forward_cached(self, x):
        squeeze = x.ndim == 1
        h = np.atleast_2d(x)
        if h.shape[1] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got {h.shape[1]}")
        pre = []
        acts = [h]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            pre.append(z)
            acts.append(self._leaky(z) if i < n_layers - 1 else z)
        out = acts[-1][0] if squeeze else acts[-1]
        return out, (pre, acts, squeeze)

    def backward(self, x, upstream):
        """Parameter gradients and the input gradient for a batch.

        ``upstream`` is dL/d(output); gradients are averaged nowhere - they
        are plain sums over the batch, matching what the loss builder feeds.
        """
        _, (pre, acts, _) = self._forward_cached(np.asarray(x, dtype=float))
        delta = np.atleast_2d(np.asarray(upstream, dtype=float))
        if delta.shape != acts[-1].shape:
            raise ValueError(
                f"upstream gradient shape {delta.shape} does not match output {acts[-1].shape}"
            )
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        for i in reversed(range(len(self.weights))):
            if i < len(self.weights) - 1:
                delta = delta * self._leaky_grad(pre[i])
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            delta = delta @ self.weights[i].T
        return grads_w + grads_b, delta

    # parameter order: all weight matrices input-to-output, then all biases
    def parameters(self):
        return self.weights + self.biases

    def set_parameters(self, params):
        n = len(self.weights)
        if len(params) != 2 * n:
            raise ValueError("parameter list length mismatch")
        for i in range(n):
            if params[i].shape != self.weights[i].shape:
                raise ValueError("weight shape mismatch")
            self.weights[i] = np.array(params[i], dtype=float)
        for i in range(n):
            if params[n + i].shape != self.biases[i].shape:
                raise ValueError("bias shape mismatch")
            self.biases[i] = np.array(params[n + i], dtype=float)

    def copy_from(self, other: "Mlp"):
        self.set_parameters([p.copy() for p in other.parameters()])


class Actor:
    """Policy net whose outputs are squashed onto [0, range) per component."""

    def __init__(self, mlp: Mlp, ranges):
        self.mlp = mlp
        self.ranges = np.asarray(ranges, dtype=float)
        if self.ranges.shape != (mlp.out_dim,):
            raise ValueError("one range per output component required")

    def normalized(self, state) -> np.ndarray:
        """Squashed action in [0, 1] per component."""
        return sigmoid(self.mlp.forward(state))

    def act(self, state) -> np.ndarray:
        return self.normalized(state) * self.ranges

    def backward_through_action(self, state, upstream_action):
        """Parameter gradients of sum(upstream * action(state))."""
        z = self.mlp.forward(state)
        s = sigmoid(z)
        upstream_z = np.asarray(upstream_action, dtype=float) * self.ranges * s * (1.0 - s)
        grads, _ = self.mlp.backward(state, upstream_z)
        return grads

    def backward_through_normalized(self, state, upstream_norm):
        """Parameter gradients of sum(upstream * normalized(state))."""
        z = self.mlp.forward(state)
        s = sigmoid(z)
        upstream_z = np.asarray(upstream_norm, dtype=float) * s * (1.0 - s)
        grads, _ = self.mlp.backward(state, upstream_z)
        return grads

    def parameters(self):
        return self.mlp.parameters()


def global_norm(grads) -> float:
    return math.sqrt(sum(float(np.sum(g**2)) for g in grads))


def clip_gradients(grads, max_norm: float):
    """Scale the whole gradient set so its global norm is at most max_norm."""
    norm = global_norm(grads)
    if norm > max_norm > 0:
        scale = max_norm / norm
        return [g * scale for g in grads], True
    return list(grads), False


def sgd_step(net, grads, lr: float, maximize: bool = False):
    sign = 1.0 if maximize else -1.0
    params = net.parameters()
    net.set_parameters([p + sign * lr * g for p, g in zip(params, grads)])


def soft_update(current, target, tau: float, direction: str = "standard"):
    """Blend current parameters into the target network in place.

    ``standard``: target <- tau*current + (1-tau)*target.
    ``reversed``: target <- tau*target + (1-tau)*current (tau = 1 leaves the
    target untouched).
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    cur = current.parameters()
    tgt = target.parameters()
    if len(cur) != len(tgt) or any(c.shape != t.shape for c, t in zip(cur, tgt)):
        raise ValueError("current and target parameter shapes disagree")
    if direction == "standard":
        new = [tau * c + (1.0 - tau) * t for c, t in zip(cur, tgt)]
    elif direction == "reversed":
        new = [tau * t + (1.0 - tau) * c for c, t in zip(cur, tgt)]
    else:
        raise ValueError(f"unknown soft-update direction {direction!r}")
    target.set_parameters(new)
