"""Two-hidden-layer perceptrons with hand-written backprop.

Training stays in float64 numpy so gradients can be checked against central
finite differences exactly.  Actors squash their raw outputs onto bounded
action ranges with a scaled logistic; critics are unsquashed scalar heads.
One ``Mlp`` may hold a stack of equally shaped nets; the gradient helpers
then keep the stack axis and treat each member on its own.
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
    """Fully-connected net: affine / leaky-rectifier pairs, linear head.

    Parameters may carry leading stack axes - weights (..., fan_in,
    fan_out), biases (..., fan_out) - so one object holds a whole group of
    equally shaped nets; ``forward`` and ``backward`` work on the trailing
    two axes of their input and broadcast over the leading ones.  Member
    ``g`` of a stack is ``net[g]``, whose parameters are views into the
    stack.
    """

    def __init__(self, sizes, rng):
        """Glorot-uniform weights and zero biases drawn from ``rng``.

        A list of generators makes a stack: member g draws from ``rng[g]``
        exactly the parameters ``Mlp(sizes, rng[g])`` would.
        """
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = [int(s) for s in sizes]
        single = isinstance(rng, np.random.Generator)
        rngs = [rng] if single else list(rng)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w = np.empty((len(rngs), fan_in, fan_out))
            for g, r in enumerate(rngs):
                w[g] = r.uniform(-bound, bound, size=(fan_in, fan_out))
            self.weights.append(w[0] if single else w)
            self.biases.append(np.zeros(fan_out if single else (len(rngs), fan_out)))

    def __getitem__(self, index) -> "Mlp":
        """Stack members: views for an integer or slice, copies for an index array."""
        member = Mlp.__new__(Mlp)
        member.sizes = self.sizes
        member.weights = [w[index] for w in self.weights]
        member.biases = [b[index] for b in self.biases]
        return member

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

    def forward(self, x, keep=False):
        """Outputs for the rows of ``x``; a 1-D ``x`` is one row.

        With ``keep`` also returns the layer values that ``backward`` reuses.
        """
        x = np.asarray(x, dtype=float)
        h = np.atleast_2d(x)
        if h.shape[-1] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got {h.shape[-1]}")
        pre = []
        acts = [h]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b[..., None, :]
            pre.append(z)
            acts.append(self._leaky(z) if i < n_layers - 1 else z)
        out = acts[-1][0] if x.ndim == 1 else acts[-1]
        return (out, (pre, acts)) if keep else out

    def backward(self, x, upstream, cache=None, params=True):
        """Parameter gradients and the input gradient for a batch.

        ``upstream`` is dL/d(output); gradients are averaged nowhere - they
        are plain sums over the rows, matching what the loss builder feeds.
        ``cache`` is what ``forward(x, keep=True)`` returned, and spares a
        second forward pass; without ``params`` only the input gradient is
        formed (the parameter gradients come back as None).
        """
        if cache is None:
            _, cache = self.forward(x, keep=True)
        pre, acts = cache
        delta = np.atleast_2d(np.asarray(upstream, dtype=float))
        if delta.shape != acts[-1].shape:
            raise ValueError(
                f"upstream gradient shape {delta.shape} does not match output {acts[-1].shape}"
            )
        n = len(self.weights)
        grads_w = [None] * n
        grads_b = [None] * n
        for i in reversed(range(n)):
            if i < n - 1:
                delta = delta * self._leaky_grad(pre[i])
            if params:
                grads_w[i] = acts[i].swapaxes(-1, -2) @ delta
                grads_b[i] = delta.sum(axis=-2)
            delta = delta @ self.weights[i].swapaxes(-1, -2)
        return (grads_w + grads_b if params else None), delta

    # parameter order: all weight matrices input-to-output, then all biases
    def parameters(self):
        return self.weights + self.biases

    def set_parameters(self, params):
        """Copy ``params`` into this net's arrays in place (stack views stay live)."""
        own = self.parameters()
        if len(params) != len(own):
            raise ValueError("parameter list length mismatch")
        for k, (p, q) in enumerate(zip(own, params)):
            if p.shape != q.shape:
                raise ValueError(f"{'weight' if k < len(self.weights) else 'bias'} shape mismatch")
        for p, q in zip(own, params):
            p[...] = q

    def copy_from(self, other: "Mlp"):
        self.set_parameters(other.parameters())


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
        return self.backward_through_normalized(
            state, np.asarray(upstream_action, dtype=float) * self.ranges)

    def backward_through_normalized(self, state, upstream_norm, cache=None):
        """Parameter gradients of sum(upstream * normalized(state)).

        ``cache`` is what ``mlp.forward(state, keep=True)`` returned.
        """
        if cache is None:
            _, cache = self.mlp.forward(state, keep=True)
        s = sigmoid(cache[1][-1])
        upstream_z = np.asarray(upstream_norm, dtype=float) * s * (1.0 - s)
        grads, _ = self.mlp.backward(state, upstream_z, cache=cache)
        return grads

    def parameters(self):
        return self.mlp.parameters()


def global_norm(grads, lead: int = 0):
    """Euclidean norm of a gradient list, one per member of its ``lead`` stack axes."""
    total = 0
    for g in grads:
        total = total + np.sum(g**2, axis=tuple(range(lead, g.ndim)))
    return np.sqrt(total)


def clip_gradients(grads, max_norm: float, lead: int = 0):
    """Scale each member's gradient set so its global norm is at most max_norm."""
    norm = global_norm(grads, lead)
    fired = (norm > max_norm) & (max_norm > 0)
    if not fired.any():
        return list(grads), fired
    scale = np.ones_like(norm)
    np.divide(max_norm, norm, out=scale, where=fired)
    return [g * scale.reshape(scale.shape + (1,) * (g.ndim - lead)) for g in grads], fired


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
