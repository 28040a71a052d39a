"""Transition replay with loss-driven priorities.

One store per control layer holds each joint transition once.  Beside it,
every critic (critic 0 the shared critic, critic 1 + i agent i's) keeps
its own reward, the critic loss computed when the transition was
stored, how many times it has been pulled into that critic's extraction
pool, and its current priority.  Priorities follow either the plain
loss-proportional rule or the rank-based rule that also demotes frequently
extracted records.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Batch",
    "ReplayBuffer",
    "priority_simple",
    "priority_ranked",
    "fill_extraction_pool",
]

# the rules refresh_priorities dispatches on
PRIORITY_RULES = ("ranked", "simple")


class Batch(NamedTuple):
    """Transitions drawn for one critic: joint arrays plus that critic's rewards.

    Batches of several critics stack along a leading axis of every field.
    """

    states: np.ndarray  # (n, n_agents, state_dim)
    actions: np.ndarray  # (n, n_agents, action_dim)
    rewards: np.ndarray  # (n,)
    next_states: np.ndarray  # (n, n_agents, state_dim)


def _rank_ascending(values: np.ndarray) -> np.ndarray:
    """1-based positions in the ascending stable sort along the last axis (ties by index)."""
    order = np.argsort(values, axis=-1, kind="stable")
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, np.arange(1.0, values.shape[-1] + 1), axis=-1)
    return ranks


def priority_simple(losses) -> np.ndarray:
    """Loss-proportional priorities along the last axis; uniform where every loss is zero."""
    losses = np.asarray(losses, dtype=float)
    if np.any(losses < 0):
        raise ValueError("losses must be nonnegative")
    total = losses.sum(axis=-1, keepdims=True)
    out = np.full(losses.shape, 1.0 / losses.shape[-1])
    np.divide(losses, total, out=out, where=total != 0)
    return out


def priority_ranked(losses, counts, mu: float, nu: float) -> np.ndarray:
    """Rank-based priorities along the last axis, demoting often-extracted records.

    Score = rank(loss) + reverse-rank(count); priorities are the normalized
    mu-th powers plus the floor offset nu, so each row sums to 1 + len * nu.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must lie in (0, 1)")
    losses = np.asarray(losses, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if losses.shape != counts.shape:
        raise ValueError("losses and counts must have equal length")
    loss_rank = _rank_ascending(losses)
    count_rank_rev = losses.shape[-1] + 1.0 - _rank_ascending(counts)
    score = (loss_rank + count_rank_rev) ** mu
    return score / score.sum(axis=-1, keepdims=True) + nu


class ReplayBuffer:
    """Oldest-first store of joint transitions with per-critic bookkeeping.

    Row t of ``states``, ``actions`` and ``next_states`` is the t-th oldest
    transition; ``rewards``, ``losses``, ``counts`` and ``priorities`` have
    one row per critic and one column per transition.  A full store drops
    its oldest transition by shifting every array one place.
    """

    def __init__(self, capacity: int, n_agents: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.size = 0
        self.states = np.zeros((capacity, n_agents, state_dim))
        self.actions = np.zeros((capacity, n_agents, action_dim))
        self.next_states = np.zeros((capacity, n_agents, state_dim))
        self.rewards = np.zeros((n_agents + 1, capacity))
        self.losses = np.zeros((n_agents + 1, capacity))
        self.counts = np.zeros((n_agents + 1, capacity), dtype=np.int64)
        self.priorities = np.zeros((n_agents + 1, capacity))

    def __len__(self) -> int:
        return self.size

    def filled(self, n: int | None = None) -> dict:
        """Every array's first ``n`` transitions (default: all held), as views by name."""
        n = self.size if n is None else n
        return {"states": self.states[:n], "actions": self.actions[:n],
                "next_states": self.next_states[:n], "rewards": self.rewards[:, :n],
                "losses": self.losses[:, :n], "counts": self.counts[:, :n],
                "priorities": self.priorities[:, :n]}

    def add(self, state, action, rewards, next_state, losses):
        """Append one transition; ``rewards`` and ``losses`` hold one value per critic."""
        if self.size == self.capacity:
            for a in (self.states, self.actions, self.next_states):
                a[:-1] = a[1:]
            for a in (self.rewards, self.losses, self.counts, self.priorities):
                a[:, :-1] = a[:, 1:]
            self.size -= 1
        t = self.size
        self.states[t] = state
        self.actions[t] = action
        self.next_states[t] = next_state
        self.rewards[:, t] = rewards
        self.losses[:, t] = losses
        self.counts[:, t] = 0
        self.priorities[:, t] = 0.0
        self.size += 1

    def refresh_priorities(self, rule: str, mu: float, nu: float):
        """Recompute every critic's priorities from its stored losses."""
        if self.size == 0:
            return
        if rule not in PRIORITY_RULES:
            raise ValueError(f"unknown priority rule {rule!r}")
        n = self.size
        if rule == "ranked":
            self.priorities[:, :n] = priority_ranked(self.losses[:, :n], self.counts[:, :n], mu, nu)
        else:
            self.priorities[:, :n] = priority_simple(self.losses[:, :n])


def fill_extraction_pool(
    buffer: ReplayBuffer,
    col: int,
    size: int,
    rng: np.random.Generator,
    prioritized: bool = True,
) -> np.ndarray:
    """Draw transition positions for critic ``col`` without replacement, priority-proportional.

    Every stored transition must already carry a finite loss for this
    critic.  Drawn positions get this critic's extraction counter bumped.
    When the store holds no more than ``size`` transitions the pool is the
    whole store.
    """
    n = len(buffer)
    if n == 0:
        raise ValueError("cannot fill a pool from an empty buffer")
    if not np.all(np.isfinite(buffer.losses[col, :n])):
        raise ValueError("all records need a finite stored loss before pooling")
    take = min(size, n)
    if prioritized:
        weights = buffer.priorities[col, :n]
        if weights.sum() <= 0:
            weights = np.full(n, 1.0 / n)
        probs = weights / weights.sum()
        idx = rng.choice(n, size=take, replace=False, p=probs)
    else:
        idx = rng.choice(n, size=take, replace=False)
    buffer.counts[col, idx] += 1
    return idx
