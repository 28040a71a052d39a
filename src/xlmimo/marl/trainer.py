"""Actor-critic training for the power-control agents.

Every agent owns a local actor (and, in the decoupled variants, a local
critic); one shared critic over the joint state-action drives the
centralized part of the policy gradient and regresses on the team reward.
The networks are stacked per control layer: all agents' actors (targets,
local critics) are one ``Mlp`` whose parameters carry a leading share-group
axis, so acting, scoring and every update make one matmul per network
layer for all agents of the layer, and a checkpoint writes each stack once.
Replay keeps each joint transition once per layer, with one reward, loss,
extraction count and priority per critic; every critic's extraction pool
is refilled every step, priority-proportional in the prioritized variants.

Each stochastic piece (initialisation, exploration, pooling, batch
sampling) draws from its own named stream, so switching a variant feature
off leaves every other component's randomness untouched - degenerate
configurations reproduce their reference algorithm trace exactly.
"""

from __future__ import annotations

import base64
import copy
from dataclasses import dataclass

import numpy as np

from ..seeding import stream
from .nets import Actor, Mlp, clip_gradients, sgd_step, sigmoid, soft_update
from .replay import Batch, ReplayBuffer, fill_extraction_pool

__all__ = ["VariantSpec", "VARIANTS", "resolve_variant", "TrainerSettings", "MarlCore", "Trainer"]

# version 4 writes each network once, as its stacked parameters, and every
# network parameter and replay array as an array leaf (``_leaf``); version 3
# wrote one parameter set per agent and is not read, nor are older versions
CHECKPOINT_VERSION = 4


def _leaf(arr: np.ndarray) -> dict:
    """One array as a JSON leaf: dtype, shape and the base64 of its C-order little-endian bytes."""
    arr = np.asarray(arr, dtype=arr.dtype.newbyteorder("<"))
    return {"dtype": arr.dtype.str, "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _unleaf(leaf, dtype, where: str) -> np.ndarray:
    """The read-only ``dtype`` array a ``_leaf`` holds; another dtype, bad base64 or
    a byte count that does not fit the shape raises ValueError naming ``where``."""
    dtype = np.dtype(dtype).newbyteorder("<").str
    if not isinstance(leaf, dict) or set(leaf) != {"dtype", "shape", "data"}:
        raise ValueError(f"{where} is not an array leaf (dtype, shape, data)")
    if leaf["dtype"] != dtype:
        raise ValueError(f"{where} has dtype {leaf['dtype']!r}; expected {dtype!r}")
    shape = leaf["shape"]
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ValueError(f"{where} has shape {shape!r}; expected a list of sizes")
    try:
        raw = base64.b64decode(leaf["data"], validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ValueError(f"{where} data is not valid base64") from None
    size = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    if len(raw) != size:
        raise ValueError(f"{where} holds {len(raw)} bytes; shape {shape} needs {size}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


@dataclass(frozen=True)
class VariantSpec:
    """Feature switches distinguishing the algorithm family members."""

    local_critic: bool
    prioritized: bool
    ddpg_weight: float = 1.0


VARIANTS = {
    "maddpg": VariantSpec(local_critic=False, prioritized=False),
    "de-maddpg": VariantSpec(local_critic=True, prioritized=False),
    "pes-maddpg": VariantSpec(local_critic=False, prioritized=True),
    "mimo-maddpg": VariantSpec(local_critic=True, prioritized=True),
}


def resolve_variant(variant) -> VariantSpec:
    if isinstance(variant, VariantSpec):
        return variant
    try:
        return VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {sorted(VARIANTS)}"
        ) from None


@dataclass(frozen=True)
class TrainerSettings:
    """Training hyperparameters of one control layer, built from an ``ExperimentConfig``."""

    episodes: int
    steps: int
    hidden: tuple
    lr_actor: float
    lr_critic: float
    tau: float
    soft_update_direction: str
    clip_norm: float
    gamma: float
    buffer_capacity: int
    pool_size: int
    update_after: int
    batch_global: int
    batch_local: int
    noise_start: float
    noise_end: float
    priority_rule: str
    priority_mu: float
    priority_nu: float


class MarlCore:
    """Agents, critics, replay and update rules for one control layer.

    The actors, actor targets, local critics and local-critic targets of
    all share groups live in one stacked ``Mlp`` each (member g is group g's
    parameter set), so every network layer is one matmul for all agents.
    Agent i's member is ``stack[_group_of[i]]``; checkpoints hold each stack
    once.
    """

    def __init__(
        self,
        layer: int,
        n_agents: int,
        state_dim: int,
        action_ranges: np.ndarray,
        settings: TrainerSettings,
        variant: VariantSpec,
        master_seed: int,
        share_groups=None,
    ):
        self.layer = layer
        self.n_agents = n_agents
        self.state_dim = state_dim
        self.ranges = np.asarray(action_ranges, dtype=float)
        self.action_dim = self.ranges.shape[0]
        self.cfg = settings
        self.variant = variant
        hid = list(settings.hidden)
        # agents with the same group id share one parameter set
        ids = list(range(n_agents)) if share_groups is None else list(share_groups)
        if len(ids) != n_agents:
            raise ValueError("one share-group id per agent required")
        order = list(dict.fromkeys(ids))  # group ids in order of first appearance
        members = [[i for i in range(n_agents) if ids[i] == g] for g in order]
        if len({len(m) for m in members}) != 1:
            raise ValueError("every share group needs the same number of agents")
        self._n_groups = len(order)
        self._group_of = np.array([order.index(g) for g in ids])
        # update wave j steps the j-th member of every group, all groups at once
        self._waves = [np.array(wave) for wave in zip(*members)]

        def stacks(kind, sizes):
            """Current and target stack of one net per group, equal at the start."""
            current = Mlp(sizes, [stream(master_seed, "init", kind, layer, g) for g in order])
            return current, current[np.arange(len(order))]

        self.actor_stack, self.actor_target_stack = stacks(
            "actor", [state_dim, *hid, self.action_dim])
        self.local_critic_stack = self.local_critic_target_stack = None
        if variant.local_critic:
            self.local_critic_stack, self.local_critic_target_stack = stacks(
                "critic_local", [state_dim + self.action_dim, *hid, 1])

        joint_dim = n_agents * (state_dim + self.action_dim)
        self.global_critic = Mlp([joint_dim, *hid, 1],
                                 stream(master_seed, "init", "critic_global", layer))
        self.global_critic_target = copy.deepcopy(self.global_critic)

        # replay row, pool and stream 0 serve the shared critic, 1 + i agent i's
        self.replay = ReplayBuffer(settings.buffer_capacity, n_agents, state_dim, self.action_dim)
        self.pools = [np.zeros(0, dtype=np.int64)] * (n_agents + 1)

        self._explore = [stream(master_seed, "explore", layer, i) for i in range(n_agents)]
        self._pool_rngs = [stream(master_seed, "pool_global", layer)] + [
            stream(master_seed, "pool_local", layer, i) for i in range(n_agents)
        ]
        self._upd_rngs = [stream(master_seed, "update_global", layer)] + [
            stream(master_seed, "update_local", layer, i) for i in range(n_agents)
        ]

    def _members(self, stack: Mlp, agents) -> Mlp:
        """The stack's parameter sets of ``agents``, one member per agent."""
        groups = self._group_of[agents]
        if np.array_equal(groups, np.arange(self._n_groups)):
            return stack
        return stack[groups]

    # -- acting ---------------------------------------------------------------
    def act(self, states: np.ndarray, noise_std: float = 0.0) -> np.ndarray:
        """Raw actions, one row per agent; noise is added in [0, 1] units."""
        agents = np.arange(self.n_agents)
        states = np.asarray(states, dtype=float)
        a01 = sigmoid(self._members(self.actor_stack, agents).forward(states[:, None, :]))[:, 0]
        if noise_std > 0:
            noise = np.stack([rng.standard_normal(self.action_dim) for rng in self._explore])
            a01 = np.clip(a01 + noise_std * noise, 0.0, 1.0)
        return a01 * self.ranges

    def greedy(self, states: np.ndarray) -> np.ndarray:
        return self.act(states, noise_std=0.0)

    # -- replay ---------------------------------------------------------------
    def _joint_input(self, states, actions):
        """Joint critic input: flattened states, then actions in [0, 1] units.

        The last two axes of ``states``/``actions`` are (agent, feature);
        any leading axes are kept.
        """
        states = np.asarray(states, dtype=float)
        actions = np.asarray(actions, dtype=float)
        lead = states.shape[:-2]
        return np.concatenate([states.reshape(*lead, -1),
                               (actions / self.ranges).reshape(*lead, -1)], axis=-1)

    def _local_input(self, state, action):
        return np.concatenate([state, action / self.ranges], axis=-1)

    def bellman_losses(self, states, actions, rewards, next_states):
        """Squared target-network errors for a fresh transition."""
        agents = np.arange(self.n_agents)
        gamma = self.cfg.gamma
        team = float(np.sum(rewards))
        q_now = float(self.global_critic.forward(self._joint_input(states, actions))[0])
        next_actions = sigmoid(self._members(self.actor_target_stack, agents).forward(
            next_states[:, None, :]))[:, 0] * self.ranges
        y = team + gamma * float(
            self.global_critic_target.forward(self._joint_input(next_states, next_actions))[0])
        loss_g = (q_now - y) ** 2
        if not self.variant.local_critic:
            return loss_g, [loss_g] * self.n_agents
        q = self._members(self.local_critic_stack, agents).forward(
            self._local_input(states, actions)[:, None, :])[:, 0, 0]
        q_next = self._members(self.local_critic_target_stack, agents).forward(
            self._local_input(next_states, next_actions)[:, None, :])[:, 0, 0]
        # scalar by scalar: a numpy scalar's ** 2 is C pow, an array's is x * x
        return loss_g, [(float(q_i) - (r + gamma * float(q_n))) ** 2
                        for q_i, r, q_n in zip(q, rewards, q_next)]

    def record(self, states, actions, rewards, next_states):
        """Score the transition with the target nets and store it once."""
        states = np.asarray(states, dtype=float)
        actions = np.asarray(actions, dtype=float)
        rewards = np.asarray(rewards, dtype=float)
        next_states = np.asarray(next_states, dtype=float)
        loss_g, losses_l = self.bellman_losses(states, actions, rewards, next_states)
        self.replay.add(states, actions, [float(rewards.sum()), *rewards], next_states,
                        [loss_g, *losses_l])

    def refresh_and_fill(self):
        cfg = self.cfg
        self.replay.refresh_priorities(cfg.priority_rule, cfg.priority_mu, cfg.priority_nu)
        self.pools = [
            fill_extraction_pool(self.replay, c, cfg.pool_size, rng, self.variant.prioritized)
            for c, rng in enumerate(self._pool_rngs)
        ]

    # -- updates ----------------------------------------------------------------
    def _positions(self, col: int, size: int) -> np.ndarray:
        """Replay rows drawn from critic ``col``'s pool with its update stream."""
        pool = self.pools[col]
        return pool[self._upd_rngs[col].choice(len(pool), min(size, len(pool)), replace=False)]

    def _sample(self, cols, size: int) -> Batch:
        """A batch for critic ``cols``; an array of critics stacks their batches."""
        cols = np.asarray(cols)
        pos = np.reshape([self._positions(c, size) for c in cols.flat], (*cols.shape, -1))
        r = self.replay
        return Batch(r.states[pos], r.actions[pos], r.rewards[cols[..., None], pos],
                     r.next_states[pos])

    def critic_loss_global(self, batch: Batch):
        """Mean squared Bellman error of the shared critic plus its gradients."""
        n = len(batch.rewards)
        xs = self._joint_input(batch.states, batch.actions)
        next_states = batch.next_states  # (n, agents, sd)
        acts01 = sigmoid(self._members(self.actor_target_stack, np.arange(self.n_agents)).forward(
            next_states.swapaxes(0, 1)))  # (agents, n, ad)
        joint_next = np.concatenate(
            [next_states.reshape(n, -1), acts01.swapaxes(0, 1).reshape(n, -1)], axis=1)
        ys = batch.rewards + self.cfg.gamma * self.global_critic_target.forward(joint_next)[:, 0]
        q, cache = self.global_critic.forward(xs, keep=True)
        err = q[:, 0] - ys
        loss = float(np.mean(err**2))
        upstream = (2.0 * err / n)[:, None]
        grads, _ = self.global_critic.backward(xs, upstream, cache=cache)
        return loss, grads

    @staticmethod
    def _own(batch: Batch, agents):
        """Each batch row's own agent's states, actions and next states: (W, n, dim)."""
        w = np.arange(len(agents))
        return tuple(a[w, :, agents] for a in (batch.states, batch.actions, batch.next_states))

    def critic_loss_local(self, batch: Batch, agents):
        """Local critics' mean squared Bellman errors and gradients for ``agents``.

        ``batch`` holds one batch per agent along a leading axis; losses and
        gradients keep that axis.
        """
        agents = np.asarray(agents)
        n = batch.rewards.shape[-1]
        states_i, actions_i, next_i = self._own(batch, agents)
        xs = self._local_input(states_i, actions_i)
        a01_next = sigmoid(self._members(self.actor_target_stack, agents).forward(next_i))
        q_next = self._members(self.local_critic_target_stack, agents).forward(
            np.concatenate([next_i, a01_next], axis=-1))[..., 0]
        ys = batch.rewards + self.cfg.gamma * q_next
        critic = self._members(self.local_critic_stack, agents)
        q, cache = critic.forward(xs, keep=True)
        err = q[..., 0] - ys
        losses = np.mean(err**2, axis=-1)
        upstream = (2.0 * err / n)[..., None]
        grads, _ = critic.backward(xs, upstream, cache=cache)
        return losses, grads

    def actor_gradient(self, batch: Batch, agents):
        """Ascent direction of the critic-value objective for the actors of ``agents``.

        The centralized term differentiates the shared critic at the joint
        input with the agent's action slot replaced by its current policy;
        the decoupled variants add the local-critic term.  ``batch`` holds
        one batch per agent along a leading axis, and so do the gradients.
        """
        agents = np.asarray(agents)
        w = np.arange(len(agents))
        n = batch.rewards.shape[-1]
        states_i = self._own(batch, agents)[0]
        actor = Actor(self._members(self.actor_stack, agents), self.ranges)
        z, cache = actor.mlp.forward(states_i, keep=True)
        a01 = sigmoid(z)

        acts01 = batch.actions / self.ranges
        acts01[w, :, agents] = a01
        joint = np.concatenate([batch.states.reshape(*acts01.shape[:2], -1),
                                acts01.reshape(*acts01.shape[:2], -1)], axis=-1)
        mean = np.full((len(agents), n, 1), 1.0 / n)
        _, in_grad = self.global_critic.backward(joint, mean, params=False)
        upstream = in_grad[..., self.n_agents * self.state_dim:].reshape(acts01.shape)[w, :, agents]
        grads = actor.backward_through_normalized(states_i, upstream, cache)

        if self.variant.local_critic and self.variant.ddpg_weight != 0.0:
            local_x = np.concatenate([states_i, a01], axis=-1)
            _, in_grad_l = self._members(self.local_critic_stack, agents).backward(
                local_x, mean, params=False)
            grads_l = actor.backward_through_normalized(
                states_i, in_grad_l[..., self.state_dim:], cache)
            grads = [g + self.variant.ddpg_weight * gl for g, gl in zip(grads, grads_l)]
        return grads

    def ready(self) -> bool:
        return len(self.replay) >= self.cfg.update_after

    def update(self):
        """One round of critic/actor updates with clipped plain SGD.

        The agents step in waves, one member of every share group per wave,
        so a shared parameter set still takes its members' steps in turn.
        """
        if not self.ready():
            return {}
        cfg = self.cfg
        batch_g = self._sample(0, cfg.batch_global)
        loss_g, grads = self.critic_loss_global(batch_g)
        grads, _ = clip_gradients(grads, cfg.clip_norm)
        sgd_step(self.global_critic, grads, cfg.lr_critic)
        soft_update(self.global_critic, self.global_critic_target, cfg.tau, cfg.soft_update_direction)

        local = self.variant.local_critic
        local_losses = np.empty(self.n_agents)
        for agents in self._waves:
            batch_l = self._sample(1 + agents, cfg.batch_local)
            if local:
                local_losses[agents], grads_l = self.critic_loss_local(batch_l, agents)
                grads_l, _ = clip_gradients(grads_l, cfg.clip_norm, lead=1)
                sgd_step(self.local_critic_stack, grads_l, cfg.lr_critic)
            a_grads = self.actor_gradient(batch_l, agents)
            a_grads, _ = clip_gradients(a_grads, cfg.clip_norm, lead=1)
            sgd_step(self.actor_stack, a_grads, cfg.lr_actor, maximize=True)
            if local:
                soft_update(self.local_critic_stack, self.local_critic_target_stack, cfg.tau,
                            cfg.soft_update_direction)
            soft_update(self.actor_stack, self.actor_target_stack, cfg.tau,
                        cfg.soft_update_direction)
        out = {"critic_loss_global": loss_g}
        if local:
            out["critic_loss_local_mean"] = float(np.mean(local_losses))
        return out

    # -- checkpoints ----------------------------------------------------------
    def _header(self) -> dict:
        """The checkpoint fields a restoring core must match as they are."""
        return {"layer": self.layer, "n_agents": self.n_agents, "state_dim": self.state_dim,
                "action_ranges": self.ranges.tolist()}

    def _nets(self) -> dict:
        """This core's networks, keyed as in checkpoints."""
        nets = {"actor_stack": self.actor_stack, "actor_target_stack": self.actor_target_stack,
                "global_critic": self.global_critic,
                "global_critic_target": self.global_critic_target}
        if self.variant.local_critic:
            nets["local_critic_stack"] = self.local_critic_stack
            nets["local_critic_target_stack"] = self.local_critic_target_stack
        return nets

    def _streams(self) -> dict:
        """This core's random streams, keyed as in checkpoints."""
        return {"explore": self._explore, "pool": self._pool_rngs, "update": self._upd_rngs}

    def state_dict(self) -> dict:
        """JSON-serializable dump: nets, replay contents and stream states.

        Every network is written once, as the list of its ``parameters()``
        leaves: a stack's weights are (G, fan_in, fan_out) and its biases
        (G, fan_out), member g being share group g.  Replay arrays are
        leaves trimmed to the filled rows; the rest is plain JSON.
        """
        return {
            **self._header(),
            **{name: [_leaf(p) for p in m.parameters()] for name, m in self._nets().items()},
            "replay": {key: _leaf(arr) for key, arr in self.replay.filled().items()},
            "rng": {name: [g.bit_generator.state for g in gens]
                    for name, gens in self._streams().items()},
        }

    def load_state_dict(self, state: dict):
        """Restore a ``state_dict`` dump.

        Another field set, header value, stream count, a leaf that does not
        decode, or any shape this core cannot hold raises ValueError naming
        the layer and the field.  Decoded arrays are copied into this core's
        own buffers.
        """
        where = f"checkpoint layer {self.layer}"
        header, nets = self._header(), self._nets()
        fields = {*header, *nets, "replay", "rng"}
        if set(state) != fields:
            raise ValueError(f"{where} holds fields {sorted(state)}; "
                             f"this configuration needs {sorted(fields)}")
        for key, want in header.items():
            if state[key] != want:
                raise ValueError(f"{where} {key} is {state[key]!r}; "
                                 f"this configuration needs {want!r}")
        streams = self._streams()
        for name, gens in streams.items():
            if len(state["rng"][name]) != len(gens):
                raise ValueError(f"{where} rng.{name} holds {len(state['rng'][name])} stream "
                                 f"states; this configuration needs {len(gens)}")

        def decode(name, leaf, dtype=float):
            return _unleaf(leaf, dtype, f"{where} {name}")

        for name, m in nets.items():
            params = [decode(f"{name}[{j}]", leaf) for j, leaf in enumerate(state[name])]
            try:
                m.set_parameters(params)
            except ValueError as err:
                raise ValueError(f"{where} {name}: {err}") from None
        r, data = self.replay, state["replay"]
        arrays = {key: decode(key, data[key], live.dtype) for key, live in r.filled(0).items()}
        n = arrays["rewards"].shape[-1] if arrays["rewards"].ndim else 0
        if n > r.capacity:
            raise ValueError(f"{where} holds {n} transitions; buffer_capacity is {r.capacity}")
        for key, live in r.filled(n).items():
            if arrays[key].shape != live.shape:
                raise ValueError(f"{where} {key} has shape {arrays[key].shape}; "
                                 f"this configuration needs {live.shape}")
            live[...] = arrays[key]
        r.size = n
        for name, gens in streams.items():
            for g, st in zip(gens, state["rng"][name]):
                g.bit_generator.state = st


class Trainer:
    """Episode loop: act with exploration noise, step the world, replay, update.

    Handles the single-layer architecture; the double-layer trainer extends
    the per-step hooks.  ``env`` needs ``reset``, ``step``, ``n_agents``,
    ``state_dim`` and ``action_ranges``; ``step`` receives the actors' raw
    action rows, one per agent, in ``action_ranges`` column order, and the
    amplitudes ``_choose`` picked (None in this architecture).  The episode
    metrics copy ``power_trace``, ``budgets`` and ``positions`` from
    ``step``'s ``info`` (``trajectory.jsonl`` is built from them).
    """

    def __init__(self, env, settings: TrainerSettings, variant, master_seed: int,
                 scenario: str = "static"):
        self.env = env
        self.cfg = settings
        self.variant = resolve_variant(variant)
        self.seed = master_seed
        self.scenario = scenario
        self.core = MarlCore(
            layer=1,
            n_agents=env.n_agents,
            state_dim=env.state_dim,
            action_ranges=env.action_ranges,
            settings=settings,
            variant=self.variant,
            master_seed=master_seed,
        )
        self.global_step = 0

    # -- exploration schedule -------------------------------------------------
    def noise_std(self) -> float:
        total = self.cfg.episodes * self.cfg.steps
        if total <= 1:
            return self.cfg.noise_end
        frac = min(1.0, self.global_step / (total - 1))
        return self.cfg.noise_start + (self.cfg.noise_end - self.cfg.noise_start) * frac

    # -- per-step hooks (overridden by the double-layer trainer) --------------
    def _choose(self, obs, noise_std, env):
        return self.core.act(obs, noise_std), None, {}

    def _store(self, obs, raw, rewards, next_obs, extras):
        self.core.record(obs, raw, rewards, next_obs)
        self.core.refresh_and_fill()

    def _update(self):
        return self.core.update()

    # -- episodes ---------------------------------------------------------------
    def train_episode(self) -> dict:
        obs = self.env.reset()
        metrics = {
            "rewards": [],
            "sum_se": [],
            "actions": [],
            "power_trace": [],
            "budgets": [],
            "positions": [],
            "losses": [],
            "priority_stats": [],
        }
        for _ in range(self.cfg.steps):
            noise = self.noise_std()
            raw, amplitudes, extras = self._choose(obs, noise, self.env)
            next_obs, rewards, info = self.env.step(raw, amplitudes=amplitudes)
            self._store(obs, raw, rewards, next_obs, extras)
            losses = self._update()
            obs = next_obs
            self.global_step += 1
            metrics["rewards"].append(np.asarray(rewards, dtype=float))
            metrics["sum_se"].append(float(np.sum(rewards)))
            metrics["actions"].append(raw.copy())
            metrics["power_trace"].append(info["power_trace"])
            metrics["budgets"].append(info["budgets"])
            metrics["positions"].append(info["positions"])
            metrics["losses"].append(losses)
            prs = self.core.replay.priorities[0, : len(self.core.replay)]
            metrics["priority_stats"].append(
                (float(np.min(prs)), float(np.mean(prs)), float(np.max(prs)))
            )
        return metrics

    def greedy_episode(self, env) -> dict:
        """Noise-free ``cfg.steps``-step rollout on ``env`` without learning."""
        obs = env.reset()
        rewards_trace = []
        sum_trace = []
        for _ in range(self.cfg.steps):
            raw, amplitudes, _ = self._choose(obs, 0.0, env)
            obs, rewards, _ = env.step(raw, amplitudes=amplitudes)
            rewards_trace.append(np.asarray(rewards, dtype=float))
            sum_trace.append(float(np.sum(rewards)))
        return {"rewards": rewards_trace, "sum_se": sum_trace}

    # -- checkpoints --------------------------------------------------------------
    def _layers(self) -> dict:
        """The control layers' cores, keyed as in checkpoints."""
        return {"1": self.core}

    def state_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "scenario": self.scenario,
            "global_step": self.global_step,
            "layers": {key: core.state_dict() for key, core in self._layers().items()},
        }

    def load_state_dict(self, state: dict):
        if state.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {state.get('version')}; "
                f"this program reads version {CHECKPOINT_VERSION}"
            )
        if state.get("scenario") != self.scenario:
            raise ValueError(f"checkpoint holds scenario {state.get('scenario')!r}; "
                             f"this configuration has scenario {self.scenario!r}")
        layers = self._layers()
        if sorted(state["layers"]) != sorted(layers):
            raise ValueError(f"checkpoint holds layers {sorted(state['layers'])}; "
                             f"this configuration has {sorted(layers)}")
        self.global_step = int(state["global_step"])
        for key, core in layers.items():
            core.load_state_dict(state["layers"][key])
            # every training step stores one transition per layer
            if len(core.replay) != min(self.global_step, core.replay.capacity):
                raise ValueError(f"checkpoint layer {key} holds {len(core.replay)} transitions "
                                 f"after {self.global_step} steps; buffer_capacity is "
                                 f"{core.replay.capacity}")
