import math

import numpy as np
import pytest

from xlmimo.marl.nets import Actor, Mlp, global_norm, sgd_step, sigmoid, soft_update
from xlmimo.marl.replay import (
    Batch,
    ReplayBuffer,
    fill_extraction_pool,
    priority_ranked,
    priority_simple,
)
from xlmimo.seeding import stream
from xlmimo.marl.trainer import (
    MarlCore,
    Trainer,
    TrainerSettings,
    VariantSpec,
    resolve_variant,
)


class QuadraticBandit:
    """One static agent; reward is a concave function of its power."""

    def __init__(self, p_max=0.2, p_star=0.12):
        self.p_max = p_max
        self.p_star = p_star
        self.n_agents = 1
        self.state_dim = 1

    @property
    def action_ranges(self):
        return np.array([self.p_max])

    def reset(self):
        return np.array([[1.0]])

    def reward(self, p):
        return 1.0 - ((p - self.p_star) / self.p_max) ** 2

    def step(self, actions, amplitudes=None):
        p = float(actions[0, 0])
        info = {"power_trace": [p], "budgets": [p], "positions": np.zeros((1, 3))}
        return np.array([[1.0]]), np.array([self.reward(p)]), info


def small_settings(**over):
    base = dict(
        episodes=3,
        steps=10,
        hidden=(16, 8),
        buffer_capacity=64,
        pool_size=16,
        update_after=8,
        batch_global=8,
        batch_local=8,
    )
    base.update(over)
    return TrainerSettings(**base)


def constant_critic(critic: Mlp, value: float):
    params = [np.zeros_like(p) for p in critic.parameters()]
    params[len(critic.weights) * 2 - 1] = np.array([value])
    critic.set_parameters(params)


def make_core(variant="mimo-maddpg", n_agents=2, seed=0, **over):
    return MarlCore(
        layer=1,
        n_agents=n_agents,
        state_dim=1,
        action_ranges=np.array([0.2]),
        settings=small_settings(**over),
        variant=resolve_variant(variant),
        master_seed=seed,
    )


def fake_batch(core, n=4, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        s = rng.uniform(0, 1, (core.n_agents, core.state_dim))
        a = rng.uniform(0, 0.2, (core.n_agents, core.action_dim))
        rows.append((s, a, rng.uniform(0, 1), rng.uniform(0, 1, (core.n_agents, core.state_dim))))
    return Batch(*(np.array(column) for column in zip(*rows)))


def one_member(batch):
    """One agent's batch as the single member of a wave."""
    return Batch(*(np.asarray(a)[None] for a in batch))


def local_loss(core, batch, agent):
    """``critic_loss_local`` of one agent on its own batch."""
    losses, grads = core.critic_loss_local(one_member(batch), [agent])
    return float(losses[0]), [g[0] for g in grads]


def actor_grad(core, batch, agent):
    """``actor_gradient`` of one agent on its own batch."""
    return [g[0] for g in core.actor_gradient(one_member(batch), [agent])]


class TestVariants:
    def test_known_names(self):
        assert resolve_variant("mimo-maddpg").local_critic
        assert resolve_variant("mimo-maddpg").prioritized
        assert not resolve_variant("maddpg").local_critic
        assert not resolve_variant("de-maddpg").prioritized
        assert not resolve_variant("pes-maddpg").local_critic
        with pytest.raises(ValueError, match="unknown variant"):
            resolve_variant("td3")


class TestShareGroups:
    def test_unequal_groups_rejected(self):
        with pytest.raises(ValueError, match="same number of agents"):
            MarlCore(2, 3, 2, np.array([1.0]), small_settings(), resolve_variant("maddpg"), 0,
                     share_groups=[0, 0, 1])

    def test_group_members_share_one_view(self):
        core = MarlCore(2, 4, 2, np.array([1.0]), small_settings(), resolve_variant("mimo-maddpg"),
                        0, share_groups=["a", "a", "b", "b"])
        assert core.actors[0] is core.actors[1] and core.actors[1] is not core.actors[2]
        assert core.local_critic_targets[2] is core.local_critic_targets[3]
        assert len(core.actor_stack.biases[0]) == 2


class TestCriticLosses:
    def test_perfect_critic_zero_loss(self):
        core = make_core(n_agents=1, gamma=0.99)
        constant_critic(core.global_critic, 0.0)
        constant_critic(core.global_critic_target, 0.0)
        batch = fake_batch(core, 3)
        batch.rewards[:] = 0.0
        loss, grads = core.critic_loss_global(batch)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads)

    def test_discount_free_loss(self):
        core = make_core(n_agents=1, gamma=0.99)
        object.__setattr__(core.cfg, "gamma", 0.0)  # frozen dataclass, test-only
        constant_critic(core.global_critic, 0.7)
        batch = fake_batch(core, 5)
        loss, _ = core.critic_loss_global(batch)
        expected = float(np.mean([(0.7 - r) ** 2 for r in batch.rewards]))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_hand_computed_bellman_value(self):
        core = make_core(n_agents=1, gamma=0.99)
        constant_critic(core.global_critic, 1.0)
        constant_critic(core.global_critic_target, 1.0)
        batch = fake_batch(core, 1)
        batch.rewards[0] = 0.5
        loss, _ = core.critic_loss_global(batch)
        # y = 0.5 + 0.99 * 1 = 1.49; (1 - 1.49)^2 = 0.2401
        assert loss == pytest.approx(0.2401, rel=1e-12)

    def test_local_mirrors_global(self):
        core = make_core(n_agents=2, gamma=0.99)
        constant_critic(core.local_critics[0], 1.0)
        constant_critic(core.local_critic_targets[0], 1.0)
        batch = fake_batch(core, 1)
        batch.rewards[0] = 0.5
        loss, grads = local_loss(core, batch, 0)
        assert loss == pytest.approx(0.2401, rel=1e-12)
        constant_critic(core.local_critics[1], 0.0)
        constant_critic(core.local_critic_targets[1], 0.0)
        b2 = fake_batch(core, 3)
        b2.rewards[:] = 0.0
        loss2, grads2 = local_loss(core, b2, 1)
        assert loss2 == 0.0
        assert all(np.all(g == 0) for g in grads2)


class TestActorGradient:
    def test_constant_critic_zero_gradient(self):
        core = make_core(n_agents=2)
        constant_critic(core.global_critic, 3.0)
        for c in core.local_critics:
            constant_critic(c, -1.0)
        grads = actor_grad(core, fake_batch(core), 0)
        assert all(np.allclose(g, 0.0) for g in grads)

    def test_two_term_decomposition(self):
        core = make_core(n_agents=2, seed=3)
        batch = fake_batch(core, 6, seed=4)
        combined = actor_grad(core, batch, 1)

        # straight-line evaluation of each brace
        i = 1
        n = len(batch.rewards)
        states_i = np.stack([s[i] for s in batch.states])
        a01 = sigmoid(core.actors[i].mlp.forward(states_i))
        joint = np.stack([core._joint_input(s, a) for s, a in zip(batch.states, batch.actions)])
        col = core.n_agents * core.state_dim + i * core.action_dim
        joint[:, col : col + core.action_dim] = a01
        _, in_g = core.global_critic.backward(joint, np.full((n, 1), 1.0 / n))
        term_global = core.actors[i].backward_through_normalized(
            states_i, in_g[:, col : col + core.action_dim]
        )
        local_x = np.concatenate([states_i, a01], axis=1)
        _, in_l = core.local_critics[i].backward(local_x, np.full((n, 1), 1.0 / n))
        term_local = core.actors[i].backward_through_normalized(
            states_i, in_l[:, core.state_dim :]
        )
        for c, g, l in zip(combined, term_global, term_local):
            np.testing.assert_allclose(c, g + l, atol=1e-12)

    def test_finite_difference_of_objective(self):
        core = make_core(n_agents=2, seed=5)
        batch = fake_batch(core, 5, seed=6)
        i = 0
        grads = actor_grad(core, batch, i)

        def objective():
            total = 0.0
            for state, action in zip(batch.states, batch.actions):
                a01 = sigmoid(core.actors[i].mlp.forward(state[i]))
                joint = core._joint_input(state, action)
                col = core.n_agents * core.state_dim + i * core.action_dim
                joint = joint.copy()
                joint[col : col + core.action_dim] = a01
                total += float(core.global_critic.forward(joint)[0])
                local_x = np.concatenate([state[i], a01])
                total += float(core.local_critics[i].forward(local_x)[0])
            return total / len(batch.rewards)

        rng = np.random.default_rng(7)
        direction = [rng.standard_normal(p.shape) for p in core.actors[i].parameters()]
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))
        eps = 1e-6
        base = [p.copy() for p in core.actors[i].parameters()]
        core.actors[i].mlp.set_parameters([p + eps * d for p, d in zip(base, direction)])
        up = objective()
        core.actors[i].mlp.set_parameters([p - eps * d for p, d in zip(base, direction)])
        down = objective()
        core.actors[i].mlp.set_parameters(base)
        assert analytic == pytest.approx((up - down) / (2 * eps), rel=1e-4, abs=1e-10)


class TestTrainEpisode:
    def test_zero_learning_rate_freezes_parameters(self):
        env = QuadraticBandit()
        trainer = Trainer(env, small_settings(lr_actor=0.0, lr_critic=0.0),
                          "mimo-maddpg", master_seed=1)
        before = trainer.core.parameter_snapshot()
        trainer.train_episode()
        after = trainer.core.parameter_snapshot()
        for b, a in zip(before["actors"], after["actors"]):
            for pb, pa in zip(b, a):
                np.testing.assert_array_equal(pb, pa)
        for pb, pa in zip(before["global_critic"], after["global_critic"]):
            np.testing.assert_array_equal(pb, pa)
        for b, a in zip(before["local_critics"], after["local_critics"]):
            for pb, pa in zip(b, a):
                np.testing.assert_array_equal(pb, pa)

    def test_fixed_seed_identical_metrics(self):
        runs = []
        for _ in range(2):
            trainer = Trainer(QuadraticBandit(), small_settings(), "mimo-maddpg", master_seed=9)
            m1 = trainer.train_episode()
            m2 = trainer.train_episode()
            runs.append((m1, m2))
        for key in ("rewards", "sum_se", "actions"):
            np.testing.assert_array_equal(
                np.asarray(runs[0][0][key]), np.asarray(runs[1][0][key])
            )
            np.testing.assert_array_equal(
                np.asarray(runs[0][1][key]), np.asarray(runs[1][1][key])
            )

    def test_variant_reduction_to_maddpg(self):
        # switching off the decoupled term and prioritized sampling must
        # reproduce the baseline algorithm trace exactly
        knobs_off = VariantSpec(local_critic=True, prioritized=False, ddpg_weight=0.0)
        t_a = Trainer(QuadraticBandit(), small_settings(), knobs_off, master_seed=21)
        t_b = Trainer(QuadraticBandit(), small_settings(), "maddpg", master_seed=21)
        for _ in range(3):
            m_a = t_a.train_episode()
            m_b = t_b.train_episode()
            np.testing.assert_array_equal(np.asarray(m_a["actions"]), np.asarray(m_b["actions"]))
            np.testing.assert_array_equal(np.asarray(m_a["rewards"]), np.asarray(m_b["rewards"]))
        for a, b in zip(t_a.core.parameter_snapshot()["actors"],
                        t_b.core.parameter_snapshot()["actors"]):
            for pa, pb in zip(a, b):
                np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(
            t_a.core.parameter_snapshot()["global_critic"][0],
            t_b.core.parameter_snapshot()["global_critic"][0],
        )

    def test_bandit_learns_toward_optimum(self):
        env = QuadraticBandit(p_max=0.2, p_star=0.12)
        settings = small_settings(episodes=60, steps=10, noise_start=0.3, noise_end=0.02)
        trainer = Trainer(env, settings, "mimo-maddpg", master_seed=2)
        for _ in range(settings.episodes):
            trainer.train_episode()
        greedy_power = trainer.core.greedy(env.reset())[0, 0]
        assert abs(greedy_power - env.p_star) <= 0.25 * env.p_max

    def test_checkpoint_roundtrip(self):
        env = QuadraticBandit()
        trainer = Trainer(env, small_settings(), "mimo-maddpg", master_seed=4)
        trainer.train_episode()
        state = trainer.state_dict()
        clone = Trainer(QuadraticBandit(), small_settings(), "mimo-maddpg", master_seed=99)
        clone.load_state_dict(state)
        obs = env.reset()
        np.testing.assert_array_equal(trainer.core.greedy(obs), clone.core.greedy(obs))
        m1 = trainer.train_episode()
        m2 = clone.train_episode()
        np.testing.assert_array_equal(np.asarray(m1["actions"]), np.asarray(m2["actions"]))

    def test_update_clipping_invariant(self):
        # gradients beyond the threshold come back with norm exactly at it
        core = make_core(n_agents=1, seed=8)
        batch = fake_batch(core, 4, seed=9)
        batch.rewards[:] = 100.0  # force a large Bellman error
        loss, grads = core.critic_loss_global(batch)
        from xlmimo.marl.nets import clip_gradients

        clipped, fired = clip_gradients(grads, 0.5)
        assert fired
        assert global_norm(clipped) == pytest.approx(0.5, abs=1e-12)


# -- per-agent reference ---------------------------------------------------------
# The control layer as it ran before its networks were stacked: one net per
# share group, every agent stepped on its own, each net's forward pass redone
# wherever a gradient needs it.  The batched MarlCore must reproduce it bit
# for bit.


def ref_forward(net, x):
    x = np.asarray(x, dtype=float)
    h = np.atleast_2d(x)
    pre, acts = [], [h]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(np.maximum(z, 0.01 * z) if i < len(net.weights) - 1 else z)
    return (acts[-1][0] if x.ndim == 1 else acts[-1]), pre, acts


def ref_backward(net, x, upstream):
    _, pre, acts = ref_forward(net, x)
    delta = np.atleast_2d(np.asarray(upstream, dtype=float))
    n = len(net.weights)
    grads_w, grads_b = [None] * n, [None] * n
    for i in reversed(range(n)):
        if i < n - 1:
            delta = delta * np.where(pre[i] > 0, 1.0, 0.01)
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
    return grads_w + grads_b, delta


def ref_out(net, x):
    return ref_forward(net, x)[0]


def ref_through_normalized(actor, state, upstream_norm):
    s = sigmoid(ref_out(actor.mlp, state))
    return ref_backward(actor.mlp, state, upstream_norm * s * (1.0 - s))[0]


def ref_clip(grads, max_norm):
    norm = math.sqrt(sum(float(np.sum(g**2)) for g in grads))
    if norm > max_norm > 0:
        scale = max_norm / norm
        return [g * scale for g in grads]
    return list(grads)


class PerAgentCore:
    """The per-agent act/record/refresh/update loop of one control layer."""

    def __init__(self, layer, n_agents, state_dim, ranges, settings, variant, seed,
                 share_groups=None):
        self.n_agents, self.state_dim = n_agents, state_dim
        self.ranges = np.asarray(ranges, dtype=float)
        self.action_dim = len(self.ranges)
        self.cfg, self.variant = settings, variant
        hid = list(settings.hidden)
        groups = list(range(n_agents)) if share_groups is None else list(share_groups)
        built = {}
        self.actors, self.actor_targets, self.local_critics, self.local_critic_targets = [], [], [], []
        for g in groups:
            if g not in built:
                def net(kind, sizes):
                    return Mlp(sizes, stream(seed, "init", kind, layer, g))
                sizes_a = [state_dim, *hid, self.action_dim]
                sizes_c = [state_dim + self.action_dim, *hid, 1]
                built[g] = (Actor(net("actor", sizes_a), self.ranges),
                            Actor(net("actor", sizes_a), self.ranges),
                            net("critic_local", sizes_c), net("critic_local", sizes_c))
            actor, target, critic, critic_t = built[g]
            self.actors.append(actor)
            self.actor_targets.append(target)
            if variant.local_critic:
                self.local_critics.append(critic)
                self.local_critic_targets.append(critic_t)
        joint_dim = n_agents * (state_dim + self.action_dim)
        self.global_critic = Mlp([joint_dim, *hid, 1], stream(seed, "init", "critic_global", layer))
        self.global_critic_target = Mlp([joint_dim, *hid, 1],
                                        stream(seed, "init", "critic_global", layer))
        self.replay = ReplayBuffer(settings.buffer_capacity, n_agents, state_dim, self.action_dim)
        self.pools = []
        self._explore = [stream(seed, "explore", layer, i) for i in range(n_agents)]
        self._pool_rngs = [stream(seed, "pool_global", layer)] + [
            stream(seed, "pool_local", layer, i) for i in range(n_agents)]
        self._upd_rngs = [stream(seed, "update_global", layer)] + [
            stream(seed, "update_local", layer, i) for i in range(n_agents)]

    def act(self, states, noise_std):
        out = np.empty((self.n_agents, self.action_dim))
        for i in range(self.n_agents):
            a01 = sigmoid(ref_out(self.actors[i].mlp, states[i]))
            if noise_std > 0:
                a01 = np.clip(a01 + noise_std * self._explore[i].standard_normal(self.action_dim),
                              0.0, 1.0)
            out[i] = a01 * self.ranges
        return out

    def _joint_input(self, states, actions):
        if states.ndim == 2:
            return np.concatenate([states.ravel(), (actions / self.ranges).ravel()])
        return np.concatenate([states.reshape(len(states), -1),
                               (actions / self.ranges).reshape(len(actions), -1)], axis=1)

    def _local_input(self, state, action):
        return np.concatenate([state, action / self.ranges], axis=-1)

    def record(self, states, actions, rewards, next_states):
        gamma = self.cfg.gamma
        team = float(np.sum(rewards))
        q_now = float(ref_out(self.global_critic, self._joint_input(states, actions))[0])
        next_actions = np.stack([sigmoid(ref_out(self.actor_targets[i].mlp, next_states[i]))
                                 * self.ranges for i in range(self.n_agents)])
        y = team + gamma * float(
            ref_out(self.global_critic_target, self._joint_input(next_states, next_actions))[0])
        loss_g = (q_now - y) ** 2
        losses_l = []
        for i in range(self.n_agents):
            if self.variant.local_critic:
                q_i = float(ref_out(self.local_critics[i],
                                    self._local_input(states[i], actions[i]))[0])
                y_i = rewards[i] + gamma * float(ref_out(
                    self.local_critic_targets[i],
                    self._local_input(next_states[i], next_actions[i]))[0])
                losses_l.append((q_i - y_i) ** 2)
            else:
                losses_l.append(loss_g)
        self.replay.add(states, actions, [float(rewards.sum()), *rewards], next_states,
                        [loss_g, *losses_l])

    def refresh_and_fill(self):
        cfg, r = self.cfg, self.replay
        n = len(r)
        for c in range(self.n_agents + 1):
            if cfg.priority_rule == "ranked":
                r.priorities[c, :n] = priority_ranked(r.losses[c, :n], r.counts[c, :n],
                                                      cfg.priority_mu, cfg.priority_nu)
            else:
                r.priorities[c, :n] = priority_simple(r.losses[c, :n])
        self.pools = [fill_extraction_pool(r, c, cfg.pool_size, rng, self.variant.prioritized)
                      for c, rng in enumerate(self._pool_rngs)]

    def _sample(self, col, size):
        pool = self.pools[col]
        pos = pool[self._upd_rngs[col].choice(len(pool), min(size, len(pool)), replace=False)]
        r = self.replay
        return Batch(r.states[pos], r.actions[pos], r.rewards[col, pos], r.next_states[pos])

    def critic_loss_global(self, batch):
        n = len(batch.rewards)
        xs = self._joint_input(batch.states, batch.actions)
        acts01 = [sigmoid(ref_out(self.actor_targets[i].mlp, batch.next_states[:, i, :]))
                  for i in range(self.n_agents)]
        joint_next = np.concatenate([batch.next_states.reshape(n, -1)] + acts01, axis=1)
        ys = batch.rewards + self.cfg.gamma * ref_out(self.global_critic_target, joint_next)[:, 0]
        err = ref_out(self.global_critic, xs)[:, 0] - ys
        return float(np.mean(err**2)), ref_backward(self.global_critic, xs,
                                                    (2.0 * err / n)[:, None])[0]

    def critic_loss_local(self, batch, i):
        n = len(batch.rewards)
        xs = self._local_input(batch.states[:, i], batch.actions[:, i])
        next_i = batch.next_states[:, i]
        a01_next = sigmoid(ref_out(self.actor_targets[i].mlp, next_i))
        q_next = ref_out(self.local_critic_targets[i],
                         np.concatenate([next_i, a01_next], axis=1))[:, 0]
        ys = batch.rewards + self.cfg.gamma * q_next
        err = ref_out(self.local_critics[i], xs)[:, 0] - ys
        return float(np.mean(err**2)), ref_backward(self.local_critics[i], xs,
                                                    (2.0 * err / n)[:, None])[0]

    def actor_gradient(self, batch, i):
        n = len(batch.rewards)
        states_i = batch.states[:, i]
        a01 = sigmoid(ref_out(self.actors[i].mlp, states_i))
        joint = self._joint_input(batch.states, batch.actions)
        col = self.n_agents * self.state_dim + i * self.action_dim
        joint[:, col : col + self.action_dim] = a01
        _, in_grad = ref_backward(self.global_critic, joint, np.full((n, 1), 1.0 / n))
        grads = ref_through_normalized(self.actors[i], states_i,
                                       in_grad[:, col : col + self.action_dim])
        if self.variant.local_critic and self.variant.ddpg_weight != 0.0:
            local_x = np.concatenate([states_i, a01], axis=1)
            _, in_l = ref_backward(self.local_critics[i], local_x, np.full((n, 1), 1.0 / n))
            grads_l = ref_through_normalized(self.actors[i], states_i, in_l[:, self.state_dim :])
            grads = [g + self.variant.ddpg_weight * gl for g, gl in zip(grads, grads_l)]
        return grads

    def update(self):
        cfg = self.cfg
        if len(self.replay) < cfg.update_after:
            return {}
        loss_g, grads = self.critic_loss_global(self._sample(0, cfg.batch_global))
        sgd_step(self.global_critic, ref_clip(grads, cfg.clip_norm), cfg.lr_critic)
        soft_update(self.global_critic, self.global_critic_target, cfg.tau,
                    cfg.soft_update_direction)
        local_losses = []
        for i in range(self.n_agents):
            batch = self._sample(1 + i, cfg.batch_local)
            if self.variant.local_critic:
                loss_l, grads_l = self.critic_loss_local(batch, i)
                sgd_step(self.local_critics[i], ref_clip(grads_l, cfg.clip_norm), cfg.lr_critic)
                local_losses.append(loss_l)
            sgd_step(self.actors[i].mlp, ref_clip(self.actor_gradient(batch, i), cfg.clip_norm),
                     cfg.lr_actor, maximize=True)
            if self.variant.local_critic:
                soft_update(self.local_critics[i], self.local_critic_targets[i], cfg.tau,
                            cfg.soft_update_direction)
            soft_update(self.actors[i].mlp, self.actor_targets[i].mlp, cfg.tau,
                        cfg.soft_update_direction)
        out = {"critic_loss_global": loss_g}
        if local_losses:
            out["critic_loss_local_mean"] = float(np.mean(local_losses))
        return out


KNOBS_OFF = VariantSpec(local_critic=True, prioritized=False, ddpg_weight=0.0)


class TestStackedCoreMatchesPerAgentReference:
    @pytest.mark.parametrize("direction", ["standard", "reversed"])
    @pytest.mark.parametrize("sharing", [False, True], ids=["own", "shared"])
    @pytest.mark.parametrize("variant", ["maddpg", "de-maddpg", "pes-maddpg", "mimo-maddpg",
                                         KNOBS_OFF],
                             ids=lambda v: v if isinstance(v, str) else "knobs-off")
    def test_bitwise_over_many_updates(self, variant, sharing, direction):
        n_agents, state_dim = 6, 3
        ranges = np.array([0.2, 5.0, 2 * math.pi])
        settings = small_settings(hidden=(12, 6), buffer_capacity=24, pool_size=10,
                                  update_after=6, batch_global=5, batch_local=4,
                                  soft_update_direction=direction, tau=0.3)
        share = [i // 2 for i in range(n_agents)] if sharing else None
        spec = resolve_variant(variant)
        core = MarlCore(2, n_agents, state_dim, ranges, settings, spec, 11, share_groups=share)
        ref = PerAgentCore(2, n_agents, state_dim, ranges, settings, spec, 11, share_groups=share)
        rng = np.random.default_rng(12)
        states = rng.uniform(0, 1, (n_agents, state_dim))
        for step in range(30):
            noise = 0.3 if step % 3 else 0.0
            actions = core.act(states, noise)
            np.testing.assert_array_equal(actions, ref.act(states, noise))
            rewards = rng.uniform(-1, 2, n_agents)
            next_states = rng.uniform(0, 1, (n_agents, state_dim))
            core.record(states, actions, rewards, next_states)
            ref.record(states, actions, rewards, next_states)
            np.testing.assert_array_equal(core.replay.losses, ref.replay.losses)
            core.refresh_and_fill()
            ref.refresh_and_fill()
            np.testing.assert_array_equal(core.replay.priorities, ref.replay.priorities)
            assert core.update() == ref.update()
            states = next_states
        for name in ("actors", "actor_targets"):
            for a, b in zip(getattr(core, name), getattr(ref, name)):
                for pa, pb in zip(a.parameters(), b.parameters()):
                    np.testing.assert_array_equal(pa, pb)
        for name in ("local_critics", "local_critic_targets"):
            assert len(getattr(core, name)) == len(getattr(ref, name))
            for a, b in zip(getattr(core, name), getattr(ref, name)):
                for pa, pb in zip(a.parameters(), b.parameters()):
                    np.testing.assert_array_equal(pa, pb)
        for name in ("global_critic", "global_critic_target"):
            for pa, pb in zip(getattr(core, name).parameters(), getattr(ref, name).parameters()):
                np.testing.assert_array_equal(pa, pb)
