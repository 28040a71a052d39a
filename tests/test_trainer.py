import numpy as np
import pytest

from xlmimo.marl.nets import Mlp, global_norm, sigmoid
from xlmimo.marl.replay import Batch
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

    def step(self, actions, allocations=None):
        r = self.reward(actions[0].power)
        return np.array([[1.0]]), np.array([r]), {"sum_se": r}


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


class TestVariants:
    def test_known_names(self):
        assert resolve_variant("mimo-maddpg").local_critic
        assert resolve_variant("mimo-maddpg").prioritized
        assert not resolve_variant("maddpg").local_critic
        assert not resolve_variant("de-maddpg").prioritized
        assert not resolve_variant("pes-maddpg").local_critic
        with pytest.raises(ValueError, match="unknown variant"):
            resolve_variant("td3")


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
        loss, grads = core.critic_loss_local(batch, 0)
        assert loss == pytest.approx(0.2401, rel=1e-12)
        constant_critic(core.local_critics[1], 0.0)
        constant_critic(core.local_critic_targets[1], 0.0)
        b2 = fake_batch(core, 3)
        b2.rewards[:] = 0.0
        loss2, grads2 = core.critic_loss_local(b2, 1)
        assert loss2 == 0.0
        assert all(np.all(g == 0) for g in grads2)


class TestActorGradient:
    def test_constant_critic_zero_gradient(self):
        core = make_core(n_agents=2)
        constant_critic(core.global_critic, 3.0)
        for c in core.local_critics:
            constant_critic(c, -1.0)
        grads = core.actor_gradient(fake_batch(core), 0)
        assert all(np.allclose(g, 0.0) for g in grads)

    def test_two_term_decomposition(self):
        core = make_core(n_agents=2, seed=3)
        batch = fake_batch(core, 6, seed=4)
        combined = core.actor_gradient(batch, 1)

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
        grads = core.actor_gradient(batch, i)

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
