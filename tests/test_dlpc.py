import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlmimo.dlpc import DoubleLayerTrainer, broadcast_budget, layer2_allocate, split_reward
from xlmimo.env import CellFreeEnv, EnvParams
from xlmimo.marl.replay import Batch
from xlmimo.marl.trainer import MarlCore, Trainer, TrainerSettings, resolve_variant
from xlmimo.seeding import stream


def small_settings(**over):
    base = dict(
        episodes=2,
        steps=8,
        hidden=(12, 6),
        buffer_capacity=64,
        pool_size=16,
        update_after=6,
        batch_global=6,
        batch_local=6,
    )
    base.update(over)
    return TrainerSettings(**base)


def desk_env(seed, n_h_s=2, n_v_s=1, scenario="static", **over):
    params = EnvParams(
        m_bs=1, k_ue=2, n_h_r=2, n_v_r=1, n_h_s=n_h_s, n_v_s=n_v_s,
        scenario=scenario, **over,
    )
    return CellFreeEnv(params, stream(seed, "env"))


class TestBroadcastBudget:
    def test_single_user(self):
        np.testing.assert_array_equal(broadcast_budget([2.0], 3), [2.0, 2.0, 2.0])

    def test_two_users(self):
        np.testing.assert_array_equal(broadcast_budget([1.0, 4.0], 2), [1.0, 1.0, 4.0, 4.0])

    def test_length(self):
        for k, n_s in [(1, 1), (3, 2), (2, 5)]:
            assert len(broadcast_budget(np.ones(k), n_s)) == k * n_s

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            broadcast_budget([-1.0], 2)


class TestSplitReward:
    def test_equal_split(self):
        np.testing.assert_array_equal(split_reward([4.0], 4), [1.0, 1.0, 1.0, 1.0])

    def test_two_users(self):
        np.testing.assert_array_equal(split_reward([3.0, 6.0], 3), [1, 1, 1, 2, 2, 2])

    def test_per_user_conservation_exact(self):
        r = np.array([0.3125, 1.75])  # exactly representable / power-of-two split
        out = split_reward(r, 2)
        assert out[0] + out[1] == r[0]
        assert out[2] + out[3] == r[1]


def loop_layer2_allocate(normalized_actions, budgets, n_s):
    """Reference for ``layer2_allocate``: one user at a time.

    Returns (amplitudes, power traces), the traces as a list of floats.
    """
    weights = np.asarray(normalized_actions, dtype=float).reshape(-1)
    rows, traces = [], []
    for k, budget in enumerate(np.asarray(budgets, dtype=float)):
        w = weights[k * n_s : (k + 1) * n_s]
        norm_sq = float(np.sum(w**2))
        if norm_sq == 0.0:
            amps = np.full(n_s, math.sqrt(budget / n_s))
        else:
            amps = w * math.sqrt(budget / norm_sq)
        rows.append(amps)
        traces.append(float(np.sum(amps**2)))
    return np.array(rows).reshape(-1, n_s), traces


@st.composite
def layer2_inputs(draw):
    """(weights, budgets, n_s): zero-weight users and zero budgets included."""
    n_s = draw(st.integers(1, 9))
    k_ue = draw(st.integers(1, 9))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    rows = [
        [0.0] * n_s if draw(st.booleans()) and draw(st.booleans())
        else draw(st.lists(weight, min_size=n_s, max_size=n_s))
        for _ in range(k_ue)
    ]
    budgets = draw(st.lists(st.one_of(st.just(0.0), st.just(0.2), st.floats(0.0, 0.2)),
                            min_size=k_ue, max_size=k_ue))
    return np.array(rows).reshape(-1), np.array(budgets), n_s


class TestLayer2Allocate:
    def test_single_antenna_saturates_budget(self):
        amps = layer2_allocate([0.37], [0.08], n_s=1)
        np.testing.assert_allclose(amps, [[math.sqrt(0.08)]])
        assert np.sum(amps**2) == pytest.approx(0.08)

    def test_equal_weights_equal_amplitudes(self):
        amps = layer2_allocate([0.5, 0.5, 0.2, 0.2], [0.1, 0.05], n_s=2)
        assert amps.shape == (2, 2)
        assert amps[0, 0] == amps[0, 1]
        np.testing.assert_allclose(np.sum(amps**2, axis=1), [0.1, 0.05])

    def test_zero_weights_fall_back_to_uniform(self):
        amps = layer2_allocate([0.0, 0.0], [0.1], n_s=2)
        np.testing.assert_allclose(amps, math.sqrt(0.05))

    def test_random_trials_respect_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            w = rng.uniform(0, 1, 4)
            budgets = rng.uniform(1e-6, 0.2, 2)
            traces = np.sum(layer2_allocate(w, budgets, n_s=2) ** 2, axis=1)
            assert np.all(traces <= budgets + 1e-12)

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="one weight per user antenna"):
            layer2_allocate([0.1, 0.2, 0.3], [0.1, 0.1], n_s=2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(layer2_inputs())
    def test_bitwise_equal_to_user_loop(self, inputs):
        weights, budgets, n_s = inputs
        with np.errstate(divide="raise", invalid="raise"):
            amps = layer2_allocate(weights, budgets, n_s)
        ref, traces = loop_layer2_allocate(weights, budgets, n_s)
        assert amps.tobytes() == ref.tobytes()
        assert np.sum(amps**2, axis=1).tobytes() == np.array(traces).tobytes()


class TestBudgetsReachTheEnv:
    @pytest.mark.parametrize("architecture", ["single", "double"])
    def test_info_budgets_are_the_env_budget_rule(self, architecture):
        env = desk_env(36, scenario="dynamic")
        trainer_cls = DoubleLayerTrainer if architecture == "double" else Trainer
        t = trainer_cls(env, small_settings(), "mimo-maddpg", 36)
        obs = env.reset()
        for _ in range(4):
            raw, amplitudes, _ = t._choose(obs, 0.2, env)
            assert (amplitudes is None) == (architecture == "single")
            obs, _, info = env.step(raw, amplitudes=amplitudes)
            assert info["budgets"] == env.budgets(raw).tolist()


class TestSameMachineryAcrossLayers:
    def test_update_math_identical_given_identical_inputs(self):
        settings = small_settings()
        variant = resolve_variant("mimo-maddpg")
        core1 = MarlCore(1, 2, 2, np.array([1.0]), settings, variant, master_seed=5)
        core2 = MarlCore(2, 2, 2, np.array([1.0]), settings, variant, master_seed=5)
        # different layers draw different initial parameters by design
        assert not np.array_equal(core1.actors[0].parameters()[0],
                                  core2.actors[0].parameters()[0])
        # with parameters forced equal, the update equations coincide
        core2.global_critic.copy_from(core1.global_critic)
        core2.global_critic_target.copy_from(core1.global_critic_target)
        for a1, a2 in zip(core1.actors, core2.actors):
            a2.mlp.copy_from(a1.mlp)
        for t1, t2 in zip(core1.actor_targets, core2.actor_targets):
            t2.mlp.copy_from(t1.mlp)
        for c1, c2 in zip(core1.local_critics, core2.local_critics):
            c2.copy_from(c1)
        for c1, c2 in zip(core1.local_critic_targets, core2.local_critic_targets):
            c2.copy_from(c1)
        rng = np.random.default_rng(6)
        rows = [
            (
                rng.uniform(0, 1, (2, 2)),
                rng.uniform(0, 1, (2, 1)),
                rng.uniform(0, 1),
                rng.uniform(0, 1, (2, 2)),
            )
            for _ in range(5)
        ]
        batch = Batch(*(np.array(column) for column in zip(*rows)))
        l1, g1 = core1.critic_loss_global(batch)
        l2, g2 = core2.critic_loss_global(batch)
        assert l1 == l2
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)
        # one wave of both agents, each on the same batch
        wave = Batch(*(np.stack([a, a]) for a in batch))
        for a, b in zip(core1.actor_gradient(wave, [0, 1]), core2.actor_gradient(wave, [0, 1])):
            np.testing.assert_array_equal(a, b)


class TestDoubleLayerTrainer:
    def test_single_antenna_double_equals_single(self):
        settings = small_settings()
        t_single = Trainer(desk_env(33, n_h_s=1), settings, "mimo-maddpg", master_seed=33)
        t_double = DoubleLayerTrainer(
            desk_env(33, n_h_s=1), settings, "mimo-maddpg", master_seed=33
        )
        for _ in range(2):
            m_s = t_single.train_episode()
            m_d = t_double.train_episode()
            np.testing.assert_allclose(
                np.asarray(m_s["sum_se"]), np.asarray(m_d["sum_se"]), atol=1e-12
            )
            np.testing.assert_allclose(
                np.asarray(m_s["rewards"]), np.asarray(m_d["rewards"]), atol=1e-12
            )
        for a, b in zip(t_single.core.parameter_snapshot()["actors"],
                        t_double.core.parameter_snapshot()["actors"]):
            for pa, pb in zip(a, b):
                np.testing.assert_array_equal(pa, pb)

    def test_layers_use_disjoint_parameter_objects(self):
        t = DoubleLayerTrainer(desk_env(34), small_settings(), "mimo-maddpg", 34)
        ids1 = {id(p) for a in t.core.actors for p in a.parameters()}
        ids1 |= {id(p) for p in t.core.global_critic.parameters()}
        ids2 = {id(p) for a in t.core2.actors for p in a.parameters()}
        ids2 |= {id(p) for p in t.core2.global_critic.parameters()}
        assert ids1.isdisjoint(ids2)

    def test_budget_and_reward_conservation_every_step(self):
        t = DoubleLayerTrainer(desk_env(35), small_settings(), "mimo-maddpg", 35)
        metrics = t.train_episode()
        p_max = t.env.params.p_max
        for traces, budgets in zip(metrics["power_trace"], metrics["budgets"]):
            for trace, budget in zip(traces, budgets):
                assert trace <= budget + 1e-12
                assert budget <= p_max + 1e-12
        for rewards in metrics["rewards"]:
            r2 = split_reward(rewards, t.env.n_s)
            for k in range(len(rewards)):
                per_user = r2[k * t.env.n_s : (k + 1) * t.env.n_s]
                assert per_user.sum() == pytest.approx(rewards[k], abs=1e-15)

    def test_weight_sharing_groups(self):
        t = DoubleLayerTrainer(
            desk_env(36), small_settings(), "mimo-maddpg", 36, weight_sharing=True
        )
        n_s = t.env.n_s
        # antennas of the same user share parameters; different users do not
        assert t.core2.actors[0] is t.core2.actors[n_s - 1]
        assert t.core2.actors[0] is not t.core2.actors[n_s]

    def test_checkpoint_includes_both_layers(self):
        t = DoubleLayerTrainer(desk_env(37), small_settings(), "mimo-maddpg", 37)
        t.train_episode()
        state = t.state_dict()
        assert set(state["layers"]) == {"1", "2"}
        clone = DoubleLayerTrainer(desk_env(99), small_settings(), "mimo-maddpg", 99)
        clone.load_state_dict(state)
        obs = t.env.reset()
        np.testing.assert_array_equal(t.core.greedy(obs), clone.core.greedy(obs))
