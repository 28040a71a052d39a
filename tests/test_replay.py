import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlmimo.harness.config import make_config
from xlmimo.harness.run import build_trainer
from xlmimo.marl.replay import (
    ReplayBuffer,
    fill_extraction_pool,
    priority_ranked,
    priority_simple,
)
from xlmimo.marl.trainer import CHECKPOINT_VERSION


def store(capacity, n_agents=1):
    return ReplayBuffer(capacity, n_agents, state_dim=1, action_dim=1)


def add(buf, loss=1.0, tag=0.0):
    """One transition whose arrays all carry ``tag``; every critic stores ``loss``."""
    n_agents = buf.states.shape[1]
    joint = np.full((n_agents, 1), tag)
    buf.add(joint, joint, np.full(n_agents + 1, tag), joint, np.full(n_agents + 1, loss))


class TestPrioritySimple:
    def test_equal_losses_uniform(self):
        np.testing.assert_allclose(priority_simple([2.0, 2.0, 2.0]), 1.0 / 3.0)

    def test_direct_normalization(self):
        np.testing.assert_allclose(priority_simple([2.0, 3.0, 5.0]), [0.2, 0.3, 0.5])

    def test_all_zero_guard(self):
        np.testing.assert_allclose(priority_simple([0.0, 0.0]), [0.5, 0.5])

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, losses):
        assert priority_simple(losses).sum() == pytest.approx(1.0)


class TestPriorityRanked:
    def test_fully_tied_inputs_are_uniform(self):
        k = 5
        pr = priority_ranked([1.0] * k, [3] * k, mu=2.0, nu=0.1)
        np.testing.assert_allclose(pr, 1.0 / k + 0.1)

    def test_hand_computed_two_records(self):
        pr = priority_ranked([1.0, 9.0], [5, 0], mu=1.0, nu=1e-12)
        np.testing.assert_allclose(pr, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)

    @given(
        losses=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=12),
        mu=st.floats(min_value=0.1, max_value=4.0),
        nu=st.floats(min_value=1e-6, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_sum_identity(self, losses, mu, nu):
        counts = list(range(len(losses)))
        pr = priority_ranked(losses, counts, mu=mu, nu=nu)
        assert pr.sum() == pytest.approx(1.0 + len(losses) * nu)

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="mu"):
            priority_ranked([1.0], [0], mu=0.0, nu=0.1)
        with pytest.raises(ValueError, match="nu"):
            priority_ranked([1.0], [0], mu=1.0, nu=1.0)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = store(capacity=3)
        for loss in [1.0, 2.0, 3.0, 4.0]:
            add(buf, loss=loss)
        assert len(buf) == 3
        np.testing.assert_array_equal(buf.losses, [[2.0, 3.0, 4.0]] * 2)

    def test_overflow_keeps_every_array_oldest_first(self):
        buf = ReplayBuffer(3, n_agents=2, state_dim=2, action_dim=1)
        for t in range(5):
            buf.add(
                np.full((2, 2), t), np.full((2, 1), 10 + t), [30 + t, 40 + t, 50 + t],
                np.full((2, 2), 20 + t), [t, t + 0.5, t + 0.25],
            )
            buf.counts[:, len(buf) - 1] = [t, 2 * t, 3 * t]
            buf.priorities[:, len(buf) - 1] = [t / 10, t / 20, t / 40]
        kept = np.array([2, 3, 4])
        np.testing.assert_array_equal(buf.states, np.broadcast_to(kept[:, None, None], (3, 2, 2)))
        np.testing.assert_array_equal(buf.actions[:, :, 0], np.stack([10 + kept] * 2, axis=1))
        np.testing.assert_array_equal(buf.next_states[:, 1, 0], 20 + kept)
        np.testing.assert_array_equal(buf.rewards, [30 + kept, 40 + kept, 50 + kept])
        np.testing.assert_array_equal(buf.losses, [kept, kept + 0.5, kept + 0.25])
        np.testing.assert_array_equal(buf.counts, [kept, 2 * kept, 3 * kept])
        np.testing.assert_array_equal(buf.priorities, [kept / 10, kept / 20, kept / 40])

    def test_capacity_never_exceeded(self):
        buf = store(capacity=5)
        for i in range(50):
            add(buf, loss=float(i))
            assert len(buf) <= 5

    def test_refresh_priorities_rules(self):
        buf = store(capacity=4)
        for loss in [1.0, 3.0]:
            add(buf, loss=loss)
        buf.refresh_priorities("simple", 1.0, 0.01)
        np.testing.assert_allclose(buf.priorities[:, :2], [[0.25, 0.75]] * 2)
        buf.refresh_priorities("ranked", mu=1.0, nu=0.01)
        np.testing.assert_allclose(buf.priorities[:, :2].sum(axis=1), 1.0 + 2 * 0.01)


def per_critic_rank(values):
    """The per-row ranking the vectorised rules replaced: 1-based stable ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.arange(1, len(values) + 1)
    return ranks


def per_critic_ranked(losses, counts, mu, nu):
    loss_rank = per_critic_rank(per_critic_rank(losses))
    count_rank_rev = len(counts) + 1.0 - per_critic_rank(counts)
    score = (loss_rank + count_rank_rev) ** mu
    return score / score.sum() + nu


def per_critic_simple(losses):
    total = losses.sum()
    if total == 0:
        return np.full(len(losses), 1.0 / len(losses))
    return losses / total


class TestVectorisedRefresh:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 300, 512])
    @pytest.mark.parametrize("mu", [1.0, 1.7, 0.5])
    def test_refresh_matches_per_critic_rules_bitwise(self, n, mu):
        rng = np.random.default_rng(n)
        buf = ReplayBuffer(600, 8, state_dim=1, action_dim=1)
        for _ in range(n):
            # integer-valued losses and small counts force ties
            add(buf, 0.0)
        buf.losses[:, :n] = rng.integers(0, 5, (9, n)) * rng.uniform(0.5, 2.0)
        buf.losses[3, :n] = 0.0  # one critic with every loss zero
        buf.counts[:, :n] = rng.integers(0, 4, (9, n))
        nu = 0.01
        buf.refresh_priorities("ranked", mu, nu)
        for c in range(9):
            expect = per_critic_ranked(buf.losses[c, :n], buf.counts[c, :n], mu, nu)
            np.testing.assert_array_equal(buf.priorities[c, :n], expect)
        buf.refresh_priorities("simple", 1.0, 0.01)
        for c in range(9):
            np.testing.assert_array_equal(buf.priorities[c, :n],
                                          per_critic_simple(buf.losses[c, :n]))

    def test_rules_take_one_row_per_critic(self):
        rng = np.random.default_rng(1)
        losses = rng.uniform(0, 3, (4, 10))
        counts = rng.integers(0, 3, (4, 10))
        both = priority_ranked(losses, counts, 1.3, 0.02)
        simple = priority_simple(losses)
        for c in range(4):
            np.testing.assert_array_equal(both[c], priority_ranked(losses[c], counts[c], 1.3, 0.02))
            np.testing.assert_array_equal(simple[c], priority_simple(losses[c]))


class TestFillExtractionPool:
    def test_small_buffer_returns_everything(self):
        buf = store(capacity=10)
        for loss in [1.0, 2.0, 3.0]:
            add(buf, loss=loss)
        buf.refresh_priorities("ranked", 1.0, 0.01)
        pool = fill_extraction_pool(buf, 0, 8, np.random.default_rng(0))
        assert set(pool.tolist()) == {0, 1, 2}

    def test_counts_incremented_once(self):
        buf = store(capacity=10)
        for loss in [1.0, 2.0]:
            add(buf, loss=loss)
        buf.refresh_priorities("ranked", 1.0, 0.01)
        fill_extraction_pool(buf, 0, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(buf.counts[0, :2], [1, 1])

    def test_bumps_only_its_own_column(self):
        buf = store(capacity=10, n_agents=2)
        for loss in [1.0, 2.0, 3.0]:
            add(buf, loss=loss)
        buf.refresh_priorities("ranked", 1.0, 0.01)
        pool = fill_extraction_pool(buf, 2, 2, np.random.default_rng(0))
        expected = np.zeros((3, 10), dtype=int)
        expected[2, pool] = 1
        np.testing.assert_array_equal(buf.counts, expected)

    def test_dominant_priority_nearly_always_selected(self):
        hits = 0
        trials = 10_000
        rng = np.random.default_rng(1)
        buf = store(capacity=4)
        for loss in [1.0, 1.0, 1.0, 1.0]:
            add(buf, loss=loss)
        # hand-set an overwhelming priority on record 2
        buf.priorities[0] = [1e-4, 1e-4, 1.0, 1e-4]
        for _ in range(trials):
            pool = fill_extraction_pool(buf, 0, 1, rng)
            hits += pool[0] == 2
        assert hits / trials >= 0.99

    def test_uniform_mode_ignores_priorities(self):
        rng = np.random.default_rng(2)
        buf = store(capacity=2)
        add(buf, loss=100.0)
        add(buf, loss=1e-9)
        buf.refresh_priorities("ranked", 1.0, 0.01)
        seen = {int(fill_extraction_pool(buf, 0, 1, rng, prioritized=False)[0]) for _ in range(200)}
        assert seen == {0, 1}

    def test_empty_buffer_error(self):
        with pytest.raises(ValueError, match="empty"):
            fill_extraction_pool(store(4), 0, 1, np.random.default_rng(0))

    def test_missing_loss_error(self):
        buf = store(4)
        add(buf, loss=float("nan"))
        with pytest.raises(ValueError, match="finite stored loss"):
            fill_extraction_pool(buf, 0, 1, np.random.default_rng(0))


def trained(**over):
    """A tiny run whose 8 steps overflow a 6-transition store: (config, trainer)."""
    cfg = make_config(dict(episodes=1, steps=8, hidden=(6, 4), buffer_capacity=6, pool_size=4,
                           update_after=4, batch_global=2, batch_local=2, **over))
    _, trainer = build_trainer(cfg)
    trainer.train_episode()
    return cfg, trainer


def trained_state(**over):
    """Checkpoint of ``trained``'s run."""
    cfg, trainer = trained(**over)
    return cfg, trainer.state_dict()


def fresh_trainer(cfg, **over):
    return build_trainer(dataclasses.replace(cfg, **over))[1]


# a signed zero, the smallest subnormals, the extremes and neighbours one ulp apart
EDGE_FLOATS = np.array([-0.0, 5e-324, 1e-310, 1e308, -1e308, 1.0, np.nextafter(1.0, 2.0),
                        np.nextafter(1.0, 0.0), -np.nextafter(1e308, 0.0)])


def nets_of(core):
    """Every stacked network a core's checkpoint holds."""
    stacks = [core.actor_stack, core.actor_target_stack, core.global_critic,
              core.global_critic_target, core.local_critic_stack, core.local_critic_target_stack]
    return [m for m in stacks if m is not None]


class TestCheckpoint:
    def test_round_trip_stores_each_transition_once(self):
        cfg, state = trained_state(architecture="double")
        assert state["version"] == CHECKPOINT_VERSION
        for layer in state["layers"].values():
            assert set(layer["replay"]) == {"states", "actions", "next_states", "rewards",
                                            "losses", "counts", "priorities"}
            assert layer["replay"]["states"]["shape"][0] == 6
        trainer = fresh_trainer(cfg)
        trainer.load_state_dict(state)
        assert trainer.state_dict() == state

    def test_each_network_written_once(self):
        cfg, trainer = trained(architecture="double", weight_sharing=True)
        state = trainer.state_dict()["layers"]["2"]
        for name, net in trainer.core2._nets().items():
            shapes = [list(p.shape) for p in net.parameters()]
            assert [leaf["shape"] for leaf in state[name]] == shapes
        # one parameter set per user: its antennas share it
        assert state["actor_stack"][0]["shape"][0] == cfg.k_ue < trainer.core2.n_agents

    def test_round_trip_keeps_every_bit(self):
        cfg, trainer = trained(architecture="double")
        for core in trainer._layers().values():
            for net in nets_of(core):
                for p in net.parameters():
                    p.flat[:] = np.resize(EDGE_FLOATS, p.size)
            for key, arr in core.replay.filled().items():
                if key == "counts":
                    arr.flat[:] = np.resize([0, 1, 2**62 + 1, 2**63 - 1], arr.size)
                else:
                    arr.flat[:] = np.resize(EDGE_FLOATS[::-1], arr.size)
        clone = fresh_trainer(cfg, seed=cfg.seed + 1)
        clone.load_state_dict(json.loads(json.dumps(trainer.state_dict(), sort_keys=True)))
        for key, core in trainer._layers().items():
            twin = clone._layers()[key]
            for net, net2 in zip(nets_of(core), nets_of(twin)):
                for p, q in zip(net.parameters(), net2.parameters()):
                    np.testing.assert_array_equal(p.view(np.uint64), q.view(np.uint64))
            got = twin.replay.filled()
            assert got["counts"].dtype == np.int64
            for name, arr in core.replay.filled().items():
                assert got[name].dtype == arr.dtype
                np.testing.assert_array_equal(got[name].view(np.uint64), arr.view(np.uint64))

    def test_empty_replay_round_trips(self):
        cfg = make_config(dict(architecture="double", hidden=(6, 4), buffer_capacity=6))
        state = fresh_trainer(cfg).state_dict()
        assert state["layers"]["2"]["replay"]["states"]["shape"][0] == 0
        clone = fresh_trainer(cfg, seed=cfg.seed + 1)
        clone.load_state_dict(state)
        assert clone.state_dict() == state
        assert len(clone.core2.replay) == 0

    def test_rejects_version_1(self):
        cfg, state = trained_state()
        state["version"] = 1
        with pytest.raises(ValueError, match="version 1"):
            fresh_trainer(cfg).load_state_dict(state)

    @pytest.mark.parametrize("capacity", [4, 12])
    def test_rejects_other_buffer_capacity(self, capacity):
        cfg, state = trained_state()
        with pytest.raises(ValueError, match="buffer_capacity"):
            fresh_trainer(cfg, buffer_capacity=capacity).load_state_dict(state)

    def test_rejects_other_k_ue(self):
        cfg, state = trained_state()
        with pytest.raises(ValueError, match="layer 1 n_agents is 2; this configuration needs 3"):
            fresh_trainer(cfg, k_ue=cfg.k_ue + 1).load_state_dict(state)

    def test_rejects_other_scenario(self):
        cfg, state = trained_state(scenario="pm-dynamic")
        with pytest.raises(ValueError, match="scenario 'pm-dynamic'.*scenario 'dynamic'"):
            fresh_trainer(cfg, scenario="dynamic").load_state_dict(state)

    def test_rejects_other_architecture(self):
        cfg, state = trained_state()
        with pytest.raises(ValueError, match="layers"):
            fresh_trainer(cfg, architecture="double").load_state_dict(state)
