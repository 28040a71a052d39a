import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlmimo.channel import lsf_matrix
from xlmimo.env import (
    CellFreeEnv,
    EnvParams,
    MdpTuple,
    predictive_limit,
    torus_delta,
    torus_distance,
    wrap_coords,
)
from xlmimo import env as env_module
from xlmimo.se import se_closed_form_mr, uniform_amplitudes


def make_env(seed=0, **overrides):
    params = EnvParams(**overrides)
    return CellFreeEnv(params, np.random.default_rng(seed))


def static_actions(env, power=None):
    p = env.params.p_max if power is None else power
    return np.full((env.n_agents, 1), p)


def mobile_actions(env, power=None, step=0.0, angle=0.0):
    p = env.params.p_max if power is None else power
    return np.tile([p, step, angle], (env.n_agents, 1))


class TestMdpTuple:
    def test_validation(self):
        with pytest.raises(ValueError):
            MdpTuple(alpha=1.5)
        with pytest.raises(ValueError):
            MdpTuple(beta_acc=0.9)
        with pytest.raises(ValueError):
            MdpTuple(r_g=0.1, r_b=0.2)


class TestPredictiveLimit:
    def test_good_boundary_decelerates(self):
        t = MdpTuple(r_g=1.0, r_b=0.1, alpha=0.2, beta_acc=2.0)
        assert predictive_limit(1.0, 10.0, t) == pytest.approx(2.0)

    def test_identity_branch(self):
        t = MdpTuple(r_g=1.0, r_b=0.1)
        assert predictive_limit(0.5, 7.3, t) == 7.3

    def test_bad_boundary_accelerates(self):
        t = MdpTuple(r_g=1.0, r_b=0.1, beta_acc=2.0)
        assert predictive_limit(0.1, 3.0, t) == pytest.approx(6.0)


def loop_step_amplitudes(actions, p_max, n_s):
    """Reference for ``step``'s budgets and uniform split: one user at a time.

    Clips each budget with Python's min/max, splits it uniformly with
    ``math.sqrt`` and scales a row whose rounded power exceeds the budget
    back onto it.  Returns (amplitudes, power traces, budgets), the traces
    and budgets as lists of floats.
    """
    rows, traces, budgets = [], [], []
    for power in np.asarray(actions, dtype=float)[:, 0].tolist():
        budget = min(max(power, 0.0), p_max)
        raw = np.full(n_s, math.sqrt(budget / n_s))
        total = float(np.sum(raw**2))
        if total > budget:
            raw = raw * math.sqrt(budget / total)
        rows.append(raw)
        traces.append(float(np.sum(raw**2)))
        budgets.append(budget)
    return np.array(rows), traces, budgets


def step_amplitudes(env, actions, amplitudes=None):
    """``env.step``'s info plus the amplitudes it passed to the closed form."""
    seen = []

    def spy(stats, mask, amps, noise_power):
        seen.append(amps)
        return np.zeros(len(amps))

    with pytest.MonkeyPatch.context() as mp, np.errstate(divide="raise", invalid="raise"):
        mp.setattr(env_module, "se_closed_form_mr", spy)
        _, _, info = env.step(actions, amplitudes=amplitudes)
    return seen[0], info


class TestStepAmplitudes:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n_s=st.integers(1, 9),
        powers=st.lists(
            st.one_of(st.just(0.0), st.just(0.2), st.floats(-0.05, 0.25)),
            min_size=1, max_size=9,
        ),
    )
    def test_uniform_split_bitwise_equal_to_user_loop(self, n_s, powers):
        env = make_env(m_bs=1, k_ue=len(powers), n_h_r=1, n_v_r=1, n_h_s=n_s)
        env.reset()
        actions = np.array(powers)[:, None]
        amps, info = step_amplitudes(env, actions)
        ref, traces, budgets = loop_step_amplitudes(actions, env.params.p_max, n_s)
        assert amps.tobytes() == ref.tobytes()
        assert np.array(info["power_trace"]).tobytes() == np.array(traces).tobytes()
        assert np.array(info["budgets"]).tobytes() == np.array(budgets).tobytes()
        assert env.budgets(actions).tobytes() == np.array(budgets).tobytes()

    def test_projection_trims_overshooting_split(self):
        # some budgets' uniform split radiates an ulp more than the budget;
        # step scales such a row back so its power never exceeds the budget
        rng = np.random.default_rng(0)
        budgets = rng.uniform(0.0, 0.2, 200)
        n_s = 3
        over = np.sum(uniform_amplitudes(budgets, n_s) ** 2, axis=1) > budgets
        assert over.any()
        env = make_env(m_bs=1, k_ue=len(budgets), n_h_r=1, n_v_r=1, n_h_s=n_s)
        env.reset()
        amps, info = step_amplitudes(env, budgets[:, None])
        assert np.all(np.array(info["power_trace"]) <= budgets)
        assert np.all(amps[over] < uniform_amplitudes(budgets[over], n_s))
        np.testing.assert_array_equal(amps[~over], uniform_amplitudes(budgets[~over], n_s))

    def test_supplied_amplitudes_pass_unchanged(self):
        env = make_env(m_bs=1, k_ue=2)
        env.reset()
        supplied = np.array([[0.3, 0.0], [0.1, 0.2]])
        amps, info = step_amplitudes(env, static_actions(env, power=0.2), supplied)
        assert amps.tobytes() == supplied.tobytes()
        assert info["power_trace"] == np.sum(supplied**2, axis=1).tolist()
        assert info["budgets"] == [0.2, 0.2]

    @pytest.mark.parametrize("amplitudes, match", [
        (np.full((2, 3), 0.1), "shape"),
        (np.full((3, 2), 0.1), "shape"),
        (np.full(2, 0.1), "shape"),
        (np.array([[0.1, -0.1], [0.1, 0.1]]), "nonnegative"),
        (np.array([[0.1, np.nan], [0.1, 0.1]]), "finite"),
        (np.array([[0.1, np.inf], [0.1, 0.1]]), "finite"),
        (np.array([[0.3, 0.3], [0.1, 0.1]]), "budget"),
    ])
    def test_rejects_bad_amplitudes(self, amplitudes, match):
        env = make_env(m_bs=1, k_ue=2)
        env.reset()
        assert env.n_s == 2
        with pytest.raises(ValueError, match=match):
            env.step(static_actions(env, power=0.1), amplitudes=amplitudes)

    def test_budget_is_the_clipped_action(self):
        env = make_env(scenario="dynamic", m_bs=1, k_ue=3)
        env.reset()
        actions = np.array([[-0.1, 1.0, 0.0], [0.07, 1.0, 0.0], [0.5, 1.0, 0.0]])
        np.testing.assert_array_equal(env.budgets(actions), [0.0, 0.07, env.params.p_max])
        _, _, info = env.step(actions)
        assert info["budgets"] == env.budgets(actions).tolist()


class TestTorus:
    def test_wrap(self):
        out = wrap_coords(np.array([[1100.0, -50.0, 1.5]]), 1000.0)
        np.testing.assert_allclose(out, [[100.0, 950.0, 1.5]])

    def test_metric_properties(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1000, size=(12, 3))
        pts[:, 2] = 1.5
        for a, b, c in combinations(range(12), 3):
            dab = torus_distance(pts[a], pts[b], 1000.0)
            dba = torus_distance(pts[b], pts[a], 1000.0)
            assert dab == pytest.approx(dba)
            assert dab <= torus_distance(pts[a], pts[c], 1000.0) + torus_distance(
                pts[c], pts[b], 1000.0
            ) + 1e-9

    def test_minimum_image(self):
        d = torus_delta(np.array([990.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0]), 1000.0)
        np.testing.assert_allclose(d, [20.0, 0.0, 0.0])


class TestReset:
    def test_single_station_unconstrained(self):
        env = make_env(m_bs=1, k_ue=1)
        obs = env.reset()
        assert env.world.bs_positions.shape == (1, 3)
        assert obs.shape == (1, 1)

    def test_nine_stations_respect_wraparound_spacing(self):
        env = make_env(seed=3, m_bs=9, k_ue=2)
        env.reset()
        bs = env.world.bs_positions
        dists = [
            torus_distance(bs[i], bs[j], env.params.area)
            for i, j in combinations(range(9), 2)
        ]
        assert len(dists) == 36
        assert min(dists) >= env.params.min_bs_spacing

    def test_deterministic_placement(self):
        e1, e2 = make_env(seed=11), make_env(seed=11)
        e1.reset(), e2.reset()
        np.testing.assert_array_equal(e1.world.bs_positions, e2.world.bs_positions)
        np.testing.assert_array_equal(e1.world.ue_positions, e2.world.ue_positions)

    def test_infeasible_spacing_raises(self):
        env = make_env(m_bs=40, min_bs_spacing=400.0, max_placement_tries=200)
        with pytest.raises(RuntimeError, match="could not place"):
            env.reset()


class TestObservations:
    def test_symmetric_users_equal_state(self):
        env = make_env(m_bs=1, k_ue=2)
        env.set_world(
            bs_positions=[[500.0, 500.0, 10.0]],
            ue_positions=[[400.0, 500.0, 1.5], [600.0, 500.0, 1.5]],
        )
        s = env.observe_layer1()
        assert s[0] == pytest.approx(s[1], rel=1e-12)

    def test_moving_away_decreases_state(self):
        env = make_env(m_bs=1, k_ue=1)
        env.set_world([[500.0, 500.0, 10.0]], [[450.0, 500.0, 1.5]])
        near = env.observe_layer1()[0]
        env.set_world([[500.0, 500.0, 10.0]], [[350.0, 500.0, 1.5]])
        far = env.observe_layer1()[0]
        assert far < near

    def test_two_equal_stations_sum(self):
        env = make_env(m_bs=2, k_ue=1, min_bs_spacing=100.0)
        env.set_world(
            [[400.0, 500.0, 10.0], [600.0, 500.0, 10.0]],
            [[500.0, 500.0, 1.5]],
        )
        betas = env.observe_layer1()
        single = env._pair_beta(0, 0)
        assert betas[0] == pytest.approx(2.0 * single, rel=1e-12)

    def test_layer2_shape_and_positive(self):
        env = make_env()
        env.reset()
        b = env.observe_layer2()
        assert b.shape == (env.n_agents, env.n_s)
        assert np.all(b > 0)


class TestStatsGrid:
    @pytest.mark.parametrize("mode", ["beta", "lsf"])
    def test_masks_of_every_link(self, mode):
        env = make_env(seed=4, m_bs=3, k_ue=2, lsf_mode=mode)
        env.reset()
        mask = env.stats_grid()
        link_shape = () if mode == "beta" else (env.n_r, env.n_s)
        assert mask.shape == (3, 2, *link_shape)
        for m in range(3):
            for k in range(2):
                if mode == "beta":
                    expected = np.float64(env._pair_beta(m, k))
                else:
                    geom_r, geom_s = env._pair_geometries(m, k)
                    expected = lsf_matrix(geom_r, geom_s, env.params.wavelength)
                assert mask[m, k].tobytes() == expected.tobytes()

    def test_constant_lsf_mask_matches_scalar_beta(self):
        env = make_env(m_bs=2, k_ue=2)
        env.set_world(
            [[300.0, 500.0, 10.0], [700.0, 500.0, 10.0]],
            [[330.0, 520.0, 1.5], [670.0, 480.0, 1.5]],
        )
        beta = env.stats_grid()
        lsf = beta[:, :, None, None] * np.ones((env.n_r, env.n_s))
        amps = uniform_amplitudes(env.budgets(static_actions(env, power=0.15)), env.n_s)
        scalar = se_closed_form_mr(env.channel_stats, beta, amps, env.params.noise_power)
        matrix = se_closed_form_mr(env.channel_stats, lsf, amps, env.params.noise_power)
        np.testing.assert_allclose(matrix, scalar, rtol=1e-12, atol=0)


class TestStep:
    def test_moves_along_x(self):
        env = make_env(scenario="dynamic", m_bs=1, k_ue=1)
        env.set_world([[500.0, 500.0, 10.0]], [[100.0, 200.0, 1.5]])
        env.step(np.array([[0.1, 5.0, 0.0]]))
        np.testing.assert_allclose(env.world.ue_positions[0], [105.0, 200.0, 1.5])

    def test_zero_step_matches_static_rewards(self):
        env_d = make_env(scenario="dynamic", m_bs=1, k_ue=2)
        env_s = make_env(scenario="static", m_bs=1, k_ue=2)
        bs = [[500.0, 500.0, 10.0]]
        ue = [[450.0, 480.0, 1.5], [530.0, 520.0, 1.5]]
        env_d.set_world(bs, ue)
        env_s.set_world(bs, ue)
        _, r_d, _ = env_d.step(mobile_actions(env_d, power=0.15, step=0.0))
        _, r_s, _ = env_s.step(static_actions(env_s, power=0.15))
        np.testing.assert_array_equal(env_d.world.ue_positions, np.asarray(ue))
        np.testing.assert_allclose(r_d, r_s, atol=0)

    def test_rewards_match_closed_form_sum(self):
        env = make_env(m_bs=2, k_ue=2)
        env.reset()
        actions = static_actions(env, power=0.12)
        amps = uniform_amplitudes(env.budgets(actions), env.n_s)
        expected = se_closed_form_mr(
            env.channel_stats, env.stats_grid(), amps, env.params.noise_power
        )
        _, rewards, _ = env.step(actions)
        assert float(np.sum(rewards)) == pytest.approx(expected.sum(), abs=1e-12)
        np.testing.assert_allclose(rewards, expected, atol=1e-15)

    def test_z_invariant_and_wrap(self):
        env = make_env(scenario="dynamic", m_bs=1, k_ue=1)
        env.set_world([[500.0, 500.0, 10.0]], [[998.0, 1.0, 1.5]])
        env.step(np.array([[0.1, 5.0, 0.0]]))
        pos = env.world.ue_positions[0]
        assert pos[0] == pytest.approx(3.0)
        assert pos[2] == 1.5

    def test_static_never_moves(self):
        env = make_env(scenario="static")
        env.reset()
        before = env.world.ue_positions.copy()
        for _ in range(3):
            env.step(static_actions(env, power=0.05))
        np.testing.assert_array_equal(env.world.ue_positions, before)

    def test_pm_with_unit_factors_equals_dynamic(self):
        mdp = MdpTuple(alpha=1.0, beta_acc=1.0 + 1e-12, r_g=0.2, r_b=0.05)
        env_a = make_env(seed=5, scenario="dynamic", mdp=mdp)
        env_b = make_env(seed=5, scenario="pm-dynamic", mdp=mdp)
        env_a.reset(), env_b.reset()
        rng = np.random.default_rng(8)
        for _ in range(4):
            acts = np.array([
                [0.1, rng.uniform(0, 5), rng.uniform(0, 2 * math.pi)]
                for _ in range(env_a.n_agents)
            ])
            env_a.step(acts)
            env_b.step(acts)
        np.testing.assert_allclose(
            env_a.world.ue_positions, env_b.world.ue_positions, rtol=0, atol=1e-9
        )

    def test_pm_rescales_step(self):
        mdp = MdpTuple(alpha=0.5, beta_acc=2.0, r_g=1e9, r_b=1e-30)
        env = make_env(scenario="pm-dynamic", m_bs=1, k_ue=1, mdp=mdp)
        env.set_world([[500.0, 500.0, 10.0]], [[100.0, 200.0, 1.5]])
        # team reward sits in the identity band; then force the good branch
        env.step(np.array([[0.1, 4.0, 0.0]]))
        assert env.world.ue_positions[0, 0] == pytest.approx(104.0)
        mdp2 = MdpTuple(alpha=0.5, beta_acc=2.0, r_g=1e-30, r_b=1e-31)
        env2 = make_env(scenario="pm-dynamic", m_bs=1, k_ue=1, mdp=mdp2)
        env2.set_world([[500.0, 500.0, 10.0]], [[100.0, 200.0, 1.5]])
        env2.step(np.array([[0.1, 4.0, 0.0]]))
        assert env2.world.ue_positions[0, 0] == pytest.approx(102.0)

    def test_power_constraint_always_respected(self):
        env = make_env(seed=2)
        env.reset()
        for power in [0.0, 0.1, 0.2]:
            _, _, info = env.step(static_actions(env, power=power))
            for trace, budget in zip(info["power_trace"], info["budgets"]):
                assert trace <= budget + 1e-12
                assert budget <= env.params.p_max + 1e-12

    def test_rejects_nan_action(self):
        for scenario, column in [("static", 0), ("dynamic", 0), ("dynamic", 2)]:
            env = make_env(scenario=scenario)
            env.reset()
            actions = mobile_actions(env, step=1.0)[:, : len(env.action_ranges)]
            actions[-1, column] = float("nan")
            with pytest.raises(ValueError, match="finite"):
                env.step(actions)

    @pytest.mark.parametrize(
        "scenario, shape", [("dynamic", (2, 1)), ("static", (3, 1)), ("static", (2,))]
    )
    def test_rejects_wrong_shape(self, scenario, shape):
        env = make_env(scenario=scenario, k_ue=2)
        env.reset()
        expected = f"shape ({env.n_agents}, {len(env.action_ranges)})"
        with pytest.raises(ValueError, match=re.escape(expected)):
            env.step(np.full(shape, 0.1))

    def test_accepts_list_of_rows(self):
        env_a, env_b = make_env(seed=3, scenario="dynamic"), make_env(seed=3, scenario="dynamic")
        env_a.reset(), env_b.reset()
        rows = [[0.1, 2.0, 1.0], [0.05, 3.0, 4.0]]
        _, r_a, _ = env_a.step(rows)
        _, r_b, _ = env_b.step(np.array(rows))
        np.testing.assert_array_equal(r_a, r_b)
        np.testing.assert_array_equal(env_a.world.ue_positions, env_b.world.ue_positions)

    def test_requires_reset(self):
        env = make_env()
        with pytest.raises(RuntimeError, match="reset"):
            env.step(static_actions(env))
