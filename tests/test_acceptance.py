"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.  Criteria 9 and 10 train agents and take a few minutes.
"""

import json
import math
import time

import numpy as np
import pytest

from xlmimo.channel import sample_ssf_batch
from xlmimo.dlpc import split_reward
from xlmimo.env import CellFreeEnv
from xlmimo.harness.cli import main as cli_main
from xlmimo.harness.config import make_config
from xlmimo.harness.run import build_trainer, detect_convergence, evaluate_greedy
from xlmimo.marl.nets import Actor, Mlp, clip_gradients, global_norm, soft_update
from xlmimo.marl.replay import priority_ranked, priority_simple
from xlmimo.marl.trainer import Trainer, TrainerSettings, VariantSpec
from xlmimo.se import se_closed_form_mr, se_monte_carlo, uniform_amplitudes
from xlmimo.seeding import stream


def report(criterion: str, detail: str):
    print(f"[ACCEPTANCE] {criterion}: PASS ({detail})")


def desk_grid(seed=0):
    cfg = make_config({"seed": seed})
    env = CellFreeEnv(cfg.env_params(), stream(seed, "env"))
    env.reset()
    return cfg, env, env.stats_grid()


def full_power(n_ue, n_s, budget=0.2):
    return uniform_amplitudes(np.full(n_ue, budget), n_s)


class TestC01ClosedFormVsMonteCarlo:
    # one mid-range placement per station; both users at healthy SINR so the
    # relative comparison is not dominated by a near-zero rate
    BS = [[300.0, 500.0, 10.0], [700.0, 500.0, 10.0]]
    UE = [[330.0, 520.0, 1.5], [670.0, 480.0, 1.5]]

    def test_agreement_on_desk_config(self):
        t0 = time.perf_counter()
        powers = full_power(2, 2)
        worst = 0.0
        for mask in ("beta", "lsf"):
            cfg = make_config({"seed": 42, "lsf_mode": mask})
            env = CellFreeEnv(cfg.env_params(), stream(42, "env"))
            env.set_world(self.BS, self.UE)
            assert (cfg.m_bs, cfg.k_ue) == (2, 2)
            assert env.n_r == 4 and env.n_s == 2
            assert cfg.spacing_r == pytest.approx(1 / 3)
            grid = env.stats_grid()
            closed = se_closed_form_mr(env.channel_stats, grid, powers, cfg.noise_power)
            mc = se_monte_carlo(
                env.channel_stats, grid, powers, cfg.noise_power, n_draws=10_000,
                rng=stream(42, "mc", mask, 1),
            )
            rel = float(np.max(np.abs(closed - mc) / mc))
            worst = max(worst, rel)
            assert rel <= 0.02, f"mask={mask}: relative error {rel:.4f} > 2%"
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0
        report("criterion 1 closed-form vs Monte-Carlo SE",
               f"max rel err {worst:.3%} in {elapsed:.1f}s")


class TestC02CorrelationFidelity:
    def test_sample_covariance_matches(self):
        _, env, _ = desk_grid(seed=7)
        stats = env.channel_stats
        dim = stats.n_r * stats.n_s
        assert dim <= 32
        n = 100_000
        h = sample_ssf_batch(stats, n, stream(7, "cov"))
        vecs = h.reshape(n, -1, order="F")
        emp = np.einsum("ni,nj->ij", vecs, np.conj(vecs)) / n
        rel = np.linalg.norm(emp - stats.corr) / np.linalg.norm(stats.corr)
        assert rel <= 0.05
        r = stats.corr
        assert np.array_equal(r, np.conj(r.T))
        eigs = np.linalg.eigvalsh(r)
        spec_norm = np.abs(eigs).max()
        assert eigs.min() >= -1e-8 * spec_norm
        report("criterion 2 correlation-matrix fidelity",
               f"rel Frobenius err {rel:.3%}, min eig {eigs.min():.2e}")


class TestC03GaussianMomentDualOracle:
    def test_scalar_textbook_moment(self):
        from tests.test_se import gaussian_moment_oracle

        pair, sim = gaussian_moment_oracle(
            np.array([[1.0 + 0j]]), np.array([[1.0]]), 1, 1,
            n_draws=1_000_000, rng=stream(3, "oracle", 0),
        )
        assert pair[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert abs(sim[0, 0].real - 2.0) <= 0.02
        report("criterion 3a scalar fourth moment",
               f"pairings {pair[0,0].real:.6f}, simulated {sim[0,0].real:.4f}")

    def test_all_small_probes(self):
        from tests.test_se import gaussian_moment_oracle

        worst = 0.0
        probe = 0
        for n_r in (1, 2):
            for n_s in (1, 2):
                for rep in range(2):
                    rng = stream(3, "oracle", n_r, n_s, rep)
                    dim = n_r * n_s
                    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                    cov = a @ np.conj(a.T) / dim
                    b = rng.standard_normal((n_s, n_s))
                    pbar = b @ b.T
                    pair, sim = gaussian_moment_oracle(
                        cov, pbar, n_r, n_s, n_draws=1_000_000, rng=rng
                    )
                    rel = np.linalg.norm(pair - sim) / np.linalg.norm(pair)
                    worst = max(worst, float(rel))
                    probe += 1
                    assert rel <= 0.01, f"probe {n_r}x{n_s}#{rep}: {rel:.4f}"
        report("criterion 3b dual-oracle agreement",
               f"{probe} probes, worst rel err {worst:.3%}")


class TestC04GradientSuite:
    SHAPES = [[4, 128, 64, 3], [1, 128, 64, 1], [6, 32, 16, 1], [2, 16, 8, 2]]

    @pytest.mark.parametrize("sizes", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_directional_probes(self, sizes):
        rng = stream(4, "grad", *sizes)
        net = Mlp(sizes, rng)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(sizes[0])
            up = rng.standard_normal(sizes[-1])
            grads, _ = net.backward(x, up)
            direction = [rng.standard_normal(p.shape) for p in net.parameters()]
            # unit step keeps pre-activations clear of the rectifier kinks
            norm = global_norm(direction)
            direction = [d / norm for d in direction]
            analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))
            eps = 1e-6
            base = [p.copy() for p in net.parameters()]
            net.set_parameters([p + eps * d for p, d in zip(base, direction)])
            up_val = float(np.dot(up, net.forward(x)))
            net.set_parameters([p - eps * d for p, d in zip(base, direction)])
            down_val = float(np.dot(up, net.forward(x)))
            net.set_parameters(base)
            numeric = (up_val - down_val) / (2 * eps)
            rel = abs(analytic - numeric) / max(abs(numeric), 1e-8)
            worst = max(worst, rel)
            assert rel <= 1e-4
        report(f"criterion 4 gradients {sizes}", f"100 probes, worst rel err {worst:.2e}")

    def test_actor_squash_gradients(self):
        rng = stream(4, "grad", "actor")
        actor = Actor(Mlp([3, 32, 16, 3], rng), np.array([0.2, 5.0, 2 * math.pi]))
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(3)
            up = rng.standard_normal(3)
            grads = actor.backward_through_action(x, up)
            direction = [rng.standard_normal(p.shape) for p in actor.parameters()]
            analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))
            eps = 1e-6
            base = [p.copy() for p in actor.parameters()]
            actor.mlp.set_parameters([p + eps * d for p, d in zip(base, direction)])
            up_val = float(np.dot(up, actor.act(x)))
            actor.mlp.set_parameters([p - eps * d for p, d in zip(base, direction)])
            down_val = float(np.dot(up, actor.act(x)))
            actor.mlp.set_parameters(base)
            numeric = (up_val - down_val) / (2 * eps)
            rel = abs(analytic - numeric) / max(abs(numeric), 1e-10)
            worst = max(worst, rel)
            assert rel <= 1e-4
        report("criterion 4 actor-squash gradients", f"worst rel err {worst:.2e}")

    def test_clip_norm_exact(self):
        rng = stream(4, "clip")
        fired_count = 0
        for _ in range(50):
            grads = [rng.standard_normal((8, 4)) * 3, rng.standard_normal(4)]
            clipped, fired = clip_gradients(grads, 0.5)
            if fired:
                fired_count += 1
                assert global_norm(clipped) == pytest.approx(0.5, abs=1e-12)
            else:
                assert global_norm(grads) <= 0.5
        assert fired_count > 0
        report("criterion 4 gradient clipping", f"{fired_count}/50 clipped to norm 0.5")


class TestC05PriorityAlgebra:
    def test_sums_and_hand_example(self):
        rng = stream(5, "prio")
        for k in (2, 5, 17):
            losses = rng.uniform(0, 10, k)
            assert priority_simple(losses).sum() == pytest.approx(1.0, abs=1e-12)
            counts = rng.integers(0, 50, k)
            nu = 0.05
            pr = priority_ranked(losses, counts, mu=1.7, nu=nu)
            assert pr.sum() == pytest.approx(1.0 + k * nu, abs=1e-12)
        hand = priority_ranked([1.0, 9.0], [5, 0], mu=1.0, nu=1e-9)
        np.testing.assert_allclose(hand - 1e-9, [1 / 3, 2 / 3], atol=1e-12)
        report("criterion 5 priority algebra", "sum identities and K=2 hand value exact")


class TestC06SoftUpdateAlgebra:
    def test_both_directions_exact(self):
        rng = stream(6, "soft")
        for direction in ("standard", "reversed"):
            cur = Mlp([3, 8, 4, 2], rng)
            tgt = Mlp([3, 8, 4, 2], rng)
            c0 = [p.copy() for p in cur.parameters()]
            t0 = [p.copy() for p in tgt.parameters()]
            tau = 0.013
            soft_update(cur, tgt, tau, direction)
            for c, t, new in zip(c0, t0, tgt.parameters()):
                expect = tau * c + (1 - tau) * t if direction == "standard" else tau * t + (1 - tau) * c
                np.testing.assert_array_equal(new, expect)
        cur = Mlp([2, 4, 4, 1], rng)
        tgt = Mlp([2, 4, 4, 1], rng)
        frozen = [p.copy() for p in tgt.parameters()]
        soft_update(cur, tgt, 1.0, "reversed")
        for f, t in zip(frozen, tgt.parameters()):
            np.testing.assert_array_equal(f, t)
        report("criterion 6 soft-update algebra", "both directions exact; reversed tau=1 fixed point")


TOY = dict(
    episodes=3, steps=10, hidden=(12, 6), buffer_capacity=64, pool_size=16,
    update_after=8, batch_global=8, batch_local=8, eval_every=3, eval_draws=2,
    n_conv=2,
)


class TestC07Conservation:
    def test_logged_steps_respect_budgets(self, tmp_path):
        checked = 0
        for arch in ("single", "double"):
            cfg = make_config({**TOY, "architecture": arch, "scenario": "dynamic",
                               "seed": 13})
            from xlmimo.harness.run import run_experiment

            run_experiment(cfg, tmp_path / arch, log_trajectories=True)
            lines = (tmp_path / arch / "trajectory.jsonl").read_text().splitlines()
            assert len(lines) == cfg.episodes * cfg.steps
            for line in lines:
                rec = json.loads(line)
                for trace, budget in zip(rec["power_trace"], rec["budgets"]):
                    assert trace <= budget + 1e-12
                    assert budget <= 0.2 + 1e-12
                checked += 1
        report("criterion 7a power conservation", f"{checked} logged steps within budgets")

    def test_split_rewards_reconstruct(self):
        cfg = make_config({**TOY, "architecture": "double", "seed": 14})
        env, trainer = build_trainer(cfg)
        metrics = trainer.train_episode()
        n_s = env.n_s
        for rewards in metrics["rewards"]:
            shares = split_reward(rewards, n_s)
            for k, r in enumerate(rewards):
                assert shares[k * n_s : (k + 1) * n_s].sum() == r
        report("criterion 7b reward conservation",
               f"layer-2 shares reconstruct layer-1 rewards exactly over "
               f"{len(metrics['rewards'])} steps")


class TestC08DegenerateEquivalence:
    def test_single_antenna_double_equals_single(self):
        over = {**TOY, "n_h_s": 1, "n_v_s": 1, "seed": 15}
        cfg_s = make_config({**over, "architecture": "single"})
        cfg_d = make_config({**over, "architecture": "double"})
        env_s, t_s = build_trainer(cfg_s)
        env_d, t_d = build_trainer(cfg_d)
        for _ in range(2):
            m_s = t_s.train_episode()
            m_d = t_d.train_episode()
            np.testing.assert_allclose(
                np.asarray(m_s["sum_se"]), np.asarray(m_d["sum_se"]), rtol=0, atol=1e-12
            )
        for a, b in zip(t_s.core.parameter_snapshot()["actors"],
                        t_d.core.parameter_snapshot()["actors"]):
            for pa, pb in zip(a, b):
                np.testing.assert_array_equal(pa, pb)
        report("criterion 8a single-antenna equivalence",
               "double-layer trace identical to single-layer")

    def test_mimo_reduces_to_maddpg(self):
        from tests.test_trainer import QuadraticBandit

        settings = TrainerSettings(
            episodes=3, steps=12, hidden=(12, 6), buffer_capacity=64,
            pool_size=16, update_after=8, batch_global=8, batch_local=8,
        )
        knobs_off = VariantSpec(local_critic=True, prioritized=False, ddpg_weight=0.0)
        t_a = Trainer(QuadraticBandit(), settings, knobs_off, master_seed=16)
        t_b = Trainer(QuadraticBandit(), settings, "maddpg", master_seed=16)
        for _ in range(3):
            m_a = t_a.train_episode()
            m_b = t_b.train_episode()
            np.testing.assert_array_equal(
                np.asarray(m_a["actions"]), np.asarray(m_b["actions"])
            )
        snap_a, snap_b = t_a.core.parameter_snapshot(), t_b.core.parameter_snapshot()
        for a, b in zip(snap_a["actors"], snap_b["actors"]):
            for pa, pb in zip(a, b):
                np.testing.assert_array_equal(pa, pb)
        for pa, pb in zip(snap_a["global_critic"], snap_b["global_critic"]):
            np.testing.assert_array_equal(pa, pb)
        report("criterion 8b variant reduction",
               "decoupled term off + uniform sampling reproduces the baseline trace")


class TestC09BanditSanity:
    def test_trained_power_near_grid_search(self):
        from tests.test_trainer import QuadraticBandit

        t0 = time.perf_counter()
        env = QuadraticBandit(p_max=0.2, p_star=0.12)
        settings = TrainerSettings(
            episodes=300, steps=10, hidden=(64, 32), lr_actor=0.01, lr_critic=0.01,
            gamma=0.9, buffer_capacity=256, pool_size=64, update_after=64,
            batch_global=32, batch_local=32, noise_start=0.3, noise_end=0.02,
        )
        trainer = Trainer(env, settings, "mimo-maddpg", master_seed=0)
        for _ in range(settings.episodes):
            trainer.train_episode()
        elapsed = time.perf_counter() - t0
        grid = np.linspace(0.0, env.p_max, 2001)
        optimum = grid[np.argmax([env.reward(p) for p in grid])]
        learned = float(trainer.core.greedy(env.reset())[0, 0])
        assert abs(learned - optimum) <= 0.10 * optimum, (
            f"learned {learned:.4f} vs optimum {optimum:.4f}"
        )
        assert settings.episodes <= 500
        assert elapsed <= 300.0
        report("criterion 9 bandit sanity",
               f"power {learned:.4f} vs optimum {optimum:.4f} "
               f"({abs(learned-optimum)/optimum:.1%}) in {elapsed:.0f}s")


TREND = dict(
    wavelength=2.0, area=120.0, min_bs_spacing=40.0,
    n_h_s=4, n_v_s=1, lsf_mode="lsf", fixed_placement=True,
    r_g=2.3, r_b=1.9, alpha=0.1, beta_acc=2.0,
    episodes=60, steps=25, hidden=(32, 16),
    buffer_capacity=512, pool_size=64, update_after=64,
    batch_global=32, batch_local=32,
    lr_actor=0.03, lr_critic=0.03, gamma=0.9,
    noise_start=0.4, noise_end=0.05,
    eval_every=60, eval_draws=4, n_conv=20,
)

N_SEEDS = 10


@pytest.fixture(scope="module")
def trend_runs():
    """Shared trend-config training runs, keyed by (scenario, arch, variant, seed).

    The near-field desk-scale lab: same station/user counts and surface
    shapes as the default desk system but with meter-scale wavelength and a
    dense area so per-antenna fading variation and movement actually move
    the rates (the 1 km / -69 dBm default is noise-dominated and the
    per-antenna split is provably irrelevant there).
    """
    cache = {}

    def get(scenario="static", architecture="single", variant="mimo-maddpg", seed=0):
        key = (scenario, architecture, variant, seed)
        if key not in cache:
            cfg = make_config(
                {**TREND, "scenario": scenario, "architecture": architecture,
                 "variant": variant, "seed": seed}
            )
            env, trainer = build_trainer(cfg)
            series = []
            for _ in range(cfg.episodes):
                m = trainer.train_episode()
                series.append(float(np.mean(m["sum_se"])))
            final = evaluate_greedy(trainer, cfg, round_key=10_000)["mean"]
            conv = detect_convergence(series, cfg.n_conv, cfg.delta_conv)
            cache[key] = {"final": final, "convergence": conv, "episodes": cfg.episodes}
        return cache[key]

    return get


class TestC10TrendReproduction:
    def test_a_scenario_ordering(self, trend_runs):
        means = {}
        for scenario in ("static", "dynamic", "pm-dynamic"):
            vals = [trend_runs(scenario=scenario, seed=s)["final"] for s in range(N_SEEDS)]
            means[scenario] = float(np.mean(vals))
        assert means["static"] <= means["dynamic"] <= means["pm-dynamic"], means
        report("criterion 10a scenario ordering",
               f"mean final sum SE static {means['static']:.3f} <= "
               f"dynamic {means['dynamic']:.3f} <= pm-dynamic {means['pm-dynamic']:.3f} "
               f"over {N_SEEDS} seeds")

    def test_b_double_beats_single(self, trend_runs):
        from scipy.stats import wilcoxon

        singles = np.array(
            [trend_runs(architecture="single", seed=s)["final"] for s in range(N_SEEDS)]
        )
        doubles = np.array(
            [trend_runs(architecture="double", seed=s)["final"] for s in range(N_SEEDS)]
        )
        diffs = doubles - singles
        assert doubles.mean() >= singles.mean()
        stat, p = wilcoxon(diffs, alternative="greater")
        assert p <= 0.05, f"one-sided p = {p:.4f}, diffs = {np.round(diffs, 5)}"
        report("criterion 10b double vs single",
               f"mean gain {diffs.mean():+.4f} bits/s/Hz "
               f"({diffs.mean()/singles.mean():+.1%}), one-sided p = {p:.4g} "
               f"over {N_SEEDS} paired seeds")

    def test_c_convergence_ordering(self, trend_runs):
        def conv_episode(run):
            return run["episodes"] if run["convergence"] is None else run["convergence"]

        mimo = [conv_episode(trend_runs(variant="mimo-maddpg", seed=s)) for s in range(N_SEEDS)]
        maddpg = [conv_episode(trend_runs(variant="maddpg", seed=s)) for s in range(N_SEEDS)]
        assert np.median(mimo) <= np.median(maddpg), (mimo, maddpg)
        report("criterion 10c convergence ordering",
               f"median convergence episode {np.median(mimo):.0f} (hybrid) <= "
               f"{np.median(maddpg):.0f} (baseline), window 20 episodes")


class TestC11Determinism:
    def test_cli_byte_reproducible(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**TOY, "scenario": "dynamic"}))
        files = ("metrics.csv", "summary.json", "checkpoint.json", "config.json",
                 "trajectory.jsonl")
        args = ["train", "--config", str(cfg_path), "--seed", "23", "--trajectories"]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name
        sim = ["simulate", "--config", str(cfg_path), "--seed", "23", "--draws", "500",
               "--dump-geometry"]
        assert cli_main(sim + ["--out", str(tmp_path / "s1")]) == 0
        assert cli_main(sim + ["--out", str(tmp_path / "s2")]) == 0
        for name in ("se.json", "geometry.json"):
            assert (tmp_path / "s1" / name).read_bytes() == (
                tmp_path / "s2" / name
            ).read_bytes(), name
        report("criterion 11 determinism",
               f"{len(files) + 2} artifacts byte-identical across reruns")
