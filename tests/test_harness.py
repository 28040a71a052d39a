import csv
import json
from pathlib import Path

import numpy as np
import pytest

from xlmimo.harness.config import (
    ConfigError,
    config_hash,
    dump_config,
    load_config,
    make_config,
)
from xlmimo.harness.run import (
    detect_convergence,
    fractional_baseline,
    run_experiment,
    sweep,
)
from xlmimo.se import uniform_amplitudes

TINY = dict(
    episodes=3,
    steps=6,
    hidden=(12, 6),
    buffer_capacity=48,
    pool_size=12,
    update_after=6,
    batch_global=6,
    batch_local=6,
    eval_every=2,
    eval_draws=2,
    n_conv=2,
)


def tiny_config(**over):
    merged = dict(TINY)
    merged.update(over)
    return make_config(merged)


class TestConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.noise_dbm == -69.0
        assert cfg.p_max_mw == 200.0
        assert cfg.bandwidth_mhz == 20.0
        assert cfg.gamma == 0.99
        assert cfg.buffer_capacity == 1024
        assert cfg.pool_size == 512
        assert cfg.clip_norm == 0.5
        assert cfg.tau == 0.01
        assert cfg.lr_actor == 0.01 and cfg.lr_critic == 0.01
        assert cfg.hidden == (128, 64)
        assert cfg.n_conv == 100 and cfg.delta_conv == 0.01
        # desk-scale system
        assert (cfg.m_bs, cfg.k_ue) == (2, 2)
        assert (cfg.n_h_r * cfg.n_v_r, cfg.n_h_s * cfg.n_v_s) == (4, 2)

    def test_rejects_wide_spacing_naming_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"spacing_r": 0.6}))
        with pytest.raises(ConfigError, match="spacing_r.*half a wavelength"):
            load_config(path)

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"spacing_q": 0.3}))
        with pytest.raises(ConfigError, match="unknown configuration keys.*spacing_q"):
            load_config(path)

    def test_round_trip(self, tmp_path):
        cfg = make_config({"m_bs": 3, "scenario": "dynamic", "hidden": [32, 16]})
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(path)

    def test_carrier_frequency_alternative(self):
        cfg = make_config({"carrier_ghz": 30.0})
        assert cfg.wavelength == pytest.approx(0.00999308, rel=1e-5)
        with pytest.raises(ConfigError, match="carrier_ghz"):
            make_config({"carrier_ghz": 30.0, "wavelength": 0.01})

    def test_derived_units(self):
        cfg = make_config({})
        assert cfg.noise_power == pytest.approx(10 ** (-9.9))
        assert cfg.p_max == pytest.approx(0.2)
        assert cfg.resolved_update_after == cfg.pool_size

    def test_invariant_errors_name_keys(self):
        for data, key in [
            ({"gamma": 1.5}, "gamma"),
            ({"beta_acc": 0.5}, "beta_acc"),
            ({"r_g": 0.01, "r_b": 0.02}, "r_b"),
            ({"scenario": "warp"}, "scenario"),
            ({"variant": "ppo"}, "variant"),
            ({"m_bs": 0}, "m_bs"),
            ({"priority_nu": 2.0}, "priority_nu"),
        ]:
            with pytest.raises(ConfigError, match=key):
                make_config(data)

    def test_hash_independent_of_seed(self):
        a = make_config({"seed": 1})
        b = make_config({"seed": 2})
        assert config_hash(a) == config_hash(b)
        c = make_config({"seed": 1, "m_bs": 3})
        assert config_hash(a) != config_hash(c)


class TestFractionalBaseline:
    def test_zero_exponent_full_power(self):
        np.testing.assert_allclose(
            fractional_baseline([1e-6, 3e-6], exponent=0.0, p_max=0.2), 0.2
        )

    def test_equal_betas_full_power(self):
        np.testing.assert_allclose(
            fractional_baseline([2e-6, 2e-6, 2e-6], exponent=0.5, p_max=0.2), 0.2
        )

    def test_hand_computed_ratio(self):
        p = fractional_baseline([1.0, 4.0], exponent=0.5, p_max=0.2)
        np.testing.assert_allclose(p, [0.2, 0.1])

    def test_allocations_respect_budget(self):
        budgets = fractional_baseline([1.0, 4.0], exponent=0.5, p_max=0.2)
        amps = uniform_amplitudes(budgets, n_s=2)
        np.testing.assert_allclose(np.sum(amps**2, axis=1), [0.2, 0.1])


class TestDetectConvergence:
    def test_constant_series(self):
        assert detect_convergence([2.0] * 10, n_conv=5, delta_conv=0.01) == 0

    def test_constant_tail_after_noise(self):
        series = [5.0, 1.0, 9.0, 2.0] + [3.0] * 7
        assert detect_convergence(series, n_conv=7, delta_conv=0.01) == 4

    def test_short_series_gives_none(self):
        assert detect_convergence([1.0, 1.0], n_conv=5, delta_conv=0.01) is None

    def test_constructed_decaying_oscillation(self):
        # x_t = 1 + A rho^t (-1)^t; entry index recomputed straight from the
        # band inequality, independent of the detector's scan
        amp, rho, total, n_conv, delta = 0.5, 0.85, 80, 10, 0.02
        t = np.arange(total)
        series = 1.0 + amp * rho**t * (-1.0) ** t
        final = series[-1]
        ok = np.abs(amp * rho**t * (-1.0) ** t - (final - 1.0)) <= delta * abs(final)
        expected = next(
            s for s in range(total - n_conv + 1) if all(ok[s : s + n_conv])
        )
        assert detect_convergence(series, n_conv, delta) == expected

    def test_never_converging(self):
        series = [1.0, 100.0] * 20
        assert detect_convergence(series, n_conv=10, delta_conv=0.01) is None


class TestRunExperiment:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config(seed=5)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("metrics.csv", "summary.json", "checkpoint.json", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_summary_validates_against_schema(self, tmp_path):
        import jsonschema

        cfg = tiny_config(seed=1)
        summary = run_experiment(cfg, tmp_path / "run")
        schema = json.loads(
            (
                Path(__file__).resolve().parents[1]
                / "src/xlmimo/harness/summary_schema.json"
            ).read_text()
        )
        jsonschema.validate(summary, schema)
        on_disk = json.loads((tmp_path / "run" / "summary.json").read_text())
        jsonschema.validate(on_disk, schema)

    def test_csv_schema_stable(self, tmp_path):
        cfg = tiny_config(seed=2)
        run_experiment(cfg, tmp_path / "run")
        header = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[0]
        assert header == (
            "episode,step,se_ue0,se_ue1,sum_se,critic_loss_global,"
            "critic_loss_local_mean,layer2_critic_loss_global,"
            "layer2_critic_loss_local_mean,pr_min,pr_mean,pr_max,converged"
        )

    @pytest.mark.parametrize(
        "architecture, variant, n_conv",
        [("single", "mimo-maddpg", 1), ("single", "maddpg", 1), ("double", "de-maddpg", 1),
         ("double", "pes-maddpg", 5)],
    )
    def test_csv_row_contract(self, tmp_path, architecture, variant, n_conv):
        cfg = tiny_config(seed=7, scenario="dynamic", architecture=architecture,
                          variant=variant, n_conv=n_conv)
        summary = run_experiment(cfg, tmp_path / "run")
        with open(tmp_path / "run" / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == cfg.episodes * cfg.steps
        local = variant in ("de-maddpg", "mimo-maddpg")
        layer2 = architecture == "double"
        conv = summary["convergence_episode"]
        for g, row in enumerate(rows):
            episode = int(row["episode"])
            assert (episode, int(row["step"])) == divmod(g, cfg.steps)
            # each step stores one transition per layer before updating
            ready = g + 1 >= cfg.update_after
            assert (row["critic_loss_global"] != "") == ready
            assert (row["critic_loss_local_mean"] != "") == (ready and local)
            assert (row["layer2_critic_loss_global"] != "") == (ready and layer2)
            assert (row["layer2_critic_loss_local_mean"] != "") == (ready and layer2 and local)
            assert row["converged"] == ("" if conv is None else str(int(episode >= conv)))
        for episode, mean in enumerate(summary["episode_mean_sum_se"]):
            sums = [float(r["sum_se"]) for r in rows if int(r["episode"]) == episode]
            assert float(np.mean(sums)) == mean
        assert (conv is None) == (n_conv > cfg.episodes)

    def test_trajectory_log(self, tmp_path):
        cfg = tiny_config(seed=3, scenario="dynamic")
        run_experiment(cfg, tmp_path / "run", log_trajectories=True)
        lines = (tmp_path / "run" / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == cfg.episodes * cfg.steps
        rec = json.loads(lines[0])
        assert set(rec) == {"episode", "t", "positions", "actions", "rewards",
                            "power_trace", "budgets"}
        for trace, budget in zip(rec["power_trace"], rec["budgets"]):
            assert trace <= budget + 1e-12

    def test_throughput_uses_bandwidth(self, tmp_path):
        cfg = tiny_config(seed=4)
        summary = run_experiment(cfg, tmp_path / "run")
        assert summary["throughput_mbps_mean"] == pytest.approx(
            summary["final_sum_se_mean"] * cfg.bandwidth_mhz
        )


class TestSweep:
    def test_singleton_axis_matches_run_experiment(self, tmp_path):
        cfg = tiny_config(seed=6)
        rows = sweep(cfg, "seed", [6], tmp_path / "sweep")
        direct = run_experiment(cfg, tmp_path / "direct")
        assert len(rows) == 1
        assert rows[0]["final_sum_se_mean"] == direct["final_sum_se_mean"]
        assert (tmp_path / "sweep" / "point_000" / "metrics.csv").read_bytes() == (
            tmp_path / "direct" / "metrics.csv"
        ).read_bytes()

    def test_seed_axis_shares_config_hash(self, tmp_path):
        cfg = tiny_config(episodes=2, steps=4, eval_every=1, eval_draws=1)
        rows = sweep(cfg, "seeds", list(range(10)), tmp_path / "sweep")
        assert len(rows) == 10
        assert len({r["seed"] for r in rows}) == 10
        assert len({r["config_hash"] for r in rows}) == 1

    @pytest.mark.parametrize("axis, values", [("spacing_s", ["0.25", "0.3"]), ("k_ue", ["1", "3"])])
    def test_csv_parses_back_to_rows(self, tmp_path, axis, values):
        cfg = tiny_config(episodes=2, steps=4, eval_every=1, eval_draws=1, n_conv=1)
        rows = sweep(cfg, axis, values, tmp_path / "sweep")
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert [list(r) for r in parsed] == [list(r) for r in rows]
        cast = {"seed": int, "convergence_episode": int, "final_sum_se_mean": float,
                "final_sum_se_std": float, "value": type(rows[0]["value"])}
        for row, text in zip(rows, parsed):
            back = {k: (None if v == "" else cast.get(k, str)(v)) for k, v in text.items()}
            assert back == row

    def test_unknown_axis(self, tmp_path):
        with pytest.raises(ConfigError, match="axis"):
            sweep(tiny_config(), "carrier", [1], tmp_path / "s")
