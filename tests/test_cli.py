import json
import re
from pathlib import Path

import pytest

from xlmimo.harness.cli import build_parser, main
from xlmimo.harness.config import _CHOICES, _NONNEGATIVE, _POSITIVE_FLOATS, _POSITIVE_INTS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# the presets the README's dump-config line names
README_PRESETS = re.search(
    r"xlmimo dump-config .*--preset ([\w|]+)\]", README
).group(1).split("|")

# the README's command-line block, one token list per command, brackets dropped
README_COMMANDS = [
    line.replace("[", " ").replace("]", " ").split()
    for line in re.search(r"## Command line\s+```bash\n(.*?)```", README, re.S)
    .group(1).splitlines()
    if line.startswith("xlmimo ")
]

# README placeholders that stand for a number
NUMERIC_PLACEHOLDERS = {"N": "1", "...": "1"}


def readme_flag_choices(tokens):
    """(flag, value) lists covering every ``a|b`` value of a README command.

    The first list takes each flag's first value; each further list swaps in
    one other value.  A switch (no value) maps to None; numeric placeholders
    map to a number.
    """
    flags = []
    rest = tokens[2:]
    i = 0
    while i < len(rest):
        assert rest[i].startswith("--"), rest[i]
        if i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            values = rest[i + 1].split("|")
            flags.append((rest[i], [NUMERIC_PLACEHOLDERS.get(v, v) for v in values]))
            i += 2
        else:
            flags.append((rest[i], [None]))
            i += 1
    base = [(flag, values[0]) for flag, values in flags]
    out = [base]
    for j, (flag, values) in enumerate(flags):
        for value in values[1:]:
            out.append(base[:j] + [(flag, value)] + base[j + 1 :])
    return out

TINY = {
    "episodes": 2,
    "steps": 5,
    "hidden": [12, 6],
    "buffer_capacity": 32,
    "pool_size": 8,
    "update_after": 6,
    "batch_global": 6,
    "batch_local": 6,
    "eval_every": 1,
    "eval_draws": 2,
    "n_conv": 2,
}


# (config file text, the key its error names): one input per branch of the
# configuration checks, then wrong JSON types and non-finite numbers
BAD_CONFIGS = (
    [(json.dumps({key: 0}), key) for key in _POSITIVE_INTS + _POSITIVE_FLOATS]
    + [(json.dumps({key: -1}), key) for key in _NONNEGATIVE]
    + [(json.dumps({key: "nope"}), key) for key in _CHOICES]
    + [(json.dumps({key: 1}), key) for key in _CHOICES]
    + [
        ('{"spacing_r": 0.5}', "spacing_r"),
        ('{"spacing_s": 0}', "spacing_s"),
        ('{"gamma": 1.0}', "gamma"),
        ('{"alpha": -0.1}', "alpha"),
        ('{"beta_acc": 1}', "beta_acc"),
        ('{"r_g": 0.002}', "r_b"),
        ('{"priority_nu": 1.0}', "priority_nu"),
        ('{"noise_start": 0.001}', "noise_start"),
        ('{"tau": 1.5}', "tau"),
        ('{"update_after": 0}', "update_after"),
        ('{"fractional_exponent": 1.5}', "fractional_exponent"),
        ('{"hidden": [64, 0]}', "hidden"),
        ('{"hidden": [64]}', "hidden"),
        ('{"carrier_ghz": 0}', "carrier_ghz"),
        ('{"weight_sharing": "no"}', "weight_sharing"),
        ('{"raw_kz": 1}', "raw_kz"),
        ('{"fixed_placement": null}', "fixed_placement"),
        ('{"m_bs": true}', "m_bs"),
        ('{"gamma": true}', "gamma"),
        ('{"update_after": 2.5}', "update_after"),
        ('{"hidden": [64, true]}', "hidden"),
        ('{"hidden": 5}', "hidden"),
        ('{"noise_dbm": "x"}', "noise_dbm"),
        ('{"gamma": "0.5"}', "gamma"),
        ('{"carrier_ghz": "30"}', "carrier_ghz"),
        ('{"noise_dbm": NaN}', "noise_dbm"),
        ('{"noise_start": NaN}', "noise_start"),
        ('{"lr_actor": NaN}', "lr_actor"),
        ('{"r_g": NaN}', "r_g"),
        ('{"area": Infinity}', "area"),
    ]
)


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def eval_edited_checkpoint(config_path, tmp_path, capsys, edit):
    """Train, apply ``edit`` to the parsed checkpoint, evaluate it: (exit code, stderr)."""
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    path = tmp_path / "run" / "checkpoint.json"
    state = json.loads(path.read_text())
    edit(state)
    path.write_text(json.dumps(state, sort_keys=True))
    capsys.readouterr()
    rc = main(["eval", "--config", str(config_path), "--checkpoint", str(path),
               "--out", str(tmp_path / "eval")])
    return rc, capsys.readouterr().err


class TestExitCodes:
    def test_ok(self, tiny_config_path, capsys):
        assert main(["dump-config", "--config", str(tiny_config_path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["episodes"] == 2

    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"spacing_r": 0.9}))
        assert main(["dump-config", "--config", str(bad)]) == 2
        assert "spacing_r" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", BAD_CONFIGS)
    def test_bad_value_is_2_naming_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["dump-config", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {key}:")
        assert captured.out == ""

    def test_missing_config_file_is_2(self, tmp_path, capsys):
        assert main(["dump-config", "--config", str(tmp_path / "nope.json")]) == 2

    def test_runtime_error_is_3(self, tiny_config_path, tmp_path, capsys):
        rc = main(
            [
                "eval",
                "--config", str(tiny_config_path),
                "--checkpoint", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 3
        assert "checkpoint" in capsys.readouterr().err

    def test_version_1_checkpoint_is_3(self, tiny_config_path, tmp_path, capsys):
        rc, err = eval_edited_checkpoint(tiny_config_path, tmp_path, capsys,
                                         lambda state: state.update(version=1))
        assert rc == 3
        assert "checkpoint version 1" in err

    def test_version_2_checkpoint_is_3(self, tiny_config_path, tmp_path, capsys):
        rc, err = eval_edited_checkpoint(tiny_config_path, tmp_path, capsys,
                                         lambda state: state.update(version=2))
        assert rc == 3
        assert "version 2" in err

    def test_version_3_checkpoint_is_3(self, tiny_config_path, tmp_path, capsys):
        rc, err = eval_edited_checkpoint(tiny_config_path, tmp_path, capsys,
                                         lambda state: state.update(version=3))
        assert rc == 3
        assert "unsupported checkpoint version 3" in err

    @pytest.mark.parametrize("edit, field", [
        (lambda layer: layer.update(n_agents=layer["n_agents"] + 1), "layer 1 n_agents"),
        (lambda layer: layer.update(state_dim=layer["state_dim"] + 1), "layer 1 state_dim"),
        (lambda layer: layer.update(action_ranges=[r / 4 for r in layer["action_ranges"]]),
         "layer 1 action_ranges"),
        (lambda layer: layer["rng"]["explore"].pop(), "layer 1 rng.explore"),
    ], ids=["n_agents", "state_dim", "action_ranges", "rng"])
    def test_edited_field_checkpoint_is_3(self, tiny_config_path, tmp_path, capsys, edit, field):
        rc, err = eval_edited_checkpoint(tiny_config_path, tmp_path, capsys,
                                         lambda state: edit(state["layers"]["1"]))
        assert rc == 3
        assert field in err
        assert not (tmp_path / "eval" / "eval.json").exists()

    def test_empty_layer_2_streams_checkpoint_is_3(self, tmp_path, capsys):
        path = tmp_path / "double.json"
        path.write_text(json.dumps({**TINY, "architecture": "double"}))
        rc, err = eval_edited_checkpoint(
            path, tmp_path, capsys, lambda state: state["layers"]["2"]["rng"]["update"].clear())
        assert rc == 3
        assert "layer 2 rng.update holds 0 stream states" in err

    @pytest.mark.parametrize("train_over, eval_over, field", [
        ({"weight_sharing": False}, {"weight_sharing": True}, "layer 2 actor_stack"),
        ({"weight_sharing": True}, {"weight_sharing": False}, "layer 2 actor_stack"),
        ({"p_max_mw": 200.0}, {"p_max_mw": 50.0}, "layer 1 action_ranges"),
        # only the decoupled variants have local critics
        ({"variant": "mimo-maddpg"}, {"variant": "pes-maddpg"}, "layer 1 holds fields"),
    ], ids=["to-shared", "from-shared", "p_max_mw", "variant"])
    def test_other_configuration_checkpoint_is_3(self, tmp_path, capsys, train_over, eval_over,
                                                  field):
        configs = {}
        for name, over in (("train", train_over), ("eval", eval_over)):
            configs[name] = tmp_path / f"{name}.json"
            configs[name].write_text(json.dumps({**TINY, "architecture": "double", **over}))
        assert main(["train", "--config", str(configs["train"]),
                     "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        rc = main(["eval", "--config", str(configs["eval"]),
                   "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 3
        assert field in capsys.readouterr().err
        assert not (tmp_path / "eval" / "eval.json").exists()

    @pytest.mark.parametrize("corrupt, match", [
        (lambda leaf: leaf.update(dtype=">f8"), "has dtype"),
        (lambda leaf: leaf.update(data=leaf["data"][:-4] + "@@@@"), "not valid base64"),
        (lambda leaf: leaf.update(shape=[leaf["shape"][0] + 1, *leaf["shape"][1:]]), "bytes"),
    ], ids=["dtype", "base64", "length"])
    def test_corrupt_checkpoint_is_3(self, tiny_config_path, tmp_path, capsys, corrupt, match):
        # JSON-valid but corrupted: one leaf of the shared critic
        rc, err = eval_edited_checkpoint(
            tiny_config_path, tmp_path, capsys,
            lambda state: corrupt(state["layers"]["1"]["global_critic"][0]))
        assert rc == 3
        path = tmp_path / "run" / "checkpoint.json"
        assert f"checkpoint {path}" in err and "layer 1 global_critic[0]" in err
        assert match in err
        assert not (tmp_path / "eval" / "eval.json").exists()

    def test_other_scenario_checkpoint_is_3(self, tiny_config_path, tmp_path, capsys):
        # pm-dynamic and dynamic share every network shape, so only the
        # checkpoint's scenario tells them apart
        assert main(["train", "--config", str(tiny_config_path), "--scenario", "pm-dynamic",
                     "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        rc = main(["eval", "--config", str(tiny_config_path), "--scenario", "dynamic",
                   "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "scenario 'pm-dynamic'" in err and "scenario 'dynamic'" in err
        assert not (tmp_path / "eval" / "eval.json").exists()

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_eval_bad_draws_is_2(self, tiny_config_path, tmp_path, capsys, draws):
        assert main(["train", "--config", str(tiny_config_path),
                     "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        rc = main(["eval", "--config", str(tiny_config_path),
                   "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                   "--out", str(tmp_path / "eval"), "--draws", draws])
        assert rc == 2
        assert "eval_draws" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_simulate_bad_draws_is_2(self, tiny_config_path, tmp_path, capsys, draws):
        rc = main(["simulate", "--config", str(tiny_config_path),
                   "--out", str(tmp_path / "sim"), "--draws", draws])
        assert rc == 2
        assert "--draws" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("preset", README_PRESETS)
    def test_dump_config_readme_presets(self, preset, capsys):
        assert main(["dump-config", "--preset", preset]) == 0
        assert json.loads(capsys.readouterr().out)


class TestReadmeCommandLine:
    def test_block_lists_every_command(self):
        # guards the flag test below against a block it fails to find
        assert sorted(tokens[1] for tokens in README_COMMANDS) == [
            "dump-config", "eval", "simulate", "sweep", "train"]

    @pytest.mark.parametrize("tokens", README_COMMANDS, ids=lambda t: t[1])
    def test_every_flag_parses(self, tokens):
        parser = build_parser()
        for choice in readme_flag_choices(tokens):
            argv = [tokens[1]]
            for flag, value in choice:
                argv += [flag] if value is None else [flag, value]
            args = parser.parse_args(argv)
            for flag, value in choice:
                got = getattr(args, flag[2:].replace("-", "_"))
                if value is None:
                    assert got is True, flag
                else:
                    got = got[0] if isinstance(got, list) else got
                    assert str(got) == value, flag


class TestTrainCli:
    def test_byte_reproducible(self, tiny_config_path, tmp_path, capsys):
        args = ["train", "--config", str(tiny_config_path), "--seed", "11"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("metrics.csv", "summary.json", "checkpoint.json", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_timing_sidecar(self, tiny_config_path, tmp_path):
        assert main(["train", "--config", str(tiny_config_path),
                     "--out", str(tmp_path / "run")]) == 0
        timing = json.loads((tmp_path / "run" / "timing.json").read_text())
        assert set(timing) == {"wall_clock_s_per_episode", "total_s", "eval_s",
                               "artifact_write_s"}
        assert timing["eval_s"] > 0 and timing["artifact_write_s"] > 0

    def test_cli_overrides(self, tiny_config_path, tmp_path):
        rc = main(
            [
                "train",
                "--config", str(tiny_config_path),
                "--out", str(tmp_path / "run"),
                "--scenario", "dynamic",
                "--variant", "maddpg",
                "--trajectories",
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["scenario"] == "dynamic"
        assert summary["variant"] == "maddpg"
        assert (tmp_path / "run" / "trajectory.jsonl").exists()

    def test_train_then_eval_roundtrip(self, tiny_config_path, tmp_path):
        assert main(
            ["train", "--config", str(tiny_config_path),
             "--out", str(tmp_path / "run"), "--seed", "3"]
        ) == 0
        rc = main(
            [
                "eval",
                "--config", str(tiny_config_path),
                "--seed", "3",
                "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                "--out", str(tmp_path / "eval"),
                "--draws", "2",
            ]
        )
        assert rc == 0
        result = json.loads((tmp_path / "eval" / "eval.json").read_text())
        assert set(result) == {"mean", "std", "per_ue_mean"}


class TestSimulateCli:
    def test_simulate_outputs(self, tiny_config_path, tmp_path):
        rc = main(
            [
                "simulate",
                "--config", str(tiny_config_path),
                "--out", str(tmp_path / "sim"),
                "--seed", "5",
                "--draws", "500",
                "--dump-geometry",
                "--power-rule", "fractional",
            ]
        )
        assert rc == 0
        se = json.loads((tmp_path / "sim" / "se.json").read_text())
        assert se["se_closed_form"]["sum"] > 0
        rel = abs(se["se_closed_form"]["sum"] - se["se_monte_carlo"]["sum"])
        assert rel / se["se_closed_form"]["sum"] < 0.25
        geom = json.loads((tmp_path / "sim" / "geometry.json").read_text())
        assert [0, 0] in geom["lattice_bs"]["points"]
        assert len(geom["bs_surface"]["local_positions"]) == 4

    def test_simulate_reproducible(self, tiny_config_path, tmp_path):
        args = [
            "simulate", "--config", str(tiny_config_path),
            "--seed", "5", "--draws", "200",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "se.json").read_bytes() == (
            tmp_path / "b" / "se.json"
        ).read_bytes()


class TestSweepCli:
    def test_sweep_seed_axis(self, tiny_config_path, tmp_path):
        rc = main(
            [
                "sweep",
                "--config", str(tiny_config_path),
                "--axis", "seeds",
                "--values", "0", "1", "2",
                "--out", str(tmp_path / "sweep"),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4  # header + 3 points
        assert lines[0].startswith("axis,value,seed,config_hash")

    @pytest.mark.parametrize("axis, values", [("spacing_s", ["0.25", "0.9"]),
                                              ("k_ue", ["1", "0"])])
    def test_bad_point_is_2_before_training(self, tiny_config_path, tmp_path, capsys,
                                            axis, values):
        rc = main(["sweep", "--config", str(tiny_config_path), "--axis", axis,
                   "--values", *values, "--out", str(tmp_path / "sweep")])
        assert rc == 2
        assert f"{axis}:" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()
