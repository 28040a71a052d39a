"""The benchmark's output checks accept real artifacts and reject corrupted ones.

Artifacts come from a tiny desk-scale train / eval / simulate run through
the CLI; each test corrupts one copy and expects its check to fail.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import checks, trace  # noqa: E402
from xlmimo.harness import cli  # noqa: E402
from xlmimo.harness.config import make_config  # noqa: E402

CONFIG = {
    "lsf_mode": "lsf", "fixed_placement": True, "scenario": "dynamic",
    "architecture": "double", "episodes": 2, "steps": 3, "hidden": [8, 8],
    "buffer_capacity": 8, "pool_size": 4, "update_after": 2,
    "batch_global": 2, "batch_local": 2, "eval_every": 2, "eval_draws": 2,
}
CFG = make_config({**CONFIG, "seed": 5})
AREA = CFG.area
NOISE = CFG.noise_power
P_MAX = CFG.p_max
STEPS = CFG.episodes * CFG.steps
DRAWS = 2000


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    common = ["--config", str(cfg), "--seed", "5"]
    assert cli.main(["train", *common, "--out", str(root / "train"), "--trajectories"]) == 0
    assert cli.main(["eval", *common, "--checkpoint", str(root / "train" / "checkpoint.json"),
                     "--out", str(root / "eval")]) == 0
    assert cli.main(["simulate", *common, "--draws", str(DRAWS), "--dump-geometry",
                     "--out", str(root / "sim")]) == 0
    return root


@pytest.fixture
def copy(artifacts, tmp_path):
    shutil.copytree(artifacts, tmp_path / "a")
    return tmp_path / "a"


def run_all(d: Path):
    checks.check_power(d / "train" / "trajectory.jsonl", P_MAX, STEPS)
    checks.check_checkpoint_roundtrip(d / "train")
    checks.check_eval_matches_summary(d / "train" / "summary.json", d / "eval" / "eval.json")
    checks.check_mc_agreement(d / "sim" / "se.json")
    checks.check_se_bound(d / "sim" / "geometry.json", d / "sim" / "se.json", AREA, NOISE)


def edit_json(path: Path, fn):
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def edit_trajectory(path: Path, step: int, fn):
    lines = path.read_text().splitlines()
    rec = json.loads(lines[step])
    fn(rec)
    lines[step] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def test_real_artifacts_pass(copy):
    run_all(copy)


def test_power_above_budget_fails(copy):
    path = copy / "train" / "trajectory.jsonl"
    edit_trajectory(path, 2, lambda r: r["power_trace"].__setitem__(
        0, r["budgets"][0] * 1.001 + 1e-9))
    with pytest.raises(checks.CheckError, match="radiated power"):
        checks.check_power(path, P_MAX, STEPS)


def test_budget_above_pmax_fails(copy):
    path = copy / "train" / "trajectory.jsonl"
    edit_trajectory(path, 4, lambda r: r["budgets"].__setitem__(1, P_MAX * 1.01))
    with pytest.raises(checks.CheckError, match="budget"):
        checks.check_power(path, P_MAX, STEPS)


def test_missing_step_fails(copy):
    path = copy / "train" / "trajectory.jsonl"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(checks.CheckError, match="5 steps"):
        checks.check_power(path, P_MAX, STEPS)


def test_edited_checkpoint_fails_roundtrip(copy):
    path = copy / "train" / "checkpoint.json"
    text = path.read_text()
    assert '"global_step": 6,' in text
    path.write_text(text.replace('"global_step": 6,', '"global_step": 6.0,'))
    with pytest.raises(checks.CheckError, match="round-trip"):
        checks.check_checkpoint_roundtrip(copy / "train")


def test_eval_mean_off_by_one_ulp_fails(copy):
    edit_json(copy / "train" / "summary.json", lambda s: s.__setitem__(
        "final_sum_se_mean", float(np.nextafter(s["final_sum_se_mean"], np.inf))))
    with pytest.raises(checks.CheckError, match="eval mean"):
        checks.check_eval_matches_summary(copy / "train" / "summary.json",
                                          copy / "eval" / "eval.json")


def test_eval_per_user_mean_changed_fails(copy):
    edit_json(copy / "eval" / "eval.json", lambda e: e["per_ue_mean"].__setitem__(
        1, e["per_ue_mean"][1] * 0.5))
    with pytest.raises(checks.CheckError, match="per-user"):
        checks.check_eval_matches_summary(copy / "train" / "summary.json",
                                          copy / "eval" / "eval.json")


def test_monte_carlo_disagreement_fails(copy):
    tol = checks.mc_tolerance(DRAWS)
    edit_json(copy / "sim" / "se.json", lambda s: s["se_monte_carlo"]["per_ue"].__setitem__(
        0, s["se_closed_form"]["per_ue"][0] * (1.0 + 2.0 * tol)))
    with pytest.raises(checks.CheckError, match="Monte-Carlo"):
        checks.check_mc_agreement(copy / "sim" / "se.json")


def test_se_above_interference_free_bound_fails(copy):
    geometry = json.loads((copy / "sim" / "geometry.json").read_text())
    se = json.loads((copy / "sim" / "se.json").read_text())
    bound = checks.interference_free_bound(geometry, se["budgets"], AREA, NOISE)
    edit_json(copy / "sim" / "se.json", lambda s: s["se_closed_form"]["per_ue"].__setitem__(
        1, float(bound[1]) * 1.01))
    with pytest.raises(checks.CheckError, match="interference-free"):
        checks.check_se_bound(copy / "sim" / "geometry.json", copy / "sim" / "se.json",
                              AREA, NOISE)


def test_moved_user_fails_bound(copy):
    # the bound is computed from the geometry: pulling a user far from every
    # station drops it below the closed-form SE the program reported
    def move(g):
        g["ue_positions"][0][2] += 5_000.0
    edit_json(copy / "sim" / "geometry.json", move)
    with pytest.raises(checks.CheckError, match="user 0"):
        checks.check_se_bound(copy / "sim" / "geometry.json", copy / "sim" / "se.json",
                              AREA, NOISE)


def test_tracer_patches_callers_and_restores(artifacts, tmp_path):
    import xlmimo.env
    from xlmimo.channel import lsf_matrix

    tracer = trace.Tracer().install()
    try:
        assert xlmimo.env.lsf_matrix is not lsf_matrix
        tracer.run_id = "train0"
        cfg = artifacts / "cfg.json"
        assert cli.main(["train", "--config", str(cfg), "--seed", "5",
                         "--out", str(tmp_path / "t")]) == 0
    finally:
        tracer.uninstall()
    assert xlmimo.env.lsf_matrix is lsf_matrix
    values = trace.layer_metrics(tracer.spans, tracer.wrapped)
    assert set(values) == set(trace.LAYER_METRICS)
    # 3 M K lsf_matrix calls per double-layer training step, M = K = 2
    assert values["channel.lsf_matrix.calls"] >= 3 * 2 * 2 * 6
    assert values["harness.run.evaluate_greedy.episodes"] == 2
    assert values["harness.run.evaluate_greedy.distinct_episodes"] == 1
    assert values["dlpc.DoubleLayerTrainer.train_episode.self_s"] > 0
    assert values["marl.trainer.MarlCore.update.s.layer2"] > 0


def test_missing_target_is_reported_absent():
    wrapped = {trace._target(name) for name in trace.LAYER_METRICS}
    wrapped.discard("channel.lsf_matrix")
    values = trace.layer_metrics([], wrapped)
    assert "channel.lsf_matrix.calls" not in values
    assert "channel.lsf_matrix.s" not in values
    assert values["se.se_closed_form_mr.calls"] == 0


def test_reference_seconds_scales_wall_time_by_host_speed():
    from perfbench.hostspeed import KERNEL_REF_S, WINDOW, HostSpeed

    assert WINDOW == 0.25  # the spans below are placed around it
    host = HostSpeed(capacity=8)
    # (start, seconds): full speed, two at half speed, then two at full speed
    for start, n_ref in ((0.0, 1), (0.1, 2), (0.2, 2), (1.0, 1), (1.5, 1)):
        host._start[host.n], host._seconds[host.n] = start, n_ref * KERNEL_REF_S
        host.n += 1
    # one sample inside, three within WINDOW: wall time without the sample,
    # at their mean speed
    assert host.reference_seconds(0.05, 0.15) == pytest.approx(
        (0.1 - 2 * KERNEL_REF_S) * (1 + 0.5 + 0.5) / 3)
    # none within WINDOW: the nearest sample on each side
    assert host.reference_seconds(0.6, 0.7) == pytest.approx(0.1 * (0.5 + 1) / 2)
    assert host.reference_seconds(1.2, 1.3) == pytest.approx(0.1)
