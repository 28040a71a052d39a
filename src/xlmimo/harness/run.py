"""Experiment orchestration: training runs, evaluation, sweeps, artifacts.

Every run is a pure function of (config, seed): the metrics CSV, the JSON
summary and the checkpoint are byte-reproducible.  Wall-clock timings go to
a separate sidecar file that is explicitly outside the reproducibility
contract.
"""

from __future__ import annotations

import csv
import json
import time
import typing
from pathlib import Path

import numpy as np

from ..dlpc import DoubleLayerTrainer
from ..env import CellFreeEnv
from ..marl.trainer import Trainer
from ..seeding import stream
from .config import ConfigError, ExperimentConfig, config_hash, dump_config, replace_config

__all__ = [
    "fractional_baseline",
    "detect_convergence",
    "build_trainer",
    "evaluate_greedy",
    "run_experiment",
    "sweep",
    "SWEEP_AXES",
]

# metrics.csv columns holding a control layer's update losses, empty
# while its replay holds fewer than update_after transitions
LOSS_COLUMNS = [
    "critic_loss_global",
    "critic_loss_local_mean",
    "layer2_critic_loss_global",
    "layer2_critic_loss_local_mean",
]
# the train_episode series metrics.csv is built from
CSV_SERIES = ("rewards", "sum_se", "losses", "priority_stats")
SWEEP_COLUMNS = [
    "axis",
    "value",
    "seed",
    "config_hash",
    "convergence_episode",
    "final_sum_se_mean",
    "final_sum_se_std",
]

# each value is read as its field's declared type
SWEEP_AXES = ("n_h_s", "n_h_r", "spacing_s", "spacing_r", "k_ue", "m_bs", "seed")


def fractional_baseline(betas, exponent: float, p_max: float) -> np.ndarray:
    """Per-user budgets inversely weighted by aggregate fading.

    The weakest user transmits at ``p_max``; a user with aggregate fading
    beta gets p_max * beta^-v / max_j beta_j^-v.
    """
    betas = np.asarray(betas, dtype=float)
    if np.any(betas <= 0):
        raise ValueError("betas must be positive")
    weights = betas ** (-exponent)
    return p_max * weights / weights.max()


def detect_convergence(series, n_conv: int, delta_conv: float):
    """Earliest index whose next ``n_conv`` values all sit within the band.

    The band is ``+-delta_conv`` (relative) around the final training value.
    Returns None when the series is shorter than the window.
    """
    if n_conv < 1:
        raise ValueError("n_conv must be at least 1")
    series = np.asarray(series, dtype=float)
    if len(series) < n_conv:
        return None
    final = series[-1]
    band = delta_conv * abs(final)
    within = np.abs(series - final) <= band
    for t in range(0, len(series) - n_conv + 1):
        if np.all(within[t : t + n_conv]):
            return t
    return None


def build_trainer(cfg: ExperimentConfig):
    """Environment plus the trainer matching the configured architecture."""
    env = CellFreeEnv(cfg.env_params(), stream(cfg.seed, "env"))
    settings = cfg.trainer_settings()
    if cfg.architecture == "double":
        trainer = DoubleLayerTrainer(
            env,
            settings,
            cfg.variant,
            master_seed=cfg.seed,
            scenario=cfg.scenario,
            weight_sharing=cfg.weight_sharing,
        )
    else:
        trainer = Trainer(env, settings, cfg.variant, master_seed=cfg.seed,
                          scenario=cfg.scenario)
    return env, trainer


def evaluate_greedy(trainer, cfg: ExperimentConfig, round_key: int) -> dict:
    """Greedy policy on fresh placements drawn from a dedicated stream.

    With a fixed placement the evaluation env replays the training layout.
    """
    if cfg.fixed_placement:
        env_eval = CellFreeEnv(cfg.env_params(), stream(cfg.seed, "env"))
    else:
        env_eval = CellFreeEnv(cfg.env_params(), stream(cfg.seed, "eval", round_key))
    finals = []
    per_ue = []
    for _ in range(cfg.eval_draws):
        trace = trainer.greedy_episode(env_eval)
        finals.append(trace["sum_se"][-1])
        per_ue.append(trace["rewards"][-1])
    finals = np.asarray(finals)
    return {
        "mean": float(finals.mean()),
        "std": float(finals.std()),
        "per_ue_mean": [float(x) for x in np.mean(per_ue, axis=0)],
    }


def _fmt(value) -> str:
    """One CSV field: None is empty, a float its repr, anything else its str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _metrics_columns(k_ue: int, convergence):
    """metrics.csv's columns in order, as (name, getter) pairs.

    A getter maps (episode, step, series) to the field, where ``series``
    holds the episode's ``CSV_SERIES`` from ``train_episode``; ``converged``
    flags the episodes from ``convergence`` on, and is empty when training
    never converged.
    """
    return [
        ("episode", lambda e, t, s: e),
        ("step", lambda e, t, s: t),
        *((f"se_ue{i}", lambda e, t, s, i=i: float(s["rewards"][t][i])) for i in range(k_ue)),
        ("sum_se", lambda e, t, s: s["sum_se"][t]),
        *((name, lambda e, t, s, name=name: s["losses"][t].get(name)) for name in LOSS_COLUMNS),
        *((name, lambda e, t, s, j=j: s["priority_stats"][t][j])
          for j, name in enumerate(("pr_min", "pr_mean", "pr_max"))),
        ("converged", lambda e, t, s: None if convergence is None else int(e >= convergence)),
    ]


def run_experiment(cfg: ExperimentConfig, out_dir, log_trajectories: bool = False) -> dict:
    """Train, evaluate periodically, and write the documented artifacts.

    Writes metrics.csv, summary.json, checkpoint.json, config.json and
    (optionally) trajectory.jsonl deterministically, plus the
    non-deterministic timing.json sidecar.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    env, trainer = build_trainer(cfg)

    csv_episodes = []  # per episode, the step series metrics.csv reads
    episode_mean_sum_se = []
    eval_rounds = []
    episode_seconds = []
    eval_seconds = 0.0
    traj_lines = []
    for episode in range(cfg.episodes):
        t0 = time.perf_counter()
        metrics = trainer.train_episode()
        episode_seconds.append(time.perf_counter() - t0)
        sums = np.asarray(metrics["sum_se"], dtype=float)
        episode_mean_sum_se.append(float(sums.mean()))
        csv_episodes.append({key: metrics[key] for key in CSV_SERIES})
        if log_trajectories:
            for step in range(cfg.steps):
                traj_lines.append(
                    json.dumps(
                        {
                            "episode": episode,
                            "t": step,
                            "positions": np.asarray(metrics["positions"][step]).tolist(),
                            "actions": np.asarray(metrics["actions"][step]).tolist(),
                            "rewards": np.asarray(metrics["rewards"][step]).tolist(),
                            "power_trace": list(metrics["power_trace"][step]),
                            "budgets": list(metrics["budgets"][step]),
                        },
                        sort_keys=True,
                    )
                )
        if (episode + 1) % cfg.eval_every == 0 or episode == cfg.episodes - 1:
            t0 = time.perf_counter()
            result = evaluate_greedy(trainer, cfg, round_key=episode)
            eval_seconds += time.perf_counter() - t0
            eval_rounds.append({"episode": episode, **result})

    convergence = detect_convergence(episode_mean_sum_se, cfg.n_conv, cfg.delta_conv)
    final_eval = eval_rounds[-1]

    t_write = time.perf_counter()
    columns = _metrics_columns(cfg.k_ue, convergence)
    with open(out / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([name for name, _ in columns])
        for episode, series in enumerate(csv_episodes):
            for step in range(cfg.steps):
                writer.writerow([_fmt(get(episode, step, series)) for _, get in columns])

    summary = {
        "version": 1,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "episodes": cfg.episodes,
        "steps": cfg.steps,
        "scenario": cfg.scenario,
        "architecture": cfg.architecture,
        "variant": cfg.variant,
        "convergence_episode": convergence,
        "final_sum_se_mean": final_eval["mean"],
        "final_sum_se_std": final_eval["std"],
        "per_ue_final_mean": final_eval["per_ue_mean"],
        "throughput_mbps_mean": final_eval["mean"] * cfg.bandwidth_mhz,
        "episode_mean_sum_se": episode_mean_sum_se,
        "eval": eval_rounds,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out / "config.json").write_text(dump_config(cfg), encoding="utf-8")
    (out / "checkpoint.json").write_text(
        json.dumps(trainer.state_dict(), sort_keys=True) + "\n", encoding="utf-8"
    )
    if log_trajectories:
        (out / "trajectory.jsonl").write_text(
            "\n".join(traj_lines) + "\n", encoding="utf-8"
        )
    artifact_write_s = time.perf_counter() - t_write
    # timings are hardware-dependent and live outside the deterministic set
    (out / "timing.json").write_text(
        json.dumps(
            {
                "wall_clock_s_per_episode": float(np.mean(episode_seconds)),
                "total_s": float(np.sum(episode_seconds)),
                "eval_s": eval_seconds,
                "artifact_write_s": artifact_write_s,
            },
            sort_keys=True,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return summary


def sweep(cfg: ExperimentConfig, axis: str, values, out_dir) -> list[dict]:
    """One run per axis value; merged results in sweep.csv."""
    axis = "seed" if axis == "seeds" else axis
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis: expected one of {sorted(SWEEP_AXES)}, got {axis!r}")
    cast = typing.get_type_hints(ExperimentConfig)[axis]
    points = []  # every point is validated before the first one trains
    for value in values:
        try:
            value = cast(value)
        except ValueError:
            raise ConfigError(f"{axis}: cannot read sweep value {value!r} as "
                              f"{cast.__name__}") from None
        points.append((value, replace_config(cfg, **{axis: value})))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, (value, sub_cfg) in enumerate(points):
        summary = run_experiment(sub_cfg, out / f"point_{i:03d}")
        # the summary holds every column but the sweep point's own two
        rows.append({"axis": axis, "value": value,
                     **{c: summary[c] for c in SWEEP_COLUMNS[2:]}})
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows([_fmt(r[c]) for c in SWEEP_COLUMNS] for r in rows)
    return rows
