"""Output checks on the artifacts of one benchmark round.

Each check raises ``CheckError`` with the reason when an artifact is wrong.
None of them compares against a stored copy of earlier output: they test a
property the method must have, or compare two independent paths.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Monte-Carlo vs closed-form bound of acceptance criterion 1: 2% per user at
# 10,000 draws.  The Monte-Carlo standard error falls as 1/sqrt(draws), so
# the bound for n draws is 2% * sqrt(10,000 / n).
MC_REL_TOL_AT_10K = 0.02
# radiated power is a sum of n_s squared amplitudes; its rounding error is a
# few ulps, far below this relative slack
POWER_REL_TOL = 1e-12
# the closed form may meet the interference-free bound only up to rounding
BOUND_REL_TOL = 1e-9


class CheckError(AssertionError):
    """An artifact violates a property the method must have."""


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_power(trajectory_path, p_max: float, n_steps: int):
    """Radiated power <= budget <= p_max for every user at every logged step."""
    lines = Path(trajectory_path).read_text(encoding="utf-8").splitlines()
    if len(lines) != n_steps:
        raise CheckError(f"trajectory has {len(lines)} steps, expected {n_steps}")
    for line in lines:
        rec = json.loads(line)
        for k, (power, budget) in enumerate(zip(rec["power_trace"], rec["budgets"], strict=True)):
            if not 0.0 <= power <= budget * (1.0 + POWER_REL_TOL):
                raise CheckError(
                    f"episode {rec['episode']} step {rec['t']} user {k}: radiated power "
                    f"{power!r} outside [0, budget {budget!r}]"
                )
            if not 0.0 <= budget <= p_max * (1.0 + POWER_REL_TOL):
                raise CheckError(
                    f"episode {rec['episode']} step {rec['t']} user {k}: budget "
                    f"{budget!r} outside [0, p_max {p_max!r}]"
                )


def check_checkpoint_roundtrip(train_dir):
    """Loading checkpoint.json into a fresh trainer and dumping it again is byte-exact."""
    from xlmimo.harness.config import load_config
    from xlmimo.harness.run import build_trainer

    train_dir = Path(train_dir)
    text = (train_dir / "checkpoint.json").read_text(encoding="utf-8")
    cfg = load_config(train_dir / "config.json")
    _, trainer = build_trainer(cfg)
    trainer.load_state_dict(json.loads(text))
    again = json.dumps(trainer.state_dict(), sort_keys=True) + "\n"
    if again != text:
        raise CheckError(f"checkpoint does not round-trip: {len(text)} bytes read, "
                         f"{len(again)} dumped, not byte-identical")


def check_eval_matches_summary(summary_path, eval_path):
    """With a fixed placement, ``eval`` on the checkpoint reproduces the final greedy eval."""
    summary = _read_json(summary_path)
    ev = _read_json(eval_path)
    if ev["mean"] != summary["final_sum_se_mean"]:
        raise CheckError(
            f"eval mean {ev['mean']!r} != summary final mean {summary['final_sum_se_mean']!r}"
        )
    if ev["per_ue_mean"] != summary["per_ue_final_mean"]:
        raise CheckError(
            f"eval per-user means {ev['per_ue_mean']!r} != summary "
            f"{summary['per_ue_final_mean']!r}"
        )


def mc_tolerance(draws: int) -> float:
    return MC_REL_TOL_AT_10K * math.sqrt(10_000 / draws)


def check_mc_agreement(se_path):
    """Closed-form and Monte-Carlo per-user SE agree within the draw-count bound."""
    se = _read_json(se_path)
    closed = np.asarray(se["se_closed_form"]["per_ue"], dtype=float)
    mc = np.asarray(se["se_monte_carlo"]["per_ue"], dtype=float)
    tol = mc_tolerance(int(se["se_monte_carlo"]["draws"]))
    if closed.shape != mc.shape or not (np.all(closed > 0) and np.all(np.isfinite(mc))):
        raise CheckError(f"per-user SE not positive and finite: {closed} / {mc}")
    rel = np.abs(closed - mc) / closed
    if np.any(rel > tol):
        k = int(np.argmax(rel))
        raise CheckError(
            f"user {k}: closed form {closed[k]!r} vs Monte-Carlo {mc[k]!r} differ by "
            f"{rel[k]:.3%} > {tol:.3%}"
        )


def _min_image(delta, area):
    d = np.array(delta, dtype=float)
    d[..., :2] = (d[..., :2] + area / 2.0) % area - area / 2.0
    return d


def interference_free_bound(geometry: dict, budgets, area: float, noise_power: float):
    """Per-user SE bound with interference removed, computed from the geometry.

    Inputs: geometry.json, the budgets of se.json, and the area and noise
    power of the workload's config (geometry.json records neither).

    With the per-antenna-pair mask, E{|G_ab|^2} = L_ab^2 / (N_r N_s) (unit
    total small-scale power), so Z_k = sum_m E{G_mk^H G_mk} has diagonal
    sum_m sum_a L_mk[a, b]^2 / (N_r N_s).  Dropping interference gives
    SE_k <= log2 det(I + P Z_k P / noise) <= sum_b log2(1 + a_b^2 Z_bb / noise)
    (Hadamard), with a_b^2 = budget / N_s, the uniform per-antenna split.
    L_ab = sqrt(2 cos theta) * wavelength / (4 pi d) over the minimum-image
    distance on the wrap-around square.
    """
    wl = float(geometry["wavelength"])
    bs_local = np.asarray(geometry["bs_surface"]["local_positions"], dtype=float)
    ue_local = np.asarray(geometry["ue_surface"]["local_positions"], dtype=float)
    n_r, n_s = len(bs_local), len(ue_local)
    bounds = []
    for k, ue in enumerate(np.asarray(geometry["ue_positions"], dtype=float)):
        z_diag = np.zeros(n_s)
        for bs in np.asarray(geometry["bs_positions"], dtype=float):
            offset = _min_image(ue - bs, area)
            diff = bs_local[:, None, :] - (ue_local + offset)[None, :, :]
            d = np.linalg.norm(diff, axis=2)
            lsf_sq = 2.0 * np.abs(diff[:, :, 2]) / d * (wl / (4.0 * math.pi * d)) ** 2
            z_diag += lsf_sq.sum(axis=0) / (n_r * n_s)
        amp_sq = float(budgets[k]) / n_s
        bounds.append(float(np.sum(np.log2(1.0 + amp_sq * z_diag / noise_power))))
    return np.asarray(bounds)


def check_se_bound(geometry_path, se_path, area: float, noise_power: float):
    """Every closed-form per-user SE lies below its interference-free bound."""
    se = _read_json(se_path)
    closed = np.asarray(se["se_closed_form"]["per_ue"], dtype=float)
    bound = interference_free_bound(_read_json(geometry_path), se["budgets"], area, noise_power)
    over = closed > bound * (1.0 + BOUND_REL_TOL)
    if closed.shape != bound.shape or np.any(over):
        k = int(np.argmax(over)) if closed.shape == bound.shape else -1
        raise CheckError(
            f"user {k}: closed-form SE {closed[k]!r} exceeds the interference-free "
            f"bound {bound[k]!r}"
        )
