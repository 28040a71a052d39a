"""Command-line entry points.

Subcommands: ``simulate`` (channel/SE evaluation only), ``train``, ``eval``,
``sweep`` and ``dump-config``.  Exit codes: 0 on success, 2 on configuration
errors, 3 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..channel import wavenumber_lattice
from ..env import CellFreeEnv
from ..se import se_closed_form_mr, se_monte_carlo, uniform_amplitudes
from ..seeding import stream
from .config import ConfigError, PRESETS, dump_config, load_config, make_config
from .run import build_trainer, evaluate_greedy, fractional_baseline, run_experiment, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_common(parser, with_out=True):
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    if with_out:
        parser.add_argument("--out", type=Path, required=True, help="output directory")


def _add_run_overrides(parser):
    parser.add_argument("--variant", default=None)
    parser.add_argument("--architecture", default=None)
    parser.add_argument("--scenario", default=None)


def _resolve_config(args, extra_overrides=None):
    overrides = dict(extra_overrides or {})
    if args.seed is not None:
        overrides["seed"] = args.seed
    for key in ("variant", "architecture", "scenario"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if args.config is not None:
        return load_config(args.config, preset=args.preset, overrides=overrides)
    return make_config(overrides, preset=args.preset)


def cmd_dump_config(args) -> int:
    cfg = _resolve_config(args)
    sys.stdout.write(dump_config(cfg))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    if args.draws < 1:
        raise ConfigError(f"--draws: must be a positive integer, got {args.draws!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = CellFreeEnv(cfg.env_params(), stream(cfg.seed, "env"))
    env.reset()
    betas = env.observe_layer1()
    if args.power_rule == "fractional":
        budgets = fractional_baseline(betas, cfg.fractional_exponent, cfg.p_max)
    else:
        budgets = np.full(cfg.k_ue, cfg.p_max)
    amplitudes = uniform_amplitudes(budgets, env.n_s)
    mask = env.stats_grid()
    closed = se_closed_form_mr(env.channel_stats, mask, amplitudes, cfg.noise_power)
    mc = se_monte_carlo(
        env.channel_stats,
        mask,
        amplitudes,
        cfg.noise_power,
        n_draws=args.draws,
        rng=stream(cfg.seed, "mc"),
    )
    result = {
        "power_rule": args.power_rule,
        "budgets": budgets.tolist(),
        "betas": [float(b) for b in betas],
        "se_closed_form": {"per_ue": closed.tolist(), "sum": float(closed.sum())},
        "se_monte_carlo": {
            "per_ue": mc.tolist(),
            "sum": float(mc.sum()),
            "draws": args.draws,
        },
    }
    (out / "se.json").write_text(
        json.dumps(result, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    if args.dump_geometry:
        lat_r = wavenumber_lattice(
            env._bs_local.length_x, env._bs_local.length_y, env.params.wavelength
        )
        lat_s = wavenumber_lattice(
            env._ue_local.length_x, env._ue_local.length_y, env.params.wavelength
        )
        geometry = {
            "wavelength": env.params.wavelength,
            "bs_positions": env.world.bs_positions.tolist(),
            "ue_positions": env.world.ue_positions.tolist(),
            "bs_surface": {
                "n_h": env.params.n_h_r,
                "n_v": env.params.n_v_r,
                "spacing_m": env.params.spacing_r * env.params.wavelength,
                "local_positions": env._bs_local.positions.tolist(),
            },
            "ue_surface": {
                "n_h": env.params.n_h_s,
                "n_v": env.params.n_v_s,
                "spacing_m": env.params.spacing_s * env.params.wavelength,
                "local_positions": env._ue_local.positions.tolist(),
            },
            "lattice_bs": {
                "points": lat_r.points.tolist(),
                "length_x": lat_r.length_x,
                "length_y": lat_r.length_y,
            },
            "lattice_ue": {
                "points": lat_s.points.tolist(),
                "length_x": lat_s.length_x,
                "length_y": lat_s.length_y,
            },
        }
        (out / "geometry.json").write_text(
            json.dumps(geometry, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    sys.stdout.write(
        f"sum SE closed-form {closed.sum():.6g} bits/s/Hz, "
        f"Monte-Carlo {mc.sum():.6g} bits/s/Hz ({args.draws} draws)\n"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    summary = run_experiment(cfg, args.out, log_trajectories=args.trajectories)
    conv = summary["convergence_episode"]
    sys.stdout.write(
        f"trained {cfg.episodes} episodes; final sum SE "
        f"{summary['final_sum_se_mean']:.6g} +/- {summary['final_sum_se_std']:.3g} "
        f"bits/s/Hz; convergence episode "
        f"{'none' if conv is None else conv}\n"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve_config(args, None if args.draws is None else {"eval_draws": args.draws})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        state = json.loads(Path(args.checkpoint).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise RuntimeError(f"cannot read checkpoint {args.checkpoint}: {exc}") from exc
    env, trainer = build_trainer(cfg)
    try:
        trainer.load_state_dict(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise RuntimeError(f"cannot load checkpoint {args.checkpoint}: {exc}") from exc
    result = evaluate_greedy(trainer, cfg, round_key=-1)
    (out / "eval.json").write_text(
        json.dumps(result, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    sys.stdout.write(
        f"greedy sum SE {result['mean']:.6g} +/- {result['std']:.3g} bits/s/Hz "
        f"over {cfg.eval_draws} draws\n"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    rows = sweep(cfg, args.axis, args.values, args.out)
    sys.stdout.write(f"swept {args.axis} over {len(rows)} points -> {args.out}/sweep.csv\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlmimo",
        description="Cell-free XL-MIMO uplink simulator and MARL power-control lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dump-config", help="print the resolved configuration as JSON")
    _add_common(p, with_out=False)
    _add_run_overrides(p)
    p.set_defaults(func=cmd_dump_config)

    p = sub.add_parser("simulate", help="channel and SE evaluation at one placement")
    _add_common(p)
    _add_run_overrides(p)
    p.add_argument("--draws", type=int, default=10_000, help="Monte-Carlo channel draws")
    p.add_argument("--power-rule", choices=["uniform", "fractional"], default="uniform")
    p.add_argument("--dump-geometry", action="store_true",
                   help="write surface geometry and lattice points as JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="run a training experiment")
    _add_common(p)
    _add_run_overrides(p)
    p.add_argument("--trajectories", action="store_true",
                   help="write the per-step trajectory log (JSON lines)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint greedily")
    _add_common(p)
    _add_run_overrides(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--draws", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run one experiment per axis value")
    _add_common(p)
    _add_run_overrides(p)
    p.add_argument("--axis", required=True,
                   help="config key to sweep (n_h_s, n_h_r, spacing_s, spacing_r, "
                        "k_ue, m_bs, seed/seeds)")
    p.add_argument("--values", nargs="+", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"runtime error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
