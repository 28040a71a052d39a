"""Benchmark workloads: one xlmimo config each, run through the CLI.

Every workload runs the same three commands on one config:
``xlmimo train --trajectories``, ``xlmimo eval`` on the checkpoint that
training wrote, and ``xlmimo simulate --dump-geometry``, each as often as its
``repeats`` say.  Each workload sizes them so that one layer does most of the
work, and so that a run lasts 20 to 50 seconds on the reference host
(``run_seconds`` of BENCHMARK.json is about their mean):

- ``trend-double``: learning-bound.  The C10 trend-lab config, trained until
  the replay buffers are full; MLP updates and replay dominate, SE is cheap.
- ``full-double``: closed-form-SE-bound.  The ``full`` preset with 54
  layer-2 agents and updates from the second step on.
- ``full-simulate``: Monte-Carlo-bound.  256 draws, three times, at the
  ``full`` preset; its training run is one single-layer step with no updates.

The config seed is the benchmark's ``--seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The C10 trend-lab config of tests/test_acceptance.py (TREND): lambda = 2 m,
# 120 m area, per-antenna-pair mask, fixed placement.
TREND = dict(
    wavelength=2.0, area=120.0, min_bs_spacing=40.0,
    n_h_s=4, n_v_s=1, lsf_mode="lsf", fixed_placement=True,
    r_g=2.3, r_b=1.9, alpha=0.1, beta_acc=2.0,
    episodes=60, steps=25, hidden=[32, 16],
    buffer_capacity=512, pool_size=64, update_after=64,
    batch_global=32, batch_local=32,
    lr_actor=0.03, lr_critic=0.03, gamma=0.9,
    noise_start=0.4, noise_end=0.05,
    eval_every=60, eval_draws=4, n_conv=20,
)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    config: dict
    draws: int  # Monte-Carlo draws of the simulate command
    # invocations of each command; repeats interleave and each command's
    # figure is the median of its invocations' reference seconds
    repeats: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="trend-double",
            preset="desk",
            config={
                **TREND,
                "scenario": "pm-dynamic",
                "architecture": "double",
                "variant": "mimo-maddpg",
                # run until both layers' replay buffers are full
                "episodes": math.ceil(TREND["buffer_capacity"] / TREND["steps"]),
            },
            # the CLI default: 2% Monte-Carlo tolerance (checks.mc_tolerance)
            draws=10_000,
            repeats={"train": 2, "eval": 10, "simulate": 30},
        ),
        Workload(
            name="full-double",
            preset="full",
            config={
                "lsf_mode": "lsf",
                "scenario": "dynamic",
                "architecture": "double",
                "variant": "mimo-maddpg",
                "episodes": 2,
                "steps": 2,
                # updates from the second step on
                "update_after": 2,
                "pool_size": 4,
                "batch_global": 4,
                "batch_local": 4,
                "eval_every": 2,
                "eval_draws": 1,
            },
            draws=64,
            repeats={"train": 2, "eval": 2, "simulate": 2},
        ),
        Workload(
            name="full-simulate",
            preset="full",
            config={
                "lsf_mode": "lsf",
                "scenario": "static",
                "architecture": "single",
                "variant": "mimo-maddpg",
                "episodes": 1,
                "steps": 1,
                "eval_draws": 1,
            },
            draws=256,
            repeats={"train": 2, "eval": 2, "simulate": 3},
        ),
    )
}
