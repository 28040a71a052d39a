"""Print the sha256 of every deterministic artifact over a fixed grid of runs.

The grid covers variant x architecture x scenario x lsf_mode x geometry
(the ``desk`` preset and the C10 trend-lab geometry), with
``weight_sharing`` on every third run, then both architectures under both
lsf modes on a wide-surface geometry whose N_r * N_s is at least
``xlmimo.se.FACTORED_MIN_DIM``, so that its closed form takes the
Kronecker-factored moments.  Each run trains with trajectories and
evaluates its checkpoint; the first run of each geometry evaluates it once
more with ``eval --draws 3``; every (geometry, lsf_mode, power rule) pair is
simulated with geometry dump; a few seeded sweeps close the list.
``timing.json`` is wall-clock data and is skipped; the input configs are
listed too.

Two source trees produce byte-identical artifacts on this grid exactly
when this script's outputs are identical.  Equal outputs say nothing
about presets, seeds or options outside the grid: the ``full`` preset and
the benchmark workloads are covered by the ``# artifacts`` line of
``perfbench/run.py``.  Compare two trees with:

    PYTHONPATH=src python scripts/artifact_hashes.py > after.txt
    PYTHONPATH=<other tree>/src python scripts/artifact_hashes.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from xlmimo.harness import cli

VARIANTS = ("maddpg", "de-maddpg", "pes-maddpg", "mimo-maddpg")
ARCHITECTURES = ("single", "double")
SCENARIOS = ("static", "dynamic", "pm-dynamic")
LSF_MODES = ("beta", "lsf")
GEOMETRIES = {
    "desk": {},
    # the C10 trend lab: lambda = 2 m on a 120 m area, fixed placement
    "trend": dict(wavelength=2.0, area=120.0, min_bs_spacing=40.0, n_h_s=4,
                  n_v_s=1, fixed_placement=True, r_g=2.3, r_b=1.9, alpha=0.1),
    # an 8 x 8 receive surface and 2 x 2 users: N_r * N_s = 256.  In the
    # desk's 1000 m area interference is 1e-5 of the noise, and adding each
    # user's interference terms in reverse order changed no artifact; in
    # 30 m it is about a quarter, and the same reordering changes 15
    "wide": dict(m_bs=2, k_ue=3, n_h_r=8, n_v_r=8, n_h_s=2, n_v_s=2, area=30.0,
                 min_bs_spacing=10.0),
}
# small enough for seconds per run, large enough that updates and a
# detected convergence episode show up
TRAINING = dict(
    episodes=3, steps=4, hidden=[8, 4], buffer_capacity=16, pool_size=4,
    update_after=4, batch_global=4, batch_local=4, eval_every=2,
    eval_draws=2, n_conv=2, delta_conv=0.5,
)
SWEEPS = (("seeds", ["0", "1", "2"]), ("spacing_s", ["0.25", "0.4"]),
          ("k_ue", ["1", "3"]), ("n_h_s", ["1", "3"]))
SIM_DRAWS = 64
# each geometry's extra eval passes this on the command line over the
# config's eval_draws (2)
EVAL_DRAWS = 3


def xlmimo(*argv) -> None:
    with redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"xlmimo {' '.join(map(str, argv))} exited with {code}")


def write_config(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return path


def produce(root: Path) -> None:
    grid = itertools.chain(
        itertools.product(("desk", "trend"), LSF_MODES, ARCHITECTURES, SCENARIOS, VARIANTS),
        itertools.product(("wide",), LSF_MODES, ARCHITECTURES, ("dynamic",), ("mimo-maddpg",)),
    )
    seen = set()
    for i, (geo, lsf, arch, scenario, variant) in enumerate(grid):
        run = root / "runs" / f"{i:03d}-{geo}-{lsf}-{arch}-{scenario}-{variant}"
        run.mkdir(parents=True)
        cfg = write_config(run.parent / f"{run.name}.json", {
            **GEOMETRIES[geo], **TRAINING, "lsf_mode": lsf, "architecture": arch,
            "scenario": scenario, "variant": variant, "seed": i,
            "weight_sharing": i % 3 == 0,
        })
        checkpoint = run / "train" / "checkpoint.json"
        xlmimo("train", "--config", cfg, "--out", run / "train", "--trajectories")
        xlmimo("eval", "--config", cfg, "--checkpoint", checkpoint, "--out", run / "eval")
        if geo not in seen:
            seen.add(geo)
            xlmimo("eval", "--config", cfg, "--checkpoint", checkpoint,
                   "--out", run / f"eval-draws{EVAL_DRAWS}", "--draws", EVAL_DRAWS)
    for geo, lsf, rule in itertools.product(GEOMETRIES, LSF_MODES, ("uniform", "fractional")):
        name = f"{geo}-{lsf}-{rule}"
        cfg = write_config(root / f"simulate-{name}.json",
                           {**GEOMETRIES[geo], "lsf_mode": lsf, "seed": 7})
        xlmimo("simulate", "--config", cfg, "--out", root / "simulate" / name,
               "--draws", SIM_DRAWS, "--power-rule", rule, "--dump-geometry")
    cfg = write_config(root / "sweep.json", {**TRAINING, "scenario": "dynamic", "seed": 3})
    for axis, values in SWEEPS:
        xlmimo("sweep", "--config", cfg, "--out", root / "sweep" / axis, "--axis", axis,
               "--values", *values)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        produce(root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if path.name == "timing.json":
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")


if __name__ == "__main__":
    main()
