"""Benchmark of the xlmimo command line: one named workload per run.

    python3 perfbench/run.py --workload trend-double --seed 1 --seconds 30 --trace 0

Run from the root of a checkout holding ``src/xlmimo``.  A run calls
``xlmimo train``, ``xlmimo eval`` and ``xlmimo simulate`` in this process,
through the CLI entry point, on the workload's config with the given seed,
each as often as the workload's ``repeats`` say, interleaved.  A run lasts
20 to 50 seconds on the reference host, whatever ``--seconds`` says: it
does not stretch or cut itself to it.  Timings are in reference
seconds (``hostspeed.py``): wall time corrected for the host's drifting
speed, sampled alongside the commands.  The output checks of
``checks.py`` then run on the artifacts, and the last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
CLI commands, ``metrics`` holds the end-to-end metrics with ``--trace 0``
and the per-layer metrics of ``trace.py`` with ``--trace 1``.  Lines before
it that start with ``#`` report the environment, the uncorrected wall
timings, artifact hashes and notes.
BLAS runs on one thread.
"""

import os
import sys
import time

_T0 = time.perf_counter()


def _since_process_start() -> float:
    """Seconds from this process's start (a clock tick's resolution) to now."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        # the start time in /proc counts clock ticks since boot
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return max(now - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


_PRE = _since_process_start()

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench" / "_runs"

# metric -> unit.  A timing is the median over its command's invocations
# of their reference seconds; setup_s is the reference seconds from process
# start to the first training episode (cold) and peak_rss_mb that of the
# process
END_TO_END = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "train_run_s": "s",
    "eval_s": "s",
    "checkpoint_mb": "MB",
    "simulate_s": "s",
    "peak_rss_mb": "MB",
}

# deterministic artifacts: identical in every repeat and run of one seed
HASHED = (
    "train/metrics.csv",
    "train/summary.json",
    "train/checkpoint.json",
    "train/trajectory.jsonl",
    "eval/eval.json",
    "sim/se.json",
    "sim/geometry.json",
)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class EpisodeClock:
    """Times ``Trainer.train_episode``: (steps, start, end) per episode, first call."""

    def __init__(self, trainer_cls):
        self.first_start = None
        self.episodes = []
        original = trainer_cls.train_episode

        def train_episode(trainer, *args, **kwargs):
            t0 = time.perf_counter()
            if self.first_start is None:
                self.first_start = t0
            out = original(trainer, *args, **kwargs)
            self.episodes.append((len(out["sum_se"]), t0, time.perf_counter()))
            return out

        trainer_cls.train_episode = train_episode


def steps_per_s(runs, seconds) -> float:
    """Training steps over the median time one ``train`` spends in episodes.

    ``runs`` holds one ``EpisodeClock.episodes`` list per ``train``
    invocation; ``seconds(t0, t1)`` is the time of one episode.
    """
    return sum(steps for steps, _, _ in runs[0]) / statistics.median(
        sum(seconds(t0, t1) for _, t0, t1 in run) for run in runs
    )


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "xlmimo" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no xlmimo sources under {src}\n")
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    wl = WORKLOADS[args.workload]
    from perfbench.hostspeed import KERNEL_REF_S, HostSpeed

    host = HostSpeed().start()  # as soon as numpy is loaded, to cover set-up
    from perfbench import checks, trace

    import numpy as np
    from xlmimo.harness import cli
    from xlmimo.harness.config import load_config
    from xlmimo.marl.trainer import Trainer

    clock = EpisodeClock(Trainer)
    tracer = trace.Tracer().install() if args.trace else None

    run_dir = RUNS / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(wl.config, sort_keys=True) + "\n", encoding="utf-8")
    common = ["--config", str(cfg_path), "--preset", wl.preset, "--seed", str(args.seed)]
    outs = {"train": run_dir / "train", "eval": run_dir / "eval", "simulate": run_dir / "sim"}
    checkpoint = outs["train"] / "checkpoint.json"
    argvs = {
        "train": ["train", *common, "--out", str(outs["train"]), "--trajectories"],
        "eval": ["eval", *common, "--checkpoint", str(checkpoint), "--out", str(outs["eval"])],
        "simulate": ["simulate", *common, "--draws", str(wl.draws), "--dump-geometry",
                     "--out", str(outs["simulate"])],
    }

    attempted = failed = 0
    setup_s = None
    spans = {name: [] for name in argvs}  # (start, end) per successful invocation
    episodes = []  # per train invocation: (steps, start, end) per episode
    hashes = {}  # artifact -> sha256 of its first write
    problems = []

    def command(name: str, i: int) -> None:
        nonlocal attempted, failed
        attempted += 1
        if tracer is not None:
            tracer.run_id = f"{name}{i}"
        log_path = run_dir / f"{name}.log"
        with open(log_path, "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            host.sample()
            t0 = time.perf_counter()
            rc = cli.main(argvs[name])
            t1 = time.perf_counter()
            host.sample()
        if rc != 0:
            failed += 1
            tail = log_path.read_text(encoding="utf-8")[-2000:]
            sys.stderr.write(f"perfbench: {name} {i} exited {rc}:\n{tail}\n")
            return
        spans[name].append((t0, t1))
        # every repeat rewrites its artifacts, byte-identical for one seed
        for path in sorted(outs[name].iterdir()):
            key = f"{path.parent.name}/{path.name}"
            if key not in HASHED:
                continue
            digest = sha256(path)
            if hashes.setdefault(key, digest) != digest:
                problems.append(f"{name} repeat {i}: {key} differs from repeat 0 (same seed)")

    start = time.perf_counter()
    for i in range(max(wl.repeats.values())):
        if i < wl.repeats["train"]:
            n_before = len(clock.episodes)
            command("train", i)
            if setup_s is None:
                first = clock.first_start if clock.first_start is not None else time.perf_counter()
                setup_s = host.reference_seconds(_T0 - _PRE, first)
                setup_wall = _PRE + first - _T0
            if len(spans["train"]) > len(episodes):
                episodes.append(clock.episodes[n_before:])
        if i < wl.repeats["eval"]:
            if spans["train"]:
                command("eval", i)
            else:
                attempted += 1
                failed += 1  # no checkpoint to read
        if i < wl.repeats["simulate"]:
            command("simulate", i)
    run_s = time.perf_counter() - start
    host.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.uninstall()

    # -- output checks ---------------------------------------------------------
    cfg = load_config(cfg_path, preset=wl.preset, overrides={"seed": args.seed})  # as the CLI does
    notes = []
    try:
        if "train/trajectory.jsonl" in hashes:
            checks.check_power(outs["train"] / "trajectory.jsonl", cfg.p_max,
                               cfg.episodes * cfg.steps)
            checks.check_checkpoint_roundtrip(outs["train"])
            summary = json.loads((outs["train"] / "summary.json").read_text(encoding="utf-8"))
            notes.append(f"final_sum_se_std={summary['final_sum_se_std']!r} over "
                         f"{cfg.eval_draws} eval draws")
            # with a fixed placement every greedy episode starts from the
            # same environment, so eval must reproduce training's final eval
            if cfg.fixed_placement and "eval/eval.json" in hashes:
                checks.check_eval_matches_summary(outs["train"] / "summary.json",
                                                  outs["eval"] / "eval.json")
        if "sim/se.json" in hashes:
            checks.check_mc_agreement(outs["simulate"] / "se.json")
            checks.check_se_bound(outs["simulate"] / "geometry.json",
                                  outs["simulate"] / "se.json", cfg.area, cfg.noise_power)
            geometry = json.loads((outs["simulate"] / "geometry.json").read_text(encoding="utf-8"))
            for side in ("lattice_bs", "lattice_ue"):
                lat = geometry[side]
                notes.append(f"{side}: {len(lat['points'])} points, length_x "
                             f"{lat['length_x']!r}, wavelength {geometry['wavelength']!r}")
    except checks.CheckError as exc:
        problems.append(str(exc))

    # -- report ------------------------------------------------------------------
    e2e = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    # the same in plain wall seconds: each command's fastest invocation, and
    # train_steps_per_s over the median train invocation
    wall = {"setup_s": setup_wall}

    def timing(metric, name):
        if spans[name]:
            e2e[metric] = statistics.median(host.reference_seconds(*s) for s in spans[name])
            wall[metric] = min(t1 - t0 for t0, t1 in spans[name])

    timing("train_run_s", "train")
    timing("eval_s", "eval")
    timing("simulate_s", "simulate")
    if spans["train"]:
        e2e["train_steps_per_s"] = steps_per_s(episodes, host.reference_seconds)
        wall["train_steps_per_s"] = steps_per_s(episodes, lambda t0, t1: t1 - t0)
        e2e["checkpoint_mb"] = checkpoint.stat().st_size / 1e6
    if args.trace:
        values = trace.layer_metrics(tracer.spans, tracer.wrapped)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, (unit, _) in trace.LAYER_METRICS.items() if k in values}
        absent = sorted(set(trace.LAYER_METRICS) - set(values))
        if absent:
            print("# absent (target no longer in the program): " + " ".join(absent))
        tracer.write(RUNS / f"trace-{wl.name}.jsonl")
        print("# traced end-to-end " + json.dumps(e2e, sort_keys=True))
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items() if k in e2e}

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# env nproc={os.cpu_count()} blas_threads={BLAS_THREADS} numpy={np.__version__} "
          f"blas={blas.get('name')} {blas.get('version')} python={sys.version.split()[0]}")
    print(f"# run_s={run_s:.1f} seconds={args.seconds:g} seed={args.seed} workload={wl.name} "
          f"host_samples={host.n} "
          f"host_speed_median={KERNEL_REF_S / statistics.median(host.seconds):.3f}")
    print("# wall " + json.dumps(wall, sort_keys=True))
    for note in notes:
        print(f"# note {note}")
    for problem in problems:
        print(f"# check failed: {problem}")
    print("# artifacts " + json.dumps(hashes, sort_keys=True))
    shutil.rmtree(run_dir)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
