"""Steadiness of one workload: run it repeatedly and summarise every metric.

    python3 perfbench/steady.py --workload full-double --seeds 1 2 3 4 5 1

Each run is a fresh ``run.py`` process.  For every end-to-end metric the
tool prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the quartile spread as a share of the median next to the bound in
BENCHMARK.json.  It checks that every run was correct with the same share
of failed commands, and that runs with the same seed wrote byte-identical
artifacts (``metrics.csv``, ``summary.json``, ``checkpoint.json``,
``se.json`` and the rest of ``run.HASHED``), traced runs among them; list
a seed twice to compare two untraced processes.  ``--trace-runs N`` adds N
traced runs, spread evenly among the untraced ones, prints the median of
every per-layer metric over them and the tracing overhead: traced minus
untraced median of each end-to-end metric, marked unresolved where it is
smaller than the wider of the two quartile ranges.  Exits 1 when a check
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("# artifacts "):
            out["artifacts"] = json.loads(line[len("# artifacts "):])
        elif line.startswith("# wall "):
            out["wall"] = json.loads(line[len("# wall "):])
        elif line.startswith("# traced end-to-end "):
            out["traced"] = json.loads(line[len("# traced end-to-end "):])
        elif line.startswith("# check failed"):
            print(line, file=sys.stderr)
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace-runs", type=int, default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    # traced run j follows untraced run after[j], with the same seed
    after = {(j + 1) * len(args.seeds) // (args.trace_runs + 1) - 1
             for j in range(args.trace_runs)}
    runs, traced = [], []
    for i, seed in enumerate(args.seeds):
        out = run_once(args.workload, seed, seconds, 0)
        out["seed"] = seed
        runs.append(out)
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
        print(f"seed {seed}: correct={out['correct']} attempted={out['attempted']} "
              f"failed={out['failed']} {vals}", flush=True)
        if i in after:
            traced.append(run_once(args.workload, seed, seconds, 1))
            traced[-1]["seed"] = seed
            vals = " ".join(f"{k}={v:.4g}" for k, v in traced[-1]["traced"].items())
            print(f"seed {seed} traced: correct={traced[-1]['correct']} {vals}", flush=True)

    ok = True
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    untraced = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        untraced[name] = med
        bound = bounds.get(name)
        flag = "" if bound is None or rel <= bound / 3 else "  > bound/3"
        print(f"{name:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.2%} "
              f"{'' if bound is None else f'{bound:6.2f}'}{flag}")

    print("\nthe same timings in wall seconds, fastest invocation (no host-speed correction):")
    for name in runs[0].get("wall", {}):
        med, q1, q3, rel = spread([r["wall"][name] for r in runs])
        print(f"{name:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.2%}")

    if not all(r["correct"] for r in runs):
        print("FAIL: a run reported correct=false")
        ok = False
    shares = {r["failed"] / r["attempted"] for r in runs}
    if len(shares) != 1:
        print(f"FAIL: failed shares differ between runs: {sorted(shares)}")
        ok = False
    by_seed: dict = {}
    for r in runs + traced:  # tracing must not change a result
        by_seed.setdefault(r["seed"], []).append(r.get("artifacts"))
    for seed, hashes in sorted(by_seed.items()):
        if any(h != hashes[0] for h in hashes[1:]):
            print(f"FAIL: seed {seed} artifacts differ between runs")
            ok = False
    repeated = sum(len(h) - 1 for h in by_seed.values())
    print(f"artifact hashes: {repeated} repeated-seed runs (traced ones included) compared, "
          f"{'identical' if ok else 'see above'}")

    if traced:
        if not all(t["correct"] for t in traced):
            print("FAIL: a traced run reported correct=false")
            ok = False
        print(f"\nper-layer metrics, median of {len(traced)} traced runs:")
        for name in traced[0]["metrics"]:
            med = statistics.median(t["metrics"][name]["value"] for t in traced)
            print(f"{name:52s} {med:12.6g}")
        print(f"\ntracing overhead, traced median - untraced median ({len(traced)} / "
              f"{len(runs)} runs), quartile ranges traced / untraced:")
        for name in untraced:
            vals = [t["traced"][name] for t in traced if name in t["traced"]]
            if len(vals) < 2:
                continue
            t_med = statistics.median(vals)
            t_q1, t_q3 = statistics.quantiles(vals, n=4)[::2]
            u_vals = [r["metrics"][name]["value"] for r in runs]
            u_q1, u_q3 = statistics.quantiles(u_vals, n=4)[::2]
            diff = t_med - untraced[name]
            resolved = abs(diff) > max(t_q3 - t_q1, u_q3 - u_q1)
            print(f"{name:22s} {diff:+12.6g} ({diff / untraced[name]:+.1%})  "
                  f"iqr {t_q3 - t_q1:.4g} / {u_q3 - u_q1:.4g}"
                  f"{'' if resolved else '  unresolved'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
