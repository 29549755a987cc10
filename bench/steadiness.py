"""Run the benchmark on ten seeds per workload and report each metric's spread.

    python3 bench/steadiness.py [--traced] [--against FILE] [--out FILE]

For every workload in BENCHMARK.json and every end-to-end metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median over seeds 1-10, and flags a spread above the
metric's bound in BENCHMARK.json or above a third of it, the margin the
benchmark aims for. --traced adds one traced run per workload on seed 1.
--against compares every median with the same metric's median in an
earlier --out file and flags a change for the worse beyond the bound.
Each workload's report ends with the elasticity of its repetition time to
the probe time, fitted over all its repetitions (see probe.py).
--out writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
RUN_TIMEOUT_S = 900


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-2])["record"] if len(lines) > 1 else {}
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, "result": json.loads(lines[-1]),
            "record": record}


def summarize(spec: dict, runs: list[dict], earlier: dict | None) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        entry = {
            "unit": metric["unit"], "n": len(values), "median": med, "q1": q1,
            "q3": q3, "spread": spread, "bound": bound,
            "over_bound": spread > bound, "over_third_of_bound": spread > bound / 3,
        }
        if earlier is not None:
            before = earlier[name]["median"]
            change = (med - before) / abs(before) if before else 0.0
            worse = -change if metric["better"] == "higher" else change
            entry.update(earlier_median=before, change=change, worse_than_bound=worse > bound)
        out[name] = entry
    return out


def elasticity_fit(runs: list[dict]) -> tuple[float, int]:
    """Slope of log wall time on log probe time over every repetition, and
    the repetition count: the value a workload's host_elasticity is set to."""
    pairs = [(math.log(p), math.log(w)) for r in runs
             for p, w in zip(r["record"]["probe_s_samples"], r["record"]["wall_s_samples"]) if p]
    xs, ys = zip(*pairs)
    return statistics.linear_regression(xs, ys).slope, len(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--against", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["workloads"]
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(spec, name, seed, 0))
            r = runs[-1]
            print(f"{name} seed {seed}: {r['elapsed_s']:.1f} s, correct={r['result']['correct']}, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in r["result"]["metrics"].items()),
                  flush=True)
        summary = summarize(spec, runs, earlier[name]["summary"] if earlier else None)
        fit, reps = elasticity_fit(runs)
        entry = {"runs": runs, "summary": summary, "host_elasticity_fit": fit}
        if args.traced:
            entry["traced"] = run_once(spec, name, SEEDS[0], 1)
        report["workloads"][name] = entry
        print(f"\n### {name} ({len(runs)} runs, seeds {SEEDS[0]}-{SEEDS[-1]})\n")
        print("| metric | unit | median | q1 | q3 | spread | bound | flag |"
              + (" earlier median | change | |" if earlier else ""))
        print("|---|---|---|---|---|---|---|---|" + ("---|---|---|" if earlier else ""))
        for metric, s in summary.items():
            flag = ("OVER BOUND" if s["over_bound"]
                    else "over bound/3" if s["over_third_of_bound"] else "")
            line = (f"| {metric} | {s['unit']} | {s['median']:.6g} | {s['q1']:.6g} | "
                    f"{s['q3']:.6g} | {s['spread']:.4f} | {s['bound']} | {flag} |")
            if earlier:
                line += (f" {s['earlier_median']:.6g} | {s['change']:+.4f} | "
                         f"{'WORSE BEYOND BOUND' if s['worse_than_bound'] else ''} |")
            print(line)
        print(f"\nHost elasticity fit over {reps} repetitions: {fit:.3f}\n", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
