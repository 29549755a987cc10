"""specbeam benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload solve|simulate|pipeline --seed N \
        --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
measures the same repetitions untraced and then traced, and prints the
per-layer metrics. A run makes at least two repetitions (one per phase with
--trace 1), so that it always compares the outputs of two, and can measure
for longer than --seconds. The last line of standard output is the result
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the environment, the sample counts and the workload's own named metrics.
bench/METRICS.md describes every metric and workload.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on a two-core machine shared with
# other work a second thread makes the solver slower and the spread wider.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150
MIN_REPS = 2


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "simulate", "pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time; at least one repetition always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", default=None,
                    help="run the workload's set-up into DIR and exit (used to time set-up)")
    return ap.parse_args(argv)


def time_setups(args, out_dir: str, ledger) -> tuple[list[float], list[float], str | None]:
    """Time fresh-process set-ups.

    Returns the wall times, the calibrated times and the last good dir. A
    set-up process probes the host speed while it imports specbeam and
    prepares, and prints the mean probe time; its wall time, from start to
    exit, is calibrated with that mean.
    """
    from probe import calibrate

    walls, calibrated, good = [], [], None
    for k in range(SETUP_SAMPLES):
        d = os.path.join(out_dir, f"setup{k}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", d]
        t0 = time.perf_counter()
        proc = ledger.op(f"setup {k}", subprocess.run, cmd, cwd=ROOT,
                         capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if proc is not None and ledger.check(f"setup {k} exits 0",
                                             lambda: proc.returncode == 0):
            walls.append(dt)
            probe_s = json.loads(proc.stdout.strip().splitlines()[-1])["probe_s"]
            calibrated.append(calibrate(dt, probe_s, 1.0) if probe_s else dt)
            good = d
        elif proc is not None:
            sys.stderr.write(proc.stderr[-2000:])
    ledger.check("set-ups write identical bytes",
                 lambda: len({_tree_digest(os.path.join(out_dir, f"setup{k}"))
                              for k in range(SETUP_SAMPLES)}) == 1)
    return walls, calibrated, good


def _tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def measure(workload, ledger, seconds: float, scratch: str, min_reps: int,
            tracer=None) -> tuple[list[float], list[float], list[float]]:
    """Repeat the workload's timed operation `min_reps` times and then while
    another one fits in `seconds`.

    Returns the wall time, the mean probe time and the calibrated time of
    every repetition.
    """
    from probe import SpeedProbe, calibrate

    walls: list[float] = []
    probes: list[float] = []
    calibrated: list[float] = []
    start = time.perf_counter()
    i = 0
    with SpeedProbe() as speed:
        while True:
            if tracer is not None:
                tracer.op = i
            since = len(speed.samples)
            t0 = time.perf_counter()
            workload.rep(i, ledger, scratch)
            walls.append(time.perf_counter() - t0)
            probes.append(speed.mean_since(since))
            calibrated.append(calibrate(walls[-1], probes[-1], workload.host_elasticity)
                              if probes[-1] else walls[-1])
            i += 1
            if i >= min_reps and time.perf_counter() - start + statistics.median(walls) > seconds:
                return walls, probes, calibrated


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "specbeam")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def check_repeatable(ledger, key: str, record: dict) -> None:
    """Outputs must repeat byte for byte across runs of one source tree.

    The first run of a key in a checkout stores its outputs; every later run
    compares with them. Within a run, the workloads compare their own
    repetitions and set-ups.
    """
    path = os.path.join(OUT, "repeat_state.json")
    try:
        with open(path) as fh:
            state = json.load(fh)
    except (OSError, json.JSONDecodeError):
        state = {}
    before = state.get(key)
    ledger.check("outputs repeat across runs", lambda: before is None or before == record)
    if before is None:
        state[key] = record
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(state, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)


def run(args) -> dict:
    import workloads
    import reference
    import tracing

    ledger = workloads.Ledger()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        setup_walls, setup_cals, setup_dir = time_setups(args, scratch, ledger)
        loaded = setup_dir is not None and ledger.op(
            "set-up", lambda: workload.load(setup_dir, ledger) or True)
        walls, probes, cals, traced_walls, traced_cals, tracer = [], [], [], [], [], None
        if loaded:
            min_reps = 1 if args.trace else MIN_REPS
            walls, probes, cals = measure(workload, ledger, args.seconds, scratch, min_reps)
            if args.trace:
                tracer = tracing.Tracer()
                tracing.install(tracer)
                try:
                    traced_walls, _, traced_cals = measure(
                        workload, ledger, args.seconds,
                        os.path.join(scratch, "traced"), min_reps, tracer)
                finally:
                    tracer.restore()
                tracer.dump(os.path.join(OUT, f"spans_{tag}.json"))
            ledger.op("checks", workload.check, ledger, scratch)
            if args.workload != "solve":
                ledger.check("oracle rates match reference",
                             lambda: not reference.mismatches())
            check_repeatable(ledger, f"{source_digest()}/{args.workload}/{workload.repeat_key}",
                             {"digests": workload.digests,
                              "value_b0": {f"{p:g}": v for p, v in workload.values.items()}})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wall = statistics.median(walls) if walls else 0.0
    if args.trace:
        metrics = {}
        if tracer is not None:
            unit_of = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
            values = tracing.layer_metrics(tracer, len(traced_walls), traced_walls,
                                           traced_cals, cals, workload.extra)
            metrics = {k: {"value": v, "unit": unit_of[k]} for k, v in values.items()}
    else:
        metrics = {
            "calibrated_s": {"value": statistics.median(cals) if cals else 0.0,
                             "unit": "s"},
            "setup_s": {"value": statistics.median(setup_cals) if setup_cals else 0.0,
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        for p in workloads.P_PAIR:
            metrics[f"value_b0.p{p:g}"] = {"value": workload.values.get(p, 0.0),
                                          "unit": "bit/s"}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(),
        "samples": {"wall_s": len(walls), "setup_s": len(setup_walls),
                    "traced_wall_s": len(traced_walls)},
        "wall_s_samples": walls, "probe_s_samples": probes, "calibrated_s_samples": cals,
        "setup_wall_s_samples": setup_walls, "setup_s_samples": setup_cals,
        "workload_metrics": workload.named_metrics(wall) if walls else {},
        "failures": ledger.failures,
    }
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    print(json.dumps({"record": record}))
    return result


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "specbeam", "__init__.py")):
        sys.stderr.write(f"bench: no specbeam package under {SRC}; "
                         "run from the root of a specbeam checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only is not None:
        from probe import SpeedProbe

        with SpeedProbe() as speed:
            import workloads

            workloads.WORKLOADS[args.workload](args.seed).prepare(args.setup_only)
        print(json.dumps({"probe_s": speed.mean_since(0)}))
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
