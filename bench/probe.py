"""Host-speed probe: a fixed reference kernel timed every 50 ms during a run.

On the shared 2-core machine the baseline was taken on, the same code runs
up to twice as slowly for stretches of a second to a minute, as other
tenants load the host; process CPU time slows with wall time, so the
process is not descheduled, it runs slower. A 30-second run can fall
entirely in a slow stretch, so raw wall medians spread by 20-37% across
runs. The probe kernel mixes small numpy products with a Python loop, as
specbeam's own code does, and it slows with the host.

A calibrated time is wall time × (REF_PROBE_S / mean probe time during
that repetition) ** elasticity: the time the repetition would take with
the host at the probe speed REF_PROBE_S, which only sets the scale. The
elasticity is the workload's own: when the host slows, BLAS-heavy solves
slow less than the probe and per-slot Python simulation slows more. Each
workload's value is a fit of log wall time on log probe time over many
repetitions (bench/METRICS.md); set-ups use 1. The kernel is the
benchmark's own code, so no change to specbeam can speed it up.

The probe runs on SIGALRM, between two of specbeam's bytecodes, so the
caches, TLB and branch predictors it finds hold specbeam's state. A first
pass of the kernel is run untimed to displace that state; only a second
pass is timed. The timed pass then reads the same whatever the program
was doing: `python3 bench/probe.py` checks this by comparing the probe
during each workload's repetitions with the probe in quiet windows (the
process asleep) just before and after them. Each probe costs about 1 ms
per 50 ms (2%) of the repetition it interrupts, the same on every commit.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # As in run.py: one BLAS thread, set before numpy loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import shutil
import signal
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERIOD_S = 0.05
REF_PROBE_S = 0.4e-3
CHECK_CYCLES = 6


class SpeedProbe:
    """Context manager sampling the kernel's duration on SIGALRM."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._mat = rng.random((46, 46))
        self._vec = np.full(46, 1.0 / 46)
        self.samples: list[float] = []

    def _kernel(self) -> int:
        x = self._vec
        for _ in range(60):
            x = self._mat.T @ x
            x = x / x.sum()
        acc = 0
        for i in range(3000):
            acc += i * i
        return acc

    def _on_alarm(self, signum, frame) -> None:
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_since(self, since: int) -> float | None:
        """Mean probe time from sample index `since` on (all samples if none
        since); None before the first sample."""
        window = self.samples[since:] or self.samples
        return sum(window) / len(window) if window else None


def calibrate(wall_s: float, probe_s: float, elasticity: float) -> float:
    """Wall time at the reference probe speed: wall × (REF_PROBE_S / probe)^elasticity."""
    return wall_s * (REF_PROBE_S / probe_s) ** elasticity


def check_calibration(cycles: int, quiet_s: float = 1.0) -> dict[str, list[float]]:
    """Probe time during one repetition / mean probe time in the quiet windows
    just before and after it, per workload, for `cycles` rounds of all three."""
    import workloads

    def quiet(probe) -> float:
        since = len(probe.samples)
        time.sleep(quiet_s)
        return probe.mean_since(since)

    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="probe-check-", dir=out)
    try:
        ready = {}
        for name, cls in workloads.WORKLOADS.items():
            w = cls(1)
            d = os.path.join(scratch, name)
            w.prepare(d)
            w.load(d, workloads.Ledger())
            ready[name] = w
        ratios: dict[str, list[float]] = {name: [] for name in ready}
        with SpeedProbe() as probe:
            before = quiet(probe)
            for c in range(cycles):
                for name, w in ready.items():
                    since = len(probe.samples)
                    w.rep(c, workloads.Ledger(), os.path.join(scratch, name))
                    during = probe.mean_since(since)
                    after = quiet(probe)
                    ratios[name].append(during / ((before + after) / 2))
                    before = after
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return ratios


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for name, r in check_calibration(CHECK_CYCLES).items():
        q1, med, q3 = statistics.quantiles(r, n=4)
        print(f"{name}: probe during / quiet, median {med:.3f} (q1 {q1:.3f}, q3 {q3:.3f}), "
              f"{len(r)} repetitions: " + " ".join(f"{x:.3f}" for x in r), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
