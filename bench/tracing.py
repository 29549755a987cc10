"""In-memory spans and counters around specbeam's public call boundaries.

A traced run replaces module attributes (``pbvi.backup_stage``,
``simulate.run_trial``, ...) with timing wrappers for the duration of the
traced repetitions and puts the originals back afterwards. Calls that
happen once per trial or coarser become spans (name, start, end, parent,
operation id); calls made once per slot or per gain evaluation only add to
a counter (calls, summed seconds), so tracing stays cheap. A span's self
time is its duration minus the time spent in wrapped calls beneath it.

A name that no longer exists in the program is reported as absent, and a
note hook that fails is counted, so a refactor never crashes a traced run.
"""

from __future__ import annotations

import json
import os
import statistics
import time

_clock = time.perf_counter


class Tracer:
    """Spans and counters for one traced run; install() and restore() patch."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, list] = {}
        self.absent: list[str] = []
        self.hook_errors = 0
        self.op = None                  # identifier shared by one repetition
        self._stack: list[int] = []     # open span indices
        self._in_counted = 0            # depth of counter-wrapped calls
        self._patched: list[tuple] = []

    # --- wrappers --------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def _note(self, note, rec, args, kwargs, result) -> None:
        try:
            note(rec, args, kwargs, result)
        except Exception:                       # a changed signature or result
            self.hook_errors += 1

    def span(self, owner, attr: str, name: str, note=None) -> None:
        """Record one span per call of ``owner.attr``."""
        def make(fn):
            def wrapper(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                rec = {"name": name, "op": self.op, "parent": parent,
                       "child_s": 0.0}
                self._stack.append(len(self.spans))
                self.spans.append(rec)
                outer = self._in_counted
                self._in_counted = 0
                rec["start"] = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec["end"] = _clock()
                    self._in_counted = outer
                    self._stack.pop()
                    if parent >= 0:
                        self.spans[parent]["child_s"] += rec["end"] - rec["start"]
                if note is not None:
                    self._note(note, rec, args, kwargs, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and sum their time; no spans."""
        slot = self.counters.setdefault(name, [0, 0.0])

        def make(fn):
            def wrapper(*args, **kwargs):
                self._in_counted += 1
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _clock() - t0
                    self._in_counted -= 1
                    slot[0] += 1
                    slot[1] += dt
                    if self._in_counted == 0 and self._stack:
                        self.spans[self._stack[-1]]["child_s"] += dt
            return wrapper
        self._patch(owner, attr, make)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- results ---------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [sp for sp in self.spans if sp["name"] == name and "end" in sp]

    def self_s(self, name: str) -> float:
        return sum(sp["end"] - sp["start"] - sp["child_s"] for sp in self.named(name))

    def total_s(self, name: str) -> float:
        return sum(sp["end"] - sp["start"] for sp in self.named(name))

    def root_name(self, rec: dict) -> str:
        while rec["parent"] >= 0:
            rec = self.spans[rec["parent"]]
        return rec["name"]

    def dump(self, path: str) -> None:
        """Write spans (with self times), counters and absences as JSON."""
        spans = [dict(sp, self_s=sp["end"] - sp["start"] - sp["child_s"])
                 for sp in self.spans if "end" in sp]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counters": self.counters,
                       "absent": self.absent, "hook_errors": self.hook_errors},
                      fh, default=str)
            fh.write("\n")


# --- what gets wrapped ---------------------------------------------------

def _note_solve(rec, args, kwargs, policy) -> None:
    rec["num_beliefs"] = int(policy.metadata["num_beliefs"])
    rec["num_alphas"] = int(policy.alpha.shape[0])


def _note_backup_stage(rec, args, kwargs, result) -> None:
    model, beliefs, alphas_mat = args[:3]
    info = result[3]
    rec.update(sweeps=int(info["sweeps"]), converged=bool(info["converged"]),
               n=len(beliefs), v_in=int(alphas_mat.shape[0]),
               s=model.num_states, a=model.num_actions,
               z=model.num_observations, cells=len(model.road))


def _note_trial(oracle_cls):
    def note(rec, args, kwargs, trace) -> None:
        agent = args[2] if len(args) > 2 else kwargs["agent"]
        rec["kind"] = "oracle" if isinstance(agent, oracle_cls) else "policy"
        rec["slots"] = int(len(trace.rates))
        rec["resets"] = int(trace.resets.sum())
    return note


def _note_bytes(rec, args, kwargs, result) -> None:
    rec["bytes"] = os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of specbeam named in bench/METRICS.md."""
    from specbeam import artifacts, cli, config, pbvi, pomdp, simulate

    tracer.span(pbvi, "solve", "pbvi.solve", _note_solve)
    tracer.span(pbvi, "expand_beliefs", "pbvi.expand_beliefs")
    tracer.span(pbvi, "backup_stage", "pbvi.backup_stage", _note_backup_stage)
    # config.py and cli.py import these by name, so their copies are wrapped.
    tracer.span(config, "build_model", "pomdp.build_model")
    tracer.span(pomdp, "build_model", "pomdp.build_model")
    tracer.count(pomdp, "gain", "pomdp.gain")
    oracle_cls = getattr(simulate, "OracleAgent", ())
    tracer.span(simulate, "run_trial", "simulate.run_trial", _note_trial(oracle_cls))
    tracer.span(cli, "run_trial", "simulate.run_trial", _note_trial(oracle_cls))
    tracer.count(simulate, "action_cell_gains", "simulate.action_cell_gains")
    tracer.count(simulate, "belief_update", "simulate.belief_update")
    for fn in ("save_policy", "save_model", "save_manifest"):
        tracer.span(artifacts, fn, "artifacts.save", _note_bytes)
    for fn in ("load_policy", "load_model_record"):
        tracer.span(artifacts, fn, "artifacts.load")
    tracer.count(artifacts, "model_digest", "artifacts.model_digest")
    for cmd in ("solve", "sweep_p", "robustness", "report"):
        tracer.span(cli, f"cmd_{cmd}", f"cli.{cmd}")


def _backup_flops(st: dict) -> float:
    """Computed, not counted: multiply-adds of one sweep of _backup_block.

    Per belief and incoming alpha: the cell contraction (2*S*C) and the
    (action, observation) scores (2*C*A*Z); per belief: the chosen
    vector's observation sum and transition product (2*S*Z + 2*S*S).
    """
    n, v, s, c, a, z = st["n"], st["v_in"], st["s"], st["cells"], st["a"], st["z"]
    return st["sweeps"] * (n * v * (2 * s * c + 2 * c * a * z) + n * (2 * s * z + 2 * s * s))


def layer_metrics(tr: Tracer, reps: int, traced_wall: list[float],
                  traced_cal: list[float], untraced_cal: list[float],
                  extra: dict) -> dict[str, float]:
    """Per-layer metrics; counts and seconds are per traced repetition."""
    per = 1.0 / max(reps, 1)
    stages = tr.named("pbvi.backup_stage")
    solves = tr.named("pbvi.solve")
    trials = tr.named("simulate.run_trial")
    pairs = sum(st.get("sweeps", 0) * st.get("n", 0) * st.get("v_in", 0) for st in stages)
    backup_s = tr.self_s("pbvi.backup_stage")
    expand_s = tr.self_s("pbvi.expand_beliefs")
    slots = {k: sum(t.get("slots", 0) for t in trials if t.get("kind") == k)
             for k in ("policy", "oracle")}
    trial_s = {k: sum(t["end"] - t["start"] for t in trials if t.get("kind") == k)
               for k in ("policy", "oracle")}
    all_slots = slots["policy"] + slots["oracle"]
    robust_slots = sum(t.get("slots", 0) for t in trials
                       if tr.root_name(t) == "cli.robustness")
    counter = lambda name: tr.counters.get(name, [0, 0.0])
    med_traced = statistics.median(traced_cal)
    med_untraced = statistics.median(untraced_cal)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "pbvi.backup_s": per * backup_s,
        "pbvi.expand_s": per * expand_s,
        "pbvi.sweeps": per * sum(st.get("sweeps", 0) for st in stages),
        "pbvi.unconverged_rounds": per * sum(not st.get("converged", True) for st in stages),
        "pbvi.belief_alpha_pairs": per * pairs,
        "pbvi.us_per_belief_alpha": ratio(1e6 * backup_s, pairs),
        "pbvi.backup_flops": per * sum(_backup_flops(st) for st in stages if "n" in st),
        "pbvi.num_beliefs": per * sum(sp.get("num_beliefs", 0) for sp in solves),
        "pbvi.num_alphas": per * sum(sp.get("num_alphas", 0) for sp in solves),
        "pbvi.self_share": ratio(backup_s + expand_s, sum(traced_wall)),
        "simulate.slots": per * all_slots,
        "simulate.us_per_slot.policy": ratio(1e6 * trial_s["policy"], slots["policy"]),
        "simulate.us_per_slot.oracle": ratio(1e6 * trial_s["oracle"], slots["oracle"]),
        "simulate.belief_update_calls": per * counter("simulate.belief_update")[0],
        "simulate.belief_update_s": per * counter("simulate.belief_update")[1],
        "simulate.reset_fraction": ratio(sum(t.get("resets", 0) for t in trials), all_slots),
        "simulate.gain_table_calls": per * counter("simulate.action_cell_gains")[0],
        "simulate.gain_table_s": per * counter("simulate.action_cell_gains")[1],
        "pomdp.build_calls": per * len(tr.named("pomdp.build_model")),
        "pomdp.build_s": per * tr.self_s("pomdp.build_model"),
        "pomdp.gain_evals": per * counter("pomdp.gain")[0],
        "pomdp.gain_s": per * counter("pomdp.gain")[1],
        "artifacts.save_s": per * tr.self_s("artifacts.save"),
        "artifacts.load_s": per * tr.self_s("artifacts.load"),
        "artifacts.digest_calls": per * counter("artifacts.model_digest")[0],
        "artifacts.digest_s": per * counter("artifacts.model_digest")[1],
        "artifacts.bytes_written": per * sum(sp.get("bytes", 0) for sp in tr.named("artifacts.save")),
        "cli.solve_s": per * tr.total_s("cli.solve"),
        "cli.sweep_p_s": per * tr.total_s("cli.sweep_p"),
        "cli.robustness_s": per * tr.total_s("cli.robustness"),
        "cli.report_s": per * tr.total_s("cli.report"),
        "cli.trace_bytes": float(extra.get("trace_bytes", 0)),
        "cli.robustness_sim_efficiency": ratio(per * extra.get("robustness_row_slots", 0),
                                               per * robust_slots),
        "trace_overhead_frac": ratio(med_traced, med_untraced) - 1.0,
        "trace.absent_wrappers": float(len(tr.absent) + tr.hook_errors),
    }
