"""The benchmark's workloads: inputs from a seed, timed repetitions, checks.

Timed code calls only stable entry points (ExperimentConfig.build_model,
pbvi.solve, simulate.monte_carlo, cli.main), always through the module
attribute so that a traced run sees the wrapped versions.

- solve: pbvi.solve on the default sm model at p=0.95 and p=0.35 with three
  stages (six rounds, up to 64 beliefs). Exercises the solver's large-belief
  backups and nothing of the simulator.
- simulate: random-path Monte Carlo over 200-slot trials for sm, the three
  single-band planners and the oracle at p=0.95 and p=0.35, with policies
  from a one-stage solve during set-up. Exercises per-slot simulation; the
  solver runs only in set-up.
- pipeline: cli.main running solve, sweep-p --solve-missing, robustness
  --solve-missing --traces and report on a reduced config. Exercises
  per-trial overhead, fixed paths, trace writes, model builds and
  artifacts; large-belief backups hardly at all.

Every solve uses the config's solver seed 0. Across solver seeds the belief
sets differ and so do the sweeps to convergence: for the solve workload's
pair of solves, seeds derived from workload seeds 1-10 took 14.5-26.6 s, a
quartile spread of 16% of the median, and one-stage policy values differ by
up to 6%. Solving fixed instances keeps that input variation out of the
run-to-run spread. The workload seed drives the simulations instead: the
Monte Carlo seeds of simulate and the --seed of the robustness command.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import sys
import traceback

import numpy as np

from specbeam import artifacts, cli, pbvi, simulate
from specbeam.config import ExperimentConfig
from specbeam.pomdp import initial_belief

P_PAIR = (0.95, 0.35)


class Ledger:
    """Operations and checks attempted and failed; nothing here aborts a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, name: str, fn, *args, **kwargs):
        """Run one operation; on an exception count it failed and return None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self._fail(name, traceback.format_exc())
            return None

    def check(self, name: str, fn, *args) -> bool:
        """Run one check; it fails by returning False or by raising."""
        self.attempted += 1
        try:
            ok = bool(fn(*args))
            detail = ""
        except Exception:
            ok, detail = False, traceback.format_exc()
        if not ok:
            self._fail(name, detail)
        return ok

    def _fail(self, name: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(name)
        sys.stderr.write(f"bench: FAILED {name}\n{detail}")


def simulation_seed(seed: int) -> int:
    """Root seed of a workload's simulations, derived from the workload seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0]) % 2**31


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def solve_policy(cfg: ExperimentConfig, model):
    sol = cfg.raw["solver"]
    return pbvi.solve(model, initial_belief(model.states),
                      num_stages=sol["num_stages"],
                      expansions_per_stage=sol["expansions_per_stage"],
                      epsilon=sol["epsilon"], max_sweeps=sol["max_sweeps"],
                      seed=sol["seed"], metric=sol["metric"])


def policy_path(directory: str, agent: str, p: float) -> str:
    return os.path.join(directory, f"{agent}_p{p:g}.policy.json")


def reload_matches(path: str, cfg: ExperimentConfig, model, policy=None) -> bool:
    """The artifact loads with its config-hash and model-digest checks."""
    loaded, _ = artifacts.load_policy(
        path, expect_config_hash=cfg.content_hash(),
        expect_model_digest=artifacts.model_digest(model))
    if policy is None:
        return True
    return (np.array_equal(loaded.alpha, policy.alpha)
            and np.array_equal(loaded.actions, policy.actions))


def utilizations_sum_to_one(metrics) -> bool:
    return all(abs(math.fsum(m.utilization.values()) - 1.0) <= 1e-9 for m in metrics)


def value_b0(model, policy) -> float:
    return policy.value(initial_belief(model.states))


class SolveWorkload:
    name = "solve"
    # How the repetition time scales with the probe time when the host slows
    # (see probe.py): most of a solve is BLAS, which slows less than the probe.
    host_elasticity = 0.8
    # Outputs depend only on the solver seed, which is fixed, so runs with
    # any workload seed must repeat each other's bytes.
    repeat_key = "any seed"

    def __init__(self, seed: int):
        self.cfg = ExperimentConfig.from_dict({"solver": {"num_stages": 3}})
        self.solved: list[dict[float, object]] = []
        self.values: dict[float, float] = {}
        self.digests: dict[str, str] = {}
        self.extra: dict = {}

    def prepare(self, out_dir: str) -> None:
        self.models = {p: self.cfg.build_model(p=p) for p in P_PAIR}

    def load(self, out_dir: str, ledger: Ledger) -> None:
        self.prepare(out_dir)

    def rep(self, i: int, ledger: Ledger, scratch: str) -> None:
        self.solved.append({p: ledger.op(f"solve sm p={p:g}", solve_policy,
                                         self.cfg, self.models[p])
                            for p in P_PAIR})

    def check(self, ledger: Ledger, scratch: str) -> None:
        cfg_hash = self.cfg.content_hash()
        written = []
        for i, policies in enumerate(self.solved):
            d = os.path.join(scratch, f"solved{i}")
            os.makedirs(d)
            written.append({os.path.basename(policy_path(d, "sm", p)): artifacts.save_policy(
                                policy_path(d, "sm", p), policy, config_hash=cfg_hash,
                                model_digest_hex=artifacts.model_digest(self.models[p]),
                                agent="sm", p=p)
                            for p, policy in policies.items() if policy is not None})
        ledger.check("repetitions solve identical bytes",
                     lambda: all(w == written[0] for w in written))
        self.digests = written[-1]
        for p, policy in self.solved[-1].items():
            if policy is None:
                continue
            model = self.models[p]
            path = policy_path(os.path.join(scratch, f"solved{len(self.solved) - 1}"), "sm", p)
            ledger.check(f"sm p={p:g} policy reloads", reload_matches,
                         path, self.cfg, model, policy)
            self.values[p] = value_b0(model, policy)

    def named_metrics(self, wall: float) -> dict:
        return {"solve_s": {"value": wall, "unit": "s"}}


class SimulateWorkload:
    name = "simulate"
    trials_per_call = 32
    horizon = 200
    # Per-slot Python and small numpy calls slow more than the probe.
    host_elasticity = 1.2
    # The stored outputs are the set-up's policies, solved with the fixed
    # solver seed, and their values.
    repeat_key = "any seed"

    def __init__(self, seed: int):
        self.sim_seed = simulation_seed(seed)
        self.cfg = ExperimentConfig.from_dict({"solver": {"num_stages": 1}})
        self.values: dict[float, float] = {}
        self.digests: dict[str, str] = {}
        self.extra: dict = {}
        self.util_ok = True

    def _models(self) -> dict[tuple[str, float], object]:
        return {(agent, p): self.cfg.build_model(
                    p=p, band_label=self.cfg.band_label_for_agent(agent))
                for p in P_PAIR for agent in self.cfg.agent_names()}

    def prepare(self, out_dir: str) -> None:
        """Solve every planner and hand the policies over as artifacts."""
        os.makedirs(out_dir, exist_ok=True)
        cfg_hash = self.cfg.content_hash()
        for (agent, p), model in self._models().items():
            artifacts.save_policy(policy_path(out_dir, agent, p),
                                  solve_policy(self.cfg, model),
                                  config_hash=cfg_hash,
                                  model_digest_hex=artifacts.model_digest(model),
                                  agent=agent, p=p)

    def load(self, out_dir: str, ledger: Ledger) -> None:
        models = self._models()
        cfg_hash = self.cfg.content_hash()
        self.runs: dict[float, list] = {p: [] for p in P_PAIR}
        for (agent, p), model in models.items():
            path = policy_path(out_dir, agent, p)
            self.digests[os.path.basename(path)] = sha256_file(path)
            policy, _ = artifacts.load_policy(
                path, expect_config_hash=cfg_hash,
                expect_model_digest=artifacts.model_digest(model))
            self.runs[p].append((model, simulate.PolicyAgent(agent, model, policy)))
            if agent == "sm":
                self.values[p] = value_b0(model, policy)
        for p in P_PAIR:
            full = models[("sm", p)]
            self.runs[p].append((full, simulate.OracleAgent(full)))

    @property
    def slots_per_rep(self) -> int:
        return sum(len(r) for r in self.runs.values()) * self.trials_per_call * self.horizon

    def rep(self, i: int, ledger: Ledger, scratch: str) -> None:
        for p in P_PAIR:
            metrics = ledger.op(f"monte_carlo p={p:g} call {i}", simulate.monte_carlo,
                                self.runs[p], self.trials_per_call, self.horizon,
                                self.sim_seed + i)
            self.util_ok &= metrics is not None and utilizations_sum_to_one(metrics)

    def check(self, ledger: Ledger, scratch: str) -> None:
        ledger.check("utilizations sum to 1", lambda: self.util_ok)

    def named_metrics(self, wall: float) -> dict:
        return {"sim_slots_per_s": {"value": self.slots_per_rep / wall, "unit": "1/s"}}


class PipelineWorkload:
    name = "pipeline"
    # Short trials, model builds and file writes slow more than the probe.
    host_elasticity = 1.3

    def __init__(self, seed: int):
        self.sim_seed = simulation_seed(seed)
        self.repeat_key = f"seed {seed}"
        self.cfg = ExperimentConfig.from_dict(
            {"solver": {"num_stages": 1}, "simulation": {"num_trials": 20}})
        self.values: dict[float, float] = {}
        self.digests: dict[str, str] = {}
        self.extra: dict = {}
        self.rep_dirs: list[str] = []

    def prepare(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        self.cfg.dump(os.path.join(out_dir, "config.json"))

    def load(self, out_dir: str, ledger: Ledger) -> None:
        self.config_path = os.path.join(out_dir, "config.json")

    def _commands(self, d: str) -> list[list[str]]:
        c = ["--config", self.config_path]
        pol = ["--policies", os.path.join(d, "policies"), "--solve-missing"]
        return [
            ["solve", *c, "--out", os.path.join(d, "policies")],
            ["sweep-p", *c, "--out", os.path.join(d, "sweep.csv"), *pol],
            ["robustness", *c, "--out", os.path.join(d, "robustness.csv"), *pol,
             "--traces", os.path.join(d, "traces.jsonl"), "--seed", str(self.sim_seed)],
            ["report", *c, "--sweep", os.path.join(d, "sweep.csv"),
             "--robustness", os.path.join(d, "robustness.csv"),
             "--out", os.path.join(d, "report.md")],
        ]

    def rep(self, i: int, ledger: Ledger, scratch: str) -> None:
        d = os.path.join(scratch, f"rep{i}")
        os.makedirs(d)
        self.rep_dirs.append(d)
        for argv in self._commands(d):
            ledger.op(f"cli {argv[0]} rep {i}", _run_cli, argv)

    def _outputs(self, d: str) -> dict[str, str]:
        """sha256 of every output that must repeat byte for byte."""
        pol = os.path.join(d, "policies")
        names = sorted(f for f in os.listdir(pol) if not f.endswith(".manifest.json"))
        out = {f"policies/{f}": sha256_file(os.path.join(pol, f)) for f in names}
        for f in ("sweep.csv", "robustness.csv", "traces.jsonl", "report.md"):
            out[f] = sha256_file(os.path.join(d, f))
        return out

    def check(self, ledger: Ledger, scratch: str) -> None:
        d = self.rep_dirs[-1]
        sim = self.cfg.raw["simulation"]
        agents = len(self.cfg.agent_names()) + 1
        sweep = _csv_rows(os.path.join(d, "sweep.csv"))
        robust = _csv_rows(os.path.join(d, "robustness.csv"))
        n_robust = len(cli.ROBUSTNESS_P) * len(sim["speed_grid_kmh"]) * agents
        ledger.check("sweep CSV rows", lambda: len(sweep) == len(sim["p_grid"]) * agents)
        ledger.check("robustness CSV rows", lambda: len(robust) == n_robust)
        ledger.check("CSV utilizations sum to 1", lambda: all(
            abs(math.fsum(float(v) for k, v in row.items() if k.startswith("util_")) - 1.0)
            <= 1e-9 for row in sweep + robust))
        traces = os.path.join(d, "traces.jsonl")
        ledger.check("trace lines", lambda: _line_count(traces) == n_robust * sim["num_trials"])
        ledger.check("report renders", _report_renders, os.path.join(d, "report.md"))
        for name in sorted(os.listdir(os.path.join(d, "policies"))):
            if name.endswith(".policy.json"):
                agent, p = name.removesuffix(".policy.json").split("_p")
                model = self.cfg.build_model(
                    p=float(p), band_label=self.cfg.band_label_for_agent(agent))
                ledger.check(f"{name} reloads", reload_matches,
                             os.path.join(d, "policies", name), self.cfg, model)
        outputs = [ledger.op(f"digest rep {i}", self._outputs, r)
                   for i, r in enumerate(self.rep_dirs)]
        self.digests = outputs[-1] or {}
        ledger.check("repetitions write identical bytes",
                     lambda: all(o == outputs[0] for o in outputs))
        for p in P_PAIR:
            model = self.cfg.build_model(p=p)
            policy, _ = artifacts.load_policy(policy_path(os.path.join(d, "policies"), "sm", p))
            self.values[p] = value_b0(model, policy)
        self.extra = {
            "trace_bytes": os.path.getsize(traces),
            "robustness_row_slots": sum(
                int(float(row["num_trials"])) * _fixed_path_slots(self.cfg, float(row["speed_kmh"]))
                for row in robust),
        }

    def named_metrics(self, wall: float) -> dict:
        return {"pipeline_s": {"value": wall, "unit": "s"}}


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"specbeam {argv[0]} exited {rc}")


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _line_count(path: str) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def _report_renders(path: str) -> bool:
    with open(path) as fh:
        text = fh.read()
    return all(h in text for h in ("# Experiment report", "## Random-path sweep",
                                   "## Fixed-path robustness",
                                   "## Perfect-information channel averages"))


def _fixed_path_slots(cfg: ExperimentConfig, speed_kmh: float) -> int:
    """Slots of one constant-speed traversal, as the CLI's fixed paths define them."""
    s = cfg.raw["scene"]
    step = speed_kmh / 3.6 * cfg.raw["simulation"]["slot_s"]
    return int(math.floor((s["road_y_max_m"] - s["road_y_min_m"]) / step))


WORKLOADS = {w.name: w for w in (SolveWorkload, SimulateWorkload, PipelineWorkload)}
