"""Command-line frontend: solve, sweep-p, robustness, report.

All commands are deterministic given (config, seed). Errors print a
machine-readable JSON record to stderr and exit nonzero. CSV floats are
written as shortest round-trip reprs so a re-parse reproduces the values
exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time

from . import artifacts, pbvi
from .config import ConfigError, ExperimentConfig
from .pomdp import initial_belief
from .simulate import (FixedPathDynamics, MarkovDynamics, Metrics, OracleAgent,
                       PolicyAgent, SlotLog, lockstep_groups, perfect_info_rates,
                       simulate_points, trial_means)

ROBUSTNESS_P = (0.35, 0.95)     # the mobility p of the fixed-path study


def _util_column(band_label: str) -> str:
    """CSV column of a band's utilization: util_15 for band 15ghz."""
    return f"util_{band_label.removesuffix('ghz')}"


def result_columns(band_labels, *point: str) -> tuple[str, ...]:
    """Result CSV columns; point names the columns after p, speed_kmh for robustness."""
    return ("agent", "p", *point, "mean_rate_bps", "ci_halfwidth",
            *map(_util_column, band_labels), "num_trials", "seed", "reset_fraction")


def _p_text(p: float) -> str:
    """The shortest round-trip text of p: distinct p values never share it."""
    return repr(float(p))


def policy_filename(agent: str, p: float) -> str:
    return f"{agent}_p{_p_text(p)}.policy.json"


def _write_csv(path: str, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(row[c])) if isinstance(row[c], float) else str(row[c])
                             for c in columns])


def _metric_row(m: Metrics, band_labels, agent: str, p: float, seed: int,
                speed_kmh: float | None = None) -> dict:
    row = {"agent": agent, "p": float(p), "mean_rate_bps": m.mean_rate_bps,
           "ci_halfwidth": m.ci_halfwidth, "num_trials": m.num_trials, "seed": seed,
           "reset_fraction": m.reset_fraction,
           **{_util_column(lbl): m.utilization.get(lbl, 0.0) for lbl in band_labels}}
    if speed_kmh is not None:
        row["speed_kmh"] = float(speed_kmh)
    return row


def _solve_and_save(cfg: ExperimentConfig, agent: str, p: float, seed: int, out_dir: str):
    """Build the agent's (possibly band-restricted) model, solve it, and write
    its policy and manifest into out_dir; returns (model, policy, path, wall_s)."""
    band = cfg.band_label_for_agent(agent)      # an unknown agent makes no out_dir
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    model = cfg.build_model(p=p, band_label=band)
    sol = cfg.raw["solver"]
    policy = pbvi.solve(model, initial_belief(model.states),
                        num_stages=sol["num_stages"],
                        expansions_per_stage=sol["expansions_per_stage"],
                        epsilon=sol["epsilon"], max_sweeps=sol["max_sweeps"],
                        seed=seed, metric=sol["metric"])
    wall_s = time.perf_counter() - t0
    cfg_hash = cfg.content_hash()
    digest = artifacts.model_digest(model)
    path = os.path.join(out_dir, policy_filename(agent, p))
    policy_hash = artifacts.save_policy(
        path, policy, config_hash=cfg_hash, model_digest_hex=digest, agent=agent, p=p)
    artifacts.save_manifest(path.removesuffix(".policy.json") + ".manifest.json", {
        "config_hash": cfg_hash,
        "model_digest": digest,
        "policy_sha256": policy_hash,
        "agent": agent,
        "p": p,
        "seed": seed,
        "wall_s": wall_s,
        "num_beliefs": policy.metadata["num_beliefs"],
        "num_alphas": int(policy.alpha.shape[0]),
        "solver": {**policy.metadata, "stages": [
            {**st, "wall_s": w} for st, w in zip(policy.metadata["stages"],
                                                 policy.stage_wall_s)]},
    })
    return model, policy, path, wall_s


def _require_policies(cfg: ExperimentConfig, policy_dir: str, ps, solve_missing: bool) -> None:
    """Raise, naming every gap, unless each planner's policy at each p is on
    disk or may be solved."""
    missing = [(agent, p) for p in ps for agent in cfg.agent_names()
               if not os.path.exists(os.path.join(policy_dir, policy_filename(agent, p)))]
    if missing and not solve_missing:
        listed = ", ".join(f"({a}, p={_p_text(pv)})" for a, pv in missing)
        raise artifacts.ArtifactError(
            f"missing policies in {policy_dir}: {listed}; "
            f"run `specbeam solve` for each or pass --solve-missing")


def _load_agents(cfg: ExperimentConfig, policy_dir: str, p: float):
    """(model, PolicyAgent) per planner plus the oracle, once _require_policies
    passed: a missing policy is solved with solver.seed, as `solve` without --seed does."""
    cfg_hash = cfg.content_hash()
    runs = []
    for agent in cfg.agent_names():
        path = os.path.join(policy_dir, policy_filename(agent, p))
        if not os.path.exists(path):
            model, policy = _solve_and_save(cfg, agent, p, cfg.seed(), policy_dir)[:2]
        else:
            model = cfg.build_model(p=p, band_label=cfg.band_label_for_agent(agent))
            policy, _ = artifacts.load_policy(
                path, expect_config_hash=cfg_hash,
                expect_model_digest=artifacts.model_digest(model))
            acts, n_a = policy.actions, model.num_actions
            if policy.alpha.shape[1] != model.num_states or not 0 <= acts.min() <= acts.max() < n_a:
                raise artifacts.ArtifactError(f"{path}: alpha or actions do not fit the model's "
                                              f"{model.num_states} states and {n_a} actions")
        runs.append((model, PolicyAgent(agent, model, policy)))
    runs.append((runs[0][0], OracleAgent(runs[0][0])))  # agent_names() starts with sm
    return runs


def cmd_solve(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    p = args.p if args.p is not None else cfg.raw["mobility"]["p"]
    try:
        cfg.mobility(p)
    except ValueError as exc:           # "p: ..." from MobilityModel
        raise ConfigError(f"--{exc}") from exc
    seed = cfg.seed(args.seed)
    _, policy, path, wall_s = _solve_and_save(cfg, args.agent, p, seed, args.out)
    stages = policy.metadata["stages"]
    unconverged = sum(not st["converged"] for st in stages)
    print(f"solved {args.agent} at p={_p_text(p)}: |B|={policy.metadata['num_beliefs']}, "
          f"|V|={policy.alpha.shape[0]}, unconverged rounds: {unconverged}, "
          f"sweeps: {sum(st['sweeps'] for st in stages)} backup + "
          f"{sum(st['eval_sweeps'] for st in stages)} evaluation, "
          f"exact evaluation solves: {sum(st['eval_solves'] for st in stages)}, "
          f"{wall_s:.1f}s -> {path}")
    return 0


def cmd_sweep_p(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    seed = cfg.seed(args.seed)
    sim = cfg.raw["simulation"]
    grid, n, horizon = sim["p_grid"], sim["num_trials"], sim["horizon"]
    labels = cfg.band_labels()
    rows = []
    _require_policies(cfg, args.policies, grid, args.solve_missing)  # names every gap
    per_point = (len(cfg.agent_names()) + 1) * n
    for group in lockstep_groups([(per_point, horizon)] * len(grid)):  # loaded group by group
        points = [(runs, MarkovDynamics(runs[0][0]), horizon)
                  for runs in (_load_agents(cfg, args.policies, grid[k]) for k in group)]
        metrics = [log.metrics() for log in simulate_points(points, n, seed)]
        for k, (runs, _, _), point_metrics in zip(group, points, metrics):
            for (_, agent), m in zip(runs, point_metrics):
                rows.append(_metric_row(m, labels, agent.label, grid[k], seed))
    _write_csv(args.out, result_columns(labels), rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_robustness(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    seed = cfg.seed(args.seed)
    sim = cfg.raw["simulation"]
    scene = cfg.scene()
    labels = cfg.band_labels()
    rows = []
    _require_policies(cfg, args.policies, ROBUSTNESS_P, args.solve_missing)  # names every gap
    runs_by_p = [_load_agents(cfg, args.policies, p) for p in ROBUSTNESS_P]
    points = [(p, speed, runs, FixedPathDynamics(scene, speed, sim["slot_s"]))
              for p, runs in zip(ROBUSTNESS_P, runs_by_p) for speed in sim["speed_grid_kmh"]]
    n = sim["num_trials"]
    with open(args.traces, "w") if args.traces else contextlib.nullcontext() as trace_fh:
        for group in lockstep_groups([(len(runs) * n, dyn.n_slots)
                                      for _, _, runs, dyn in points]):
            logs = simulate_points([(runs, dyn, dyn.n_slots)
                                    for _, _, runs, dyn in (points[k] for k in group)], n, seed)
            for k, log in zip(group, logs):
                p, speed, runs, _ = points[k]
                for (_, agent), m in zip(runs, log.metrics()):
                    rows.append(_metric_row(m, labels, agent.label, p, seed,
                                            speed_kmh=speed))
                if trace_fh is not None:
                    _write_traces(trace_fh, log, p, speed)
            del logs, log           # one group's slots in memory at a time
    _write_csv(args.out, result_columns(labels, "speed_kmh"), rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _write_traces(fh, log: SlotLog, p: float, speed: float) -> None:
    """One line per agent-trial, runs in order and each run's trials in order:
    json.dumps(record, sort_keys=True) of the record spelled out below, with a
    trial's cells and noise draws, one array for all agents, encoded once."""
    shared = [(json.dumps(c.tolist()), json.dumps(e.tolist()))
              for c, e in zip(log.cells, log.noise_draws)]
    point = f'"p": {json.dumps(p)}, "speed_kmh": {json.dumps(speed)}, "trial": '
    means = trial_means(log.rates)
    for r, (_, agent) in enumerate(log.runs):
        label = json.dumps(agent.label)
        for trial, (cells, draws) in enumerate(shared):
            row = r * len(shared) + trial
            fh.write(f'{{"actions": {json.dumps(log.actions[row].tolist())}, "agent": {label}, '
                     f'"cells": {cells}, "mean_rate_bps": {json.dumps(means[row])}, '
                     f'"noise_draws": {draws}, {point}{trial}}}\n')


def _read_csv(path: str, columns: tuple[str, ...]) -> tuple[tuple[str, ...], list[dict]]:
    """(header, rows) of a result CSV; every column but agent parses as a float."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        got = tuple(reader.fieldnames or ())
        if set(columns) - set(got):
            raise ConfigError(
                f"{path}: missing columns {sorted(set(columns) - set(got))}")
        rows = []
        for i, raw in enumerate(reader, start=2):
            row = {}
            for col in got:
                try:
                    row[col] = raw[col] if col == "agent" else float(raw[col])
                except (TypeError, ValueError) as exc:      # TypeError: a short row's None
                    raise ConfigError(f"{path}: row {i}, column {col!r}: "
                                      f"not a number ({raw[col]!r})") from exc
            rows.append(row)
    return got, rows


def _by_agent(rows: list[dict]) -> dict[str, dict]:
    return {r["agent"]: r for r in rows}


def _pct(num: float, den: float, spec: str) -> str:
    """100 * num / den formatted by spec; n/a on a zero base."""
    return format(100 * num / den, spec) if den else "n/a"


def _reset_lines(rows: list[dict], *point: str) -> list[str]:
    """One line naming every row whose belief-reset fraction is nonzero."""
    hits = [" ".join([r["agent"], f"p={_p_text(r['p'])}", *(f"{k}={r[k]:g}" for k in point)])
            + f" ({r['reset_fraction']:.4g})" for r in rows if r["reset_fraction"]]
    return [f"Nonzero belief-reset fraction: {', '.join(hits)}", ""] if hits else []


def _robustness_row(path: str, rows: list[dict], agent: str, p: float,
                    speed: float) -> dict:
    for r in rows:
        if r["agent"] == agent and r["speed_kmh"] == speed:
            return r
    raise ConfigError(f"{path}: p={_p_text(p)}: no {agent!r} row at speed_kmh={speed:g}")


def cmd_report(args) -> int:
    out = ["# Experiment report", ""]
    if args.sweep:
        header, rows = _read_csv(args.sweep, result_columns(()))
        utils = [c for c in header if c.startswith("util_")]
        ps = sorted({r["p"] for r in rows})
        out += ["## Random-path sweep", "",
                "| p | sm (Gbit/s) | best single | gain % | oracle | gap % |",
                "|---|---|---|---|---|---|"]
        for p in ps:
            sub = _by_agent([r for r in rows if r["p"] == p])
            for agent in ("sm", "oracle"):
                if agent not in sub:
                    raise ConfigError(f"{args.sweep}: p={_p_text(p)}: no {agent!r} row")
            singles = {a: r for a, r in sub.items() if a.startswith("sf")}
            if not singles:
                raise ConfigError(f"{args.sweep}: p={_p_text(p)}: no single-band (sf*) row")
            best_a = max(singles, key=lambda a: singles[a]["mean_rate_bps"])
            sm = sub["sm"]["mean_rate_bps"]
            best = singles[best_a]["mean_rate_bps"]
            orc = sub["oracle"]["mean_rate_bps"]
            out.append(f"| {_p_text(p)} | {sm / 1e9:.4f} | {best / 1e9:.4f} ({best_a}) "
                       f"| {_pct(sm - best, best, '+.2f')} | {orc / 1e9:.4f} "
                       f"| {_pct(orc - sm, orc, '.2f')} |")
        out += ["", "### Channel utilization of the joint planner", "",
                "| p | " + " | ".join(f"{c.removeprefix('util_')} GHz" for c in utils) + " |",
                "|---|" + "---|" * len(utils)]
        for p in ps:
            sm = _by_agent([r for r in rows if r["p"] == p])["sm"]
            out.append(f"| {_p_text(p)} | " + " | ".join(f"{sm[c]:.3f}" for c in utils) + " |")
        out += ["", *_reset_lines(rows)]
    if args.robustness:
        _, rows = _read_csv(args.robustness, result_columns((), "speed_kmh"))
        out += ["## Fixed-path robustness (end-to-end drop, slowest to fastest)",
                "", "| p | agent | rate@vmin (Gbit/s) | rate@vmax | drop % |",
                "|---|---|---|---|---|"]
        ps = sorted({r["p"] for r in rows})
        for p in ps:
            sub = [r for r in rows if r["p"] == p]
            vmin = min(r["speed_kmh"] for r in sub)
            vmax = max(r["speed_kmh"] for r in sub)
            for agent in sorted({r["agent"] for r in sub}):
                lo, hi = (_robustness_row(args.robustness, sub, agent, p, v)
                          for v in (vmin, vmax))
                drop = _pct(lo["mean_rate_bps"] - hi["mean_rate_bps"],
                            lo["mean_rate_bps"], ".2f")
                out.append(f"| {_p_text(p)} | {agent} | {lo['mean_rate_bps'] / 1e9:.4f} "
                           f"| {hi['mean_rate_bps'] / 1e9:.4f} | {drop} |")
        out += ["", *_reset_lines(rows, "speed_kmh")]
    if args.config:
        cfg = ExperimentConfig.load(args.config)
        rates = perfect_info_rates(cfg.build_model())
        out += ["## Perfect-information channel averages", "",
                "| channel | mean rate (Gbit/s) |", "|---|---|"]
        for lbl, rate in rates.items():
            out.append(f"| {lbl} | {rate / 1e9:.4f} |")
        labels = list(rates)
        out.append("")
        for i in range(len(labels)):
            for j in range(len(labels)):
                if i != j:
                    ratio = 100 * (rates[labels[i]] / rates[labels[j]] - 1)
                    out.append(f"- {labels[i]} vs {labels[j]}: {ratio:+.2f}%")
        out.append("")
    text = "\n".join(out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specbeam",
        description="Joint spectrum and beam-direction planning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")

    def simulation(sp):
        sp.add_argument("--out", required=True, help="output CSV path")
        sp.add_argument("--policies", default="policies",
                        help="directory holding solved policies")
        sp.add_argument("--solve-missing", action="store_true",
                        help="solve and save any missing policies")

    sp = sub.add_parser("solve", help="solve one planner and save artifacts")
    common(sp)
    sp.add_argument("--out", required=True, help="artifact output directory")
    sp.add_argument("--agent", default="sm",
                    help="planner name: sm or one of the sf variants")
    sp.add_argument("--p", type=float, default=None,
                    help="mobility persistence override")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep-p", help="Monte Carlo sweep over mobility p")
    common(sp)
    simulation(sp)
    sp.set_defaults(func=cmd_sweep_p)

    sp = sub.add_parser("robustness", help="fixed-path speed study")
    common(sp)
    simulation(sp)
    sp.add_argument("--traces", default=None,
                    help="optional JSON-lines trace log path")
    sp.set_defaults(func=cmd_robustness)

    sp = sub.add_parser("report", help="summarize result CSVs as markdown")
    sp.add_argument("--config", default=None, help="experiment config JSON")
    sp.add_argument("--out", default=None, help="output markdown path (default: stdout)")
    sp.add_argument("--sweep", default=None, help="sweep-p CSV to summarize")
    sp.add_argument("--robustness", default=None,
                    help="robustness CSV to summarize")
    sp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, artifacts.ArtifactError, ValueError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
