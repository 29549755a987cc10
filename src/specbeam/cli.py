"""Command-line frontend: solve, sweep-p, robustness, report.

All commands are deterministic given (config, seed). Errors print a
machine-readable JSON record to stderr and exit nonzero. CSV floats are
written as shortest round-trip reprs so a re-parse reproduces the values
exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from . import artifacts, pbvi
from .config import ConfigError, ExperimentConfig
from .pomdp import initial_belief
from .simulate import (FixedPathDynamics, Metrics, OracleAgent, PolicyAgent,
                       aggregate, monte_carlo, perfect_info_rates,
                       simulate_trials)

ROBUSTNESS_P = (0.35, 0.95)


def _util_column(band_label: str) -> str:
    """CSV column of a band's utilization: util_15 for band 15ghz."""
    return f"util_{band_label.removesuffix('ghz')}"


def sweep_columns(band_labels) -> tuple[str, ...]:
    return ("agent", "p", "mean_rate_bps", "ci_halfwidth",
            *map(_util_column, band_labels), "num_trials", "seed")


def robust_columns(band_labels) -> tuple[str, ...]:
    return ("agent", "p", "speed_kmh", "mean_rate_bps", "ci_halfwidth",
            *map(_util_column, band_labels), "num_trials", "seed")


def policy_filename(agent: str, p: float) -> str:
    return f"{agent}_p{p:g}.policy.json"


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write_csv(path: str, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _metric_row(m: Metrics, band_labels, agent: str, p: float, seed: int,
                speed_kmh: float | None = None) -> dict:
    row = {
        "agent": agent,
        "p": float(p),
        "mean_rate_bps": m.mean_rate_bps,
        "ci_halfwidth": m.ci_halfwidth,
        "num_trials": m.num_trials,
        "seed": seed,
    }
    for lbl in band_labels:
        row[_util_column(lbl)] = m.utilization.get(lbl, 0.0)
    if speed_kmh is not None:
        row["speed_kmh"] = float(speed_kmh)
    return row


def _solve_one(cfg: ExperimentConfig, agent: str, p: float, seed: int):
    """Build the agent's (possibly band-restricted) model and solve it."""
    model = cfg.build_model(p=p, band_label=cfg.band_label_for_agent(agent))
    sol = cfg.raw["solver"]
    policy = pbvi.solve(model, initial_belief(model.states),
                        num_stages=sol["num_stages"],
                        expansions_per_stage=sol["expansions_per_stage"],
                        epsilon=sol["epsilon"], max_sweeps=sol["max_sweeps"],
                        seed=seed, metric=sol["metric"])
    return model, policy


def _load_agents(cfg: ExperimentConfig, policy_dir: str, p: float, seed: int,
                 solve_missing: bool):
    """(model, PolicyAgent) per planner plus the oracle; raises on gaps."""
    cfg_hash = cfg.content_hash()
    missing = [(agent, p) for agent in cfg.agent_names()
               if not os.path.exists(os.path.join(policy_dir, policy_filename(agent, p)))]
    if missing and not solve_missing:
        listed = ", ".join(f"({a}, p={pv:g})" for a, pv in missing)
        raise artifacts.ArtifactError(
            f"missing policies in {policy_dir}: {listed}; "
            f"run `specbeam solve` for each or pass --solve-missing")
    if missing:
        os.makedirs(policy_dir, exist_ok=True)
    runs = []
    full_model = None
    for agent in cfg.agent_names():
        path = os.path.join(policy_dir, policy_filename(agent, p))
        if not os.path.exists(path):
            model, policy = _solve_one(cfg, agent, p, seed)
            artifacts.save_policy(path, policy, config_hash=cfg_hash,
                                  model_digest_hex=artifacts.model_digest(model),
                                  agent=agent, p=p)
        else:
            model = cfg.build_model(p=p, band_label=cfg.band_label_for_agent(agent))
            policy, _ = artifacts.load_policy(
                path, expect_config_hash=cfg_hash,
                expect_model_digest=artifacts.model_digest(model))
        if agent == "sm":
            full_model = model
        runs.append((model, PolicyAgent(agent, model, policy)))
    if full_model is None:
        full_model = cfg.build_model(p=p)
    runs.append((full_model, OracleAgent(full_model)))
    return runs


def cmd_solve(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    p = args.p if args.p is not None else cfg.raw["mobility"]["p"]
    seed = args.seed if args.seed is not None else cfg.raw["solver"]["seed"]
    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    model, policy = _solve_one(cfg, args.agent, p, seed)
    wall_s = time.perf_counter() - t0
    cfg_hash = cfg.content_hash()
    digest = artifacts.model_digest(model)
    base = os.path.join(args.out, f"{args.agent}_p{p:g}")
    policy_hash = artifacts.save_policy(
        base + ".policy.json", policy, config_hash=cfg_hash,
        model_digest_hex=digest, agent=args.agent, p=p)
    model_hash = artifacts.save_model(base + ".model.json", model, cfg_hash)
    artifacts.save_manifest(base + ".manifest.json", {
        "config_hash": cfg_hash,
        "model_digest": digest,
        "policy_sha256": policy_hash,
        "model_sha256": model_hash,
        "agent": args.agent,
        "p": p,
        "seed": seed,
        "wall_s": wall_s,
        "num_beliefs": policy.metadata["num_beliefs"],
        "num_alphas": int(policy.alpha.shape[0]),
        "solver": policy.metadata,
    })
    print(f"solved {args.agent} at p={p:g}: |B|={policy.metadata['num_beliefs']}, "
          f"|V|={policy.alpha.shape[0]}, {wall_s:.1f}s -> {base}.policy.json")
    return 0


def cmd_sweep_p(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    seed = args.seed if args.seed is not None else cfg.raw["solver"]["seed"]
    sim = cfg.raw["simulation"]
    labels = cfg.band_labels()
    rows = []
    for p in sim["p_grid"]:
        runs = _load_agents(cfg, args.policies, p, seed, args.solve_missing)
        metrics = monte_carlo(runs, sim["num_trials"], sim["horizon"], seed,
                              threads=args.threads)
        for (_, agent), m in zip(runs, metrics):
            rows.append(_metric_row(m, labels, agent.label, p, seed))
    _write_csv(args.out, sweep_columns(labels), rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_robustness(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    seed = args.seed if args.seed is not None else cfg.raw["solver"]["seed"]
    sim = cfg.raw["simulation"]
    scene = cfg.scene()
    labels = cfg.band_labels()
    trace_fh = open(args.traces, "w") if args.traces else None
    rows = []
    try:
        for p in ROBUSTNESS_P:
            runs = _load_agents(cfg, args.policies, p, seed, args.solve_missing)
            for speed in sim["speed_grid_kmh"]:
                dyn = FixedPathDynamics(scene, speed, sim["slot_s"])
                for model, agent in runs:
                    traces = simulate_trials(model, dyn, agent, dyn.n_slots,
                                             sim["num_trials"], seed, args.threads)
                    m = aggregate(model, agent, dyn.n_slots, traces)
                    rows.append(_metric_row(m, labels, agent.label, p, seed,
                                            speed_kmh=speed))
                    if trace_fh is not None:
                        for trial, trace in enumerate(traces):
                            _write_trace(trace_fh, trace, agent.label, p, speed, trial)
                    del traces          # one agent's traces in memory at a time
    finally:
        if trace_fh is not None:
            trace_fh.close()
    _write_csv(args.out, robust_columns(labels), rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _write_trace(fh, trace, agent: str, p: float, speed: float, trial: int) -> None:
    fh.write(json.dumps({
        "agent": agent, "p": p, "speed_kmh": speed, "trial": trial,
        "cells": trace.cells.tolist(), "actions": trace.actions.tolist(),
        "noise_draws": trace.noise_draws.tolist(),
        "snrs": trace.snrs.tolist(), "rates": trace.rates.tolist(),
        "mean_rate_bps": float(trace.rates.mean()) if len(trace.rates) else 0.0,
    }, sort_keys=True))
    fh.write("\n")


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
                val = raw[col]
                if col in ("agent",):
                    row[col] = val
                else:
                    try:
                        row[col] = float(val)
                    except ValueError as exc:
                        raise ConfigError(
                            f"{path}: row {i}, column {col!r}: "
                            f"not a number ({val!r})") from exc
            rows.append(row)
    return got, rows


def _by_agent(rows: list[dict]) -> dict[str, dict]:
    return {r["agent"]: r for r in rows}


def cmd_report(args) -> int:
    out = ["# Experiment report", ""]
    if args.sweep:
        header, rows = _read_csv(args.sweep, sweep_columns(()))
        utils = [c for c in header if c.startswith("util_")]
        ps = sorted({r["p"] for r in rows})
        out += ["## Random-path sweep", "",
                "| p | sm (Gbit/s) | best single | gain % | oracle | gap % |",
                "|---|---|---|---|---|---|"]
        for p in ps:
            sub = _by_agent([r for r in rows if r["p"] == p])
            singles = {a: r for a, r in sub.items() if a.startswith("sf")}
            best_a = max(singles, key=lambda a: singles[a]["mean_rate_bps"])
            sm = sub["sm"]["mean_rate_bps"]
            best = singles[best_a]["mean_rate_bps"]
            orc = sub["oracle"]["mean_rate_bps"]
            out.append(f"| {p:g} | {sm / 1e9:.4f} | {best / 1e9:.4f} ({best_a}) "
                       f"| {100 * (sm - best) / best:+.2f} | {orc / 1e9:.4f} "
                       f"| {100 * (orc - sm) / orc:.2f} |")
        out += ["", "### Channel utilization of the joint planner", "",
                "| p | " + " | ".join(f"{c.removeprefix('util_')} GHz" for c in utils) + " |",
                "|---|" + "---|" * len(utils)]
        for p in ps:
            sm = _by_agent([r for r in rows if r["p"] == p])["sm"]
            out.append(f"| {p:g} | " + " | ".join(f"{sm[c]:.3f}" for c in utils) + " |")
        out.append("")
    if args.robustness:
        _, rows = _read_csv(args.robustness, robust_columns(()))
        out += ["## Fixed-path robustness (end-to-end drop, slowest to fastest)",
                "", "| p | agent | rate@vmin (Gbit/s) | rate@vmax | drop % |",
                "|---|---|---|---|---|"]
        ps = sorted({r["p"] for r in rows})
        for p in ps:
            sub = [r for r in rows if r["p"] == p]
            vmin = min(r["speed_kmh"] for r in sub)
            vmax = max(r["speed_kmh"] for r in sub)
            for agent in sorted({r["agent"] for r in sub}):
                lo = next(r for r in sub if r["agent"] == agent and r["speed_kmh"] == vmin)
                hi = next(r for r in sub if r["agent"] == agent and r["speed_kmh"] == vmax)
                drop = 100 * (lo["mean_rate_bps"] - hi["mean_rate_bps"]) / lo["mean_rate_bps"]
                out.append(f"| {p:g} | {agent} | {lo['mean_rate_bps'] / 1e9:.4f} "
                           f"| {hi['mean_rate_bps'] / 1e9:.4f} | {drop:.2f} |")
        out.append("")
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

    def common(sp, config_required=True):
        sp.add_argument("--config", required=config_required,
                        help="experiment config JSON")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")

    def simulation(sp):
        sp.add_argument("--threads", type=int, default=1,
                        help="worker processes for simulation")
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
    common(sp, config_required=False)
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
