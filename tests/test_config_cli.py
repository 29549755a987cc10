"""Config validation, artifact round-trips, and the CLI end to end."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from specbeam import artifacts
from specbeam.cli import build_parser, main, policy_filename
from specbeam.config import ConfigError, ExperimentConfig, default_config_dict
from specbeam.pbvi import solve
from specbeam.pomdp import initial_belief

TINY = {
    "scene": {"num_cells": 4},
    "discretization": {"num_levels": 7},
    "mobility": {"p": 0.6},
    "solver": {"num_stages": 1, "expansions_per_stage": 1, "max_sweeps": 60},
    "simulation": {"num_trials": 6, "horizon": 10, "p_grid": [0.6],
                   "speed_grid_kmh": [50.0]},
}


# ---------------------------------------------------------------- config


def test_default_config_is_valid_and_stable():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.raw == default_config_dict()
    assert cfg.content_hash() == ExperimentConfig.from_dict({"scene": {}}).content_hash()
    assert len(cfg.content_hash()) == 64
    assert cfg.agent_names() == ("sm", "sf15", "sf39", "sf60")
    assert cfg.band_labels() == ("15ghz", "39ghz", "60ghz")
    assert cfg.band_label_for_agent("sm") is None
    assert cfg.band_label_for_agent("sf39") == "39ghz"


def test_config_merge_and_hash_sensitivity():
    base = ExperimentConfig.from_dict({})
    tweaked = ExperimentConfig.from_dict({"mobility": {"p": 0.5}})
    assert tweaked.raw["mobility"]["p"] == 0.5
    assert tweaked.raw["mobility"]["kappa1"] == base.raw["mobility"]["kappa1"]
    assert tweaked.content_hash() != base.content_hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig.from_dict({"not_a_section": {}})
    with pytest.raises(ConfigError, match="solver.widgets"):
        ExperimentConfig.from_dict({"solver": {"widgets": 3}})
    with pytest.raises(ConfigError, match="solver.cross_product_actions: unknown field"):
        ExperimentConfig.from_dict({"solver": {"cross_product_actions": False}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="mobility.p"):
        ExperimentConfig.from_dict({"mobility": {"p": 1.5}})
    with pytest.raises(ConfigError, match="solver.discount"):
        ExperimentConfig.from_dict({"solver": {"discount": 1.0}})
    with pytest.raises(ConfigError, match="scene.num_cells"):
        ExperimentConfig.from_dict({"scene": {"num_cells": 0}})
    with pytest.raises(ConfigError, match="discretization.num_levels"):
        ExperimentConfig.from_dict({"discretization": {"num_levels": 1}})


def test_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict(TINY)
    path = tmp_path / "exp.json"
    cfg.dump(str(path))
    again = ExperimentConfig.load(str(path))
    assert again.raw == cfg.raw
    assert again.content_hash() == cfg.content_hash()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(str(bad))


def test_tiny_model_shapes():
    cfg = ExperimentConfig.from_dict(TINY)
    model = cfg.build_model()
    # 4 cells, window 2: 10 adjacent pairs + 4 fresh-start states
    assert model.num_states == 14
    assert model.num_actions == 12
    assert model.num_observations == 7
    sub = cfg.build_model(band_label="60ghz")
    assert sub.num_actions == 4 and len(sub.bands) == 1


# ------------------------------------------------------------- artifacts


@pytest.fixture(scope="module")
def tiny_solved():
    cfg = ExperimentConfig.from_dict(TINY)
    model = cfg.build_model()
    policy = solve(model, initial_belief(model.states), num_stages=1,
                   expansions_per_stage=1, max_sweeps=60, seed=0)
    return cfg, model, policy


def test_policy_artifact_round_trip(tmp_path, tiny_solved):
    cfg, model, policy = tiny_solved
    path = str(tmp_path / "pol.json")
    sha = artifacts.save_policy(path, policy, config_hash=cfg.content_hash(),
                                model_digest_hex=artifacts.model_digest(model),
                                agent="sm", p=0.6)
    assert len(sha) == 64
    loaded, header = artifacts.load_policy(
        path, expect_config_hash=cfg.content_hash(),
        expect_model_digest=artifacts.model_digest(model))
    assert np.array_equal(loaded.alpha, policy.alpha)          # exact floats
    assert np.array_equal(loaded.actions, policy.actions)
    assert header["agent"] == "sm" and header["p"] == 0.6
    assert loaded.metadata["num_beliefs"] == policy.metadata["num_beliefs"]


def test_artifact_rejections(tmp_path, tiny_solved):
    cfg, model, policy = tiny_solved
    path = str(tmp_path / "pol.json")
    artifacts.save_policy(path, policy, config_hash=cfg.content_hash(),
                          model_digest_hex=artifacts.model_digest(model),
                          agent="sm", p=0.6)
    with pytest.raises(artifacts.ArtifactError, match="config hash mismatch"):
        artifacts.load_policy(path, expect_config_hash="0" * 64)
    with pytest.raises(artifacts.ArtifactError, match="model digest mismatch"):
        artifacts.load_policy(path, expect_config_hash=cfg.content_hash(),
                              expect_model_digest="f" * 64)
    record = json.loads(open(path).read())
    record["version"] = 99
    (tmp_path / "stale.json").write_text(json.dumps(record))
    with pytest.raises(artifacts.ArtifactError, match="version"):
        artifacts.load_policy(str(tmp_path / "stale.json"))
    (tmp_path / "junk.json").write_text("[]")
    with pytest.raises(artifacts.ArtifactError):
        artifacts.load_policy(str(tmp_path / "junk.json"))


def test_model_artifact_round_trip(tmp_path, tiny_solved):
    cfg, model, _ = tiny_solved
    path = str(tmp_path / "model.json")
    artifacts.save_model(path, model, cfg.content_hash())
    rec = artifacts.load_model_record(path, expect_config_hash=cfg.content_hash())
    assert np.array_equal(np.array(rec["T"]), model.T)
    assert np.array_equal(np.array(rec["O"]), model.O)
    assert np.array_equal(np.array(rec["rbar"]), model.rbar)
    assert rec["model_digest"] == artifacts.model_digest(model)
    with pytest.raises(artifacts.ArtifactError, match="config hash"):
        artifacts.load_model_record(path, expect_config_hash="a" * 64)


def test_model_digest_tracks_content(tiny_solved):
    import dataclasses

    cfg, model, _ = tiny_solved
    bumped = dataclasses.replace(model, rbar=model.rbar * (1 + 1e-12))
    assert artifacts.model_digest(bumped) != artifacts.model_digest(model)


# ------------------------------------------------------------------ CLI


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = ExperimentConfig.from_dict(TINY)
    cfg.dump(str(root / "exp.json"))
    return root


def test_cli_solve_writes_reproducible_artifacts(cli_dir, capsys):
    cfg_path = str(cli_dir / "exp.json")
    out_a, out_b = str(cli_dir / "runA"), str(cli_dir / "runB")
    for out in (out_a, out_b):
        assert main(["solve", "--config", cfg_path, "--out", out,
                     "--agent", "sm", "--p", "0.6"]) == 0
    capsys.readouterr()
    names = ("sm_p0.6.policy.json", "sm_p0.6.model.json", "sm_p0.6.manifest.json")
    for name in names[:2]:          # manifest embeds wall time, skip it
        a = open(f"{out_a}/{name}", "rb").read()
        b = open(f"{out_b}/{name}", "rb").read()
        assert a == b, name
    manifest = json.load(open(f"{out_a}/{names[2]}"))
    assert manifest["agent"] == "sm" and manifest["p"] == 0.6
    assert manifest["num_alphas"] >= 1
    pol, header = artifacts.load_policy(f"{out_a}/{names[0]}")
    assert header["config_hash"] == ExperimentConfig.load(cfg_path).content_hash()


def test_cli_solve_manifest_keeps_stage_log(tmp_path, capsys):
    cfg = ExperimentConfig.from_dict({**TINY, "solver": {**TINY["solver"], "max_sweeps": 1}})
    cfg.dump(str(tmp_path / "exp.json"))
    assert main(["solve", "--config", str(tmp_path / "exp.json"),
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    manifest = json.load(open(tmp_path / "out" / "sm_p0.6.manifest.json"))
    (stage,) = manifest["solver"]["stages"]
    assert stage == {"round": 1, "num_beliefs": manifest["num_beliefs"],
                     "num_alphas": stage["num_alphas"], "sweeps": 1,
                     "converged": False}
    policy = json.load(open(tmp_path / "out" / "sm_p0.6.policy.json"))
    assert policy["metadata"]["stages"] == [stage]


def test_cli_util_columns_follow_configured_bands(tmp_path, capsys):
    bands = [{"f_hz": 28.0e9, "bandwidth_hz": 100.0e6},
             {"f_hz": 73.0e9, "bandwidth_hz": 100.0e6}]
    cfg_path = str(tmp_path / "exp.json")
    ExperimentConfig.from_dict({**TINY, "bands": bands}).dump(cfg_path)
    csv_path = str(tmp_path / "sweep.csv")
    assert main(["sweep-p", "--config", cfg_path, "--out", csv_path,
                 "--policies", str(tmp_path / "policies"), "--solve-missing"]) == 0
    lines = open(csv_path).read().splitlines()
    header = lines[0].split(",")
    assert [c for c in header if c.startswith("util_")] == ["util_28", "util_73"]
    assert len(lines) == 1 + 4      # sm, sf28, sf73 and the oracle
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert abs(float(row["util_28"]) + float(row["util_73"]) - 1.0) < 1e-12
    assert main(["report", "--sweep", csv_path]) == 0
    assert "| p | 28 GHz | 73 GHz |" in capsys.readouterr().out


def test_cli_threads_only_on_simulation_commands():
    parser = build_parser()
    for argv in (["solve", "--config", "c", "--out", "o"], ["report"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--threads", "2"])
    for cmd in ("sweep-p", "robustness"):
        args = parser.parse_args([cmd, "--config", "c", "--out", "o", "--threads", "2"])
        assert args.threads == 2


def test_cli_sweep_requires_policies(cli_dir, capsys):
    cfg_path = str(cli_dir / "exp.json")
    rc = main(["sweep-p", "--config", cfg_path,
               "--out", str(cli_dir / "never.csv"),
               "--policies", str(cli_dir / "empty")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ArtifactError"
    for agent in ("sm", "sf15", "sf39", "sf60"):
        assert f"({agent}, p=0.6)" in err["message"]
    assert "--solve-missing" in err["message"]


def test_cli_sweep_deterministic_and_thread_invariant(cli_dir, capsys):
    cfg_path = str(cli_dir / "exp.json")
    pol_dir = str(cli_dir / "policies")
    csv_a, csv_b, csv_c = (str(cli_dir / f"sweep_{k}.csv") for k in "abc")
    assert main(["sweep-p", "--config", cfg_path, "--out", csv_a,
                 "--policies", pol_dir, "--solve-missing"]) == 0
    # second run loads the saved policies; third adds worker processes
    assert main(["sweep-p", "--config", cfg_path, "--out", csv_b,
                 "--policies", pol_dir]) == 0
    assert main(["sweep-p", "--config", cfg_path, "--out", csv_c,
                 "--policies", pol_dir, "--threads", "2"]) == 0
    capsys.readouterr()
    blob = open(csv_a, "rb").read()
    assert blob == open(csv_b, "rb").read() == open(csv_c, "rb").read()
    lines = blob.decode().splitlines()
    assert lines[0] == ("agent,p,mean_rate_bps,ci_halfwidth,"
                        "util_15,util_39,util_60,num_trials,seed")
    assert len(lines) == 1 + 5      # four planners + oracle at one p
    for agent in ("sm", "sf15", "sf39", "sf60", "oracle"):
        assert any(line.startswith(agent + ",") for line in lines[1:])
    # utilization columns re-parse to floats that sum to one
    for line in lines[1:]:
        parts = dict(zip(lines[0].split(","), line.split(",")))
        total = sum(float(parts[c]) for c in ("util_15", "util_39", "util_60"))
        assert abs(total - 1.0) < 1e-12


def test_cli_robustness_with_traces(cli_dir, capsys):
    cfg_path = str(cli_dir / "exp.json")
    pol_dir = str(cli_dir / "policies")       # reuse p=0.6 dir; needs 0.35/0.95
    csv_path = str(cli_dir / "robust.csv")
    traces = str(cli_dir / "traces.jsonl")
    assert main(["robustness", "--config", cfg_path, "--out", csv_path,
                 "--policies", pol_dir, "--solve-missing",
                 "--traces", traces]) == 0
    capsys.readouterr()
    lines = open(csv_path).read().splitlines()
    assert lines[0] == ("agent,p,speed_kmh,mean_rate_bps,ci_halfwidth,"
                        "util_15,util_39,util_60,num_trials,seed")
    assert len(lines) == 1 + 2 * 1 * 5        # p in {0.35, 0.95} x 1 speed x 5 agents
    for p in (0.35, 0.95):
        for agent in ("sm", "sf15", "sf39", "sf60"):
            assert (cli_dir / "policies" / policy_filename(agent, p)).exists()
    logged = [json.loads(s) for s in open(traces).read().splitlines()]
    assert len(logged) == 2 * 1 * 5 * 6       # ... x num_trials
    for rec in logged[:8]:
        assert rec["speed_kmh"] == 50.0
        n = len(rec["rates"])
        assert n == len(rec["cells"]) == len(rec["actions"]) == len(rec["snrs"])
        assert rec["mean_rate_bps"] == pytest.approx(
            sum(rec["rates"]) / n, rel=1e-12)
    # same (p, trial) -> identical mobility/noise randomness across agents
    first_two = [r for r in logged if r["p"] == 0.35 and r["trial"] == 0]
    assert len(first_two) == 5
    assert all(r["cells"] == first_two[0]["cells"] for r in first_two)
    assert all(r["noise_draws"] == first_two[0]["noise_draws"] for r in first_two)
    # every CSV row is the mean of exactly the trials logged for it
    for line in lines[1:]:
        row = dict(zip(lines[0].split(","), line.split(",")))
        key = (row["agent"], float(row["p"]), float(row["speed_kmh"]))
        means = [r["mean_rate_bps"] for r in logged
                 if (r["agent"], r["p"], r["speed_kmh"]) == key]
        assert len(means) == int(row["num_trials"])
        assert math.fsum(means) / int(row["num_trials"]) == float(row["mean_rate_bps"])


def test_cli_report(cli_dir, capsys):
    cfg_path = str(cli_dir / "exp.json")
    report = str(cli_dir / "report.md")
    assert main(["report", "--config", cfg_path,
                 "--sweep", str(cli_dir / "sweep_a.csv"),
                 "--robustness", str(cli_dir / "robust.csv"),
                 "--out", report]) == 0
    capsys.readouterr()
    text = open(report).read()
    assert "## Random-path sweep" in text
    assert "## Fixed-path robustness" in text
    assert "## Perfect-information channel averages" in text
    assert "| 0.6 |" in text and "drop %" in text


def test_cli_report_rejects_malformed_csv(cli_dir, capsys):
    good = open(str(cli_dir / "sweep_a.csv")).read().splitlines()
    mangled = str(cli_dir / "mangled.csv")
    with open(mangled, "w") as fh:
        fh.write(good[0].replace("mean_rate_bps", "rate") + "\n")
        fh.write(good[1] + "\n")
    rc = main(["report", "--sweep", mangled])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "missing columns" in err["message"] and "mean_rate_bps" in err["message"]

    broken = str(cli_dir / "broken.csv")
    rows = good[1].split(",")
    rows[2] = "fast"                           # mean_rate_bps column
    with open(broken, "w") as fh:
        fh.write(good[0] + "\n")
        fh.write(",".join(rows) + "\n")
    rc = main(["report", "--sweep", broken])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "row 2" in err["message"] and "mean_rate_bps" in err["message"]


def test_console_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "specbeam.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("solve", "sweep-p", "robustness", "report"):
        assert cmd in proc.stdout
