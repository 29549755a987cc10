"""Config validation, artifact round-trips, and the CLI end to end."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from _oracles import FixedActionAgent, dead_bin_model, reference_run_trial
from specbeam import artifacts
from specbeam.cli import (ROBUSTNESS_P, _load_agents, _metric_row, build_parser, main,
                          policy_filename)
from specbeam.arrays import (ApertureSpec, BandConfig, PropagationConstants,
                             elements_for_band)
from specbeam.config import (ConfigError, ExperimentConfig, default_config_dict,
                             validate_config)
from specbeam.geometry import SceneConfig
from specbeam.mobility import MobilityModel
from specbeam.pbvi import solve
from specbeam.pomdp import initial_belief, snr_thresholds
from specbeam.simulate import FixedPathDynamics, monte_carlo

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


# configs that passed validation and then failed in snr_thresholds, in
# ExperimentConfig.constants (OverflowError) or in PropagationConstants
UNRUNNABLE = [
    ({"discretization": {"num_levels": 25, "low_db": 10, "high_db": 10}},
     "discretization.high_db"),
    ({"propagation": {"noise_density_dbm_hz": 4000}}, "propagation.noise_density_dbm_hz"),
    ({"propagation": {"noise_density_dbm_hz": -4000}}, "propagation.noise_density_dbm_hz"),
    # and configs whose gains or SNRs overflow: every gain inf, an OverflowError
    # in r^eta, and finite gains whose SNR overflows
    ({"propagation": {"k_const": 1e308, "tx_power_w": 1e308}}, "bands.0"),
    ({"propagation": {"path_loss_exp": 400}}, "bands.0"),
    ({"bands": [{"f_hz": 1.0e3, "bandwidth_hz": 1.0}], "propagation": {"k_const": 1e300}},
     "bands.0"),
    # SNR edges of a dB range whose width overflows (NaN and inf), with which the
    # model was built and numpy warned
    ({"discretization": {"low_db": -1e308, "high_db": 1e308}}, "discretization.low_db"),
    # a road whose length overflows, on which validation itself raised OverflowError;
    # SNR edges that underflow to 0 or round to one value, which observation_probs
    # rejected naming no field; and edges that overflow to inf, built as above
    ({"scene": {"road_y_min_m": -1e308, "road_y_max_m": 1e308}}, "scene.road_y_max_m"),
    ({"discretization": {"num_levels": 3, "low_db": -5000, "high_db": -4000}},
     "discretization.low_db"),
    ({"discretization": {"num_levels": 3, "low_db": 0.0, "high_db": 1e-300}},
     "discretization.high_db"),
    ({"discretization": {"num_levels": 3, "low_db": 4000, "high_db": 5000}},
     "discretization.low_db"),
]


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="mobility.p"):
        ExperimentConfig.from_dict({"mobility": {"p": 1.5}})
    with pytest.raises(ConfigError, match="solver.discount"):
        ExperimentConfig.from_dict({"solver": {"discount": 1.0}})
    with pytest.raises(ConfigError, match="scene.num_cells"):
        ExperimentConfig.from_dict({"scene": {"num_cells": 0}})
    with pytest.raises(ConfigError, match="discretization.num_levels"):
        ExperimentConfig.from_dict({"discretization": {"num_levels": 1}})
    with pytest.raises(ConfigError, match=r"simulation\.p_grid\.0: out of range"):
        ExperimentConfig.from_dict({"simulation": {"p_grid": ["0.5"]}})
    with pytest.raises(ConfigError, match=r"simulation\.speed_grid_kmh\.1: out of range"):
        ExperimentConfig.from_dict({"simulation": {"speed_grid_kmh": [10.0, None]}})
    with pytest.raises(ConfigError, match=r"^bands: must be a non-empty list"):
        ExperimentConfig.from_dict({"bands": {"f_hz": 15.0e9, "bandwidth_hz": 90.0e6}})
    with pytest.raises(ConfigError, match=r"^bands\.0: must be an object"):
        ExperimentConfig.from_dict({"bands": [15.0e9]})
    with pytest.raises(ConfigError, match=r"^scene: must be an object"):
        ExperimentConfig.from_dict({"scene": [1, 2]})
    with pytest.raises(ConfigError, match=r"^bands\.0\.typo: unknown field"):
        ExperimentConfig.from_dict(
            {"bands": [{"f_hz": 15.0e9, "bandwidth_hz": 90.0e6, "typo": 1}]})
    with pytest.raises(ConfigError, match=r"^solver\.seed: must be a nonnegative integer"):
        ExperimentConfig.from_dict({"solver": {"seed": True}})
    with pytest.raises(ConfigError, match=r"^solver\.metric: must be 'l1' \(got 'l2'\)$"):
        ExperimentConfig.from_dict({"solver": {"metric": "l2"}})
    for window in (True, 2.0):          # 2.0 would build window 2's model under another digest
        with pytest.raises(ConfigError,
                           match=rf"^mobility\.window: must be 1 or 2 \(got {window}\)$"):
            ExperimentConfig.from_dict({"mobility": {"window": window}})
    for bad, path in UNRUNNABLE:
        with pytest.raises(ConfigError, match="^" + path.replace(".", r"\.") + ": "):
            ExperimentConfig.from_dict(bad)
    # the edge cases that stay valid: two levels on a degenerate dB range,
    # and a noise density near either end of the float range
    ExperimentConfig.from_dict({"discretization": {"num_levels": 2, "low_db": 10, "high_db": 10}})
    for dbm_hz in (3000.0, -3000.0):
        assert 0.0 < ExperimentConfig.from_dict(
            {"propagation": {"noise_density_dbm_hz": dbm_hz}}).constants().noise_density_w_hz


@pytest.mark.parametrize("make, field", [
    (lambda: SceneConfig(ue_height_m=-1.0), "ue_height_m"),
    (lambda: ApertureSpec(a_y_m=0.038, a_z_m=0.0), "a_z_m"),
    (lambda: BandConfig(f_hz=15e9, bandwidth_hz=-1.0, n_y=4, n_z=4), "bandwidth_hz"),
    (lambda: elements_for_band(ApertureSpec(a_y_m=0.038, a_z_m=0.038), 0.0), "f_hz"),
    (lambda: PropagationConstants(tx_power_w=0.0), "tx_power_w"),
    (lambda: MobilityModel(p=0.5, window=True), "window"),
    (lambda: snr_thresholds(3, 4000.0, 5000.0), "low_db"),
], ids=["scene", "aperture", "band", "elements", "propagation", "mobility", "thresholds"])
def test_constructors_name_the_bad_field(make, field):
    """validate_config prefixes these messages with the section's dotted path."""
    with pytest.raises(ValueError, match=f"^{field}: .* \\(got .*\\)$"):
        make()


@pytest.mark.parametrize("bad, path", UNRUNNABLE)
def test_cli_rejects_unrunnable_config_with_its_path(tmp_path, capsys, bad, path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(bad))
    rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(path + ": ")
    assert not (tmp_path / "out").exists()


def test_config_rejects_overflowing_gain():
    """k_const and tx_power_w pass one at a time, but the gains they form do not."""
    raw = default_config_dict()
    raw["propagation"].update(k_const=1e308, tx_power_w=1e308)
    probe = ExperimentConfig(raw=raw)       # built unvalidated: what solve would see
    assert np.isinf(probe.build_model().gains).all()
    with pytest.raises(ConfigError, match=r"^bands\.0: the aligned gain .* at cell 1 "):
        validate_config(raw)
    # the band named is the first that overflows
    raw = default_config_dict()
    raw["bands"][2]["bandwidth_hz"] = 1e-300
    raw["propagation"]["noise_density_dbm_hz"] = -3000.0    # N0 W underflows to 0
    with pytest.raises(ConfigError, match=r"^bands\.2: "):
        validate_config(raw)


def test_config_rejects_colliding_band_labels():
    """Bands are named by f/1e9 in %g format; two bands may not share a name."""
    same = [{"f_hz": 39.0e9, "bandwidth_hz": 100.0e6},
            {"f_hz": 39.0e9, "bandwidth_hz": 400.0e6}]
    with pytest.raises(ConfigError, match=r"bands\.1\.f_hz: has the label '39ghz' of bands\.0"):
        ExperimentConfig.from_dict({"bands": same})
    near = [{"f_hz": 15.0e9, "bandwidth_hz": 90.0e6},
            {"f_hz": 39.0e9, "bandwidth_hz": 100.0e6},
            {"f_hz": 39.0000001e9, "bandwidth_hz": 100.0e6}]
    with pytest.raises(ConfigError, match=r"bands\.2\.f_hz: has the label '39ghz' of bands\.1"):
        ExperimentConfig.from_dict({"bands": near})
    near[2]["f_hz"] = 39.001e9
    assert ExperimentConfig.from_dict({"bands": near}).agent_names() == (
        "sm", "sf15", "sf39", "sf39.001")


def test_config_rejects_horizon_zero():
    with pytest.raises(ConfigError, match=r"simulation\.horizon: must be an integer >= 1"):
        ExperimentConfig.from_dict({"simulation": {"horizon": 0}})
    ExperimentConfig.from_dict({"simulation": {"horizon": 1}})


def test_config_rejects_speed_without_slots():
    """The default road is 240 m and a slot 0.25 s: 3,456 km/h crosses it."""
    with pytest.raises(ConfigError, match=r"simulation\.speed_grid_kmh\.1: "):
        ExperimentConfig.from_dict({"simulation": {"speed_grid_kmh": [90.0, 3500.0]}})
    cfg = ExperimentConfig.from_dict({"simulation": {"speed_grid_kmh": [3400.0]}})
    assert FixedPathDynamics(cfg.scene(), 3400.0, 0.25).n_slots == 1


def test_policy_filename_keeps_the_g_name_of_every_configured_p():
    """Policy files are named by p's shortest round-trip text. For the p values
    of the default config, the fixed-path study and the benchmark it is the
    name f"{p:g}" gave, so their policy files keep their names."""
    default = default_config_dict()
    bench_p_pair = (0.95, 0.35)
    for p in (*default["simulation"]["p_grid"], *ROBUSTNESS_P, default["mobility"]["p"],
              *bench_p_pair):
        for value in (float(p), np.float64(p)):
            assert policy_filename("sm", value) == f"sm_p{p:g}.policy.json"
    assert policy_filename("sf39", np.float64(0.4000001)) == "sf39_p0.4000001.policy.json"


def test_cli_runs_p_values_that_share_a_g_text(tmp_path, capsys):
    """p values that read alike in %g, among them and next to the fixed-path
    study's 0.35, each get their own policy file, CSV rows and report rows."""
    cfg_path = str(tmp_path / "exp.json")
    ExperimentConfig.from_dict({**TINY, "mobility": {"p": 0.3500001}, "simulation": {
        **TINY["simulation"], "p_grid": [0.4, 0.4000001, 0.4000002]}}).dump(cfg_path)
    pol = tmp_path / "policies"
    assert main(["solve", "--config", cfg_path, "--out", str(pol), "--p", "0.4"]) == 0
    at_04 = (pol / "sm_p0.4.policy.json").read_bytes()
    assert main(["solve", "--config", cfg_path, "--out", str(pol), "--p", "0.4000001"]) == 0
    assert main(["solve", "--config", cfg_path, "--out", str(pol)]) == 0
    for cmd in ("sweep-p", "robustness"):
        assert main([cmd, "--config", cfg_path, "--out", str(tmp_path / f"{cmd}.csv"),
                     "--policies", str(pol), "--solve-missing"]) == 0
    assert (pol / "sm_p0.4.policy.json").read_bytes() == at_04
    grid = (0.4, 0.4000001, 0.4000002)
    assert sorted(f for f in os.listdir(pol) if f.endswith(".policy.json")) == sorted(
        [policy_filename("sm", 0.3500001)] + [policy_filename(a, p) for p in (*grid, 0.35, 0.95)
                                              for a in ("sm", "sf15", "sf39", "sf60")])
    sweep = open(tmp_path / "sweep-p.csv").read().splitlines()[1:]
    assert sorted(line.split(",")[1] for line in sweep) == [repr(p) for p in grid for _ in range(5)]
    capsys.readouterr()
    assert main(["report", "--sweep", str(tmp_path / "sweep-p.csv"),
                 "--robustness", str(tmp_path / "robustness.csv")]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("| 0.")]
    assert len(rows) == 2 * 3 + 2 * 5 == len(set(rows))
    for p in grid:
        assert sum(line.startswith(f"| {p!r} | ") for line in rows) == 2


def test_cli_solve_rejects_p_out_of_range_under_its_flag(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--p", "1.5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "message": "--p: must lie in (0, 1) (got 1.5)"}
    assert not out.exists()


def test_cli_solve_rejects_an_unknown_agent_before_making_out(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--agent", "bogus"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ConfigError" and "'bogus'" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["solve", "--out", "out"],
    ["sweep-p", "--out", "sweep.csv", "--policies", "pol", "--solve-missing"],
    ["robustness", "--out", "rob.csv", "--policies", "pol", "--solve-missing",
     "--traces", "t.jsonl"],
], ids=["solve", "sweep-p", "robustness"])
def test_cli_rejects_a_negative_seed_flag_before_writing(command, tmp_path, capsys,
                                                         monkeypatch):
    """--seed obeys solver.seed's rule and is checked before any file or
    directory is made (out/, pol/ and t.jsonl were left empty before)."""
    (tmp_path / "exp.json").write_text(json.dumps(TINY))
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "--config", "exp.json", "--seed", "-1", *command[1:]]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ConfigError",
                                "message": "--seed: must be a nonnegative integer (got -1)"}
    assert os.listdir(tmp_path) == ["exp.json"]


def test_config_with_a_tiny_lowest_snr_edge_builds_and_solves():
    """G/s^2 over the lowest edge (10^-308) overflows to inf; its bin
    probability is the limit exp(-inf) = 0, without an overflow warning."""
    cfg = ExperimentConfig.from_dict(
        {**TINY, "discretization": {"num_levels": 7, "low_db": -3080, "high_db": 80}})
    model = cfg.build_model()
    assert np.isfinite(model.O).all()
    assert np.allclose(model.O.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
    policy = solve(model, initial_belief(model.states), num_stages=1,
                   expansions_per_stage=1, max_sweeps=60, seed=0)
    assert np.isfinite(policy.alpha).all()


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


def test_artifact_json_writes_numpy_values_as_plain_ones(tmp_path, tiny_solved):
    """Numpy scalars, arrays and tuples in metadata give the plain values' bytes."""
    import dataclasses

    cfg, model, policy = tiny_solved
    as_numpy = {"i": np.int64(7), "f": np.float64(0.1), "g": np.float32(0.25),
                "flag": np.bool_(True), "arr": np.array([[1.5, 2.0]]),
                "ints": np.arange(3), "tup": (np.int64(1), 2.5),
                "nested": [{"x": np.float64(1e-300)}, (np.bool_(False),)]}
    plain = {"i": 7, "f": 0.1, "g": 0.25, "flag": True, "arr": [[1.5, 2.0]],
             "ints": [0, 1, 2], "tup": [1, 2.5], "nested": [{"x": 1e-300}, [False]]}
    written = []
    for meta in (as_numpy, plain):
        d = tmp_path / str(len(written))
        d.mkdir()
        artifacts.save_policy(str(d / "pol.json"), dataclasses.replace(policy, metadata=meta),
                              config_hash=cfg.content_hash(), model_digest_hex="0" * 64,
                              agent="sm", p=0.6)
        artifacts.save_manifest(str(d / "man.json"), {"solver": meta, "p": np.float64(0.6)})
        written.append([(d / name).read_bytes() for name in ("pol.json", "man.json")])
    assert written[0] == written[1]
    loaded, _ = artifacts.load_policy(str(tmp_path / "0" / "pol.json"))
    assert loaded.metadata == plain


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
    names = ("sm_p0.6.manifest.json", "sm_p0.6.policy.json")
    for out in (out_a, out_b):
        assert sorted(os.listdir(out)) == list(names)
    # the manifest embeds wall time, so only the policy is compared whole
    assert open(f"{out_a}/{names[1]}", "rb").read() == open(f"{out_b}/{names[1]}", "rb").read()
    # the model is not written: two fresh builds have equal tensors and the
    # manifests' digest
    builds = [ExperimentConfig.load(cfg_path).build_model(p=0.6) for _ in range(2)]
    for name in ("T", "O", "rbar"):
        assert getattr(builds[0], name).tobytes() == getattr(builds[1], name).tobytes()
    digests = {json.load(open(f"{out}/{names[0]}"))["model_digest"] for out in (out_a, out_b)}
    assert digests == {artifacts.model_digest(b) for b in builds}
    assert len(digests) == 1
    for out in (out_a, out_b):
        manifest = json.load(open(f"{out}/{names[0]}"))
        solver = manifest["solver"]
        walls = [st["wall_s"] for st in solver["stages"]]
        assert len(walls) == solver["num_stages"] * solver["expansions_per_stage"]
        assert min(walls) >= 0.0
        assert math.fsum(walls) <= manifest["wall_s"]
    assert manifest["agent"] == "sm" and manifest["p"] == 0.6
    assert manifest["num_alphas"] >= 1
    pol, header = artifacts.load_policy(f"{out_a}/{names[1]}")
    assert header["config_hash"] == ExperimentConfig.load(cfg_path).content_hash()


def test_cli_solve_manifest_keeps_stage_log(tmp_path, capsys):
    cfg = ExperimentConfig.from_dict({**TINY, "solver": {**TINY["solver"], "max_sweeps": 1}})
    cfg.dump(str(tmp_path / "exp.json"))
    assert main(["solve", "--config", str(tmp_path / "exp.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert "unconverged rounds: 1, sweeps: 1 backup + 0 evaluation," in \
        capsys.readouterr().out
    manifest = json.load(open(tmp_path / "out" / "sm_p0.6.manifest.json"))
    (stage,) = manifest["solver"]["stages"]
    assert stage == {"round": 1, "num_beliefs": manifest["num_beliefs"],
                     "num_alphas": stage["num_alphas"], "sweeps": 1,
                     "eval_sweeps": 0, "eval_solves": 0, "converged": False,
                     "wall_s": stage["wall_s"]}
    policy = json.load(open(tmp_path / "out" / "sm_p0.6.policy.json"))
    del stage["wall_s"]             # the policy file keeps no wall time
    assert policy["metadata"]["stages"] == [stage]


def test_cli_solve_missing_writes_what_solve_writes(tmp_path, capsys):
    """sweep-p --solve-missing writes each policy with solve's bytes and manifest."""
    cfg_path = str(tmp_path / "exp.json")
    ExperimentConfig.from_dict(TINY).dump(cfg_path)
    swept, solved = tmp_path / "swept", tmp_path / "solved"
    assert main(["sweep-p", "--config", cfg_path, "--out", str(tmp_path / "sweep.csv"),
                 "--policies", str(swept), "--solve-missing"]) == 0
    agents = ExperimentConfig.from_dict(TINY).agent_names()
    for agent in agents:
        assert main(["solve", "--config", cfg_path, "--out", str(solved),
                     "--agent", agent, "--p", "0.6"]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(swept)) == sorted(os.listdir(solved))
    for agent in agents:
        name = policy_filename(agent, 0.6)
        assert (swept / name).read_bytes() == (solved / name).read_bytes()
        manifests = [json.load(open(d / name.replace(".policy.", ".manifest.")))
                     for d in (swept, solved)]
        for m in manifests:         # wall times aside, the manifests are equal
            del m["wall_s"]
            for st in m["solver"]["stages"]:
                del st["wall_s"]
        assert manifests[0] == manifests[1]


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


def test_cli_has_no_threads_flag():
    parser = build_parser()
    for argv in (["solve", "--config", "c", "--out", "o"], ["report"],
                 ["sweep-p", "--config", "c", "--out", "o"],
                 ["robustness", "--config", "c", "--out", "o"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--threads", "2"])


def test_cli_seed_only_on_commands_that_use_it():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["report", "--seed", "1"])
    for argv in (["solve", "--config", "c", "--out", "o"],
                 ["sweep-p", "--config", "c", "--out", "o"],
                 ["robustness", "--config", "c", "--out", "o"]):
        assert parser.parse_args(argv + ["--seed", "1"]).seed == 1


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


def test_cli_sweep_names_every_missing_policy_before_simulating(tmp_path, capsys):
    """With policies on disk at one p of the grid, sweep-p exits 2 naming the
    missing planners at both other p values, and writes no CSV."""
    cfg_path = str(tmp_path / "exp.json")
    ExperimentConfig.from_dict({**TINY, "simulation": {
        **TINY["simulation"], "p_grid": [0.35, 0.5, 0.6]}}).dump(cfg_path)
    pol = str(tmp_path / "policies")
    for agent in ("sm", "sf15", "sf39", "sf60"):
        assert main(["solve", "--config", cfg_path, "--out", pol,
                     "--agent", agent, "--p", "0.35"]) == 0
    capsys.readouterr()
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-p", "--config", cfg_path, "--out", str(out), "--policies", pol])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    got = json.loads(err)
    assert got["error"] == "ArtifactError" and "missing policies" in got["message"]
    for agent in ("sm", "sf15", "sf39", "sf60"):
        assert f"({agent}, p=0.35)" not in got["message"]
        assert f"({agent}, p=0.5)" in got["message"] and f"({agent}, p=0.6)" in got["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_policies(tmp_path_factory):
    """The TINY config and a directory of its sweep-p policies."""
    root = tmp_path_factory.mktemp("tiny_policies")
    ExperimentConfig.from_dict(TINY).dump(str(root / "exp.json"))
    assert main(["sweep-p", "--config", str(root / "exp.json"), "--out",
                 str(root / "sweep.csv"), "--policies", str(root / "policies"),
                 "--solve-missing"]) == 0
    return root


POLICY_EDITS = {        # a hand edit of a saved policy record, in place
    "config_hash deleted": lambda r: r.pop("config_hash"),
    "config_hash null": lambda r: r.update(config_hash=None),
    "p a string": lambda r: r.update(p="0.6"),
    "metadata deleted": lambda r: r.pop("metadata"),
    "alpha deleted": lambda r: r.pop("alpha"),
    "alpha one short row": lambda r: r.update(alpha=[[1.0, 2.0]]),
    "alpha ragged": lambda r: r["alpha"][0].pop(),
    "alpha not finite": lambda r: r["alpha"][0].__setitem__(0, math.inf),
    "actions floats": lambda r: r.update(actions=[float(a) for a in r["actions"]]),
    "actions one short": lambda r: r["actions"].pop(),
    # these load, and the model rejects them
    "alpha a state short": lambda r: r.update(alpha=[row[:-1] for row in r["alpha"]]),
    "action past the last": lambda r: r["actions"].__setitem__(0, 10 ** 6),
    "action negative": lambda r: r["actions"].__setitem__(0, -1),
}


@pytest.mark.parametrize("edit", POLICY_EDITS.values(), ids=POLICY_EDITS.keys())
def test_cli_names_a_policy_file_with_a_bad_field(tiny_policies, tmp_path, capsys, edit):
    """sweep-p on a policy with a missing or mistyped field: exit 2 and one
    JSON line whose message names the file."""
    pol = tmp_path / "policies"
    shutil.copytree(tiny_policies / "policies", pol)
    path = pol / policy_filename("sm", 0.6)
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))
    capsys.readouterr()
    rc = main(["sweep-p", "--config", str(tiny_policies / "exp.json"),
               "--out", str(tmp_path / "sweep.csv"), "--policies", str(pol)])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    got = json.loads(err)
    assert got["error"] == "ArtifactError" and str(path) in got["message"]


def test_cli_sweep_deterministic(cli_dir, capsys):
    cfg_path = str(cli_dir / "exp.json")
    pol_dir = str(cli_dir / "policies")
    csv_a, csv_b = (str(cli_dir / f"sweep_{k}.csv") for k in "ab")
    assert main(["sweep-p", "--config", cfg_path, "--out", csv_a,
                 "--policies", pol_dir, "--solve-missing"]) == 0
    # the second run loads the saved policies
    assert main(["sweep-p", "--config", cfg_path, "--out", csv_b,
                 "--policies", pol_dir]) == 0
    capsys.readouterr()
    blob = open(csv_a, "rb").read()
    assert blob == open(csv_b, "rb").read()
    lines = blob.decode().splitlines()
    assert lines[0] == ("agent,p,mean_rate_bps,ci_halfwidth,"
                        "util_15,util_39,util_60,num_trials,seed,reset_fraction")
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
                        "util_15,util_39,util_60,num_trials,seed,reset_fraction")
    assert len(lines) == 1 + 2 * 1 * 5        # p in {0.35, 0.95} x 1 speed x 5 agents
    for p in (0.35, 0.95):
        for agent in ("sm", "sf15", "sf39", "sf60"):
            assert (cli_dir / "policies" / policy_filename(agent, p)).exists()
    logged = [json.loads(s) for s in open(traces).read().splitlines()]
    assert len(logged) == 2 * 1 * 5 * 6       # ... x num_trials
    cfg = ExperimentConfig.load(cfg_path)
    for rec in logged:
        assert rec["speed_kmh"] == 50.0
        assert sorted(rec) == ["actions", "agent", "cells", "mean_rate_bps",
                               "noise_draws", "p", "speed_kmh", "trial"]
        assert len(rec["cells"]) == len(rec["actions"]) == len(rec["noise_draws"]) > 0
        # the rates replay from the config's model bit for bit
        model = cfg.build_model(p=rec["p"], band_label=cfg.band_label_for_agent(
            "sm" if rec["agent"] == "oracle" else rec["agent"]))
        bw = [model.bands[q].bandwidth_hz for q in model.actions.band_idx]
        sigma = [model.consts.noise_variance_w(w) for w in bw]
        rates = []
        for a, c, e in zip(rec["actions"], rec["cells"], rec["noise_draws"]):
            snr = model.gains[a, c - 1] / (sigma[a] * e)
            rates.append(bw[a] * math.log2(1 + snr))
        assert float(np.array(rates).mean()) == rec["mean_rate_bps"]
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
    # without --traces the rows come from the metrics-only runner, same bytes
    plain = str(cli_dir / "robust_plain.csv")
    assert main(["robustness", "--config", cfg_path, "--out", plain,
                 "--policies", pol_dir]) == 0
    capsys.readouterr()
    assert open(plain).read() == open(csv_path).read()


@pytest.mark.parametrize("present", [(), (0.35,)], ids=["no policies", "p=0.35 only"])
def test_cli_robustness_checks_every_policy_before_tracing(tmp_path, capsys, present):
    """Without --solve-missing, a policy missing at any p of ROBUSTNESS_P
    exits 2 with one JSON line before the trace file is opened: no file,
    so no trace lines of an earlier p either."""
    cfg_path = str(tmp_path / "exp.json")
    ExperimentConfig.from_dict(TINY).dump(cfg_path)
    pol = str(tmp_path / "policies")
    for p in present:
        for agent in ("sm", "sf15", "sf39", "sf60"):
            assert main(["solve", "--config", cfg_path, "--out", pol,
                         "--agent", agent, "--p", str(p)]) == 0
    capsys.readouterr()
    traces = tmp_path / "traces.jsonl"
    rc = main(["robustness", "--config", cfg_path, "--out", str(tmp_path / "robust.csv"),
               "--policies", pol, "--traces", str(traces)])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    got = json.loads(err)
    assert got["error"] == "ArtifactError" and "missing policies" in got["message"]
    for p in ROBUSTNESS_P:
        assert ("(sm, p=%g)" % p in got["message"]) == (p not in present)
    assert not traces.exists()


def _solve_robustness_policies(cfg_path: str, pol: str) -> None:
    """Every planner's policy at each p of ROBUSTNESS_P, solved with solver.seed."""
    for p in ROBUSTNESS_P:
        for agent in ("sm", "sf15", "sf39", "sf60"):
            assert main(["solve", "--config", cfg_path, "--out", pol,
                         "--agent", agent, "--p", str(p)]) == 0


BROKEN_POLICIES = {
    "fields missing": lambda r: {"format": "specbeam-policy", "version": 1},
    "config hash mismatch": lambda r: {**r, "config_hash": "0" * 64},
}


@pytest.mark.parametrize("breaks", BROKEN_POLICIES.values(), ids=BROKEN_POLICIES.keys())
def test_cli_robustness_loads_every_policy_before_tracing(tmp_path, capsys, breaks):
    """A later p's policy that exists but does not load exits 2 with one JSON
    line naming it, before the trace file is opened: no earlier p's lines."""
    cfg_path = str(tmp_path / "exp.json")
    ExperimentConfig.from_dict(TINY).dump(cfg_path)
    pol = str(tmp_path / "policies")
    _solve_robustness_policies(cfg_path, pol)
    path = tmp_path / "policies" / policy_filename("sf39", ROBUSTNESS_P[-1])
    path.write_text(json.dumps(breaks(json.loads(path.read_text()))))
    capsys.readouterr()
    traces = tmp_path / "traces.jsonl"
    rc = main(["robustness", "--config", cfg_path, "--out", str(tmp_path / "robust.csv"),
               "--policies", pol, "--traces", str(traces)])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    got = json.loads(err)
    assert got["error"] == "ArtifactError" and str(path) in got["message"]
    assert not traces.exists()


def test_cli_seed_flag_seeds_only_the_monte_carlo(tmp_path, capsys):
    """robustness --seed S --solve-missing solves with solver.seed, so an
    empty policy directory and one that `solve` filled give the same bytes."""
    cfg_path = str(tmp_path / "exp.json")
    ExperimentConfig.from_dict(TINY).dump(cfg_path)
    _solve_robustness_policies(cfg_path, str(tmp_path / "filled"))
    for pol in ("empty", "filled"):
        assert main(["robustness", "--config", cfg_path, "--seed", "7", "--solve-missing",
                     "--policies", str(tmp_path / pol), "--out", str(tmp_path / f"{pol}.csv"),
                     "--traces", str(tmp_path / f"{pol}.jsonl")]) == 0
    capsys.readouterr()
    for ext in ("csv", "jsonl"):
        assert (tmp_path / f"empty.{ext}").read_bytes() == (tmp_path / f"filled.{ext}").read_bytes()
    for f in sorted(os.listdir(tmp_path / "filled")):
        if f.endswith(".policy.json"):
            assert (tmp_path / "empty" / f).read_bytes() == (tmp_path / "filled" / f).read_bytes()


def test_cli_trace_lines_are_full_trace_records(cli_dir, capsys):
    """Each line is the reference loop's trial record without SNRs and rates.
    The test solves what it reads, so it passes alone or in any order."""
    cfg_path, pol_dir = str(cli_dir / "exp.json"), str(cli_dir / "policies")
    trace_path = cli_dir / "traces_full.jsonl"
    assert main(["robustness", "--config", cfg_path, "--out", str(cli_dir / "robust_full.csv"),
                 "--policies", pol_dir, "--solve-missing", "--traces", str(trace_path)]) == 0
    capsys.readouterr()
    cfg = ExperimentConfig.load(cfg_path)
    sim, seed = cfg.raw["simulation"], cfg.raw["solver"]["seed"]
    want = []
    for p in ROBUSTNESS_P:
        runs = _load_agents(cfg, pol_dir, p)
        for speed in sim["speed_grid_kmh"]:
            dyn = FixedPathDynamics(cfg.scene(), speed, sim["slot_s"])
            for model, agent in runs:
                traces = [reference_run_trial(model, dyn, agent, dyn.n_slots,
                                              np.random.SeedSequence((seed, t)))
                          for t in range(sim["num_trials"])]
                want += [json.dumps({
                    "agent": agent.label, "p": p, "speed_kmh": speed, "trial": trial,
                    "cells": tr.cells.tolist(), "actions": tr.actions.tolist(),
                    "noise_draws": tr.noise_draws.tolist(),
                    "mean_rate_bps": float(tr.rates.mean()) if len(tr.rates) else 0.0,
                }, sort_keys=True) for trial, tr in enumerate(traces)]
    assert trace_path.read_text().splitlines() == want


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
    assert "belief-reset" not in text           # every reset fraction is 0


def test_reset_fraction_reaches_csv_and_report(cli_dir, capsys):
    broken = dead_bin_model(ExperimentConfig.from_dict(TINY).build_model())
    (m,) = monte_carlo([(broken, FixedActionAgent(0))], 3, 8, seed=1)
    assert _metric_row(m, ("15ghz",), "blind", 0.6, 1)["reset_fraction"] == 1.0

    def with_one_reset(name, agent):
        lines = open(str(cli_dir / name)).read().splitlines()
        col = lines[0].split(",").index("reset_fraction")
        row = next(i for i, line in enumerate(lines) if line.startswith(agent + ","))
        parts = lines[row].split(",")
        assert parts[col] == "0.0"
        parts[col] = "0.25"
        lines[row] = ",".join(parts)
        path = str(cli_dir / f"resets_{name}")
        open(path, "w").write("\n".join(lines) + "\n")
        return path

    assert main(["report", "--sweep", with_one_reset("sweep_a.csv", "sf39"),
                 "--robustness", with_one_reset("robust.csv", "oracle")]) == 0
    text = capsys.readouterr().out
    assert "Nonzero belief-reset fraction: sf39 p=0.6 (0.25)\n" in text
    assert "Nonzero belief-reset fraction: oracle p=0.35 speed_kmh=50 (0.25)\n" in text


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

    short = str(cli_dir / "short.csv")               # a row with agent and p only
    with open(short, "w") as fh:
        fh.write(good[0] + "\n" + ",".join(good[1].split(",")[:2]) + "\n")
    assert main(["report", "--sweep", short]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "row 2" in err and "mean_rate_bps" in json.loads(err)["message"]


def _csv_variant(cli_dir, name, source, keep=lambda row: True, edit=None, extra=()):
    """A copy of a result CSV: rows filtered by keep, edited, extra rows appended."""
    lines = open(str(cli_dir / source)).read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    rows = [edit(dict(r)) if edit else r for r in rows if keep(r)] + list(extra)
    path = str(cli_dir / name)
    with open(path, "w") as fh:
        fh.write(lines[0] + "\n")
        for r in rows:
            fh.write(",".join(r[c] for c in header) + "\n")
    return path, rows


def _report_error(argv, capsys) -> str:
    assert main(["report", *argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    return err["message"]


@pytest.mark.parametrize("agent", ["oracle", "sm"])
def test_cli_report_names_missing_sweep_agent(cli_dir, capsys, agent):
    path, _ = _csv_variant(cli_dir, f"no_{agent}.csv", "sweep_a.csv",
                           keep=lambda r: r["agent"] != agent)
    message = _report_error(["--sweep", path], capsys)
    assert message == f"{path}: p=0.6: no {agent!r} row"


def test_cli_report_names_missing_single_band_rows(cli_dir, capsys):
    path, _ = _csv_variant(cli_dir, "no_sf.csv", "sweep_a.csv",
                           keep=lambda r: not r["agent"].startswith("sf"))
    message = _report_error(["--sweep", path], capsys)
    assert message == f"{path}: p=0.6: no single-band (sf*) row"


def test_cli_report_zero_base_rate_renders_na(cli_dir, capsys):
    def zero_oracle(r):
        if r["agent"] == "oracle" and r["p"] == "0.35":
            r["mean_rate_bps"] = "0.0"
        return r

    path, _ = _csv_variant(cli_dir, "zero_base.csv", "robust.csv", edit=zero_oracle)
    assert main(["report", "--robustness", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "| 0.35 | oracle | 0.0000 | 0.0000 | n/a |" in lines
    # every other row still computes its drop
    drops = [line.rsplit("|", 2)[1].strip() for line in lines
             if line.startswith("| 0.")]
    assert len(drops) == 10 and drops.count("n/a") == 1


def test_cli_report_names_missing_robustness_speed(cli_dir, capsys):
    def faster(r):
        return dict(r, speed_kmh="90.0")

    src = open(str(cli_dir / "robust.csv")).read().splitlines()
    header = src[0].split(",")
    sm = next(dict(zip(header, line.split(","))) for line in src[1:]
              if line.startswith("sm,0.35,"))
    path, _ = _csv_variant(cli_dir, "one_fast.csv", "robust.csv", extra=[faster(sm)])
    message = _report_error(["--robustness", path], capsys)
    assert message == f"{path}: p=0.35: no 'oracle' row at speed_kmh=90"


# configs at the edges of validation; each must run every command end to end
RUNNABLE = {
    "window-1": {"mobility": {"p": 0.6, "window": 1}},
    "one-band": {"bands": [{"f_hz": 28.0e9, "bandwidth_hz": 100.0e6}]},
    "degenerate-db": {"discretization": {"num_levels": 2, "low_db": 10, "high_db": 10}},
    "empty-grids": {"simulation": {"p_grid": [], "speed_grid_kmh": []}},
    "zero-stages": {"solver": {"num_stages": 0}},
    "one-trial": {"simulation": {"num_trials": 1}},
    "12.8kmh": {"simulation": {"speed_grid_kmh": [12.8]}},
    "tiny-low-edge": {"discretization": {"num_levels": 7, "low_db": -3080, "high_db": 80}},
}


@pytest.mark.parametrize("edit", RUNNABLE.values(), ids=RUNNABLE.keys())
def test_cli_runs_edge_configs_end_to_end(tmp_path, capsys, edit):
    raw = {k: v if isinstance(v, list) else {**TINY.get(k, {}), **v} for k, v in edit.items()}
    cfg, pol = str(tmp_path / "exp.json"), str(tmp_path / "policies")
    ExperimentConfig.from_dict({**TINY, **raw}).dump(cfg)
    out = {name: str(tmp_path / name) for name in ("sweep.csv", "robust.csv", "report.md")}
    for argv in (["solve", "--config", cfg, "--out", pol],
                 ["sweep-p", "--config", cfg, "--out", out["sweep.csv"],
                  "--policies", pol, "--solve-missing"],
                 ["robustness", "--config", cfg, "--out", out["robust.csv"],
                  "--policies", pol, "--solve-missing", "--traces", str(tmp_path / "t.jsonl")],
                 ["report", "--config", cfg, "--sweep", out["sweep.csv"],
                  "--robustness", out["robust.csv"], "--out", out["report.md"]]):
        assert main(argv) == 0, capsys.readouterr().err


def test_console_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "specbeam.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("solve", "sweep-p", "robustness", "report"):
        assert cmd in proc.stdout


def test_cli_solve_needs_no_scipy(tmp_path):
    """numpy is the only runtime dependency: importing the CLI loads no
    scipy module, and a solve succeeds with scipy made unimportable."""
    import specbeam

    cfg_path = str(tmp_path / "exp.json")
    ExperimentConfig.from_dict(TINY).dump(cfg_path)
    code = "\n".join([
        "import sys",
        "import specbeam.cli",
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "assert not loaded, loaded",
        "sys.modules['scipy'] = None",
        f"sys.exit(specbeam.cli.main(['solve', '--config', {cfg_path!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(specbeam.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "sm_p0.6.policy.json").exists()


def test_cli_points_alone_write_the_bytes_of_one_lockstep(tmp_path, capsys, monkeypatch):
    """sweep-p steps its three p, and robustness its six (p, speed) points, in one
    lockstep each; with the caps at one row every point runs alone, and both
    commands write the same CSV and trace bytes."""
    from specbeam import cli, simulate
    cfg_path, pol = str(tmp_path / "exp.json"), str(tmp_path / "policies")
    ExperimentConfig.from_dict({**TINY, "simulation": {
        **TINY["simulation"], "p_grid": [0.35, 0.6, 0.95],
        "speed_grid_kmh": [10.0, 90.0, 50.0]}}).dump(cfg_path)
    calls = []
    real = cli.simulate_points
    monkeypatch.setattr(cli, "simulate_points",
                        lambda points, *a: calls.append(len(points)) or real(points, *a))
    outputs = {}
    for tag in ("grouped", "alone"):
        if tag == "alone":
            monkeypatch.setattr(simulate, "LOCKSTEP_ROWS", 1)
        calls.clear()
        out = {name: str(tmp_path / f"{tag}_{name}")
               for name in ("sweep.csv", "robust.csv", "traces.jsonl")}
        assert main(["sweep-p", "--config", cfg_path, "--out", out["sweep.csv"],
                     "--policies", pol, "--solve-missing"]) == 0
        assert main(["robustness", "--config", cfg_path, "--out", out["robust.csv"],
                     "--policies", pol, "--solve-missing",
                     "--traces", out["traces.jsonl"]]) == 0
        assert calls == ([3, 6] if tag == "grouped" else [1] * 9)
        outputs[tag] = {name: open(path, "rb").read() for name, path in out.items()}
    capsys.readouterr()
    assert outputs["grouped"] == outputs["alone"]
    assert len(outputs["alone"]["traces.jsonl"].splitlines()) == 2 * 3 * 5 * 6


GOLDEN = os.path.join(os.path.dirname(__file__), "golden_pipeline.json")


def test_cli_pipeline_config_writes_the_recorded_outputs(tmp_path, capsys):
    """solve, sweep-p --solve-missing, robustness --traces and report on a
    config of one-stage solves and 20 trials write the sha256s recorded in
    golden_pipeline.json. Policies are pinned by their actions and V(b0),
    not their bytes: pbvi._successor_weights' one-hot products may round
    differently under another BLAS build, and the tie rule keeps decisions,
    and so every other output, stable under such rounding. A change that
    means to move an output records the new values and says why."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    cfg = ExperimentConfig.from_dict(golden["config"])
    cfg_path = str(tmp_path / "config.json")
    cfg.dump(cfg_path)
    c = ["--config", cfg_path]
    out = {name: str(tmp_path / name) for name in golden["sha256"]}
    pol = str(tmp_path / "policies")
    for argv in (["solve", *c, "--out", pol],
                 ["sweep-p", *c, "--out", out["sweep.csv"], "--policies", pol, "--solve-missing"],
                 ["robustness", *c, "--out", out["robustness.csv"], "--policies", pol,
                  "--solve-missing", "--traces", out["traces.jsonl"]],
                 ["report", *c, "--sweep", out["sweep.csv"],
                  "--robustness", out["robustness.csv"], "--out", out["report.md"]]):
        assert main(argv) == 0, argv[0]
    capsys.readouterr()
    got = {name: hashlib.sha256(open(path, "rb").read()).hexdigest()
           for name, path in out.items()}
    assert got == golden["sha256"]
    names = sorted(f for f in os.listdir(pol) if f.endswith(".policy.json"))
    assert names == sorted(golden["policies"])
    b0 = initial_belief(cfg.build_model(p=cfg.raw["mobility"]["p"]).states)
    for name in names:
        policy, _ = artifacts.load_policy(os.path.join(pol, name))
        want = golden["policies"][name]
        assert policy.actions.tolist() == want["actions"], name
        assert policy.value(b0) == pytest.approx(want["value_b0"], rel=1e-9, abs=0), name
        assert policy.metadata["metric"] == "l1", name
