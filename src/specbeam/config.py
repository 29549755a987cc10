"""Experiment configuration: JSON schema, validation, canonical hashing.

All values are SI (Hz, m, W, s) except fields suffixed `_db`/`_dbm_hz`,
which are converted on access. The content hash is a sha256 over the
canonical serialization of the fully-normalized config, so semantically
identical files hash identically regardless of key order or whitespace.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

from .arrays import (ApertureSpec, BandConfig, PropagationConstants,
                     SPEED_OF_LIGHT, make_band)
from .geometry import SceneConfig, build_road
from .mobility import MobilityModel
from .pomdp import PomdpModel, build_model

_K_FREE_SPACE = (SPEED_OF_LIGHT / (4.0 * math.pi)) ** 2


def default_config_dict() -> dict[str, Any]:
    """Mid-band urban-road scenario: three channels, 12 cells, 0.25 s slots."""
    return {
        "scene": {
            "bs_height_m": 10.0,
            "road_offset_m": 10.0,
            "road_y_min_m": -120.0,
            "road_y_max_m": 120.0,
            "ue_height_m": 1.5,
            "num_cells": 12,
        },
        "aperture": {"a_y_m": 0.038, "a_z_m": 0.038},
        "bands": [
            {"f_hz": 15.0e9, "bandwidth_hz": 90.0e6},
            {"f_hz": 39.0e9, "bandwidth_hz": 100.0e6},
            {"f_hz": 60.0e9, "bandwidth_hz": 100.0e6},
        ],
        "propagation": {
            "k_const": _K_FREE_SPACE,
            "path_loss_exp": 2.0,
            "tx_power_w": 1.0,
            "noise_density_dbm_hz": -174.0,
        },
        "mobility": {"p": 0.95, "kappa1": 0.95, "kappa2": 0.95, "window": 2},
        "discretization": {"num_levels": 25, "low_db": -50.0, "high_db": 80.0},
        "solver": {
            "discount": 0.99,
            "num_stages": 4,
            "expansions_per_stage": 2,
            "epsilon": None,
            "max_sweeps": 500,
            "seed": 0,
            "metric": "l1",
        },
        "simulation": {
            "num_trials": 500,
            "horizon": 200,
            "p_grid": [0.35, 0.5, 0.65, 0.8, 0.95],
            "speed_grid_kmh": [10.0, 30.0, 50.0, 70.0, 90.0],
            "slot_s": 0.25,
        },
    }


class ConfigError(ValueError):
    """Validation failure; the message names the offending field path."""


def _get(cfg: dict, path: str):
    node: Any = cfg
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise ConfigError(f"{path}: missing required field")
    return node


def _require(cfg: dict, path: str, check, message: str) -> None:
    value = _get(cfg, path)
    if not check(value):
        raise ConfigError(f"{path}: {message} (got {value!r})")


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def validate_config(cfg: dict[str, Any]) -> None:
    """Raise ConfigError naming the first offending field path."""
    pos = lambda v: _is_num(v) and v > 0
    prob = lambda v: _is_num(v) and 0.0 <= v <= 1.0
    _require(cfg, "scene.bs_height_m", pos, "must be a positive number")
    _require(cfg, "scene.road_offset_m", pos, "must be a positive number")
    _require(cfg, "scene.road_y_min_m", _is_num, "must be a number")
    _require(cfg, "scene.road_y_max_m", _is_num, "must be a number")
    if _get(cfg, "scene.road_y_max_m") <= _get(cfg, "scene.road_y_min_m"):
        raise ConfigError("scene.road_y_max_m: must exceed scene.road_y_min_m")
    _require(cfg, "scene.ue_height_m", pos, "must be a positive number")
    _require(cfg, "scene.num_cells",
             lambda v: isinstance(v, int) and v >= 2, "must be an integer >= 2")
    if _get(cfg, "scene.ue_height_m") >= _get(cfg, "scene.bs_height_m"):
        raise ConfigError("scene.ue_height_m: must be below scene.bs_height_m")
    _require(cfg, "aperture.a_y_m", pos, "must be a positive number")
    _require(cfg, "aperture.a_z_m", pos, "must be a positive number")
    bands = _get(cfg, "bands")
    if not isinstance(bands, list) or not bands:
        raise ConfigError("bands: must be a non-empty list")
    for i in range(len(bands)):
        _require(cfg, f"bands.{i}.f_hz", pos, "must be a positive number")
        _require(cfg, f"bands.{i}.bandwidth_hz", pos, "must be a positive number")
    _require(cfg, "propagation.k_const", pos, "must be a positive number")
    _require(cfg, "propagation.path_loss_exp", pos, "must be a positive number")
    _require(cfg, "propagation.tx_power_w", pos, "must be a positive number")
    _require(cfg, "propagation.noise_density_dbm_hz", _is_num, "must be a number")
    _require(cfg, "mobility.p",
             lambda v: _is_num(v) and 0.0 < v < 1.0, "must lie in (0, 1)")
    _require(cfg, "mobility.kappa1", prob, "must lie in [0, 1]")
    _require(cfg, "mobility.kappa2", prob, "must lie in [0, 1]")
    _require(cfg, "mobility.window",
             lambda v: v in (1, 2), "must be 1 or 2")
    _require(cfg, "discretization.num_levels",
             lambda v: isinstance(v, int) and v >= 2, "must be an integer >= 2")
    _require(cfg, "discretization.low_db", _is_num, "must be a number")
    _require(cfg, "discretization.high_db", _is_num, "must be a number")
    if _get(cfg, "discretization.high_db") < _get(cfg, "discretization.low_db"):
        raise ConfigError("discretization.high_db: must be >= discretization.low_db")
    _require(cfg, "solver.discount",
             lambda v: _is_num(v) and 0.0 < v < 1.0, "must lie in (0, 1)")
    _require(cfg, "solver.num_stages",
             lambda v: isinstance(v, int) and v >= 0, "must be an integer >= 0")
    _require(cfg, "solver.expansions_per_stage",
             lambda v: isinstance(v, int) and v >= 1, "must be an integer >= 1")
    eps = _get(cfg, "solver.epsilon")
    if eps is not None and not pos(eps):
        raise ConfigError(f"solver.epsilon: must be null or positive (got {eps!r})")
    _require(cfg, "solver.max_sweeps",
             lambda v: isinstance(v, int) and v >= 1, "must be an integer >= 1")
    _require(cfg, "solver.seed",
             lambda v: isinstance(v, int) and v >= 0, "must be a nonnegative integer")
    _require(cfg, "solver.metric", lambda v: v in ("l1", "l2"), "must be 'l1' or 'l2'")
    _require(cfg, "simulation.num_trials",
             lambda v: isinstance(v, int) and v >= 1, "must be an integer >= 1")
    _require(cfg, "simulation.horizon",
             lambda v: isinstance(v, int) and v >= 0, "must be an integer >= 0")
    for key in ("p_grid", "speed_grid_kmh"):
        grid = _get(cfg, f"simulation.{key}")
        if not isinstance(grid, list):
            raise ConfigError(f"simulation.{key}: must be a list")
        for i, v in enumerate(grid):
            ok = (0.0 < v < 1.0) if key == "p_grid" else v > 0
            if not (_is_num(v) and ok):
                raise ConfigError(f"simulation.{key}.{i}: out of range (got {v!r})")
    _require(cfg, "simulation.slot_s", pos, "must be a positive number")


def _canonical(cfg: dict[str, Any]) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration with builders for every model object."""

    raw: dict[str, Any]

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        merged = copy.deepcopy(default_config_dict())
        for section, value in data.items():
            if section not in merged:
                raise ConfigError(f"{section}: unknown section")
            if isinstance(value, dict):
                unknown = set(value) - set(merged[section])
                if unknown:
                    raise ConfigError(f"{section}.{sorted(unknown)[0]}: unknown field")
                merged[section].update(value)
            else:
                merged[section] = value
        validate_config(merged)
        return cls(raw=merged)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return cls.from_dict(data)

    def content_hash(self) -> str:
        return hashlib.sha256(_canonical(self.raw).encode()).hexdigest()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.raw, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # --- builders -------------------------------------------------------

    def scene(self) -> SceneConfig:
        s = self.raw["scene"]
        return SceneConfig(bs_height_m=s["bs_height_m"],
                           road_offset_m=s["road_offset_m"],
                           road_y_min_m=s["road_y_min_m"],
                           road_y_max_m=s["road_y_max_m"],
                           ue_height_m=s["ue_height_m"],
                           num_cells=s["num_cells"])

    def aperture(self) -> ApertureSpec:
        a = self.raw["aperture"]
        return ApertureSpec(a_y_m=a["a_y_m"], a_z_m=a["a_z_m"])

    def bands(self) -> tuple[BandConfig, ...]:
        ap = self.aperture()
        return tuple(make_band(ap, b["f_hz"], b["bandwidth_hz"])
                     for b in self.raw["bands"])

    def constants(self) -> PropagationConstants:
        pr = self.raw["propagation"]
        n0 = 10.0 ** (pr["noise_density_dbm_hz"] / 10.0) * 1e-3
        return PropagationConstants(k_const=pr["k_const"],
                                    path_loss_exp=pr["path_loss_exp"],
                                    tx_power_w=pr["tx_power_w"],
                                    noise_density_w_hz=n0)

    def mobility(self, p: float | None = None) -> MobilityModel:
        m = self.raw["mobility"]
        return MobilityModel(p=m["p"] if p is None else p,
                             kappa1=m["kappa1"], kappa2=m["kappa2"],
                             window=m["window"])

    def band_labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.bands())

    def build_model(self, p: float | None = None,
                    band_label: str | None = None) -> PomdpModel:
        """Full model, optionally overriding p or restricting to one band."""
        bands = self.bands()
        if band_label is not None:
            bands = tuple(b for b in bands if b.label == band_label)
            if not bands:
                raise ConfigError(
                    f"bands: no band labelled {band_label!r} "
                    f"(have {', '.join(self.band_labels())})")
        d = self.raw["discretization"]
        return build_model(
            road=build_road(self.scene()),
            bands=bands,
            consts=self.constants(),
            mobility=self.mobility(p),
            num_levels=d["num_levels"],
            low_db=d["low_db"],
            high_db=d["high_db"],
            discount=self.raw["solver"]["discount"],
        )

    def agent_names(self) -> tuple[str, ...]:
        """Planner names: joint agent plus one per single frequency."""
        return ("sm",) + tuple(f"sf{lbl.removesuffix('ghz')}"
                               for lbl in self.band_labels())

    def band_label_for_agent(self, agent: str) -> str | None:
        if agent == "sm":
            return None
        for lbl in self.band_labels():
            if agent == f"sf{lbl.removesuffix('ghz')}":
                return lbl
        raise ConfigError(f"unknown agent name {agent!r}; "
                          f"expected one of {', '.join(self.agent_names())}")
