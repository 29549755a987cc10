"""Experiment configuration: JSON schema, validation, canonical hashing.

All values are SI (Hz, m, W, s) except fields suffixed `_db`/`_dbm_hz`,
which are converted on access. The content hash is a sha256 over the
canonical serialization of the fully-normalized config, so semantically
identical files hash identically regardless of key order or whitespace.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
from functools import cached_property
from typing import Any

import numpy as np

from .arrays import (ApertureSpec, BandConfig, PropagationConstants, aligned_gain,
                     make_band)
from .geometry import SceneConfig, build_road
from .mobility import MobilityModel, transition_matrix
from .pomdp import PomdpModel, band_gains, build_model, gain_table, snr_thresholds
from .simulate import fixed_path_slots


def default_config_dict() -> dict[str, Any]:
    """Mid-band urban-road scenario: three channels, 12 cells, 0.25 s slots."""
    consts = PropagationConstants()
    return {
        "scene": dataclasses.asdict(SceneConfig()),
        "aperture": {"a_y_m": 0.038, "a_z_m": 0.038},
        "bands": [
            {"f_hz": 15.0e9, "bandwidth_hz": 90.0e6},
            {"f_hz": 39.0e9, "bandwidth_hz": 100.0e6},
            {"f_hz": 60.0e9, "bandwidth_hz": 100.0e6},
        ],
        "propagation": {
            "k_const": consts.k_const,
            "path_loss_exp": consts.path_loss_exp,
            "tx_power_w": consts.tx_power_w,
            "noise_density_dbm_hz": -174.0,
        },
        "mobility": dataclasses.asdict(MobilityModel(p=0.95)),
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


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


class ConfigError(ValueError):
    """Validation failure; the message names the offending field path."""


def _get(cfg: dict, path: str):
    node: Any = cfg
    for part in path.split("."):
        if isinstance(node, list) and part.isdigit() and int(part) < len(node):
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


def _require_int(cfg: dict, path: str, lo: int, message: str | None = None) -> None:
    ok = lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo
    _require(cfg, path, ok, message or f"must be an integer >= {lo}")


_SEED_RULE = "must be a nonnegative integer"      # solver.seed and the --seed flag


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _n0_w_hz(dbm_hz: float) -> float:
    """Noise density in W/Hz of one in dBm/Hz; inf where the float overflows."""
    try:
        return 10.0 ** (dbm_hz / 10.0) * 1e-3
    except OverflowError:
        return math.inf


def _build(path: str, make):
    """make(), its ValueError "<field>: ..." re-raised as ConfigError("<path>.<field>: ...")."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def validate_config(cfg: dict[str, Any]) -> None:
    """Raise ConfigError naming the first offending field path. A section that
    a model object takes is checked by building it: its constructor states the
    section's range rules, and names the field in its ValueError."""
    # every field is present, and each float field holds a finite JSON number
    for section, fields in default_config_dict().items():
        for key, default in fields.items() if isinstance(fields, dict) else ():
            _require(cfg, f"{section}.{key}",
                     lambda v: _is_num(v) or not isinstance(default, float), "must be a number")
    probe = ExperimentConfig(raw=cfg)
    scene = _build("scene", probe.scene)
    aperture = _build("aperture", probe.aperture)
    bands = _get(cfg, "bands")
    if not isinstance(bands, list) or not bands:
        raise ConfigError("bands: must be a non-empty list")
    first_with_label: dict[str, int] = {}
    for i in range(len(bands)):
        if not isinstance(bands[i], dict):
            raise ConfigError(f"bands.{i}: must be an object (got {bands[i]!r})")
        unknown = sorted(set(bands[i]) - {"f_hz", "bandwidth_hz"})
        if unknown:
            raise ConfigError(f"bands.{i}.{unknown[0]}: unknown field")
        for key in ("f_hz", "bandwidth_hz"):
            _require(cfg, f"bands.{i}.{key}", _is_num, "must be a number")
        label = _build(f"bands.{i}", lambda: make_band(aperture, **bands[i])).label
        # labels name the single-band agents, their policy files and util_* columns
        j = first_with_label.setdefault(label, i)
        if j != i:
            raise ConfigError(f"bands.{i}.f_hz: has the label {label!r} of bands.{j}.f_hz "
                              f"(got {bands[i]['f_hz']!r})")
    _require(cfg, "propagation.noise_density_dbm_hz", lambda v: 0.0 < _n0_w_hz(v) < math.inf,
             "N0 = 10^(v/10) * 1e-3 W/Hz must be a finite positive float")
    consts = _build("propagation", probe.constants)
    _build("mobility", probe.mobility)
    _build("discretization", lambda: snr_thresholds(**cfg["discretization"]))
    _require(cfg, "solver.discount",
             lambda v: _is_num(v) and 0.0 < v < 1.0, "must lie in (0, 1)")
    _require_int(cfg, "solver.num_stages", 0)
    _require_int(cfg, "solver.expansions_per_stage", 1)
    eps = _get(cfg, "solver.epsilon")
    if eps is not None and not (_is_num(eps) and eps > 0):
        raise ConfigError(f"solver.epsilon: must be null or positive (got {eps!r})")
    _require_int(cfg, "solver.max_sweeps", 1)
    _require_int(cfg, "solver.seed", 0, _SEED_RULE)
    _require(cfg, "solver.metric", lambda v: v in ("l1", "l2"), "must be 'l1' or 'l2'")
    _require_int(cfg, "simulation.num_trials", 1)
    _require_int(cfg, "simulation.horizon", 1)
    for key in ("p_grid", "speed_grid_kmh"):
        grid = _get(cfg, f"simulation.{key}")
        if not isinstance(grid, list):
            raise ConfigError(f"simulation.{key}: must be a list")
        for i, v in enumerate(grid):
            if not (_is_num(v) and (0.0 < v < 1.0 if key == "p_grid" else v > 0)):
                raise ConfigError(f"simulation.{key}.{i}: out of range (got {v!r})")
    _require(cfg, "simulation.slot_s", lambda v: v > 0, "must be a positive number")
    for i, v in enumerate(_get(cfg, "simulation.speed_grid_kmh")):
        if fixed_path_slots(scene.road_length_m, v, _get(cfg, "simulation.slot_s")) < 1:
            raise ConfigError(f"simulation.speed_grid_kmh.{i}: travels past the "
                              f"{scene.road_length_m:g} m road in one slot (got {v!r})")
    # The largest gain of a band is its aligned gain, the prefactor
    # K P_T / (r^eta f^2 N) of every gain times N^2; over N0 W it is the
    # largest SNR that the model and the oracle agent compute.
    road = build_road(scene)
    for i, band in enumerate(probe.bands()):
        for cell in road:
            try:
                snr = (aligned_gain(consts, band, cell.r_m)
                       / consts.noise_variance_w(band.bandwidth_hz))
            except (OverflowError, ZeroDivisionError):
                snr = math.inf
            if not math.isfinite(snr):
                raise ConfigError(
                    f"bands.{i}: the aligned gain K*P_T*N / (r^eta * f^2) over N0*W "
                    f"at cell {cell.index} (r = {cell.r_m:g} m) is not a finite float")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration with builders for every model object."""

    raw: dict[str, Any]

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        merged = copy.deepcopy(default_config_dict())
        for section, value in data.items():
            if section not in merged:
                raise ConfigError(f"{section}: unknown section")
            if isinstance(merged[section], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{section}: must be an object (got {value!r})")
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
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"), allow_nan=False)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.raw, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # --- builders: the section keys are the fields, but for N0 in dBm/Hz

    def scene(self) -> SceneConfig:
        return SceneConfig(**self.raw["scene"])

    def aperture(self) -> ApertureSpec:
        return ApertureSpec(**self.raw["aperture"])

    def bands(self) -> tuple[BandConfig, ...]:
        ap = self.aperture()
        return tuple(make_band(ap, **b) for b in self.raw["bands"])

    def constants(self) -> PropagationConstants:
        pr = dict(self.raw["propagation"])
        n0 = _n0_w_hz(pr.pop("noise_density_dbm_hz"))
        return PropagationConstants(**pr, noise_density_w_hz=n0)

    def mobility(self, p: float | None = None) -> MobilityModel:
        m = self.raw["mobility"]
        return MobilityModel(**(m if p is None else {**m, "p": p}))

    def seed(self, flag: int | None = None) -> int:
        """The solver seed: solver.seed, or the --seed flag checked by the same rule."""
        if flag is None:
            return self.raw["solver"]["seed"]
        _require_int({"--seed": flag}, "--seed", 0, _SEED_RULE)
        return flag

    def band_labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.bands())

    @cached_property
    def _gain_table(self):
        """pomdp.gain_table of the configured bands, computed once per config.

        Gains do not depend on p, and every build, one-band builds too,
        takes its rows from this table.
        """
        return _frozen(gain_table(build_road(self.scene()), self.bands(), self.constants()))

    @cached_property
    def _band_models(self) -> dict:
        """The model built first per band label; its O, rbar and gains serve every p."""
        return {}

    @cached_property
    def _chains(self) -> dict:
        """transition_matrix per MobilityModel; one T serves every band."""
        return {}

    def build_model(self, p: float | None = None,
                    band_label: str | None = None) -> PomdpModel:
        """Full model, optionally overriding p or restricting to one band.

        Models of one config share their tables, read-only: O, rbar and the
        gains per band, which do not depend on p, and T per p, which does not
        depend on the band.
        """
        mob = self.mobility(p)
        model = self._band_models.get(band_label)
        if model is None:
            model = self._band_models[band_label] = self._build(mob, band_label)
            self._chains.setdefault(mob, model.T)
        if mob not in self._chains:
            self._chains[mob] = _frozen(transition_matrix(mob, model.states))
        return dataclasses.replace(model, T=self._chains[mob], mobility=mob)

    def _build(self, mob: MobilityModel, band_label: str | None) -> PomdpModel:
        bands, gains = self.bands(), self._gain_table
        if band_label is not None:
            labels = [b.label for b in bands]
            if band_label not in labels:
                raise ConfigError(
                    f"bands: no band labelled {band_label!r} "
                    f"(have {', '.join(labels)})")
            q = labels.index(band_label)
            gains = band_gains(gains, len(bands), q)
            bands = (bands[q],)
        d = self.raw["discretization"]
        model = build_model(
            road=build_road(self.scene()),
            bands=bands,
            consts=self.constants(),
            mobility=mob,
            num_levels=d["num_levels"],
            low_db=d["low_db"],
            high_db=d["high_db"],
            discount=self.raw["solver"]["discount"],
            gains=gains,
            T=self._chains.get(mob),
        )
        for table in (model.T, model.O, model.rbar, model.gains, model.thresholds):
            table.setflags(write=False)
        return model

    def agent_names(self) -> tuple[str, ...]:
        """Planner names: joint agent plus one per single frequency."""
        return ("sm",) + tuple(f"sf{lbl.removesuffix('ghz')}"
                               for lbl in self.band_labels())

    def band_label_for_agent(self, agent: str) -> str | None:
        labels = dict(zip(self.agent_names(), (None, *self.band_labels())))
        if agent in labels:
            return labels[agent]
        raise ConfigError(f"unknown agent name {agent!r}; "
                          f"expected one of {', '.join(self.agent_names())}")
