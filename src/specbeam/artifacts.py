"""Versioned JSON artifacts for solved policies and model fingerprints.

Artifacts embed the config hash they were produced under and a model
digest (sha256 over the assembled tensors), so stale or mismatched files
are rejected at load time instead of silently producing wrong numbers.
JSON floats round-trip exactly (shortest-repr encoding), so a reloaded
policy reproduces decisions bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .pbvi import Policy
from .pomdp import PomdpModel

MODEL_FORMAT = "specbeam-model"
POLICY_FORMAT = "specbeam-policy"
FORMAT_VERSION = 1


class ArtifactError(ValueError):
    """Unreadable, unversioned, or mismatched artifact."""


def _jsonify(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _dump(path: str, record: dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(blob)
        fh.write("\n")
    return hashlib.sha256(blob.encode()).hexdigest()


def _load(path: str, expected_format: str) -> dict:
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: unreadable artifact ({exc})") from exc
    if not isinstance(record, dict) or record.get("format") != expected_format:
        raise ArtifactError(f"{path}: not a {expected_format} artifact")
    if record.get("version") != FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unsupported {expected_format} version "
            f"{record.get('version')!r} (expected {FORMAT_VERSION})")
    return record


def model_digest(model: PomdpModel) -> str:
    """sha256 over the tensors and the scalars that shape them."""
    h = hashlib.sha256()
    for arr in (model.T, model.O, model.rbar, model.thresholds):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    key = {
        "discount": model.discount,
        "bands": [b.label for b in model.bands],
        "p": model.mobility.p,
        "kappa1": model.mobility.kappa1,
        "kappa2": model.mobility.kappa2,
        "window": model.mobility.window,
        "num_states": model.num_states,
        "num_actions": model.num_actions,
    }
    h.update(json.dumps(key, sort_keys=True).encode())
    return h.hexdigest()


def save_model(path: str, model: PomdpModel, config_hash: str) -> str:
    """Persist the tensor fingerprint; returns the file's sha256."""
    record = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "config_hash": config_hash,
        "model_digest": model_digest(model),
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "num_observations": model.num_observations,
        "discount": model.discount,
        "bands": [b.label for b in model.bands],
        "p": model.mobility.p,
        "T": model.T.tolist(),
        "O": model.O.tolist(),
        "rbar": model.rbar.tolist(),
        "thresholds": model.thresholds.tolist(),
    }
    return _dump(path, record)


def load_model_record(path: str, expect_config_hash: str | None = None) -> dict:
    """Load and digest-check a model artifact (tensors as nested lists)."""
    record = _load(path, MODEL_FORMAT)
    if expect_config_hash is not None and record["config_hash"] != expect_config_hash:
        raise ArtifactError(
            f"{path}: config hash mismatch "
            f"({record['config_hash'][:12]}… vs expected {expect_config_hash[:12]}…)")
    return record


def save_policy(path: str, policy: Policy, *, config_hash: str,
                model_digest_hex: str, agent: str, p: float) -> str:
    """Persist a solved policy; returns the file's sha256."""
    record = {
        "format": POLICY_FORMAT,
        "version": FORMAT_VERSION,
        "config_hash": config_hash,
        "model_digest": model_digest_hex,
        "agent": agent,
        "p": p,
        "alpha": policy.alpha.tolist(),
        "actions": policy.actions.tolist(),
        "metadata": _jsonify(policy.metadata),
    }
    return _dump(path, record)


def load_policy(path: str, *, expect_config_hash: str | None = None,
                expect_model_digest: str | None = None) -> tuple[Policy, dict]:
    """Load a policy artifact; returns (policy, header metadata)."""
    record = _load(path, POLICY_FORMAT)
    if expect_config_hash is not None and record["config_hash"] != expect_config_hash:
        raise ArtifactError(
            f"{path}: config hash mismatch "
            f"({record['config_hash'][:12]}… vs expected {expect_config_hash[:12]}…)")
    if expect_model_digest is not None and record["model_digest"] != expect_model_digest:
        raise ArtifactError(
            f"{path}: model digest mismatch "
            f"({record['model_digest'][:12]}… vs expected {expect_model_digest[:12]}…)")
    policy = Policy(alpha=np.array(record["alpha"], dtype=float),
                    actions=np.array(record["actions"], dtype=int),
                    metadata=record["metadata"])
    header = {k: record[k] for k in
              ("format", "version", "config_hash", "model_digest", "agent", "p")}
    return policy, header


def save_manifest(path: str, fields: dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonify(fields), fh, indent=2, sort_keys=True)
        fh.write("\n")
