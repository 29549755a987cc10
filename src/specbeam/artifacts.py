"""Versioned JSON policy files, the one artifact format, and model digests.

save_policy and load_policy hold the whole format. A policy embeds the
config hash it was produced under and a model digest (sha256 over the
assembled tensors), so stale or mismatched files are rejected at load
time. JSON floats round-trip exactly (shortest-repr encoding), so a
reloaded policy reproduces decisions bit-for-bit; numpy values in metadata
and manifests are written as their Python equivalents.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .pbvi import Policy
from .pomdp import PomdpModel

POLICY_FORMAT = "specbeam-policy"
FORMAT_VERSION = 1
_HEADER = (("config_hash", str), ("model_digest", str), ("agent", str), ("p", float))


class ArtifactError(ValueError):
    """Unreadable, unversioned, or mismatched artifact."""


def _plain(obj: Any) -> Any:
    """json's fallback for numpy arrays and scalars: their Python values."""
    return obj.tolist()


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
        "metadata": policy.metadata,
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"), default=_plain)
    with open(path, "w") as fh:
        fh.write(blob + "\n")
    return hashlib.sha256(blob.encode()).hexdigest()


def load_policy(path: str, *, expect_config_hash: str | None = None,
                expect_model_digest: str | None = None) -> tuple[Policy, dict]:
    """Load a policy artifact; returns (policy, header metadata)."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: unreadable artifact ({exc})") from exc
    if not isinstance(record, dict) or record.get("format") != POLICY_FORMAT:
        raise ArtifactError(f"{path}: not a {POLICY_FORMAT} artifact")
    if record.get("version") != FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unsupported {POLICY_FORMAT} version "
            f"{record.get('version')!r} (expected {FORMAT_VERSION})")
    for key, kind in (*_HEADER, ("metadata", dict)):
        if type(record.get(key)) is not kind:
            raise ArtifactError(f"{path}: field {key!r} is missing or not a {kind.__name__}")
    for key, want in (("config_hash", expect_config_hash),
                      ("model_digest", expect_model_digest)):
        if want is not None and record[key] != want:
            raise ArtifactError(f"{path}: {key.replace('_', ' ')} mismatch "
                                f"({record[key][:12]}… vs expected {want[:12]}…)")
    try:
        alpha, acts = np.array(record.get("alpha"), dtype=float), np.array(record.get("actions"))
    except (TypeError, ValueError):         # ragged rows, strings, objects
        alpha = acts = np.array(np.nan)
    if alpha.ndim != 2 or not alpha.size or not np.isfinite(alpha).all():
        raise ArtifactError(f"{path}: field 'alpha' is not a finite 2-D float array")
    if acts.dtype.kind != "i" or acts.shape != alpha.shape[:1]:
        raise ArtifactError(f"{path}: field 'actions' is not one integer per alpha row")
    policy = Policy(alpha=alpha, actions=acts, metadata=record["metadata"])
    header = {k: record[k] for k in ("format", "version", *dict(_HEADER))}
    return policy, header


def save_manifest(path: str, fields: dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(fields, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")
