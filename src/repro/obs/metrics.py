"""Metrics export: one stable JSON schema plus a Prometheus text form.

Everything the repo measures — harness runs, fuzzing campaigns, the
``BENCH_*.json`` perf trajectory — serializes through this module so
downstream tooling can rely on one shape::

    {
      "schema": "repro.obs.metrics/v2",
      "name": "<run or bench name>",
      "timestamp": <unix seconds, float>,
      "config": <str or flat dict describing the configuration>,
      "metrics": {<str>: <number> | {<str>: <number> | {...}}, ...},
      "labels": {<str>: <str>, ...}
    }

``metrics`` values are numbers or nested string-keyed dicts of numbers
(arbitrary depth); :func:`validate_document` enforces exactly that, and
:func:`to_prometheus` flattens the nesting with ``_`` joins into
``repro_<metric>{name=...,config=...} <value>`` exposition lines.

``labels`` is a *flat* string-to-string mapping (``{}`` when there is
none) for identity that is not a measurement: the engine that produced
a run ("fastpath"/"reference") and the
:class:`~repro.obs.events.TraceContext` correlation ids (tenant, job,
shard, seed).  ``to_prometheus`` merges them into every exposition
line's label set.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import fields
from typing import Any, Dict, List, Optional, Union

#: the schema every document is written and read in
SCHEMA_V2 = "repro.obs.metrics/v2"


# ---------------------------------------------------------------------------
# Converters
# ---------------------------------------------------------------------------

def stats_to_dict(stats) -> Dict[str, Any]:
    """Flatten a :class:`repro.vm.stats.RunStats` (plus its attached
    :class:`IFPUnitStats`) into schema-compatible metrics."""
    metrics: Dict[str, Any] = {}
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[f.name] = value
    metrics["total_instructions"] = stats.total_instructions
    metrics["new_instructions"] = stats.new_instructions
    if stats.ifp is not None:
        ifp: Dict[str, Any] = {}
        for f in fields(stats.ifp):
            value = getattr(stats.ifp, f.name)
            if isinstance(value, (int, float)):
                ifp[f.name] = value
        metrics["ifp"] = ifp
    return metrics


def metrics_document(name: str, config: Union[str, Dict[str, Any]],
                     metrics: Dict[str, Any],
                     timestamp: Optional[float] = None,
                     labels: Optional[Dict[str, str]] = None
                     ) -> Dict[str, Any]:
    """Assemble one schema-v2 metrics document (timestamp defaults to
    now, ``labels`` to none)."""
    return {
        "schema": SCHEMA_V2,
        "name": name,
        "timestamp": time.time() if timestamp is None else timestamp,
        "config": config,
        "metrics": metrics,
        "labels": dict(labels or {}),
    }


# ---------------------------------------------------------------------------
# Validation (hand-rolled: no jsonschema dependency in the container)
# ---------------------------------------------------------------------------

def _check_metrics(value: Any, path: str, errors: List[str]) -> None:
    if isinstance(value, bool) or not isinstance(
            value, (int, float, dict)):
        errors.append(f"{path}: expected number or mapping, "
                      f"got {type(value).__name__}")
        return
    if isinstance(value, dict):
        for key, nested in value.items():
            if not isinstance(key, str):
                errors.append(f"{path}: non-string key {key!r}")
                continue
            _check_metrics(nested, f"{path}.{key}", errors)


def validate_document(doc: Any) -> List[str]:
    """Return a list of schema violations; empty means valid."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document: expected object, got {type(doc).__name__}"]
    schema = doc.get("schema")
    if schema != SCHEMA_V2:
        errors.append(f"schema: expected {SCHEMA_V2!r}, got {schema!r}")
    if not isinstance(doc.get("name"), str) or not doc.get("name"):
        errors.append("name: expected non-empty string")
    timestamp = doc.get("timestamp")
    if isinstance(timestamp, bool) or not isinstance(
            timestamp, (int, float)):
        errors.append("timestamp: expected number")
    config = doc.get("config")
    if not isinstance(config, (str, dict)):
        errors.append("config: expected string or object")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("metrics: expected object")
    else:
        _check_metrics(metrics, "metrics", errors)
    labels = doc.get("labels", {})
    if not isinstance(labels, dict) or any(
            not isinstance(key, str) or not isinstance(value, str)
            for key, value in labels.items()):
        errors.append("labels: expected flat string-to-string mapping")
    allowed = {"schema", "name", "timestamp", "config", "metrics",
               "labels"}
    for key in doc:
        if key not in allowed:
            errors.append(f"{key}: unknown top-level field")
    return errors


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_metrics(path: str, doc: Dict[str, Any]) -> str:
    """Validate and write one document; returns the path."""
    errors = validate_document(doc)
    if errors:
        raise ValueError("invalid metrics document: " + "; ".join(errors))
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_metrics(path: str) -> Dict[str, Any]:
    """Load and validate one document."""
    with open(path) as handle:
        doc = json.load(handle)
    errors = validate_document(doc)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return doc


def _flatten(metrics: Dict[str, Any], prefix: str = ""
             ) -> Dict[str, Union[int, float]]:
    flat: Dict[str, Union[int, float]] = {}
    for key, value in metrics.items():
        name = f"{prefix}_{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(_flatten(value, name))
        else:
            flat[name] = value
    return flat


def _sanitize(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_"
                   for ch in label)


def to_prometheus(doc: Dict[str, Any]) -> str:
    """Render one document in Prometheus exposition text format.

    The document's ``labels`` (engine/correlation) join the per-line
    label set after ``name`` and ``config``.
    """
    config = doc["config"]
    config_label = config if isinstance(config, str) \
        else ",".join(f"{k}={v}" for k, v in sorted(config.items()))
    pairs = [("name", doc["name"]), ("config", config_label)]
    pairs += sorted(doc.get("labels", {}).items())
    labels = "{" + ",".join(
        f'{_sanitize(key)}="{value}"' for key, value in pairs) + "}"
    lines: List[str] = []
    for key, value in sorted(_flatten(doc["metrics"]).items()):
        metric = f"repro_{_sanitize(key)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{labels} {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# BENCH_*.json trajectory
# ---------------------------------------------------------------------------

def bench_path(name: str, directory: Optional[str] = None) -> str:
    """Canonical location of one bench record: ``BENCH_<name>.json`` in
    ``directory``, ``$REPRO_BENCH_DIR``, or the working directory."""
    directory = directory or os.environ.get("REPRO_BENCH_DIR") or "."
    return os.path.join(directory, f"BENCH_{name}.json")


def write_bench(name: str, config: Union[str, Dict[str, Any]],
                metrics: Dict[str, Any],
                directory: Optional[str] = None) -> str:
    """Write one ``BENCH_<name>.json`` record; returns the path."""
    return write_metrics(bench_path(name, directory),
                         metrics_document(name, config, metrics))
