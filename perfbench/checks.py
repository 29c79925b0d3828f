"""Output checks and digests over one run's output directory."""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
from pathlib import Path

EFFICIENCY_TOL = 1e-9


def digests(directory: Path, skip=("manifest.json",)) -> dict[str, str]:
    """sha256 of every file in ``directory`` except ``skip``, by name."""
    out = {}
    for p in sorted(directory.iterdir()):
        if p.is_file() and p.name not in skip:
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _attribution_rows(out: Path) -> list[dict]:
    with open(out / "attributions.csv", "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def efficiency_failures(out: Path) -> list[str]:
    """(instance, horizon) pairs where |sum phi + base_value - model_output| >= 1e-9."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for r in _attribution_rows(out):
        groups.setdefault((r["instance_id"], r["horizon"]), []).append(r)
    if not groups:
        return ["attributions.csv has no rows"]
    bad = []
    for (pid, horizon), rows in groups.items():
        gap = abs(
            sum(float(r["phi"]) for r in rows)
            + float(rows[0]["base_value"]) - float(rows[0]["model_output"])
        )
        if not gap < EFFICIENCY_TOL:
            bad.append(f"efficiency gap {gap:.3g} for {pid}/{horizon}")
    return bad


def shapley_se_mean(out: Path) -> float:
    """Mean ``std_err`` over every row of attributions.csv."""
    return statistics.fmean(float(r["std_err"]) for r in _attribution_rows(out))


def mcc_sum(out: Path) -> float:
    """Sum over horizons of the test-set ``overall_multiclass`` MCC."""
    with open(out / "metrics.csv", "r", newline="", encoding="utf-8") as fh:
        return sum(
            float(r["value"]) for r in csv.DictReader(fh)
            if r["class"] == "overall_multiclass" and r["metric"] == "mcc"
        )


def manifest_error(out: Path) -> str | None:
    """The manifest's error, or a message if the manifest is missing."""
    path = out / "manifest.json"
    if not path.exists():
        return "manifest.json missing"
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get("error")
