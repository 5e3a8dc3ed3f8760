"""Output check for one pipeline operation.

An operation's result is reduced to a summary: each attractor's steady
start, every key's select r, the retained key ids with their select and
retain r, the forecast predictions (or the no-forecast flag), and the
skill r and Heidke score. The select r of every key covers the fit and
select stages even when no key is retained.

Each summary must satisfy the pipeline's invariants and, at the default
seed, match the reference stored with the benchmark.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Float64 rounding across BLAS builds: a few ulps on sums of ~1e3 terms.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _float(v) -> float | None:
    return None if v is None else float(v)


def summarize(library, keys_by_attractor, retained, forecast, skill) -> dict:
    """JSON-ready summary of one operation's results."""
    return {
        "steady_start": {a.label: int(a.steady_start) for a in library},
        "select_r": {k.key_id: float(k.correlations["select"])
                     for keys in keys_by_attractor.values() for k in keys},
        "retained": [[k.key_id, float(k.correlations["select"]),
                      float(k.correlations["retain"])] for k in retained],
        "no_forecast": bool(forecast.no_forecast),
        "predictions": None if forecast.no_forecast else
        [[float(v) for v in row] for row in forecast.predictions],
        "skill_r": _float(skill.pearson_r) if skill is not None else None,
        "heidke": _float(skill.heidke) if skill is not None else None,
    }


def summarize_result(result) -> dict:
    return summarize(result.library, result.keys_by_attractor, result.retained,
                     result.forecast, result.skill)


def invariant_errors(summary: dict, retention_threshold: float) -> list[str]:
    """Violations of the pipeline's output invariants."""
    errors = []
    if not summary["no_forecast"]:
        preds = np.asarray(summary["predictions"], dtype=float)
        if preds.size == 0 or not np.all(np.isfinite(preds)):
            errors.append("forecast predictions are not all finite")
        if not summary["retained"]:
            errors.append("a forecast was made from no retained key")
    elif summary["retained"]:
        errors.append("keys were retained but no forecast was made")
    rs = list(summary["select_r"].values())
    if summary["skill_r"] is not None:
        rs.append(summary["skill_r"])
    for key_id, select_r, retain_r in summary["retained"]:
        if not retain_r > retention_threshold:
            errors.append(f"retained key {key_id} has retain r {retain_r} "
                          f"<= threshold {retention_threshold}")
        rs += [select_r, retain_r]
    if any(not (math.isfinite(r) and abs(r) <= 1.0) for r in rs):
        errors.append("a correlation lies outside [-1, 1]")
    return errors


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def reference_errors(summary: dict, workload: str) -> list[str]:
    """Mismatch against the stored default-seed reference, if any."""
    path = reference_path(workload)
    if not path.exists():
        return [f"no reference summary at {path.name}"]
    reference = json.loads(path.read_text())
    if not _close(summary, reference):
        return [f"summary differs from the reference in {path.name}"]
    return []


def write_reference(summary: dict, workload: str) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return path


class OutputCheck:
    """Checks every operation of one run; counts the ones that fail.

    An operation fails when it raised, when its summary breaks an
    invariant, when it differs from the run's first summary, or, at the
    default seed, when it differs from the stored reference.
    """

    def __init__(self, workload: str, retention_threshold: float,
                 against_reference: bool):
        self.workload = workload
        self.threshold = retention_threshold
        self.against_reference = against_reference
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, summary: dict | None, error: str | None = None) -> None:
        self.attempted += 1
        errors = [error] if error else []
        if summary is not None:
            errors += invariant_errors(summary, self.threshold)
            if self.first is None:
                self.first = summary
                if self.against_reference:
                    errors += reference_errors(summary, self.workload)
            elif summary != self.first:
                errors.append("summary differs from the run's first operation")
        if errors:
            self.failed += 1
            self.errors += errors
