"""Identity reports and their newline-delimited JSON serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass
class IdentityReport:
    identity_id: str
    curve_id: str
    trials: int
    completed: int
    max_abs_residual: float
    max_rel_residual: float
    seed: int
    tol: float
    passed: bool
    elapsed_ms: int
    #: "<exception class>: <message>" of a hard failure, else ""; not
    #: part of the ndjson record
    failure: str = ""


def report_record(r: IdentityReport) -> dict:
    """The ndjson record of a report, its fields in their fixed order."""
    return {
        "identity": r.identity_id,
        "curve": r.curve_id,
        "trials": r.trials,
        "completed": r.completed,
        "max_abs_residual": float(r.max_abs_residual),
        "max_rel_residual": float(r.max_rel_residual),
        "seed": r.seed,
        "tol": float(r.tol),
        "pass": bool(r.passed),
        "elapsed_ms": r.elapsed_ms,
    }


def format_report_line(r: IdentityReport) -> str:
    # shortest round-trip floats (json uses repr)
    return json.dumps(report_record(r))


def write_report(reports, path):
    """Write one JSON record per line; empty list gives an empty file."""
    with open(path, "w") as fh:
        for r in reports:
            fh.write(format_report_line(r) + "\n")
