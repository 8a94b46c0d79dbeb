"""Curve registry: builtin JSON entries plus user directories.

Entry formats:
  {"id": ..., "type": "hyperelliptic", "branch_points": [[re, im], ...]}
  {"id": ..., "type": "plane_quartic", "coefficients": {"X0^4": [re, im], ...}}

The FAYLAB_REGISTRY environment variable, if set and not empty, must name
a directory; its *.json files are prepended to (and may shadow) the
builtin registry.
"""

from __future__ import annotations

import cmath
import json
import os
import re
from pathlib import Path

_BUILTIN_DIR = Path(__file__).parent / "registry"

_MONO_RE = re.compile(r"X([012])(?:\^([0-9]+))?$")


class RegistryError(Exception):
    pass


def _parse_monomial(key):
    expo = [0, 0, 0]
    for part in key.split("*"):
        m = _MONO_RE.match(part.strip())
        if not m:
            raise RegistryError(f"bad monomial {key!r}")
        expo[int(m.group(1))] += int(m.group(2) or 1)
    if sum(expo) != 4:
        raise RegistryError(f"monomial {key!r} is not quartic")
    return tuple(expo)


def _check_finite(path, values, what):
    # json accepts NaN and Infinity, which no curve can use
    if not all(cmath.isfinite(v) for v in values):
        raise RegistryError(f"{path}: non-finite {what}")


def _load_entry(path):
    """Parse and check one JSON entry; every defect is a RegistryError."""
    try:
        raw = json.loads(Path(path).read_text())
        kind, cid = raw["type"], raw["id"]
        # "-" is the curve id of the carrier checks, which need no curve
        if not isinstance(cid, str) or cid in ("", "-"):
            raise RegistryError(f"{path}: id must be a non-empty string other "
                                f"than '-', not {cid!r}")
        if kind == "hyperelliptic":
            pts = [complex(re_, im_) for re_, im_ in raw["branch_points"]]
            _check_finite(path, pts, "branch point")
            if not 3 <= len(pts) <= 8:
                raise RegistryError(f"{path}: {len(pts)} branch points, "
                                    "need 3 to 8 (genus 1 to 3)")
            return {"id": cid, "type": kind, "branch_points": pts,
                    "genus": (len(pts) - 1) // 2}
        if kind == "plane_quartic":
            coeffs = {_parse_monomial(k): complex(re_, im_)
                      for k, (re_, im_) in raw["coefficients"].items()}
            _check_finite(path, coeffs.values(), "coefficient")
            return {"id": cid, "type": kind, "coefficients": coeffs, "genus": 3}
    except KeyError as ex:
        raise RegistryError(f"{path}: entry lacks the key {ex}") from None
    except (OSError, TypeError, ValueError, AttributeError) as ex:
        raise RegistryError(f"{path}: malformed entry ({ex})") from None
    raise RegistryError(f"{path}: unknown curve type {kind!r}")


def registry_entries():
    """All registry entries, id -> entry; env-dir entries shadow builtins."""
    dirs = [_BUILTIN_DIR]
    env = os.environ.get("FAYLAB_REGISTRY")
    if env:
        if not Path(env).is_dir():
            raise RegistryError(f"FAYLAB_REGISTRY {env!r} is not a directory")
        dirs.insert(0, Path(env))
    seen = {}
    for d in dirs:
        for path in sorted(d.glob("*.json")):
            entry = _load_entry(path)
            if entry["id"] not in seen:
                seen[entry["id"]] = entry
    return seen


def load_curve_entry(name):
    """Resolve a registry id or a path to a JSON file."""
    entries = registry_entries()
    if name in entries:
        return entries[name]
    if Path(name).is_file():
        return _load_entry(name)
    raise RegistryError(f"unknown curve {name!r}")
