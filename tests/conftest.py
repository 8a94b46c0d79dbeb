import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from faylab.curves import HyperellipticCurve, integrate_path, period_matrix
from faylab.kernels import CurveContext
from faylab.quartic import PlaneQuartic
from faylab.registry import registry_entries

_CTX_CACHE = {}


def build_context(curve_id):
    if curve_id not in _CTX_CACHE:
        entry = registry_entries()[curve_id]
        curve = HyperellipticCurve(entry["branch_points"], curve_id)
        _, _, pd = period_matrix(curve)
        _CTX_CACHE[curve_id] = CurveContext(curve, pd)
    return _CTX_CACHE[curve_id]


@pytest.fixture(scope="session")
def ctx_g1():
    return build_context("lemniscatic")


@pytest.fixture(scope="session")
def ctx_g1_eq():
    return build_context("equianharmonic")


@pytest.fixture(scope="session")
def ctx_g2():
    return build_context("g2-real")


@pytest.fixture(scope="session")
def ctx_g3():
    return build_context("g3-real")


@pytest.fixture(scope="session")
def fermat():
    entry = registry_entries()["fermat"]
    return PlaneQuartic(entry["coefficients"], "fermat")


@pytest.fixture(scope="session")
def quartic_generic():
    entry = registry_entries()["quartic-generic"]
    return PlaneQuartic(entry["coefficients"], "quartic-generic")


#: far points for two-path checks, in units of the branch locus's extent
_FAR = (6.0 + 3.0j, -5.0 + 4.0j, 2.0 - 6.0j, -4.0 - 5.0j)


def far_path_aj(periods, Q, P):
    """A^-1 times the integral along the polygon Q -> F -> P, continued from
    Q's sheet, and the point over P.x where it lands; F is the first far
    point whose two edges keep 0.1 min_gap clear of every branch point
    (None if none does)."""
    c = periods.curve
    e = c.branch_points
    centre, extent = e.mean(), np.abs(e - e.mean()).max() + c.min_gap
    for far in _FAR:
        F = centre + extent * far
        if polygon_clearance([Q.x, F, P.x], e) >= 0.1 * c.min_gap:
            (vec,), (ys,) = integrate_path(c, [[Q.x, F, P.x]], [Q.y(c)], 32)
            landed = P if abs(ys[-1] - P.y(c)) < abs(ys[-1] + P.y(c)) else P.involution()
            return periods.A_inv @ vec, landed
    return None


def polygon_clearance(path, points):
    """Least distance from `points` to the polygon `path`."""
    d = np.inf
    for a, b in zip(path[:-1], path[1:]):
        t = np.clip(((points - a) * np.conj(b - a)).real
                    / max(abs(b - a) ** 2, 1e-300), 0.0, 1.0)
        d = min(d, np.abs(a + t * (b - a) - points).min())
    return d
