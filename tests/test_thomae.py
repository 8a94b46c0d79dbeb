"""Thomae's formula as an oracle of the a-periods A, Omega = A^-1 B and the
branch-point half-periods (Thomae 1870; Mumford, Tata Lectures on Theta II,
IIIa section 8).

For y^2 = prod_k (x - e_k) over the branch points e_0, .., e_2g (and one at
infinity), eta_k = AJ_inf(e_k) and U = {e_0, e_2, .., e_2g}: for every set
S of branch points with |S o U| = g + 1 (o the symmetric difference),

    theta[eta_S](0)^4 = +-det(A)^2 / (2 pi i)^(2g) prod (e_i - e_j),

the product over the pairs i < j of finite branch points on the same side
of S o U.  Only public names are read: period_matrix's A,
abel_jacobi_between_branch_points, lattice_coords and theta_batch.
"""

from itertools import combinations

import numpy as np
import pytest

from faylab.curves import (HyperellipticCurve, abel_jacobi_between_branch_points,
                           lattice_coords, period_matrix)
from faylab.registry import registry_entries
from faylab.theta import ThetaChar, theta_batch

from conftest import HYPERELLIPTIC


def half_period_coords(v, rm):
    """2 (alpha, beta) of v = alpha + Omega beta, and its largest distance
    from an integer vector."""
    two = 2 * np.concatenate(lattice_coords(v, rm))
    return np.round(two).astype(int), float(np.abs(two - np.round(two)).max())


@pytest.mark.parametrize("cid", HYPERELLIPTIC)
def test_thomae(cid):
    curve = HyperellipticCurve(registry_entries()[cid]["branch_points"], cid)
    assert curve.lead == 1
    A, _, pd = period_matrix(curve)
    e, g, rm, n = curve.branch_points, curve.genus, pd.rm, len(curve.branch_points)
    # AJ_{e_0}(e_k), and AJ_{e_0}(inf), their sum modulo the lattice
    rows = np.array([abel_jacobi_between_branch_points(pd, k, 0) for k in range(n)])
    for row in rows:
        assert half_period_coords(row, rm)[1] < 1e-12
    eta = rows - rows.sum(axis=0)
    U = set(range(0, n, 2))
    expected = np.linalg.det(A) ** 2 / (2j * np.pi) ** (2 * g)
    seen = set()
    # S o U runs over the (g + 1)-sets of the branch points and infinity (n)
    for V in combinations(range(n + 1), g + 1):
        S = (set(V) ^ U) - {n}
        coords, off = half_period_coords(eta[sorted(S)].sum(axis=0), rm)
        assert off < 1e-12
        key = tuple(coords % 2)
        if key in seen:
            continue
        seen.add(key)
        char = ThetaChar(tuple(coords[g:] % 2 / 2), tuple(coords[:g] % 2 / 2))
        value = theta_batch(np.zeros((1, g)), rm, char, tol=1e-15)[0][0]
        prod = np.prod([e[i] - e[j] for side in (set(V), set(range(n + 1)) - set(V))
                        for i, j in combinations(sorted(side - {n}), 2)])
        ratio = value ** 4 / prod / expected
        assert abs(abs(ratio) - 1) < 1e-12, (V, abs(ratio))
        assert min(abs(ratio - 1), abs(ratio + 1)) < 1e-12, (V, ratio)
    assert len(seen) == {1: 3, 2: 10, 3: 35}[g]
