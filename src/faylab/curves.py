"""Hyperelliptic curves of genus 1-3: period matrices, Abel-Jacobi maps,
theta characteristics and degree-(g-1) line bundles as Jacobian points.

Curve model: y^2 = lead * prod_k (x - e_k) over an odd number 2g+1 of
finite branch points (one branch point at infinity).  Even-degree input
models are converted by a Moebius change of variable.  All contour work
is done on closed polygonal paths in the x-plane with continuous
analytic continuation of y (no branch-cut bookkeeping).

One routine, `integrate_path`, continues y through the Gauss-Legendre
nodes of a polygon and integrates along it; every period, crossing sheet
match and Abel-Jacobi integral is one call of it.

Abel-Jacobi integrals run along hub paths: from a hub on a circle about
the branch point nearest P, round it to the angle of P, then straight out
to P.  AJ from e_0 to each e_k is chained once across neighbouring pairs,
so AJ(P) - AJ(base) is two hub paths and two cached constants.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .theta import (RiemannMatrix, theta, theta_batch, theta_gradient,
                    odd_theta_chars)


class CurveError(Exception):
    pass


class BranchPointCollision(CurveError):
    pass


class PathTooCloseToBranchPoint(CurveError):
    pass


class PathTooLong(CurveError):
    pass


class NotSymplectic(CurveError):
    pass


class NoNonsingularOddChar(CurveError):
    pass


class RejectionBudgetExceeded(CurveError):
    pass


# ---------------------------------------------------------------------------
# curve model


class HyperellipticCurve:
    """y^2 = lead * prod(x - e_k), finite branch points e_k, genus 1-3."""

    def __init__(self, branch_points, curve_id="custom"):
        pts = np.asarray(branch_points, dtype=complex)
        if pts.ndim != 1 or len(pts) < 3:
            raise ValueError("need at least 3 branch points")
        self.curve_id = curve_id
        self.lead = 1.0 + 0.0j
        if len(pts) % 2 == 0:
            pts = self._to_odd_model(pts)
        if len(pts) not in (3, 5, 7):
            raise ValueError("genus must be 1, 2 or 3")
        order = np.lexsort((pts.imag, pts.real))
        self.branch_points = pts[order]
        d = np.abs(self.branch_points[:, None] - self.branch_points[None, :])
        np.fill_diagonal(d, np.inf)
        self.min_gap = float(d.min())
        if self.min_gap <= 1e-8:
            raise BranchPointCollision(
                f"branch points closer than 1e-8 (min gap {self.min_gap:.2e})")
        self.genus = (len(self.branch_points) - 1) // 2

    def _to_odd_model(self, pts):
        # send the branch point with the largest clearance to infinity:
        # t = 1/(x - e*), y -> y t^(g+1) turns the even model into an odd
        # one with leading coefficient prod(e* - e_k).
        d = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        star = int(np.argmax(d.min(axis=1)))
        e_star = pts[star]
        rest = np.delete(pts, star)
        self.lead = complex(np.prod(e_star - rest))
        return 1.0 / (rest - e_star)

    def f(self, x):
        x = np.asarray(x, dtype=complex)
        out = np.full(x.shape, self.lead, dtype=complex)
        for e in self.branch_points:
            out = out * (x - e)
        return out

    def y_principal(self, x):
        return np.sqrt(self.f(x))

    def dist_to_branch(self, x):
        x = np.asarray(x, dtype=complex)
        return np.abs(x[..., None] - self.branch_points).min(axis=-1)

    def __repr__(self):
        return f"HyperellipticCurve({self.curve_id!r}, g={self.genus})"


@dataclass(frozen=True)
class CurvePoint:
    """Point (x, y) on the curve; sheet picks y = sheet * principal sqrt."""

    x: complex
    sheet: int

    def __post_init__(self):
        if self.sheet not in (1, -1):
            raise ValueError("sheet must be +1 or -1")

    def y(self, curve):
        return self.sheet * curve.y_principal(self.x)

    def involution(self):
        return CurvePoint(self.x, -self.sheet)

    def key(self):
        return (round(self.x.real, 12), round(self.x.imag, 12), self.sheet)


def make_point(curve, x, sheet):
    p = CurvePoint(complex(x), int(sheet))
    if curve.dist_to_branch(np.array([p.x]))[0] <= 1e-6:
        raise PathTooCloseToBranchPoint(f"point {x} within 1e-6 of a branch point")
    return p


def lattice_coords(z, rm: RiemannMatrix):
    """Real coordinates (alpha, beta) with z = alpha + Omega beta."""
    z = np.asarray(z, dtype=complex)
    beta = rm.imag_inv @ z.imag
    alpha = z.real - rm.omega.real @ beta
    return alpha, beta


# ---------------------------------------------------------------------------
# analytic continuation of y along polygonal paths

#: most quadrature nodes of one path (a registry cycle at order 256: ~11,000)
MAX_PATH_NODES = 2**21


@functools.lru_cache(maxsize=None)
def _gl_nodes(order):
    return np.polynomial.legendre.leggauss(order)


def integrate_path(curve, vertices, y0, order=32):
    """Integrate (1, x, .., x^(g-1)) dx / y along a polygonal path, with
    y = y0 at vertices[0]; returns (integrals, y at every vertex).

    Each edge is cut into Gauss-Legendre panels no wider than half its
    clearance dmin from the branch points (an edge within 1e-6 of one is
    refused, and a path of more than MAX_PATH_NODES nodes raises
    PathTooLong before any node is laid).  y is continued through every
    vertex and node of the path in one pass: y_{j+1} = y_j sqrt(f_{j+1} /
    f_j), the square root taken as exp(log / 2) of a ratio that must keep
    |delta arg f| <= pi/2 and its modulus in [0.1, 10] (else
    PathTooCloseToBranchPoint).  That test cannot fail at order >= 16:
    consecutive points are at most 0.0475 dmin apart, so each of the at
    most 7 factors x - e_k of f turns by less than 0.05 rad and changes
    modulus by less than 5 % per step.
    """
    z = np.asarray(vertices, dtype=complex)
    za, seg, e = z[:-1, None], (z[1:] - z[:-1])[:, None], curve.branch_points
    # each branch point's distance to its foot on each edge
    t = ((e - za) / np.where(seg == 0, 1, seg)).real.clip(0.0, 1.0)
    dmin = np.abs(za + t * seg - e).min(axis=1)
    if (dmin <= 1e-6).any():
        raise PathTooCloseToBranchPoint(
            f"edge {np.argmax(dmin <= 1e-6)} within 1e-6 of a branch point")
    panels = np.ceil(np.abs(seg[:, 0]) / (0.5 * dmin)).astype(int)
    if panels.sum() * order > MAX_PATH_NODES:
        raise PathTooLong(f"path needs {panels.sum() * order} quadrature nodes, "
                          f"more than {MAX_PATH_NODES}")
    nodes, weights = _gl_nodes(order)
    xs, ws = [z[:1]], [np.zeros(1)]     # vertices carry weight 0
    for za, zb, n in zip(z[:-1], z[1:], panels):
        ts = (np.arange(n)[:, None] + 0.5 * (nodes + 1.0)) / max(n, 1)
        xs += [za + ts.ravel() * (zb - za), np.array([zb])]
        ws += [np.tile(weights, n) * (0.5 * (zb - za) / max(n, 1)), np.zeros(1)]
    x, w = np.concatenate(xs), np.concatenate(ws)
    fx = curve.f(x)
    ratios = fx[1:] / fx[:-1]
    modulus = np.abs(ratios)
    if np.any((ratios.real < 0) | (modulus > 10.0) | (modulus < 0.1)):
        raise PathTooCloseToBranchPoint("continuation step too coarse for f")
    y = y0 * np.exp(np.concatenate([[0.0], np.cumsum(0.5 * np.log(ratios))]))
    return (x ** np.arange(curve.genus)[:, None] / y) @ w, y[w == 0]


# ---------------------------------------------------------------------------
# homology basis: stadium a-cycles, channel b-cycles


@dataclass
class Cycle:
    vertices: list           # closed polygon, vertices[0] == vertices[-1]
    y_values: np.ndarray = None   # continued y at each vertex
    integral: np.ndarray = None   # integral of the differential basis

    def reversed(self):
        return Cycle(self.vertices[::-1], self.y_values[::-1], -self.integral)


def _close(poly):
    return poly + [poly[0]]


def _stadium(p, q, margin, height):
    """Rectangle with margins around the segment [p, q], counterclockwise."""
    u = (q - p) / abs(q - p)
    n = 1j * u
    return [p - margin * u + height * n,
            q + margin * u + height * n,
            q + margin * u - height * n,
            p - margin * u - height * n]


def _build_cycles(curve):
    """a_k around cut k = [e_{2k-1}, e_{2k}]; b_k through cut k and the
    final cut (the ray from e_{2g+1} to +infinity), enclosing the branch
    points e_{2k} .. e_{2g+1}."""
    e = curve.branch_points
    g = curve.genus
    d = curve.min_gap
    im = e.imag
    a_cycles = []
    b_cycles = []
    for k in range(g):
        p, q = e[2 * k], e[2 * k + 1]
        a_cycles.append(Cycle(_close(_stadium(p, q, 0.25 * d, 0.3 * d))))
    e_last = e[-1]
    for k in range(g):
        p, q = e[2 * k], e[2 * k + 1]
        mu = 0.5 * (p + q)
        nhat = 1j * (q - p) / abs(q - p)
        eps = 0.2 * d
        yt = im.max() + (0.5 + 0.3 * (g - 1 - k)) * d
        yb = im.min() - (0.5 + 0.3 * (g - 1 - k)) * d
        rho = e_last + (0.35 + 0.3 * (g - 1 - k)) * d
        p1 = mu + eps * nhat
        p6 = mu - eps * nhat
        poly = [p1,
                complex(p1.real, yt),
                complex(rho.real, yt),
                complex(rho.real, yb),
                complex(p6.real, yb),
                p6]
        b_cycles.append(Cycle(_close(poly)))
    return a_cycles, b_cycles


def _attach_sheets(curve, cycle, order):
    """Continue y around the polygon from the principal value at vertex 0
    and integrate the differential basis along it."""
    y0 = curve.y_principal(np.array([cycle.vertices[0]]))[0]
    cycle.integral, ys = integrate_path(curve, cycle.vertices, y0, order)
    cycle.y_values = ys
    # closed on the surface: y returns to its start
    if abs(ys[-1] - ys[0]) > 1e-8 * abs(ys[0]):
        raise NotSymplectic("cycle does not close on the surface")


def _segment_crossing(a0, a1, b0, b1):
    """Transversal crossing of open segments; returns (t, s, sign) or None."""
    d1 = a1 - a0
    d2 = b1 - b0
    denom = d1.real * d2.imag - d1.imag * d2.real
    if abs(denom) < 1e-14 * (abs(d1) * abs(d2) + 1e-300):
        return None
    w = b0 - a0
    t = (w.real * d2.imag - w.imag * d2.real) / denom
    s = (w.real * d1.imag - w.imag * d1.real) / denom
    if not (1e-9 < t < 1 - 1e-9 and 1e-9 < s < 1 - 1e-9):
        return None
    return t, s, 1 if denom > 0 else -1


def _intersection_number(curve, c1: Cycle, c2: Cycle):
    """Signed sheet-matched crossing count of two cycles on the surface."""
    total = 0
    for i in range(len(c1.vertices) - 1):
        a0, a1 = c1.vertices[i], c1.vertices[i + 1]
        for j in range(len(c2.vertices) - 1):
            b0, b1 = c2.vertices[j], c2.vertices[j + 1]
            hit = _segment_crossing(a0, a1, b0, b1)
            if hit is None:
                continue
            t, _, sign = hit
            zc = a0 + t * (a1 - a0)
            y1 = integrate_path(curve, [a0, zc], c1.y_values[i])[1][-1]
            y2 = integrate_path(curve, [b0, zc], c2.y_values[j])[1][-1]
            if abs(y1 - y2) < abs(y1 + y2):
                total += sign
    return total


def _intersection_matrix(curve, cycles):
    M = np.zeros((len(cycles), len(cycles)), dtype=int)
    for i, j in itertools.combinations(range(len(cycles)), 2):
        M[i, j] = _intersection_number(curve, cycles[i], cycles[j])
    return M - M.T


# ---------------------------------------------------------------------------
# periods


class PeriodData:
    """The inverse A^-1 of the a-period matrix and the Riemann matrix
    Omega = A^-1 B over the symplectic basis."""

    def __init__(self, curve, A, rm):
        self.curve = curve
        self.A_inv = np.linalg.inv(A)
        self.rm = rm
        self._hubs = {}         # k -> (y at h_k, A^-1 int_{e_k}^{h_k})
        self._branch = None     # row k: A^-1 int_{e_0}^{e_k}
        self._base_aj = {}      # base.key() -> A^-1 int_{e_0}^base


def period_matrix(curve: HyperellipticCurve, quadrature_order=32):
    """Integrate x^(i-1) dx / y over the homology basis; Omega = A^-1 B.

    The constructed basis is verified combinatorially: the sheet-matched
    crossing matrix must equal the standard symplectic pairing (b-cycles
    are flipped as needed to make a_k . b_k = +1).
    """
    if not 16 <= quadrature_order <= 256:
        raise ValueError("quadrature_order must be between 16 and 256")
    g = curve.genus
    a_cycles, b_cycles = _build_cycles(curve)
    for c in a_cycles + b_cycles:
        _attach_sheets(curve, c, quadrature_order)
    M = _intersection_matrix(curve, a_cycles + b_cycles)
    # normalize orientations: reversing b_k with a_k . b_k = -1 makes it +1
    signs = M[range(g), range(g, 2 * g)]
    for k in range(g):
        if abs(signs[k]) != 1:
            raise NotSymplectic(f"a_{k}.b_{k} = {signs[k]}")
    b_cycles = [c if s == 1 else c.reversed() for c, s in zip(b_cycles, signs)]
    D = np.diag(np.concatenate([np.ones(g, dtype=int), signs]))
    M = D @ M @ D
    J = np.block([[np.zeros((g, g), dtype=int), np.eye(g, dtype=int)],
                  [-np.eye(g, dtype=int), np.zeros((g, g), dtype=int)]])
    if not np.array_equal(M, J):
        raise NotSymplectic(f"intersection pairing is not standard:\n{M}")
    A = np.stack([c.integral for c in a_cycles], axis=1)
    B = np.stack([c.integral for c in b_cycles], axis=1)
    omega = np.linalg.solve(A, B)
    sym_res = np.abs(omega - omega.T).max() / max(np.abs(omega).max(), 1.0)
    if sym_res > 1e-8:
        raise NotSymplectic(f"Omega symmetry residual {sym_res:.2e}")
    rm = RiemannMatrix(0.5 * (omega + omega.T))
    return A, B, PeriodData(curve, A, rm)


# ---------------------------------------------------------------------------
# Abel-Jacobi


def _nearest_branch(curve, x):
    return int(np.argmin(np.abs(curve.branch_points - x)))


def _hub_path(curve, k, x, turns=0):
    """Polygon from the hub h_k = e_k + rho_k, rho_k half the distance from
    e_k to the next branch point, along |z - e_k| = rho_k in chords of at
    most a quarter turn to the angle of x (plus `turns` full turns), then
    straight to x.  If e_k is a nearest branch point of x, the path keeps
    min(0.7 rho_k, |x - e_k|) clear of all: within rho_k of e_k the rest
    are rho_k away, and chords keep rho_k cos(pi/4), the leg |x - e_k| from
    e_k; beyond, the open disk about a leg point z of radius |z - e_k| lies
    in the one about x of radius |x - e_k|, which holds no branch point."""
    e = curve.branch_points
    rho = 0.5 * np.sort(np.abs(e - e[k]))[1]
    angle = np.angle(x - e[k]) + 2.0 * math.pi * turns
    n = max(1, math.ceil(abs(angle) / (0.5 * math.pi)))
    return list(e[k] + rho * np.exp(1j * angle * np.arange(n + 1) / n)) + [x]


def _from_hub(periods, P, k):
    """A^-1 int_{e_k}^P along the hub path.  The involution negates integrals
    from e_k, so the hub constant A^-1 int_{e_k}^{h_k} (principal y) is half
    a full turn from iota h_k, and a path landing on iota P gives -AJ(P)."""
    curve = periods.curve
    if k not in periods._hubs:
        h = _hub_path(curve, k, curve.branch_points[k])[0]   # the hub h_k
        y_h = complex(curve.y_principal(h))
        loop, _ = integrate_path(curve, _hub_path(curve, k, h, turns=1), -y_h)
        periods._hubs[k] = y_h, 0.5 * (periods.A_inv @ loop)
    y_h, c_k = periods._hubs[k]
    vec, ys = integrate_path(curve, _hub_path(curve, k, P.x), y_h)
    y = P.y(curve)
    for sign in (1, -1):
        if abs(ys[-1] - sign * y) <= 1e-6 * abs(y):
            return sign * (c_k + periods.A_inv @ vec)
    raise CurveError("sheet tracking did not land on the requested point")


def _branch_constants(periods):
    """Row k: A^-1 int_{e_0}^{e_k}, built on first use by a chain from e_0
    across each pair (e_j, e_k) whose midpoint m has no nearer branch point
    (these include the nearest-neighbour tree, so every k is reached):
    int_{e_0}^{e_k} = int_{e_0}^{e_j} + int_{e_j}^m - int_{e_k}^m.  Each is
    reduced into the cell [-1/4, 3/4)^2g of lattice coordinates."""
    if periods._branch is None:
        e, rm = periods.curve.branch_points, periods.rm
        consts, reached = {0: np.zeros(periods.curve.genus, dtype=complex)}, [0]
        for j in reached:
            for k in range(len(e)):
                m = 0.5 * (e[j] + e[k])
                if k not in consts and np.abs(e - m).min() >= (1 - 1e-9) * abs(m - e[j]):
                    M = CurvePoint(complex(m), 1)
                    v = consts[j] + _from_hub(periods, M, j) - _from_hub(periods, M, k)
                    al, be = lattice_coords(v, rm)
                    consts[k] = v - np.floor(al + 0.25) - rm.omega @ np.floor(be + 0.25)
                    reached.append(k)
        periods._branch = np.array([consts[k] for k in range(len(e))])
    return periods._branch


def abel_jacobi(periods: PeriodData, P: CurvePoint, base: CurvePoint):
    """A^-1 int_base^P = AJ_{e_0}(P) - AJ_{e_0}(base), the base term cached."""
    if base.key() not in periods._base_aj:
        periods._base_aj[base.key()] = abel_jacobi_from_branch(periods, base)
    return abel_jacobi_from_branch(periods, P) - periods._base_aj[base.key()]


def abel_jacobi_from_branch(periods: PeriodData, P: CurvePoint, branch_index=0):
    """A^-1 int_{e_k}^P, k = branch_index, through the branch point nearest P."""
    n = _nearest_branch(periods.curve, P.x)
    consts = _branch_constants(periods)
    return consts[n] - consts[branch_index] + _from_hub(periods, P, n)


def abel_jacobi_between_branch_points(periods: PeriodData, j, k):
    """A^-1 int_{e_k}^{e_j}."""
    return _branch_constants(periods)[j] - _branch_constants(periods)[k]


# ---------------------------------------------------------------------------
# theta characteristics of the period matrix


def theta_scale(rm: RiemannMatrix):
    """Median |theta| over 32 fixed pseudo-random points; a scale for
    near-divisor thresholds."""
    rng = np.random.default_rng(20240718)
    u = rng.random((32, rm.g))
    v = rng.random((32, rm.g))
    Z = u + v @ rm.omega.T
    vals, _, _, _ = theta_batch(Z, rm, tol=1e-8)
    return float(np.median(np.abs(vals)))


def find_odd_char(rm: RiemannMatrix):
    """First odd half-characteristic with a non-singular gradient at 0 (norm
    above 1e-6 of the largest gradient seen so far, or of 1)."""
    zero = np.zeros(rm.g)
    best = None
    max_grad = 0.0
    for ch in odd_theta_chars(rm.g):
        grad = theta_gradient(zero, rm, ch, tol=1e-10)
        norm = float(np.linalg.norm(grad))
        max_grad = max(max_grad, norm)
        if best is None and norm > 1e-6 * max(1.0, max_grad):
            best = ch
    if best is None:
        raise NoNonsingularOddChar("all odd characteristics have tiny gradients")
    return best


def random_line_bundle(rm: RiemannMatrix, rng, scale, budget=1000):
    """A degree-(g-1) line bundle off the theta divisor (h^0 = 0), as its
    theta point e: sampled uniformly in the fundamental parallelotope until
    |theta(e)| clears 1e-4 * scale."""
    for _ in range(budget):
        u = rng.random(rm.g)
        v = rng.random(rm.g)
        e = u + rm.omega @ v
        val = theta(e, rm, tol=1e-10).value
        if abs(val) > 1e-4 * scale:
            return e
    raise RejectionBudgetExceeded("no bundle off the theta divisor in budget")


def vanishing_locus_check(periods: PeriodData, e, x: CurvePoint, divisor,
                          controls, base: CurvePoint):
    """Evaluate t -> theta(AJ(t) - AJ(x) + e) on expected zeros and controls.

    Returns (max |theta| over divisor points, min |theta| over controls).
    """
    rm = periods.rm
    aj_x = abel_jacobi(periods, x, base)
    args = []
    for t in list(divisor) + list(controls):
        aj_t = abel_jacobi(periods, t, base)
        args.append(aj_t - aj_x + np.asarray(e, dtype=complex))
    vals, _, _, _ = theta_batch(np.array(args), rm, tol=1e-10)
    nz = len(divisor)
    max_zero = float(np.abs(vals[:nz]).max()) if nz else 0.0
    min_ctrl = float(np.abs(vals[nz:]).min()) if len(controls) else math.inf
    return max_zero, min_ctrl
