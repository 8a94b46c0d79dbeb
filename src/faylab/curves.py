"""Hyperelliptic curves of genus 1-3: period matrices, Abel-Jacobi maps,
theta characteristics and degree-(g-1) line bundles as Jacobian points.

Curve model: y^2 = lead * prod_k (x - e_k) over an odd number 2g+1 of
finite branch points (one branch point at infinity).  Even-degree input
models are converted by a Moebius change of variable.  All contour work
is done on closed polygonal paths in the x-plane with continuous
analytic continuation of y (no branch-cut bookkeeping).

One routine, `integrate_path`, continues y and integrates: it lays
Gauss-Legendre panels no wider than half each edge's clearance from the
branch points, evaluates f once at every vertex and node of the polygon,
continues y through them with one cumulative sum of half-log ratios, and
returns the integrals and y at every vertex.  Every period, crossing
sheet match and Abel-Jacobi integral, branch-point endpoints included,
is one call of it.
"""

from __future__ import annotations

import functools
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


class NotSymplectic(CurveError):
    pass


class NoNonsingularOddChar(CurveError):
    pass


class RejectionBudgetExceeded(CurveError):
    pass


# ---------------------------------------------------------------------------
# Gauss-Legendre panels

@functools.lru_cache(maxsize=None)
def _gl_nodes(order):
    return np.polynomial.legendre.leggauss(order)


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


def _segment_feet(points, za, zb):
    """For each of `points`, the parameter t in [0, 1] of its nearest point
    on the segment [za, zb] and its distance to the segment."""
    seg = zb - za
    t = np.clip(((points - za) / seg).real, 0.0, 1.0)
    return t, np.abs(za + t * seg - points)


def integrate_path(curve, vertices, y0, order=32):
    """Integrate (1, x, .., x^(g-1)) dx / y along a polygonal path, with
    y = y0 at vertices[0]; returns (integrals, y at every vertex).

    Each edge is cut into Gauss-Legendre panels no wider than half its
    clearance dmin from the branch points (an edge within 1e-6 of one is
    refused).  y is continued through every vertex and node of the path in
    one pass: y_{j+1} = y_j sqrt(f_{j+1} / f_j), the square root taken as
    exp(log / 2) of a ratio that must keep |delta arg f| <= pi/2 and its
    modulus in [0.1, 10] (else PathTooCloseToBranchPoint).  That test
    cannot fail at order >= 16: consecutive points are at most 0.0475 dmin
    apart, so each of the at most 7 factors x - e_k of f turns by less than
    0.05 rad and changes modulus by less than 5 % per step.
    """
    z = np.asarray(vertices, dtype=complex)
    nodes, weights = _gl_nodes(order)
    xs, ws = [z[:1]], [np.zeros(1)]     # vertices carry weight 0
    for za, zb in zip(z[:-1], z[1:]):
        seg = zb - za
        if seg != 0:
            dmin = float(_segment_feet(curve.branch_points, za, zb)[1].min())
            if dmin <= 1e-6:
                raise PathTooCloseToBranchPoint(
                    f"segment [{za:.4g}, {zb:.4g}] within 1e-6 of a branch point")
            n_panels = max(1, int(math.ceil(abs(seg) / (0.5 * dmin))))
            ts = (np.arange(n_panels)[:, None] + 0.5 * (nodes + 1.0)) / n_panels
            xs.append(za + ts.ravel() * seg)
            ws.append(np.tile(weights, n_panels) * (0.5 * seg / n_panels))
        xs.append(np.array([zb]))
        ws.append(np.zeros(1))
    x, w = np.concatenate(xs), np.concatenate(ws)
    fx = curve.f(x)
    ratios = fx[1:] / fx[:-1]
    if np.any((np.abs(np.angle(ratios)) > 0.5 * math.pi)
              | (np.abs(ratios) > 10.0) | (np.abs(ratios) < 0.1)):
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
    n = len(cycles)
    M = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            v = _intersection_number(curve, cycles[i], cycles[j])
            M[i, j] = v
            M[j, i] = -v
    return M


# ---------------------------------------------------------------------------
# periods


class PeriodData:
    """The inverse A^-1 of the a-period matrix and the Riemann matrix
    Omega = A^-1 B over the symplectic basis."""

    def __init__(self, curve, A, rm):
        self.curve = curve
        self.A_inv = np.linalg.inv(A)
        self.rm = rm
        self._branch_aj = {}    # (base.key(), k) -> AJ_base(e_k)


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
    # normalize orientations: a_k . b_k = +1
    for k in range(g):
        v = _intersection_number(curve, a_cycles[k], b_cycles[k])
        if v == -1:
            b_cycles[k] = b_cycles[k].reversed()
        elif v != 1:
            raise NotSymplectic(f"a_{k}.b_{k} = {v}")
    M = _intersection_matrix(curve, a_cycles + b_cycles)
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


def _route(curve, za, zb, detour_seed=0):
    """Polyline from za to zb keeping clear of branch points.

    Straight segments get a perpendicular detour waypoint around any
    branch point they approach too closely; detour side is deterministic
    in detour_seed.
    """
    clear = 0.2 * curve.min_gap
    path = [za, zb]
    for _ in range(12):
        changed = False
        new_path = [path[0]]
        for p, q in zip(path[:-1], path[1:]):
            seg = q - p
            if abs(seg) > 0:
                t, dists = _segment_feet(curve.branch_points, p, q)
                k = int(np.argmin(dists))
                if dists[k] < clear and 0.0 < t[k] < 1.0:
                    e = curve.branch_points[k]
                    n = 1j * seg / abs(seg)
                    side = 1.0 if (detour_seed + k) % 2 == 0 else -1.0
                    off = e - (p + t[k] * seg)
                    if abs(off) > 1e-12:
                        n = -off / abs(off)
                        side = 1.0
                    new_path.append(e + side * n * 2.2 * clear)
                    changed = True
            new_path.append(q)
        path = new_path
        if not changed:
            break
    return path


def _flip_loop(curve, x0):
    """Closed polyline from x0 around the nearest branch point (sheet flip)."""
    k = int(np.argmin(np.abs(curve.branch_points - x0)))
    e = curve.branch_points[k]
    d = np.abs(np.delete(curve.branch_points, k) - e).min()
    r = 0.3 * min(d, abs(x0 - e))
    u = (x0 - e) / abs(x0 - e)
    ring = [e + r * u * np.exp(2j * np.pi * t / 8) for t in range(9)]
    return [x0] + ring + [x0]


def abel_jacobi(periods: PeriodData, P: CurvePoint, base: CurvePoint,
                detour_seed=0):
    """A^-1 int_base^P of the differential vector, on an auto-routed path.

    When the routed path lands on iota P instead, reflect through the branch
    point e_k nearest P: iota negates integrals from e_k, so
    AJ(P) = 2 c_k - AJ(iota P), with c_k = AJ_base(e_k) cached per (base, k).
    """
    curve = periods.curve
    path = _route(curve, base.x, P.x, detour_seed=detour_seed)
    vec, ys = integrate_path(curve, path, base.y(curve))
    y_end = ys[-1]
    y_target = P.y(curve)
    aj = periods.A_inv @ vec
    if abs(y_end + y_target) <= 1e-6 * abs(y_target):
        k = int(np.argmin(np.abs(curve.branch_points - P.x)))
        key = (base.key(), k)
        if key not in periods._branch_aj:
            periods._branch_aj[key] = -abel_jacobi_from_branch(periods, base, k)
        return 2.0 * periods._branch_aj[key] - aj
    if abs(y_end - y_target) > 1e-6 * abs(y_target):
        raise CurveError("sheet tracking did not land on the requested point")
    return aj


def abel_jacobi_from_branch(periods: PeriodData, P: CurvePoint, branch_index=0):
    """A^-1 int_{e_k}^P: the routed path from an entry point E near e_k to
    P, plus half the flip loop from iota(E) to E, since the involution
    negates integrals from e_k and so int_{iota E}^E = 2 int_{e_k}^E."""
    curve = periods.curve
    e_k = curve.branch_points[branch_index]
    d = np.abs(np.delete(curve.branch_points, branch_index) - e_k).min()
    z_entry = e_k + 0.4 * d * (P.x - e_k) / abs(P.x - e_k)
    path = _route(curve, z_entry, P.x)
    vec_back, ys = integrate_path(curve, path[::-1], P.y(curve))
    vec_loop, _ = integrate_path(curve, _flip_loop(curve, z_entry), -ys[-1])
    return periods.A_inv @ (0.5 * vec_loop - vec_back)


def abel_jacobi_between_branch_points(periods: PeriodData, j, k):
    """A^-1 int_{e_k}^{e_j} through a midpoint off the branch locus."""
    curve = periods.curve
    ej, ek = curve.branch_points[j], curve.branch_points[k]
    mid = 0.5 * (ej + ek) + 0.31j * abs(ej - ek)
    if curve.dist_to_branch(np.array([mid]))[0] < 0.15 * curve.min_gap:
        mid = 0.5 * (ej + ek) - 0.43j * abs(ej - ek)
    Pmid = CurvePoint(complex(mid), 1)
    to_j = abel_jacobi_from_branch(periods, Pmid, j)
    to_k = abel_jacobi_from_branch(periods, Pmid, k)
    # int_{e_k}^{e_j} = int_{e_k}^{mid} - int_{e_j}^{mid}
    return to_k - to_j


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
