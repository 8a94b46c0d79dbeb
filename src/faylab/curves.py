"""Hyperelliptic curves of genus 1-3: period matrices, Abel-Jacobi maps,
theta characteristics and degree-(g-1) line bundles as Jacobian points.

Curve model: y^2 = lead * prod_k (x - e_k) over an odd number 2g+1 of
finite branch points (one branch point at infinity).  Even-degree input
models are converted by a Moebius change of variable.  All contour work
is done on closed polygonal paths in the x-plane with continuous
analytic continuation of y (no branch-cut bookkeeping).

One routine, `integrate_path`, continues y through the Gauss-Legendre
nodes of a batch of polygons and integrates each on its own slice: all
periods are one call, all crossing sheet matches one, each AJ batch one.

Abel-Jacobi integrals run along hub paths, at the certified order AJ_ORDER
= 12: from a hub on a circle about the branch point nearest P, round it to
the angle of P, then straight out to P.  AJ from e_0 to each e_k is chained
once across neighbouring pairs and cached with AJ(base): one path per P.
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
            out *= x - e    # in place, so the last bits do not depend on len(x)
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
        # rounded once; not a field, so equality and hashing stay on x, sheet
        key = (round(self.x.real, 12), round(self.x.imag, 12), self.sheet)
        object.__setattr__(self, "_key", key)

    def y(self, curve):
        return self.sheet * curve.y_principal(self.x)

    def involution(self):
        return CurvePoint(self.x, -self.sheet)

    def key(self):
        return self._key


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

#: Gauss-Legendre order of the Abel-Jacobi integrals.  On a panel no wider
#: than dmin/2 the integrand is analytic inside the Bernstein ellipse rho =
#: 4 + sqrt(15), where |integrand| <= M; n + 1 nodes then err by at most
#: (64/15) M rho^(-2n) / (rho^2 - 1) (Trefethen 2008), 1.3e-21 M at 12 nodes.
AJ_ORDER = 12


@functools.lru_cache(maxsize=None)
def _gl_nodes(order):
    return np.polynomial.legendre.leggauss(order)


def integrate_path(curve, paths, y0s, order):
    """Integrate (1, x, .., x^(g-1)) dx / y along each polygonal path, with
    y = y0s[i] at paths[i][0]; returns the (N, g) integrals and, per path,
    y at every vertex.

    Each edge is cut into Gauss-Legendre panels no wider than half its
    clearance dmin from the branch points (an edge within 1e-6 of one is
    refused, and a path of more than MAX_PATH_NODES nodes raises
    PathTooLong before any node is laid).  The nodes of all paths are laid
    and f evaluated in one pass; y is continued through every vertex and
    node of a path: y_{j+1} = y_j sqrt(f_{j+1} / f_j), the square root
    taken as exp(log / 2) of a ratio that must keep |delta arg f| <= pi/2
    and its modulus in [0.1, 10] (else PathTooCloseToBranchPoint).  That
    test cannot fail at order >= 12: consecutive points are at most 0.063
    dmin apart, so each of the at most 7 factors x - e_k of f turns by less
    than 0.063 rad and changes modulus by less than 6.3 % per step.  The
    running sum of log ratios and the weighted sum run on each path's own
    slice, so a path's row does not depend on the others in its batch.
    """
    e = curve.branch_points
    zs = [np.asarray(z, dtype=complex) for z in paths]
    lens = [len(z) for z in zs]
    # edges in path order, each path's vertex 0 a zero-length edge of its own
    za, zb = np.concatenate([np.append(z[0], z[:-1]) for z in zs]), np.concatenate(zs)
    seg = (zb - za)[:, None]
    # each branch point's distance to its foot on each edge
    t = ((e - za[:, None]) / np.where(seg == 0, 1, seg)).real.clip(0.0, 1.0)
    dmin = np.abs(za[:, None] + t * seg - e).min(axis=1)
    if (dmin <= 1e-6).any():
        raise PathTooCloseToBranchPoint("an edge within 1e-6 of a branch point")
    panels = np.ceil(np.abs(seg[:, 0]) / (0.5 * dmin)).astype(int)
    need = np.add.reduceat(panels, np.cumsum(lens) - lens) * order
    if need.max() > MAX_PATH_NODES:
        raise PathTooLong(f"path needs {need.max()} quadrature nodes, "
                          f"more than {MAX_PATH_NODES}")
    # each edge's nodes, then its end vertex (weight 0)
    nodes, weights = _gl_nodes(order)
    edge = np.repeat(np.arange(len(za)), panels)
    k = np.arange(len(edge)) - np.repeat(np.cumsum(panels) - panels, panels)
    ts = (k[:, None] + 0.5 * (nodes + 1.0)) / np.maximum(panels, 1)[edge, None]
    ends = np.cumsum(panels * order + 1) - 1
    starts = np.append(ends[np.cumsum(lens) - lens], ends[-1] + 1)
    x, w = np.empty(ends[-1] + 1, dtype=complex), np.zeros(ends[-1] + 1, dtype=complex)
    node = np.ones(len(x), dtype=bool)
    node[ends] = False
    x[ends], x[node] = zb, (za[edge, None] + ts * seg[edge]).ravel()
    w[node] = (weights * (0.5 * seg[:, 0] / np.maximum(panels, 1))[edge, None]).ravel()
    fx = curve.f(x)
    ratios = fx[1:] / fx[:-1]
    modulus = np.abs(ratios)
    bad = (ratios.real < 0) | (modulus > 10.0) | (modulus < 0.1)
    bad[starts[1:-1] - 1] = False       # steps from one path to the next
    if bad.any():
        raise PathTooCloseToBranchPoint("continuation step too coarse for f")
    half_log, powers = 0.5 * np.log(ratios), np.arange(curve.genus)[:, None]
    vecs, ys = [], []
    for y0, s, u in zip(y0s, starts[:-1], starts[1:]):
        y = y0 * np.exp(np.concatenate([[0.0], np.cumsum(half_log[s:u - 1])]))
        vecs.append((x[s:u] ** powers / y) @ w[s:u])
        ys.append(y[w[s:u] == 0])
    return np.array(vecs).reshape(len(zs), curve.genus), ys


# ---------------------------------------------------------------------------
# homology basis: stadium a-cycles, channel b-cycles


def _stadium(p, q, margin, height):
    """Closed counterclockwise rectangle with margins around [p, q]."""
    u = (q - p) / abs(q - p)
    n = 1j * u
    corners = [p - margin * u + height * n, q + margin * u + height * n,
               q + margin * u - height * n, p - margin * u - height * n]
    return corners + corners[:1]


def _build_cycles(curve):
    """Closed polygons (vertex 0 repeated at the end): a_k around cut k =
    [e_{2k-1}, e_{2k}]; b_k through cut k and the final cut (the ray from
    e_{2g+1} to +infinity), enclosing the branch points e_{2k} .. e_{2g+1}."""
    e, g, d = curve.branch_points, curve.genus, curve.min_gap
    a_cycles, b_cycles = [], []
    for k in range(g):
        p, q = e[2 * k], e[2 * k + 1]
        a_cycles.append(_stadium(p, q, 0.25 * d, 0.3 * d))
        mu, nhat = 0.5 * (p + q), 1j * (q - p) / abs(q - p)
        yt = e.imag.max() + (0.5 + 0.3 * (g - 1 - k)) * d
        yb = e.imag.min() - (0.5 + 0.3 * (g - 1 - k)) * d
        rho = e[-1] + (0.35 + 0.3 * (g - 1 - k)) * d
        p1, p6 = mu + 0.2 * d * nhat, mu - 0.2 * d * nhat
        b_cycles.append([p1, complex(p1.real, yt), complex(rho.real, yt),
                         complex(rho.real, yb), complex(p6.real, yb), p6, p1])
    return a_cycles, b_cycles


def _segment_crossing(a0, a1, b0, b1):
    """Transversal crossing of open segments; returns (t, sign) or None."""
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
    return t, 1 if denom > 0 else -1


def _intersection_matrix(curve, cycles, ys, order):
    """Signed sheet-matched crossing counts of each pair of cycles on the
    surface, ys[i] the y values at the vertices of cycles[i]; y is continued
    along every crossing leg in one integrate_path call.  Returns the
    antisymmetric matrix."""
    legs, y0s, hits = [], [], []
    for i, j in itertools.combinations(range(len(cycles)), 2):
        for m, (a0, a1) in enumerate(zip(cycles[i][:-1], cycles[i][1:])):
            for n, (b0, b1) in enumerate(zip(cycles[j][:-1], cycles[j][1:])):
                hit = _segment_crossing(a0, a1, b0, b1)
                if hit is not None:
                    zc = a0 + hit[0] * (a1 - a0)
                    legs += [[a0, zc], [b0, zc]]
                    y0s += [ys[i][m], ys[j][n]]
                    hits.append((i, j, hit[1]))
    M = np.zeros((len(cycles), len(cycles)), dtype=int)
    ends = [y[-1] for y in integrate_path(curve, legs, y0s, order)[1]]
    for (i, j, sign), y1, y2 in zip(hits, ends[::2], ends[1::2]):
        if abs(y1 - y2) < abs(y1 + y2):
            M[i, j] += sign
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
        self._hubs = None       # row k: rho_k, y at h_k, A^-1 int_{e_k}^{h_k}
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
    cycles = a_cycles + b_cycles
    # y continued around every cycle from its principal value at vertex 0
    integrals, ys = integrate_path(curve, cycles, curve.y_principal([c[0] for c in cycles]),
                                   quadrature_order)
    # closed on the surface: y returns to its start
    if any(abs(y[-1] - y[0]) > 1e-8 * abs(y[0]) for y in ys):
        raise NotSymplectic("cycle does not close on the surface")
    M = _intersection_matrix(curve, cycles, ys, quadrature_order)
    # normalize orientations: reversing b_k with a_k . b_k = -1 makes it +1
    signs = M[range(g), range(g, 2 * g)]
    if (abs(signs) != 1).any():
        raise NotSymplectic(f"a_k.b_k = {signs}, not +-1")
    D = np.diag(np.concatenate([np.ones(g, dtype=int), signs]))
    M = D @ M @ D
    J = np.kron([[0, 1], [-1, 0]], np.eye(g, dtype=int))
    if not np.array_equal(M, J):
        raise NotSymplectic(f"intersection pairing is not standard:\n{M}")
    # reversing b_k negates its periods
    A, B = integrals[:g].T, integrals[g:].T * signs
    omega = np.linalg.solve(A, B)
    sym_res = np.abs(omega - omega.T).max() / max(np.abs(omega).max(), 1.0)
    if sym_res > 1e-8:
        raise NotSymplectic(f"Omega symmetry residual {sym_res:.2e}")
    rm = RiemannMatrix(0.5 * (omega + omega.T))
    return A, B, PeriodData(curve, A, rm)


# ---------------------------------------------------------------------------
# Abel-Jacobi


def _hub_path(e_k, rho, x, turns=0):
    """Polygon from the hub h_k = e_k + rho, rho = rho_k half the distance
    from e_k to the next branch point, along |z - e_k| = rho in chords of at
    most a quarter turn to the angle of x (plus `turns` full turns), then
    straight to x.  If e_k is a nearest branch point of x, the path keeps
    min(0.7 rho_k, |x - e_k|) clear of all: within rho_k of e_k the rest
    are rho_k away, and chords keep rho_k cos(pi/4), the leg |x - e_k| from
    e_k; beyond, the open disk about a leg point z of radius |z - e_k| lies
    in the one about x of radius |x - e_k|, which holds no branch point."""
    angle = np.angle(x - e_k) + 2.0 * math.pi * turns
    n = max(1, math.ceil(abs(angle) / (0.5 * math.pi)))
    return list(e_k + rho * np.exp(1j * angle * np.arange(n + 1) / n)) + [x]


def _from_hubs(periods, pts, ks):
    """Rows A^-1 int_{e_k}^P along the hub paths of the points P = pts[i]
    from their branch points k = ks[i], in one integrate_path call, the
    hub constants built (see _branch_constants).  A path landing on
    iota P gives -AJ(P)."""
    curve, e = periods.curve, periods.curve.branch_points
    rhos, y_hs, cs = zip(*(periods._hubs[k] for k in ks))
    vecs, ys = integrate_path(curve, [_hub_path(e[k], rho, p.x) for k, rho, p
                                      in zip(ks, rhos, pts)], y_hs, AJ_ORDER)
    y = np.array([p.sheet for p in pts]) * curve.y_principal([p.x for p in pts])
    end = np.array([v[-1] for v in ys]) / y     # +-1 where a path lands on +-y
    sign = np.sign(end.real)
    if (abs(end - sign) > 1e-6).any():
        raise CurveError("sheet tracking did not land on the requested point")
    # A^-1 applied row by row (a stacked matrix-vector product), as for one point
    return sign[:, None] * (np.array(cs) + (periods.A_inv @ vecs[..., None])[..., 0])


def _branch_constants(periods):
    """Row k: A^-1 int_{e_0}^{e_k}, built on first use by a chain from e_0
    across each pair (e_j, e_k) whose midpoint m has no nearer branch point
    (these include the nearest-neighbour tree, so every k is reached):
    int_{e_0}^{e_k} = int_{e_0}^{e_j} + int_{e_j}^m - int_{e_k}^m, all legs
    in one batch.  Each is reduced into the cell [-1/4, 3/4)^2g of lattice
    coordinates.  First the hub constants, all in one batch: the involution
    negates integrals from e_k, so A^-1 int_{e_k}^{h_k} (principal y) is
    half a full turn from iota h_k."""
    if periods._branch is None:
        curve, e, rm = periods.curve, periods.curve.branch_points, periods.rm
        rhos = [0.5 * np.sort(np.abs(e - e_k))[1] for e_k in e]
        y_hs = [complex(curve.y_principal(e_k + rho)) for e_k, rho in zip(e, rhos)]
        loops, _ = integrate_path(curve, [_hub_path(e_k, rho, e_k + rho, turns=1)
                                          for e_k, rho in zip(e, rhos)],
                                  [-y for y in y_hs], AJ_ORDER)
        periods._hubs = [(rho, y_h, 0.5 * (periods.A_inv @ loop))
                         for rho, y_h, loop in zip(rhos, y_hs, loops)]
        chain, reached = [], [0]
        for j in reached:
            for k in range(len(e)):
                m = 0.5 * (e[j] + e[k])
                if k not in reached and np.abs(e - m).min() >= (1 - 1e-9) * abs(m - e[j]):
                    chain.append((j, k, CurvePoint(complex(m), 1)))
                    reached.append(k)
        js, ks, ms = zip(*chain)
        legs = _from_hubs(periods, ms + ms, js + ks)
        consts = {0: np.zeros(periods.curve.genus, dtype=complex)}
        for (j, k, _), to_j, to_k in zip(chain, legs, legs[len(chain):]):
            v = consts[j] + to_j - to_k
            al, be = lattice_coords(v, rm)
            consts[k] = v - np.floor(al + 0.25) - rm.omega @ np.floor(be + 0.25)
        periods._branch = np.array([consts[k] for k in range(len(e))])
    return periods._branch


def abel_jacobi(periods: PeriodData, P, base: CurvePoint):
    """A^-1 int_base^P = AJ_{e_0}(P) - AJ_{e_0}(base), the base term cached:
    a (g,) vector for one point P, an (N, g) array for a list of points,
    whose hub paths are one integrate_path batch at order AJ_ORDER (a point
    that does not land fails the batch)."""
    if base.key() not in periods._base_aj:
        periods._base_aj[base.key()] = abel_jacobi_from_branch(periods, base)
    return abel_jacobi_from_branch(periods, P) - periods._base_aj[base.key()]


def abel_jacobi_from_branch(periods: PeriodData, P, branch_index=0):
    """A^-1 int_{e_k}^P, k = branch_index, through the branch point nearest
    P; a (g,) vector for one point P, an (N, g) array for a list."""
    pts = [P] if isinstance(P, CurvePoint) else list(P)
    n = np.argmin(np.abs(periods.curve.branch_points - [[p.x] for p in pts]), axis=1)
    consts = _branch_constants(periods)
    v = consts[n] - consts[branch_index] + _from_hubs(periods, pts, n)
    return v[0] if isinstance(P, CurvePoint) else v


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
    aj = abel_jacobi(periods, [x] + list(divisor) + list(controls), base)
    vals, _, _, _ = theta_batch(aj[1:] - aj[0] + np.asarray(e, dtype=complex),
                                periods.rm, tol=1e-10)
    nz = len(divisor)
    max_zero = float(np.abs(vals[:nz]).max()) if nz else 0.0
    min_ctrl = float(np.abs(vals[nz:]).min()) if len(controls) else math.inf
    return max_zero, min_ctrl
