"""Hyperelliptic curves of genus 1-3: period matrices, Abel-Jacobi maps,
theta characteristics and degree-(g-1) line bundles as Jacobian points.

Curve model: y^2 = lead * prod_k (x - e_k) over an odd number 2g+1 of
finite branch points (one branch point at infinity).  Even-degree input
models are converted by a Moebius change of variable.  A curve point is a
row (x, s) of a complex array, s = +-1 its sheet: y = s sqrt f(x).

Periods are integrals over closed polygons in the x-plane, along which one
routine, `integrate_path`, continues y through the Gauss-Legendre nodes of
a batch of polygons and integrates each on its own slice: all periods are
one call at PERIOD_ORDER, the legs to the cycles' crossings one.

Abel-Jacobi needs no continuation: AJ from a nearest branch point e_k to P
runs along the ray x = e_k + t^2, t from 0 to sqrt(x_P - e_k), where dx / y
= 2 dt / r(t) and r is a product of principal roots that the ray keeps off
their cuts, so the sheet of P is one sign.  Its panels, no wider than half
their clearance from the singular points of 1 / r, take RAY_ORDER = 9
nodes: 3e-16 relative error by the Bernstein-ellipse bound.  AJ from e_0
to each e_k is the half-period the homology basis fixes (_branch_constants).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .theta import RiemannMatrix, theta_batch, theta_gradient, odd_theta_chars


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
        if not self.min_gap > 1e-8:         # a NaN gap too
            raise BranchPointCollision(
                f"branch points closer than 1e-8 (min gap {self.min_gap:.2e})")
        self.genus = (len(self.branch_points) - 1) // 2
        # centre and half-widths of the branch locus's box padded by min_gap
        r, i = self.branch_points.real, self.branch_points.imag
        self.box = tuple(float(v) for v in (
            0.5 * (r.min() + r.max()), 0.5 * (i.min() + i.max()),
            0.5 * (r.max() - r.min()) + self.min_gap, 0.5 * (i.max() - i.min()) + self.min_gap))

    def _to_odd_model(self, pts):
        # send the branch point with the largest clearance to infinity:
        # t = 1/(x - e*), y -> y t^(g+1) turns the even model into an odd
        # one with leading coefficient prod(e* - e_k).
        d = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min(axis=1).max() == 0:
            raise BranchPointCollision("branch points closer than 1e-8 (every one repeats)")
        star = int(np.argmax(d.min(axis=1)))
        e_star = pts[star]
        rest = np.delete(pts, star)
        self.lead = complex(np.prod(e_star - rest))
        with np.errstate(over="ignore", invalid="ignore"):
            odd = 1.0 / (rest - e_star)
        if not np.isfinite(odd).all():
            raise BranchPointCollision("branch points closer than 1e-8 (Moebius overflow)")
        return odd

    def f(self, x):
        x = np.asarray(x, dtype=complex)
        if x.size == 1:
            # alone, a point (0-d or length 1) takes another numpy loop and
            # other last bits; as the first of a pair it takes a batch's
            return self.f(np.repeat(x.ravel(), 2))[:1].reshape(x.shape)
        out = np.full(x.shape, self.lead, dtype=complex)
        for e in self.branch_points:
            # in place: an out-of-place product moves a batch's last bits
            out *= x - e
        return out

    def y_principal(self, x):
        return np.sqrt(self.f(x))

    def dist_to_branch(self, x):
        x = np.asarray(x, dtype=complex)
        return np.abs(x[..., None] - self.branch_points).min(axis=-1)

    def __repr__(self):
        return f"HyperellipticCurve({self.curve_id!r}, g={self.genus})"


def make_point(curve, x, sheet):
    """The curve point (x, sheet) as a row: y = sheet * principal sqrt f(x).
    A batch of points is an (N, 2) complex array of such rows."""
    if sheet not in (1, -1):
        raise ValueError("sheet must be +1 or -1")
    if curve.dist_to_branch(np.array([complex(x)]))[0] <= 1e-6:
        raise PathTooCloseToBranchPoint(f"point {x} within 1e-6 of a branch point")
    return np.array([x, sheet], dtype=complex)


def lattice_coords(z, rm: RiemannMatrix):
    """Real coordinates (alpha, beta) with z = alpha + Omega beta."""
    z = np.asarray(z, dtype=complex)
    beta = rm.imag_inv @ z.imag
    alpha = z.real - rm.omega.real @ beta
    return alpha, beta


# ---------------------------------------------------------------------------
# analytic continuation of y along polygonal paths

#: most quadrature nodes of one path or ray (a registry cycle at PERIOD_ORDER: ~1,400)
MAX_PATH_NODES = 2**21

#: Gauss-Legendre order of the Abel-Jacobi rays.  On a panel no wider than
#: half its clearance the integrand is analytic inside the Bernstein ellipse
#: rho = 4 + sqrt(15), where |integrand| <= M; n + 1 nodes then err by at most
#: (64/15) M rho^(-2n) / (rho^2 - 1) (Trefethen 2008), 3e-16 M at 9 nodes.
RAY_ORDER = 9

#: Gauss-Legendre order of the periods; at order 64 g2-real's Omega moves by under 1e-10
PERIOD_ORDER = 32

#: most nodes integrate_path or _from_rays lays at once, unless one path or
#: ray has more, so that a whole report's batch keeps its node buffers
#: small: heap memory a call grows by is handed back after it and faulted
#: in again by the next call
PATH_NODES = 2**12


@functools.lru_cache(maxsize=None)
def _gl_nodes(order):
    return np.polynomial.legendre.leggauss(order)


def integrate_path(curve, paths, y0s, order):
    """Integrate (1, x, .., x^(g-1)) dx / y along each polygonal path, with
    y = y0s[i], a root of f, at paths[i][0]; returns the (N, g) integrals
    and y at every vertex, exactly + or - the principal root there, as one
    array, path after path (both empty for no path).

    Each edge is cut into Gauss-Legendre panels no wider than half its
    clearance dmin from the branch points (an edge within 1e-6 of one is
    refused, and a path of more than MAX_PATH_NODES nodes raises
    PathTooLong) before any node is laid.  The paths are then integrated
    in blocks of consecutive paths, each of at most PATH_NODES nodes and
    vertices unless it is one path, each row as if alone (see
    _integrate_paths)."""
    e = curve.branch_points
    lens = np.array([len(z) for z in paths], dtype=int)
    first = np.cumsum(lens) - lens
    # edges in path order, each path's vertex 0 a zero-length edge of its own
    zb = np.concatenate([*paths, []], dtype=complex)
    za = np.roll(zb, 1)
    za[first] = zb[first]
    seg = (zb - za)[:, None]
    # each branch point's distance to its foot on each edge
    t = ((e - za[:, None]) / np.where(seg == 0, 1, seg)).real.clip(0.0, 1.0)
    dmin = np.abs(za[:, None] + t * seg - e).min(axis=1)
    if (dmin <= 1e-6).any():
        raise PathTooCloseToBranchPoint("an edge within 1e-6 of a branch point")
    panels = np.ceil(np.abs(seg[:, 0]) / (0.5 * dmin)).astype(int)
    size = np.add.reduceat(panels * order + 1, first) if len(paths) else lens
    if (size - lens).max(initial=0) > MAX_PATH_NODES:
        raise PathTooLong(f"path needs {(size - lens).max()} quadrature nodes, "
                          f"more than {MAX_PATH_NODES}")
    parts, a = [(np.empty((0, curve.genus), dtype=complex), np.empty(0, dtype=complex))], 0
    while a < len(paths):
        b = a + max(1, np.searchsorted(np.cumsum(size[a:]), PATH_NODES, "right"))
        e0, e1 = first[a], first[b - 1] + lens[b - 1]
        parts.append(_integrate_paths(curve, za[e0:e1], zb[e0:e1], panels[e0:e1],
                                      first[a:b] - e0, y0s[a:b], order))
        a = b
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _integrate_paths(curve, za, zb, panels, first, y0s, order):
    """integrate_path on one block of paths, given as their edges (za to
    zb, cut into panels), path i's first at first[i].

    The nodes of all paths are laid and f evaluated in one pass; each step
    along a path must keep
    |delta arg f| <= pi/2 and |f_{j+1} / f_j| in [0.1, 10] (else
    PathTooCloseToBranchPoint), which cannot fail at order >= 12: steps are
    at most 0.063 dmin, so each of the at most 7 factors x - e_k of f turns
    by less than 0.063 rad and changes modulus by less than 6.3 %.  y is s
    sqrt(f), the principal root times a sign s, first that of y0s[i], which
    flips at each step with Re(r_{j+1} conj r_j) < 0, r = sqrt(f): y turns
    by at most pi/4 a step, leaving cos(pi/4) |r_{j+1} r_j| of margin.  The
    flips are counted mod 2 by an exact xor-accumulate and the weighted
    sums taken by one reduceat, each on its path's own slice, so a path's
    row does not depend on the others in its batch.
    """
    # each edge's nodes, then its end vertex (weight 0)
    seg = (zb - za)[:, None]
    nodes, weights = _gl_nodes(order)
    edge = np.repeat(np.arange(len(za)), panels)
    k = np.arange(len(edge)) - np.repeat(np.cumsum(panels) - panels, panels)
    ts = (k[:, None] + 0.5 * (nodes + 1.0)) / np.maximum(panels, 1)[edge, None]
    ends = np.cumsum(panels * order + 1) - 1
    starts = ends[first]
    x, w = np.empty(ends[-1] + 1, dtype=complex), np.zeros(ends[-1] + 1, dtype=complex)
    node = np.ones(len(x), dtype=bool)
    node[ends] = False
    x[ends], x[node] = zb, (za[edge, None] + ts * seg[edge]).ravel()
    w[node] = (weights * (0.5 * seg[:, 0] / np.maximum(panels, 1))[edge, None]).ravel()
    del ts, node
    fx = curve.f(x)
    ratios = fx[1:] / fx[:-1]
    modulus = np.abs(ratios)
    bad = (ratios.real < 0) | (modulus > 10.0) | (modulus < 0.1)
    bad[starts[1:] - 1] = False         # steps from one path to the next
    if bad.any():
        raise PathTooCloseToBranchPoint("continuation step too coarse for f")
    del ratios, modulus, bad
    r = np.sqrt(fx, out=fx)
    # odd: s has flipped an odd number of times since vertex 0, y0 = -r one flip
    odd = np.zeros(len(x), dtype=bool)
    np.less(r[1:].real * r[:-1].real + r[1:].imag * r[:-1].imag, 0.0, out=odd[1:])
    np.logical_xor.accumulate(odd, out=odd)
    odd ^= np.repeat(odd[starts] ^ ((np.asarray(y0s) * r[starts].conj()).real < 0),
                     np.diff(starts, append=len(x)))
    y = np.negative(r, out=r, where=odd)
    del odd
    # complex exponents, as the power loop takes them, spare a cast buffer
    integrand = x ** np.arange(curve.genus, dtype=complex)[:, None]
    integrand /= y
    integrand *= w
    return np.add.reduceat(integrand, starts, axis=1).T, y[ends]


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


def _crossings(cycles):
    """i, j, p, q, t and the sign of d_p x d_q of each edge z_p + t d_p of cycle
    i that crosses an edge z_q + s d_q of cycle j > i (z the vertices of all
    cycles, t and s in (1e-9, 1 - 1e-9), |d_p x d_q| >= 1e-14 |d_p| |d_q|)."""
    z, lens = np.concatenate(cycles), np.array([len(c) for c in cycles])
    d, cyc = np.diff(z, append=0), np.repeat(np.arange(len(cycles)), lens)
    d[np.cumsum(lens) - 1] = 0      # a cycle's last vertex starts no edge: none crosses d = 0
    p, q = np.nonzero(cyc[:, None] < cyc)
    w, d1, d2 = z[q] - z[p], d[p], d[q]
    denom = d1.real * d2.imag - d1.imag * d2.real
    ok = ~(np.abs(denom) < 1e-14 * (np.abs(d1) * np.abs(d2) + 1e-300))
    t = (w.real * d2.imag - w.imag * d2.real) / np.where(ok, denom, 1.0)
    s = (w.real * d1.imag - w.imag * d1.real) / np.where(ok, denom, 1.0)
    hit = ok & (1e-9 < t) & (t < 1 - 1e-9) & (1e-9 < s) & (s < 1 - 1e-9)
    return cyc[p[hit]], cyc[q[hit]], p[hit], q[hit], t[hit], np.where(denom[hit] > 0, 1, -1)


def _intersection_matrix(curve, cycles, ys):
    """The antisymmetric matrix of the cycles' signed crossings (see _crossings)
    where y, continued from ys at z_p and at z_q to the crossing, is on one sheet."""
    i, j, p, q, t, sign = _crossings(cycles)
    z, pq = np.concatenate(cycles), np.ravel([p, q], "F")
    legs = np.stack([z[pq], np.repeat(z[p] + t * (z[p + 1] - z[p]), 2)], axis=1)
    y = integrate_path(curve, legs, ys[pq], PERIOD_ORDER)[1][1::2]
    M = np.zeros((len(cycles), len(cycles)), dtype=int)
    np.add.at(M, (i, j), sign * (np.abs(y[::2] - y[1::2]) < np.abs(y[::2] + y[1::2])))
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
        self._branch = _branch_constants(self)      # row k: A^-1 int_{e_0}^{e_k}


def period_matrix(curve: HyperellipticCurve):
    """Integrate x^(i-1) dx / y over the homology basis at the order
    PERIOD_ORDER; Omega = A^-1 B.

    The constructed basis is verified combinatorially: the sheet-matched
    crossing matrix must equal the standard symplectic pairing (b-cycles
    are flipped as needed to make a_k . b_k = +1).
    """
    g = curve.genus
    a_cycles, b_cycles = _build_cycles(curve)
    cycles = a_cycles + b_cycles
    # y continued around every cycle from its principal value y0 at vertex 0
    y0 = curve.y_principal([c[0] for c in cycles])
    integrals, ys = integrate_path(curve, cycles, y0, PERIOD_ORDER)
    # closed on the surface: y returns to y0
    if (abs(ys[np.cumsum([len(c) for c in cycles]) - 1] - y0) > 1e-8 * abs(y0)).any():
        raise NotSymplectic("cycle does not close on the surface")
    M = _intersection_matrix(curve, cycles, ys)
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


def _from_rays(periods, pts, ks):
    """Rows A^-1 int_{e_k}^P for the point rows P = pts[i] = (x, s), k =
    ks[i], e_k a nearest branch point of x, along the ray x = e_k + t^2, t in
    [0, T], T = sqrt(x - e_k): dx / y = 2 dt / r(t), r = c_k prod_{m != k}
    sqrt(1 - t^2 / (e_m - e_k)), c_k^2 = lead prod_{m != k} (e_k - e_m).  A
    factor's principal root is r's: 1 - s^2 (x - e_k) / (e_m - e_k) <= 0 for
    an s in [0, 1] would put x beyond e_m from e_k, nearer e_m.  I(T) is odd
    in T: the row is sigma A^-1 I(T), sigma T r(T) = y = s sqrt f(x) (else
    CurveError).  A point within 1e-6 of e_k, or a ray of more than
    MAX_PATH_NODES nodes (PathTooLong), is refused before any node is laid:
    panels of RAY_ORDER nodes no wider than half the ray's clearance from the
    4g points +-sqrt(e_m - e_k), in blocks of at most PATH_NODES nodes
    unless of one ray (see _ray_block)."""
    curve, e, ks = periods.curve, periods.curve.branch_points, np.asarray(ks)
    d = (e - e[:, None])[~np.eye(len(e), dtype=bool)].reshape(len(e), -1)
    c = np.sqrt(curve.lead * np.prod(-d, axis=1))
    x, s = pts.T
    if (np.abs(x - e[ks]) <= 1e-6).any():
        raise PathTooCloseToBranchPoint("a point within 1e-6 of a branch point")
    T = np.sqrt(x - e[ks])
    # clearance / |T|: over T the ray is [0, 1], and of +-z the nearer is beyond or beside it
    z = np.sqrt(d[ks]) / T[:, None]
    clear = np.hypot(np.maximum(np.abs(z.real) - 1.0, 0.0), z.imag).min(axis=1)
    size = np.ceil(2.0 / clear).astype(int) * RAY_ORDER
    if size.max(initial=0) > MAX_PATH_NODES:
        raise PathTooLong(f"ray needs {size.max()} quadrature nodes, more than {MAX_PATH_NODES}")
    vecs, a = [np.empty((0, curve.genus), dtype=complex)], 0
    while a < len(pts):
        b = a + max(1, np.searchsorted(np.cumsum(size[a:]), PATH_NODES, "right"))
        vecs.append(_ray_block(e, d, c, ks[a:b], T[a:b], size[a:b] // RAY_ORDER))
        a = b
    end = T * _ray_r(c, d, x - e[ks], ks)
    y = s * curve.y_principal(x)
    sign = np.sign((y / end).real)
    if (abs(sign * end - y) > 1e-6 * abs(y)).any():
        raise CurveError("ray did not land on the requested point")
    # A^-1 applied row by row (a stacked matrix-vector product), as for one point
    return sign[:, None] * (periods.A_inv @ np.concatenate(vecs)[..., None])[..., 0]


def _ray_r(c, d, t2, ks):
    """r at t^2 = t2[i] on a ray from e_k, k = ks[i], a factor at a time."""
    r = c[ks]
    for m in range(d.shape[1]):
        r *= np.sqrt(1.0 - t2 / d[ks, m])
    return r


def _ray_block(e, d, c, ks, T, panels):
    """The (n, g) integrals I(T) of the rays from e_k, k = ks[i], to T[i] in
    panels[i] panels, at nodes laid in one pass and summed by one reduceat,
    each on its ray's own slice, so a ray's row does not depend on its block."""
    nodes, weights = _gl_nodes(RAY_ORDER)
    ray = np.repeat(np.arange(len(T)), panels)
    k = np.arange(len(ray)) - np.repeat(np.cumsum(panels) - panels, panels)
    at, Ta = np.repeat(ks[ray], RAY_ORDER), np.repeat(T[ray], RAY_ORDER)
    t2 = np.square(Ta * ((k[:, None] + 0.5 * (nodes + 1.0)) / panels[ray, None]).ravel())
    # complex exponents, as the power loop takes them, spare a cast buffer
    integrand = (e[at] + t2) ** np.arange(d.shape[1] // 2, dtype=complex)[:, None]
    # x^i dx / y = x^i 2 dt / r, the weights on [0, 1] carrying the 2 and T
    integrand *= (weights / panels[ray, None]).ravel() * Ta / _ray_r(c, d, t2, at)
    return np.add.reduceat(integrand, (np.cumsum(panels) - panels) * RAY_ORDER, axis=1).T


def _branch_constants(periods):
    """Row k: A^-1 int_{e_0}^{e_k}, the half-period the basis fixes
    (Mumford, Tata Lectures on Theta II, IIIa 5.3): row k = alpha_k +
    Omega beta_k (see lattice_coords), where the step from e_2j to e_2j+1
    adds the unit u_j to 2 alpha and the step from e_2j+1 to e_2j+2 adds
    u_j + u_j+1 to 2 beta (u_g = 0), both mod 2."""
    g = periods.curve.genus
    # row i + 1: the step from e_i to e_i+1 in (2 alpha, 2 beta), row k's sum mod 2
    u, steps = np.eye(g + 1, g), np.zeros((2 * g + 1, 2, g))
    steps[1::2, 0], steps[2::2, 1] = u[:g], u[:g] + u[1:]
    ab = np.cumsum(steps, axis=0) % 2
    return 0.5 * (ab[:, 0] + (periods.rm.omega @ ab[:, 1, :, None])[..., 0])


def abel_jacobi(periods: PeriodData, P, base):
    """A^-1 int_base^P = AJ_{e_0}(P) - AJ_{e_0}(base): a (g,) vector for one
    point row P, an (N, g) array for N rows, with base in the same
    abel_jacobi_from_branch batch (a point that does not land fails it)."""
    pts = np.concatenate([np.reshape(P, (-1, 2)), np.reshape(base, (1, 2))])
    v = abel_jacobi_from_branch(periods, pts)
    return (v[:-1] - v[-1]).reshape(np.shape(P)[:-1] + v.shape[1:])


def abel_jacobi_from_branch(periods: PeriodData, P):
    """A^-1 int_{e_0}^P, through the branch point nearest P; a (g,) vector
    for one point row P, an (N, g) array for N rows, whose points take one
    _from_rays call."""
    pts = np.reshape(P, (-1, 2))
    n = np.argmin(np.abs(periods.curve.branch_points - pts[:, :1]), axis=1)
    v = periods._branch[n] + _from_rays(periods, pts, n)
    return v.reshape(np.shape(P)[:-1] + v.shape[1:])


def abel_jacobi_between_branch_points(periods: PeriodData, j, k):
    """A^-1 int_{e_k}^{e_j}."""
    return periods._branch[j] - periods._branch[k]


# ---------------------------------------------------------------------------
# theta characteristics of the period matrix


def theta_scale(rm: RiemannMatrix):
    """Median |theta| over 32 fixed pseudo-random points; a scale for
    near-divisor thresholds."""
    rng = np.random.default_rng(20240718)
    u = rng.random((32, rm.g))
    v = rng.random((32, rm.g))
    Z = u + v @ rm.omega.T
    vals, _ = theta_batch(Z, rm, tol=1e-8)
    return float(np.median(np.abs(vals)))


def find_odd_char(rm: RiemannMatrix):
    """First odd half-characteristic with a non-singular gradient at 0 (norm
    above 1e-6 of the largest gradient seen so far, or of 1)."""
    zero = np.zeros(rm.g)
    max_grad = 0.0
    for ch in odd_theta_chars(rm.g):
        norm = float(np.linalg.norm(theta_gradient(zero, rm, ch, tol=1e-10)))
        max_grad = max(max_grad, norm)
        if norm > 1e-6 * max(1.0, max_grad):
            return ch
    raise NoNonsingularOddChar("all odd characteristics have tiny gradients")


def vanishing_locus_check(periods: PeriodData, e, x, divisor, controls, base):
    """Evaluate t -> theta(AJ(t) - AJ(x) + e) on expected zeros and controls
    (point rows, as x and base).

    Returns (max |theta| over divisor points, min |theta| over controls).
    """
    aj = abel_jacobi(periods, np.vstack([x, *divisor, *controls]), base)
    vals, _ = theta_batch(aj[1:] - aj[0] + np.asarray(e, dtype=complex),
                          periods.rm, tol=1e-10)
    nz = len(divisor)
    max_zero = float(np.abs(vals[:nz]).max()) if nz else 0.0
    min_ctrl = float(np.abs(vals[nz:]).min()) if len(controls) else math.inf
    return max_zero, min_ctrl
