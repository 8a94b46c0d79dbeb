"""Smooth plane quartics (genus-3 canonical curves): hyperplane sections,
adjoint differentials, the residue-sum identity, the hyperplane ratio
invariant, and tangent-line reconstruction.

All computations are exact algebra on lifts; nothing here touches the
theta machinery, and no quantity is evaluated in an affine chart.  The
tangent line at P is grad F(P), so for a linear form l vanishing at P the
two lines l and grad F(P) meet at P and their cross product is a multiple
of the lift: l x grad F(P) = mu P.  `l_of_v` returns this mu, the
lift-quadratic quantity l(v_P).  By the residue description of adjoint
differentials (m du / F_v in any chart; Griffiths & Harris, Principles of
Algebraic Geometry, 1978), in a chart (alpha, u, v) at the lift with
X_alpha = 1 the derivative of l / F_v along the curve at its zero P is
(l x grad F)_alpha / F_v^2, signed by the parity of (alpha, u, v).  The
F_v^2 and the sign cancel in every ratio the identities use: canprop
terms are Q(P) / mu(P) and cor2 terms m1(P) m2(P) / mu(P), each of
degree 0 in the lift.
"""

from __future__ import annotations

import math

import numpy as np


class QuarticError(Exception):
    pass


class TangentOrSingularLine(QuarticError):
    pass


class DegenerateForm(QuarticError):
    pass


class NotSmooth(QuarticError):
    pass


class NotAZero(QuarticError):
    pass


class HigherOrderZero(QuarticError):
    pass


class DegenerateRatios(QuarticError):
    pass


MONOMIALS = tuple((i, j, 4 - i - j) for i in range(5) for j in range(5 - i))


class PlaneQuartic:
    """Homogeneous quartic F(X0, X1, X2) given by monomial coefficients,
    stored as the symmetric tensor T with F(X) = T(X, X, X, X)."""

    def __init__(self, coefficients, curve_id="quartic", probes=200):
        self.curve_id = curve_id
        self.coeffs = np.zeros(len(MONOMIALS), dtype=complex)
        index = {m: k for k, m in enumerate(MONOMIALS)}
        for mono, c in coefficients.items():
            if tuple(mono) not in index:
                raise ValueError(f"bad quartic monomial {mono}")
            self.coeffs[index[tuple(mono)]] = complex(c)
        if not np.any(self.coeffs):
            raise DegenerateForm("zero quartic")
        # a monomial's coefficient is shared by its 4!/(i! j! k!) orderings
        self.T = np.zeros((3, 3, 3, 3), dtype=complex)
        for idx in np.ndindex(self.T.shape):
            m = tuple(np.bincount(idx, minlength=3))
            orderings = 24 // math.prod(math.factorial(e) for e in m)
            self.T[idx] = self.coeffs[index[m]] / orderings
        self.assert_smooth(probes)

    def value(self, X):
        X = np.asarray(X, dtype=complex)
        return np.einsum("abcd,...a,...b,...c,...d->...", self.T, X, X, X, X)

    def grad(self, X):
        """4 T(., X, X, X), gradient axis first."""
        X = np.asarray(X, dtype=complex)
        return 4 * np.einsum("abcd,...b,...c,...d->a...", self.T, X, X, X)

    def assert_smooth(self, probes=200):
        """Random-line smoothness probe: every probe line must meet the
        quartic in 4 distinct points with nonvanishing gradient."""
        rng = np.random.default_rng(20240720)
        for _ in range(probes):
            l = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            try:
                pts = line_section(self, l)
            except TangentOrSingularLine as ex:
                raise NotSmooth(f"probe line degenerate: {ex}")
            for p in pts:
                gn = np.linalg.norm(self.grad(p))
                if gn < 1e-8 * np.linalg.norm(self.coeffs) * np.linalg.norm(p)**3:
                    raise NotSmooth("vanishing gradient on a probe line")

    def __repr__(self):
        return f"PlaneQuartic({self.curve_id!r})"


def _line_basis(l):
    l = np.asarray(l, dtype=complex)
    if np.linalg.norm(l) == 0:
        raise DegenerateForm("zero linear form")
    a = int(np.argmax(np.abs(l)))
    others = [i for i in range(3) if i != a]
    basis = []
    for o in others:
        v = np.zeros(3, dtype=complex)
        v[o] = 1.0
        v[a] = -l[o] / l[a]
        basis.append(v)
    return basis[0], basis[1]


def _restrict_quartic(C4: PlaneQuartic, u, v):
    """Coefficients c_m = C(4, m) T(u^(4-m), v^m) of
    F(s u + t v) = sum_m c_m s^(4-m) t^m."""
    W = np.array([u, v], dtype=complex)
    S = np.einsum("abcd,ia,jb,kc,ld->ijkl", C4.T, W, W, W, W)
    return np.array([math.comb(4, m) * S[(0,) * (4 - m) + (1,) * m]
                     for m in range(5)])


def _newton_polish(coeffs, lam):
    p = np.polyval(coeffs, lam)
    dp = np.polyval(np.polyder(coeffs), lam)
    if dp != 0:
        lam = lam - p / dp
    return lam


def line_section(C4: PlaneQuartic, l):
    """The 4 points of {l = 0} on the quartic as a (4, 3) array of lifts,
    via companion-matrix roots of the restricted binary form plus one
    Newton polish step."""
    u, v = _line_basis(l)
    c = _restrict_quartic(C4, u, v)
    scale = np.abs(c).max()
    if scale == 0:
        raise DegenerateForm("line lies on the quartic")
    if abs(c[0]) > 1e-12 * scale:
        roots = np.roots(c)
    else:
        # root(s) at t = 0, i.e. the point u: drop the vanishing leading
        # coefficients and pad with u
        nz = np.trim_zeros(c, "f")
        roots = np.roots(nz) if len(nz) > 1 else []
    lams = [_newton_polish(c, r) for r in roots]
    pts = [lam * u + v for lam in lams] + [u] * (4 - len(lams))
    lams += [np.inf] * (4 - len(lams))
    # projective chordal distances between roots
    def chord(l1, l2):
        if np.isinf(l1) and np.isinf(l2):
            return 0.0
        if np.isinf(l1) or np.isinf(l2):
            return 1.0 / np.sqrt(1.0 + min(abs(l1), abs(l2))**2)
        return abs(l1 - l2) / np.sqrt((1 + abs(l1)**2) * (1 + abs(l2)**2))
    for i in range(4):
        for j in range(i + 1, 4):
            if chord(lams[i], lams[j]) < 1e-7:
                raise TangentOrSingularLine("multiple intersection point")
    return np.array(pts)


def l_of_v(C4: PlaneQuartic, l, lift):
    """The lift-quadratic quantity l(v_P) for a form l vanishing at P: the
    scalar mu with l x grad F(lift) = mu * lift, read at the largest
    coordinate of the lift.  Chart-free: Q(lift)/mu is the residue of
    Q du / (F_v l) at P, and mu(c lift) = c^2 mu(lift)."""
    l = np.asarray(l, dtype=complex)
    lift = np.asarray(lift, dtype=complex)
    if abs(l @ lift) > 1e-9 * np.linalg.norm(l) * np.linalg.norm(lift):
        raise NotAZero("the form does not vanish at the point")
    g = C4.grad(lift)
    a = int(np.argmax(np.abs(lift)))
    mu = np.cross(l, g)[a] / lift[a]
    if abs(mu) <= 1e-9 * np.linalg.norm(l) * np.linalg.norm(g) / np.linalg.norm(lift):
        raise HigherOrderZero("zero of the section is not simple")
    return complex(mu)


def check_canprop(C4: PlaneQuartic, l, Q):
    """Residue-sum identity: sum over the section {l=0} of Q(P)/l(v_P) = 0.

    Q is a 3x3 symmetric coefficient matrix.  Each term is the residue of
    the twisted form Q du/(F_v l); the sum is reported relative to the
    largest term.
    """
    Q = np.asarray(Q, dtype=complex)
    terms = [P @ Q @ P / l_of_v(C4, l, P) for P in line_section(C4, l)]
    total = sum(terms)
    scale = max(abs(t) for t in terms)
    if scale == 0.0:
        return 0.0, 0.0
    return abs(total), abs(total) / scale


def check_cor2(C4: PlaneQuartic, l, section, m1, m2):
    """Three-term residue identity: for the section {x, y, z, t} of {l = 0}
    (`line_section(C4, l)`) and adjoint forms m1, m2 vanishing at t,

        sum over {x,y,z} of m1(P) m2(P) / l(v_P) = 0,

    the chart-free form of sum eta_1(P) eta_2(P) / eta'(P) = 0.
    """
    m1 = np.asarray(m1, dtype=complex)
    m2 = np.asarray(m2, dtype=complex)
    terms = [(m1 @ P) * (m2 @ P) / l_of_v(C4, l, P)
             for P in section[:3]]
    total = sum(terms)
    scale = max(abs(tm) for tm in terms)
    if scale == 0.0:
        return 0.0, 0.0
    return abs(total), abs(total) / scale


def _plane_coords(u, v, lift):
    """Coordinates (s, t) with lift = s u + t v (least squares on C^3)."""
    Mat = np.stack([u, v], axis=1)
    sol, *_ = np.linalg.lstsq(Mat, lift, rcond=None)
    return sol


def section_index(l, section, lift):
    """Index of the point of `section` (the section of {l = 0}) that
    `lift` represents, compared in the line's coordinates (s, t)."""
    u, v = _line_basis(l)
    c = _plane_coords(u, v, np.asarray(lift, dtype=complex))
    d = [abs(c[0] * cc[1] - c[1] * cc[0]) / (np.linalg.norm(c) * np.linalg.norm(cc))
         for cc in (_plane_coords(u, v, p) for p in section)]
    i = int(np.argmin(d))
    if d[i] > 1e-6:
        raise QuarticError("lift does not lie on the hyperplane section")
    return i


def ratio_r(l, section, ix, iy, x_lift, y_lift):
    """The hyperplane ratio r(x~, y~, H) through the section divisor: with
    section[ix], section[iy] the points of x~ and y~ on H = {l = 0}, the
    other two D1, D2, and L_i the forms on H vanishing at D_i,

        r = L1(y~) L2(y~) / (L1(x~) L2(x~)).

    The tangent machinery gives the same ratio as -l(v_y~) / l(v_x~).
    """
    if ix == iy:
        raise QuarticError("x and y identify the same section point")
    u, v = _line_basis(l)
    cx = _plane_coords(u, v, np.asarray(x_lift, dtype=complex))
    cy = _plane_coords(u, v, np.asarray(y_lift, dtype=complex))
    num = den = 1.0
    for i in range(4):
        if i not in (ix, iy):
            sD, tD = _plane_coords(u, v, section[i])
            num = num * (cy[0] * tD - cy[1] * sD)
            den = den * (cx[0] * tD - cx[1] * sD)
    return complex(num / den)


def reconstruct_tangent_coords(a_seq, b_seq):
    """Tangent coordinates from hyperplane ratios: the continued-product
    formula

        (1 : (b2-b1)/(a2-b2) : ... :
         prod (a_i - b_{i-1})(b_{i+1} - b_i) / (b_i - b_{i-1})(a_{i+1} - b_{i+1}))

    for sequences a_i, b_i of length g-2 >= 1 (1-indexed as displayed).
    """
    a = [complex(v) for v in a_seq]
    b = [complex(v) for v in b_seq]
    if len(a) != len(b) or not a:
        raise ValueError("need equal nonempty ratio sequences")
    m = len(a)
    scale = max(max(abs(v) for v in a), max(abs(v) for v in b), 1.0)
    out = [1.0 + 0.0j]
    if m == 1:
        return out
    den = a[1] - b[1]
    if abs(den) < 1e-10 * scale:
        raise DegenerateRatios("a2 - b2 too small")
    out.append(out[0] * (b[1] - b[0]) / den)
    for i in range(1, m - 1):          # u_{i+2}/u_{i+1} in 0-based terms
        d1 = b[i] - b[i - 1]
        d2 = a[i + 1] - b[i + 1]
        if min(abs(d1), abs(d2)) < 1e-10 * scale:
            raise DegenerateRatios("degenerate ratio denominators")
        ratio = (a[i] - b[i - 1]) * (b[i + 1] - b[i]) / (d1 * d2)
        out.append(out[-1] * ratio)
    return out


def projective_distance(p, q):
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    M = np.outer(p, q)
    num = np.abs(M - M.T).max()
    return float(num / (np.linalg.norm(p) * np.linalg.norm(q)))


# ---------------------------------------------------------------------------
# samplers and identity runners


def _random_form(rng):
    return rng.standard_normal(3) + 1j * rng.standard_normal(3)


def _random_quadric(rng):
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return 0.5 * (M + M.T)


def _form_through(rng, points):
    """Random linear form vanishing at the given lifts (<= 2 of them)."""
    A = np.stack([np.asarray(p, dtype=complex) for p in points])
    # basis of the null space of A
    vh = np.linalg.svd(A)[2]
    null = vh[len(points):].conj()
    w = rng.standard_normal(len(null)) + 1j * rng.standard_normal(len(null))
    return w @ null


def canprop_residual(C4: PlaneQuartic, rng):
    return check_canprop(C4, _random_form(rng), _random_quadric(rng))


def cor2_residual(C4: PlaneQuartic, rng):
    l = _random_form(rng)
    pts = line_section(C4, l)
    t_lift = pts[3]
    jstar = int(np.argmax(np.abs(t_lift)))
    ms = []
    for _ in range(2):
        r = _random_form(rng)
        m = r.copy()
        m[jstar] -= (r @ t_lift) / t_lift[jstar]
        ms.append(m)
    return check_cor2(C4, l, pts, ms[0], ms[1])


def ratio_dual_residual(C4: PlaneQuartic, rng):
    l = _random_form(rng)
    pts = line_section(C4, l)
    scales = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x, y = pts[0] * scales[0], pts[1] * scales[1]
    r_div = ratio_r(l, pts, 0, 1, x, y)
    r_tan = -l_of_v(C4, l, y) / l_of_v(C4, l, x)
    return abs(r_div - r_tan), abs(r_div - r_tan) / abs(r_div)


def tangent_reconstruction_residual(C4: PlaneQuartic, rng):
    """Genus-3 tangent reconstruction from hyperplane-section ratios.

    Through two points of the plane there is a single line, so the
    two-point d-ratio of the general reconstruction corollary is only
    divisor-measurable for genus >= 4.  At genus 3 the tangent direction
    (l0(v_x) : l1(v_x)) is instead recovered from two section-side ratio
    instances: for each line l_i through x pick another section point y_i,
    measure r_i = r(x~, y_i~, l_i) from the residual divisor, and invert

        l_i(v_x~) = -l_i(v_{y_i}~) / r_i.

    The result must match the direct tangent-machinery values.
    """
    l0 = _random_form(rng)
    pts0 = line_section(C4, l0)
    x, y0 = pts0[:2]
    l1 = _form_through(rng, [x])
    pts1 = line_section(C4, l1)
    # a section point of l1 distinct from x
    iy = next((i for i, p in enumerate(pts1)
               if projective_distance(p, x) > 1e-6), None)
    if iy is None:
        raise TangentOrSingularLine("the second line meets the quartic only at x")
    y1 = pts1[iy]
    c0 = ratio_r(l0, pts0, 0, 1, x, y0)
    tan0 = l_of_v(C4, l0, y0), l_of_v(C4, l0, x)
    c1 = ratio_r(l1, pts1, section_index(l1, pts1, x), iy, x, y1)
    tan1 = l_of_v(C4, l1, y1), l_of_v(C4, l1, x)
    recon = np.array([-tan0[0] / c0, -tan1[0] / c1])
    direct = np.array([tan0[1], tan1[1]])
    dist = projective_distance(recon, direct)
    return dist, dist


def reconstruct_synthetic_residual(rng):
    """Oracle for the continued-product formula: choose u, v, feed the
    ratios a_i = -v_i/u_i, b_i = -(sum v)/(sum u); output must be
    proportional to u (sequences of length 5)."""
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    a = -v / u
    b = [-v[:i + 1].sum() / u[:i + 1].sum() for i in range(5)]
    coords = reconstruct_tangent_coords(a, b)
    dist = projective_distance(np.array(coords), u / u[0])
    return dist, dist
