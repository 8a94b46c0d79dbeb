"""Smooth plane quartics (genus-3 canonical curves): hyperplane sections,
adjoint differentials, the residue-sum identity, the hyperplane ratio
invariant, and tangent-line reconstruction.

All computations are exact algebra on lifts in C^3; nothing here touches
the theta machinery, and no point is ever written in coordinates on a line
or in an affine chart.  The tangent line at P is grad F(P), so for a linear
form l vanishing at P the two lines l and grad F(P) meet at P and their
cross product is a multiple of the lift: l x grad F(P) = mu P.  `l_of_v`
returns this mu, the lift-quadratic quantity l(v_P), for a whole batch of
lifts at once.  By the residue description of adjoint differentials
(m du / F_v in any chart; Griffiths & Harris, Principles of Algebraic
Geometry, 1978), in a chart (alpha, u, v) at the lift with X_alpha = 1 the
derivative of l / F_v along the curve at its zero P is
(l x grad F)_alpha / F_v^2, signed by the parity of (alpha, u, v).  The
F_v^2 and the sign cancel in every ratio the identities use: canprop
terms are Q(P) / mu(P) and cor2 terms m1(P) m2(P) / mu(P), each of
degree 0 in the lift, and `residue_sum` adds either kind.  On H = {l = 0}
the form vanishing at D is det(l, D, X) = (l x D) . X, so `ratio_r` is a
ratio of products of determinants over the residual section points.
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
        """4 T(., X, X, X), gradient axis last."""
        X = np.asarray(X, dtype=complex)
        return 4 * np.einsum("abcd,...b,...c,...d->...a", self.T, X, X, X)

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
            gn = np.linalg.norm(self.grad(pts), axis=1)
            if np.any(gn < 1e-8 * np.linalg.norm(self.coeffs)
                      * np.linalg.norm(pts, axis=1)**3):
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


def l_of_v(C4: PlaneQuartic, l, lifts):
    """The lift-quadratic quantity l(v_P) for a form l vanishing at every
    row P of `lifts` (an (m, 3) array, or one lift): the scalar mu with
    l x grad F(P) = mu P, fitted over all three coordinates.  Chart-free:
    Q(P)/mu is the residue of Q du / (F_v l) at P, and mu(c P) = c^2 mu(P).
    Raises if any row is not a zero of l, or not a simple one."""
    l = np.asarray(l, dtype=complex)
    P = np.asarray(lifts, dtype=complex)
    nl, nP = np.linalg.norm(l), np.linalg.norm(P, axis=-1)
    if np.any(np.abs(P @ l) > 1e-9 * nl * nP):
        raise NotAZero("the form does not vanish at the point")
    g = C4.grad(P)
    mu = np.einsum("...a,...a->...", np.cross(l, g), P.conj()) / nP**2
    if np.any(np.abs(mu) <= 1e-9 * nl * np.linalg.norm(g, axis=-1) / nP):
        raise HigherOrderZero("zero of the section is not simple")
    return mu


def residue_sum(C4: PlaneQuartic, l, points, numerators):
    """Sum over the rows P of `points`, zeros of l on the quartic, of
    numerators[i] / l(v_P), as (|sum|, |sum| / largest |term|).

    Each term is the residue of a twisted adjoint form at P.  With the
    whole section {l = 0} and numerators Q(P) for a quadric Q this is the
    canprop identity; with three points x, y, z of the section
    {x, y, z, t} and numerators m1(P) m2(P) for forms m1, m2 vanishing at
    t it is the three-term identity sum eta_1 eta_2 / eta' = 0 (cor2).
    """
    terms = np.asarray(numerators) / l_of_v(C4, l, points)
    total = abs(terms.sum())
    scale = np.abs(terms).max()
    if scale == 0.0:
        return 0.0, 0.0
    return float(total), float(total / scale)


def ratio_r(l, residual, x, y):
    """The hyperplane ratio r(x~, y~, H) of H = {l = 0} through the rows
    D_1, D_2 of `residual`, the section points other than x and y.  The
    form on H vanishing at D_i is L_i(X) = det(l, D_i, X) = (l x D_i) . X,
    and

        r = L1(y~) L2(y~) / (L1(x~) L2(x~)),

    the genus-3 case of a conic through the residual divisor.  The
    tangent machinery gives the same ratio as -l(v_y~) / l(v_x~).
    """
    L = np.cross(l, residual)
    return complex(np.prod(L @ y) / np.prod(L @ x))


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
    """max |p_i q_j - p_j q_i| / (|p| |q|) over the last axis, broadcast."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    M = p[..., :, None] * q[..., None, :]
    num = np.abs(M - np.swapaxes(M, -1, -2)).max(axis=(-2, -1))
    return num / (np.linalg.norm(p, axis=-1) * np.linalg.norm(q, axis=-1))


# ---------------------------------------------------------------------------
# samplers and identity runners


def _random_form(rng):
    return rng.standard_normal(3) + 1j * rng.standard_normal(3)


def _random_quadric(rng):
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return 0.5 * (M + M.T)


def _form_through(rng, x):
    """Random linear form vanishing at the lift x."""
    null = np.linalg.svd(np.asarray(x, dtype=complex)[None])[2][1:].conj()
    return (rng.standard_normal(2) + 1j * rng.standard_normal(2)) @ null


def canprop_residual(C4: PlaneQuartic, rng):
    l, Q = _random_form(rng), _random_quadric(rng)
    pts = line_section(C4, l)
    return residue_sum(C4, l, pts, np.einsum("ia,ab,ib->i", pts, Q, pts))


def cor2_residual(C4: PlaneQuartic, rng):
    l = _random_form(rng)
    pts = line_section(C4, l)
    t = pts[3]
    j = int(np.argmax(np.abs(t)))
    # two random forms, each moved along X_j to vanish at t
    m = np.array([_random_form(rng) for _ in range(2)])
    m[:, j] -= m @ t / t[j]
    return residue_sum(C4, l, pts[:3], (pts[:3] @ m.T).prod(axis=1))


def ratio_dual_residual(C4: PlaneQuartic, rng):
    l = _random_form(rng)
    pts = line_section(C4, l)
    scales = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x, y = pts[0] * scales[0], pts[1] * scales[1]
    mu_x, mu_y = l_of_v(C4, l, [x, y])
    r_div = ratio_r(l, pts[2:], x, y)
    err = abs(r_div + mu_y / mu_x)          # r_tan = -mu_y / mu_x
    return err, err / abs(r_div)


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
    l1 = _form_through(rng, x)
    pts1 = line_section(C4, l1)
    # x must be one simple point of the second section; y1 is the first other
    d = projective_distance(pts1, x)
    near = np.argsort(d)
    if d[near[0]] > 1e-6:
        raise QuarticError("x does not lie on the second section")
    if d[near[1]] <= 1e-6:
        raise TangentOrSingularLine("x is not a simple point of the second section")
    rest = np.delete(pts1, near[0], axis=0)
    y1 = rest[0]
    mu0 = l_of_v(C4, l0, [y0, x])
    mu1 = l_of_v(C4, l1, [y1, x])
    recon = -np.array([mu0[0] / ratio_r(l0, pts0[2:], x, y0),
                       mu1[0] / ratio_r(l1, rest[1:], x, y1)])
    dist = projective_distance(recon, [mu0[1], mu1[1]])
    return dist, dist


def reconstruct_synthetic_residual(rng):
    """Oracle for the continued-product formula: choose u, v, feed the
    ratios a_i = -v_i/u_i, b_i = -(sum v)/(sum u); output must be
    proportional to u (sequences of length 5)."""
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    a = -v / u
    b = [-v[:i + 1].sum() / u[:i + 1].sum() for i in range(5)]
    dist = projective_distance(reconstruct_tangent_coords(a, b), u / u[0])
    return dist, dist
