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

    def __init__(self, coefficients, curve_id="quartic"):
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
        self.assert_smooth()

    def value(self, X):
        X = np.asarray(X, dtype=complex)
        return np.einsum("abcd,...a,...b,...c,...d->...", self.T, X, X, X, X)

    def grad(self, X):
        """4 T(., X, X, X), gradient axis last, contracted one X at a time."""
        X = np.asarray(X, dtype=complex)
        G = np.einsum("...bcd,...d->...bc", np.einsum("abcd,...d->...abc", self.T, X), X)
        return 4 * np.einsum("...ab,...b->...a", G, X)

    def assert_smooth(self):
        """Random-line smoothness probe: each of 200 probe lines must meet
        the quartic in 4 distinct points with nonvanishing gradient."""
        z = np.random.default_rng(20240720).standard_normal((200, 2, 3))
        try:
            pts = line_section(self, z[:, 0] + 1j * z[:, 1])
        except TangentOrSingularLine as ex:
            raise NotSmooth(f"probe line degenerate: {ex}")
        gn = np.linalg.norm(self.grad(pts), axis=-1) / np.linalg.norm(pts, axis=-1)**3
        if np.any(gn < 1e-8 * np.linalg.norm(self.coeffs)):
            raise NotSmooth("vanishing gradient on a probe line")

    def __repr__(self):
        return f"PlaneQuartic({self.curve_id!r})"


def _horner(c, x):
    """Each row's polynomial c (highest power first) at its row of x."""
    y = np.zeros_like(x)
    for ck in c.T:
        y = y * x + ck[:, None]
    return y


def _restrict(T, W):
    """T(W_i, W_j, W_k, W_l) of each (2, 3) block W[n], contracted one index at a time."""
    S = np.einsum("abcd,nld->nlabc", T, W)
    for step in ("nlabc,nkc->nklab", "nklab,njb->njkla", "njkla,nia->nijkl"):
        S = np.einsum(step, S, W)
    return S


def line_section(C4: PlaneQuartic, L):
    """The 4 points on the quartic of each line {l = 0}, l a row of the
    (N, 3) forms L, as an (N, 4, 3) array of lifts.  With u, v the unit
    vectors off l's largest coordinate, moved into the line along it, the
    points are lam u + v for the roots lam of the binary form F(s u + v),
    whose coefficients are T(u, .., v) contracted one vector at a time
    (companion-matrix eigenvalues, one Newton step), and u itself where its
    leading coefficients vanish.  Row k is L[k]'s section alone, bit for
    bit; raises if any line is degenerate or meets it in a multiple point."""
    L = np.asarray(L, dtype=complex)
    n = np.arange(len(L))[:, None]
    a = np.abs(L).argmax(axis=1)[:, None]
    if not L[n, a].all():
        raise DegenerateForm("zero linear form")
    o = np.array([[1, 2], [0, 2], [0, 1]])[a[:, 0]]     # the coordinates other than a
    W = np.eye(3, dtype=complex)[o]                     # rows u, v
    W[n, [0, 1], a] = -L[n, o] / L[n, a]
    # c_m = C(4, m) T(u^(4-m), v^m) at flat index 2^m - 1: F(su + tv) = sum c_m s^(4-m) t^m
    S = _restrict(C4.T, W).reshape(-1, 16)
    c = S[:, [0, 1, 3, 7, 15]] * [1, 4, 6, 4, 1]
    if not np.abs(c).max(axis=1).all():
        raise DegenerateForm("line lies on the quartic")
    # as np.roots: eigenvalues of the companion matrix of c without its
    # leading and trailing zeros, then a root 0 per trailing zero.  A leading
    # zero is a root lam = inf, the point u; two of either are a multiple point
    nz = c != 0
    first, last = nz.argmax(axis=1), 4 - nz[:, ::-1].argmax(axis=1)
    fin = np.arange(4) < 4 - first[:, None]
    lam = np.zeros((len(L), 4), dtype=complex)
    for k, m in {(0, 4), (0, 3), (1, 4), (1, 3)} & set(zip(first, last)):   # those with rows
        rows = (first == k) & (last == m)
        A = np.tile(np.eye(m - k, k=-1, dtype=complex), (rows.sum(), 1, 1))
        A[:, 0] = -c[rows, k + 1:m + 1] / c[rows, k:k + 1]
        lam[rows, :m - k] = np.linalg.eigvals(A)
    dp = _horner(c[:, :4] * np.arange(4, 0, -1), lam)       # as np.polyder
    lam = lam - np.divide(_horner(c, lam), dp, out=np.zeros_like(dp), where=fin & (dp != 0))
    # projective chordal distances between the roots, (lam : 1) or (1 : 0)
    h = np.stack([np.where(fin, lam, 1), fin], axis=-1)
    h /= np.linalg.norm(h, axis=-1, keepdims=True)
    i, j = np.triu_indices(4, 1)
    if (np.abs(h[:, i, 0] * h[:, j, 1] - h[:, i, 1] * h[:, j, 0]) < 1e-7).any():
        raise TangentOrSingularLine("multiple intersection point")
    return np.where(fin[..., None], lam[..., None] * W[:, None, 0] + W[:, None, 1],
                    W[:, None, 0])


def l_of_v(C4: PlaneQuartic, L, lifts):
    """The lift-quadratic quantity l(v_P) for each row P of `lifts` (an
    (m, 3) array, or one lift) and the form l of the same row of L (or the
    one form L) vanishing at P: the scalar mu with l x grad F(P) = mu P,
    fitted over all three coordinates.  Chart-free: Q(P)/mu is the residue
    of Q du / (F_v l) at P, and mu(c P) = c^2 mu(P).  Raises if any row is
    not a zero of its l, or not a simple one."""
    L, P = np.asarray(L, dtype=complex), np.asarray(lifts, dtype=complex)
    nl, nP = np.linalg.norm(L, axis=-1), np.linalg.norm(P, axis=-1)
    if np.any(np.abs((P * L).sum(axis=-1)) > 1e-9 * nl * nP):
        raise NotAZero("the form does not vanish at the point")
    g = C4.grad(P)
    mu = np.einsum("...a,...a->...", np.cross(L, g), P.conj()) / nP**2
    if np.any(np.abs(mu) <= 1e-9 * nl * np.linalg.norm(g, axis=-1) / nP):
        raise HigherOrderZero("zero of the section is not simple")
    return mu


def _abs(z):
    """|z|, with the bits of Python's abs of each number (not np.abs's)."""
    return np.hypot(z.real, z.imag)


def residue_sum(numerators, mu):
    """Sum over zeros P_i of a form l on the quartic of numerators[..., i] /
    mu[..., i], mu = l(v_P_i), over the last axis, as (|sum|, |sum| /
    largest |term|), (0, 0) where every term is 0.

    Each term is the residue of a twisted adjoint form at P.  With the
    whole section {l = 0} and numerators Q(P) for a quadric Q this is the
    canprop identity; with three points x, y, z of the section
    {x, y, z, t} and numerators m1(P) m2(P) for forms m1, m2 vanishing at
    t it is the three-term identity sum eta_1 eta_2 / eta' = 0 (cor2).
    """
    terms = np.asarray(numerators) / mu
    total = _abs(terms.sum(axis=-1))
    scale = _abs(terms).max(axis=-1)
    return total, np.divide(total, scale, out=np.zeros_like(total), where=scale > 0)


def ratio_r(l, residual, x, y):
    """The hyperplane ratio r(x~, y~, H) of H = {l = 0} through the rows
    D_1, D_2 of `residual`, the section points other than x and y, over
    any leading axes.  The form on H vanishing at D_i is
    L_i(X) = det(l, D_i, X) = (l x D_i) . X, and

        r = L1(y~) L2(y~) / (L1(x~) L2(x~)),

    the genus-3 case of a conic through the residual divisor.  The
    tangent machinery gives the same ratio as -l(v_y~) / l(v_x~).
    """
    L = np.cross(l[..., None, :], residual)
    return (L * y[..., None, :]).sum(axis=-1).prod(axis=-1) / (
        L * x[..., None, :]).sum(axis=-1).prod(axis=-1)


def reconstruct_tangent_coords(a, b):
    """Tangent coordinates from hyperplane ratios: the continued-product
    formula

        (1 : (b2-b1)/(a2-b2) : ... :
         prod (a_i - b_{i-1})(b_{i+1} - b_i) / (b_i - b_{i-1})(a_{i+1} - b_{i+1}))

    for sequences a_i, b_i of length g-2 >= 1 (1-indexed as displayed),
    along the last axis of a and b, over any leading axes.  Raises if any
    denominator is below 1e-10 of its sequences' largest modulus (or 1).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim == 0 or not a.shape[-1]:
        raise ValueError("need equal nonempty ratio sequences")
    scale = np.maximum(np.maximum(_abs(a).max(axis=-1), _abs(b).max(axis=-1)), 1.0)
    ab = a[..., 1:] - b[..., 1:]                # a_i - b_i, i >= 2
    db = b[..., 1:] - b[..., :-1]               # b_i - b_{i-1}, i >= 2
    dens = np.concatenate([ab, db[..., :-1]], axis=-1)
    if (_abs(dens) < 1e-10 * scale[..., None]).any():
        raise DegenerateRatios("degenerate ratio denominators")
    # each coordinate over the one before: 1, then (b2-b1)/(a2-b2), then the rest
    later = (a[..., 1:-1] - b[..., :-2]) * db[..., 1:] / (db[..., :-1] * ab[..., 1:])
    steps = np.concatenate([np.ones_like(a[..., :1]), db[..., :1] / ab[..., :1], later], axis=-1)
    return np.cumprod(steps, axis=-1)


def projective_distance(p, q):
    """max |p_i q_j - p_j q_i| / (|p| |q|) over the last axis, broadcast."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    M = p[..., :, None] * q[..., None, :]
    num = _abs(M - np.swapaxes(M, -1, -2)).max(axis=(-2, -1))
    return num / (np.linalg.norm(p, axis=-1) * np.linalg.norm(q, axis=-1))


# ---------------------------------------------------------------------------
# the sampler and identity bodies, driven as those of faylab.identities over
# a leading trial axis; their kernel requests are (line_section, L) and
# (l_of_v, L, lifts)


def normals(env, take, rows, count):
    """count complex normals per stream of rows, as a (len(rows), count)
    array, and no failures ({}); take(rows, n) reads the next n doubles of
    each stream.  Entry i is one complex Box-Muller draw (Box & Muller,
    Ann. Math. Stat. 29, 1958) from the stream's doubles u = 2i and
    v = 2i + 1: sqrt(-2 log(1 - u)) exp(2 pi i v), whose real and
    imaginary parts are independent N(0, 1).  Each step runs elementwise
    on a new array, so a row has the bits it has alone."""
    u = take(rows, 2 * count).reshape(len(rows), count, 2)
    return np.sqrt(-2 * np.log1p(-u[..., 0])) * np.exp(2j * np.pi * u[..., 1]), {}


def canprop_residual(C4: PlaneQuartic):
    l = yield normals, 3
    Q = (yield normals, 9).reshape(-1, 3, 3)          # the quadric X^T Q X
    pts = (yield line_section, l[:, None])[:, 0]
    mu = yield l_of_v, np.broadcast_to(l[:, None], pts.shape), pts
    return residue_sum((pts[:, :, :, None] * Q[:, None] * pts[:, :, None]).sum(axis=(2, 3)), mu)


def cor2_residual(C4: PlaneQuartic):
    l = yield normals, 3
    m = (yield normals, 6).reshape(-1, 2, 3)
    pts = (yield line_section, l[:, None])[:, 0]
    t, k = pts[:, 3], np.arange(len(l))
    j = _abs(t).argmax(axis=1)
    # two random forms, each moved along X_j to vanish at t
    m[k, :, j] -= (m * t[:, None]).sum(axis=2) / t[k, j, None]
    mu = yield l_of_v, np.broadcast_to(l[:, None], (len(l), 3, 3)), pts[:, :3]
    return residue_sum((pts[:, :3, None] * m[:, None]).sum(axis=3).prod(axis=2), mu)


def ratio_dual_residual(C4: PlaneQuartic):
    l = yield normals, 3
    scales = yield normals, 2
    pts = (yield line_section, l[:, None])[:, 0]
    x, y = pts[:, 0] * scales[:, :1], pts[:, 1] * scales[:, 1:]
    mu_x, mu_y = (yield l_of_v, np.broadcast_to(l[:, None], (len(l), 2, 3)),
                  np.stack([x, y], axis=1)).T
    r_div = ratio_r(l, pts[:, 2:], x, y)
    err = _abs(r_div + mu_y / mu_x)          # r_tan = -mu_y / mu_x
    return err, err / _abs(r_div)


def tangent_reconstruction_residual(C4: PlaneQuartic):
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
    l0 = yield normals, 3
    w = yield normals, 3
    pts0 = (yield line_section, l0[:, None])[:, 0]
    x, y0 = pts0[:, 0], pts0[:, 1]
    l1 = np.cross(x, w)                     # a random form through x
    pts1 = (yield line_section, l1[:, None])[:, 0]
    # x must be one simple point of the second section; y1 is the first other
    d = projective_distance(pts1, x[:, None])
    near = np.argsort(d, axis=1)
    d0, d1 = np.take_along_axis(d, near[:, :2], axis=1).T
    yield {i: QuarticError("x does not lie on the second section")
           for i in np.flatnonzero(d0 > 1e-6)}
    yield {i: TangentOrSingularLine("x is not a simple point of the second section")
           for i in np.flatnonzero(d1 <= 1e-6)}
    rest = np.take_along_axis(pts1, np.sort(near[:, 1:], axis=1)[..., None], axis=1)
    y1 = rest[:, 0]
    mu = yield l_of_v, np.stack([l0, l0, l1, l1], axis=1), np.stack([y0, x, y1, x], axis=1)
    recon = -np.stack([mu[:, 0] / ratio_r(l0, pts0[:, 2:], x, y0),
                       mu[:, 2] / ratio_r(l1, rest[:, 1:], x, y1)], axis=1)
    dist = projective_distance(recon, mu[:, [1, 3]])
    return dist, dist


def reconstruct_synthetic_residual(C4: PlaneQuartic):
    """Oracle for the continued-product formula: choose u, v, feed the
    ratios a_i = -v_i/u_i, b_i = -(sum v)/(sum u); output must be
    proportional to u (sequences of length 5)."""
    u = yield normals, 5
    v = yield normals, 5
    b = -v.cumsum(axis=1) / u.cumsum(axis=1)
    dist = projective_distance(reconstruct_tangent_coords(-v / u, b), u / u[:, :1])
    return dist, dist
