"""Riemann theta functions with half-integer characteristics.

Evaluates

    theta[a,b](z | Omega) = sum_{n in Z^g} exp(pi*i (n+a)' Omega (n+a)
                                               + 2*pi*i (n+a)' (z+b))

by a truncated lattice sum.  `theta_batch` sums the series at each row
reduced modulo Z^g + Omega Z^g and multiplies by the exact prefactor of the
reduction (`_reduce_arguments` returns its log), so unreduced Abel-Jacobi
vectors never overflow the series.  A reduced row's terms decay as
exp(-|S(n + a + y)|^2), |y_k| <= 1/2, S'S = pi Im(Omega), and its sum takes
the ball |S(n + a + y)| <= R of one certified tail bound (`_tail_bound`; a
lattice-cell integral bound is smaller only once Im(Omega) < 0.1, and Thm 2
of Deconinck et al. below by 0.25-0.5 on the registry curves).  One lattice
per (a, R) serves every row: the n whose w = S(n + a) has |w| - (1/2) sum_k
|w.S_k| / |w| at most R + 0.05 (S_k column k of S; theta_batch rounds the
threshold up), as |S(n + a + y)| >= w.S(n + a + y) / |w| >= that left side.

Each term is a product of per-axis factors (Deconinck, Heil, Bobenko, van
Hoeij & Schmies, "Computing Riemann theta functions", Math. Comp. 73, 2004),
E(n) W_1[n_1] ... W_g[n_g]: E(n) = exp(pi i (n+a)' Omega (n+a)) is cached per
lattice, and a block builds W_k[j] = exp(2 pi i (j + a_k) zb_k), zb = z + b,
by one exp at j = 0 and |j| products by exp(+-2 pi i zb_k).  Per prefix
(n_1..n_{g-1}), in meshgrid order, an einsum sums E(n) W_g[n_g] over n_g
ascending; that takes the prefix's factors W_1[n_1] ... W_{g-1}[n_{g-1}], and
the prefixes are summed in order.  For a reduced z, log|W_k[j]| <= pi max_j
|j + a_k| sum_i |Im Omega_ki|, far below the 709 at which a double overflows.
Rounding, to first order in eps = 2^-53 (numpy's complex exp within 2.5 eps of
the exp of its rounded argument, a complex product within sqrt(5) eps): W_k[j]
is within (5(|j| + 1) + 4 pi (|j + a_k| + 1)|zb_k|) eps of its value, a direct
exp within (2.5 + 6 pi |j + a_k| |zb_k|) eps.  With Q_n = pi sum_ij |n_i + a_i|
|Omega_ij| |n_j + a_j| and L_n = 2 pi sum_k |n_k + a_k| |zb_k|, a term t_n of
the direct exp(quadratic + linear) sum is within 2(g + 2)(1 + Q_n + L_n) eps
|t_n|, one of the nested sum within M_n = 5 sum_k |n_k| eps |t_n| more (its
products), and a sum of N terms within eps sum_n (2(g + 2)(1 + Q_n + L_n) + M_n
+ N + 2) |t_n|, the gradient's k-th entry with |t_n| weighted by 2 pi |n_k + a_k|.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import product

import numpy as np


class ThetaError(Exception):
    pass


class NonPositiveDefinite(ThetaError):
    """Im(Omega) is not positive definite."""


class ToleranceUnachievable(ThetaError):
    """The requested tolerance needs more lattice points than the cap allows."""


#: default cap on the number of lattice terms a single evaluation may use
MAX_LATTICE_TERMS = 10**8

#: most complex entries x rows over a theta_batch block's axis tables, contraction
#: and one prefix factor (256 KB), so that a report's batch does not raise peak memory
THETA_BLOCK = 2**14

TWO_PI_I = 2j * math.pi
PI_I = 1j * math.pi

#: a cached lattice: n + a; E(n) and E(n)(n_k + a_k), k = 1..g, as a ((g + 1) P,
#: span) table over P prefixes n_1..n_{g-1} and the span of n_g, zero off the lattice;
#: the prefixes and that span as axis-table indices; _axis_tables' anchors, lo, runs
_Lattice = namedtuple("_Lattice", "na E prefix last anchors lo runs")


class RiemannMatrix:
    """A g x g symmetric complex matrix with positive definite imaginary part.

    Carries the period lattice Z^g + Omega Z^g and the Cholesky data used
    for lattice reduction and truncation-ellipsoid selection.
    """

    def __init__(self, omega):
        omega = np.atleast_2d(np.asarray(omega, dtype=complex))
        if omega.shape[0] != omega.shape[1]:
            raise ValueError("omega must be square")
        scale = max(np.abs(omega).max(), 1.0)
        if np.abs(omega - omega.T).max() > 1e-12 * scale:
            raise ValueError("omega must be symmetric")
        self.omega = 0.5 * (omega + omega.T)
        self.g = omega.shape[0]
        self.imag = self.omega.imag.copy()
        try:
            # L is lower triangular with L L' = Im(Omega)
            self._chol = np.linalg.cholesky(self.imag)
        except np.linalg.LinAlgError:
            raise NonPositiveDefinite("Im(Omega) is not positive definite")
        self.imag_inv = np.linalg.inv(self.imag)
        # S = sqrt(pi) M, with the row map M = L' (|M v|^2 = v' Im(Omega) v)
        self._S = math.sqrt(math.pi) * self._chol.T.copy()
        self._ext = np.sqrt(np.diag(np.linalg.inv(self._S.T @ self._S)))  # box of |Sv| <= 1
        self._S_norm = np.linalg.norm(self._S, 2)
        self._Sinv_norm = np.linalg.norm(np.linalg.inv(self._S), 2)
        self._det_S = math.pi ** (self.g / 2.0) * float(np.prod(np.diag(self._chol)))
        self._lattice_cache = {}
        self._radius_cache = {}

    def __repr__(self):
        return f"RiemannMatrix(g={self.g})"


@dataclass(frozen=True)
class ThetaChar:
    """Half-integer theta characteristic (a, b), entries in {0, 1/2}."""

    a: tuple
    b: tuple

    def __post_init__(self):
        for v in (*self.a, *self.b):
            if v not in (0.0, 0.5):
                raise ValueError("characteristic entries must be 0 or 1/2")

    @property
    def g(self):
        return len(self.a)

    @property
    def parity(self):
        """0 for even characteristics, 1 for odd ones."""
        return int(round(4.0 * np.dot(self.a, self.b))) % 2

    @classmethod
    def zero(cls, g):
        return cls((0.0,) * g, (0.0,) * g)

    def shift_vector(self, rm: RiemannMatrix):
        """The lattice half-point Omega a + b attached to the characteristic."""
        return rm.omega @ np.array(self.a) + np.array(self.b)


def theta_chars(g):
    """All 4^g half-integer characteristics, in lexicographic order."""
    vals = list(product((0.0, 0.5), repeat=g))
    return [ThetaChar(a, b) for a in vals for b in vals]


def odd_theta_chars(g):
    return [c for c in theta_chars(g) if c.parity == 1]


def _tail_bound(rm: RiemannMatrix, R, gradient, center_offset):
    """Certified bound on the lattice tail outside radius R (the splitting
    bound, the only one the radius search uses).

    With r = |S(n+c)| and sigma the smallest singular value of S,

        sum_{r > R} f(r) e^{-r^2}
           <= sup_{r >= R} [f(r) e^{-r^2/2}] * e^{-R^2/4}
              * prod_axes sum_n e^{-sigma^2 (n+c)^2 / 4}

    where each axis sum is bounded by 2 + 2 sqrt(4 pi) / sigma.
    """
    sigma = 1.0 / rm._Sinv_norm
    axis = (2.0 + 2.0 * math.sqrt(4.0 * math.pi) / sigma)**rm.g
    if not gradient:
        return math.exp(-0.5 * R * R) * math.exp(-0.25 * R * R) * axis
    alpha = 2.0 * math.pi * rm._Sinv_norm
    beta = 2.0 * math.pi * center_offset
    # sup over r >= R of (alpha r + beta) exp(-r^2/2)
    q = beta / alpha
    r_star = 0.5 * (-q + math.sqrt(q * q + 4.0))
    r_sup = max(R, r_star)
    sup = (alpha * r_sup + beta) * math.exp(-0.5 * r_sup * r_sup)
    return sup * math.exp(-0.25 * R * R) * axis


def truncation_radius(rm: RiemannMatrix, tol, gradient=False, center_offset=0.0):
    """Smallest grid radius whose certified tail bound is below tol.

    Monotone: shrinking tol can only grow the radius.  Raises
    ToleranceUnachievable when the implied number of lattice terms exceeds
    MAX_LATTICE_TERMS.
    """
    if not 0.0 < tol:
        raise ValueError("tol must be positive")
    R, g = 0.5, rm.g
    # the volume of the radius-R ball over det S, a rough count of its points
    ball = math.pi ** (g / 2.0) / math.exp(math.lgamma(g / 2.0 + 1.0)) / rm._det_S
    while _tail_bound(rm, R, gradient, center_offset) > tol:
        R += 0.25
        if ball * R**g + 3**g > MAX_LATTICE_TERMS:
            raise ToleranceUnachievable(f"radius {R:.1f} would need more than "
                                        f"{MAX_LATTICE_TERMS:.0g} lattice terms")
    return R


def _lattice(rm: RiemannMatrix, a, R):
    """The cached _Lattice at a that holds every row's ball of radius R: the n
    with w = S (n + a), |w| <= Rc and |w| - (1/2) sum_k |w.S_k| / |w| <= Rc - D/2
    (S_k column k of S).  A row's ball is centred at a + y, |y_k| <= 1/2, so
    |S y| <= D/2, and |S(n + a + y)| >= w.S(n + a + y) / |w| >= that left side,
    which cuts no ball as Rc - D/2 >= R + 0.05 (0.05 for y rounded past 1/2)."""
    D = rm._S_norm * math.sqrt(rm.g)
    Rc = 0.25 * math.ceil((R + 0.5 * D + 0.05) / 0.25)
    if (a, Rc) in rm._lattice_cache:
        return rm._lattice_cache[a, Rc]
    Rr, ext = Rc - 0.5 * D, (Rc * rm._ext).tolist()
    low = [math.ceil(-ak - ek) for ak, ek in zip(a, ext)]
    shape = [math.floor(ek - ak) - lk + 1 for ak, ek, lk in zip(a, ext, low)]
    # n + a over the box in meshgrid order: each run of shape[-1] points, n_g
    # fastest, shares its prefix n_1..n_{g-1}
    box = np.add(np.indices(shape, dtype=float).reshape(rm.g, -1).T, np.add(low, a), order="C")
    w = box @ rm._S.T
    ww = np.einsum("ij,ij->i", w, w)
    keep = (ww <= Rc * Rc) & (ww - 0.5 * np.abs(w @ rm._S).sum(axis=1) <= Rr * np.sqrt(ww))
    na, E = box[keep], np.zeros((rm.g + 1, len(box)), dtype=complex)
    E[0, keep] = np.exp(PI_I * np.einsum("ij,ij->i", na @ rm.omega, na))
    np.multiply(E[0], box.T, out=E[1:])
    kept = keep.reshape(-1, shape[-1])
    rows, cols = kept.any(axis=1), np.flatnonzero(kept.any(axis=0))
    E = E.reshape(rm.g + 1, *kept.shape)[:, rows, cols[0]:cols[-1] + 1]
    # n = 0 is kept, so lo <= 0 <= hi
    lo, hi = min(low), max(map(sum, zip(low, shape))) - 1
    first = low[-1] + int(cols[0]) - lo
    return rm._lattice_cache.setdefault((a, Rc), _Lattice(
        na, E.reshape(-1, E.shape[-1]),
        (box[::shape[-1], :-1][rows] - np.add(a[:-1], lo)).T.astype(np.intp),
        slice(first, first + E.shape[-1]),
        TWO_PI_I * np.array([[ak, 1.0, -1.0] for ak in a])[:, :, None], lo,
        np.array([2] * -lo + [0] + [1] * hi)))


def _reduce_arguments(Z, rm: RiemannMatrix, char: ThetaChar):
    """Reduce each row of Z modulo the lattice; return (Zr, m0, log prefactors)."""
    a, b = np.array(char.a), np.array(char.b)
    m0 = np.round(Z.imag @ rm.imag_inv.T)
    Z1 = Z - m0 @ rm.omega.T
    n0 = np.round(Z1.real)
    Zr = Z1 - n0
    # theta[a,b](zr + n0 + Omega m0) = exp(lp) theta[a,b](zr)
    lp = (TWO_PI_I * (n0 @ a)
          - TWO_PI_I * np.einsum("ij,ij->i", m0, Zr + b)
          - PI_I * np.einsum("ij,ij->i", m0 @ rm.omega, m0))
    return Zr, m0, lp


def _axis_tables(lat, zb):
    """W_k[j], j = lo..hi, at rows zb (g, rows) as a (g, hi - lo + 1, rows) array:
    exp(anchors zb) at j's entry of runs, then products outward from j = 0."""
    W, lo = np.exp(lat.anchors * zb[:, None]).take(lat.runs, axis=1), lat.lo
    np.cumprod(W[:, -lo:], axis=1, out=W[:, -lo:])
    np.cumprod(W[:, -lo::-1], axis=1, out=W[:, -lo::-1])
    return W


def theta_batch(Z, rm: RiemannMatrix, char: ThetaChar = None, tol=1e-10,
                gradient=False):
    """Evaluate theta[char](z | Omega) for every row z of Z.

    Returns (values, gradients), gradients None unless requested: the true
    analytic values (reduction prefactors folded back in), each reduced sum
    cut at the radius truncation_radius picks for tol, within _tail_bound.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    if Z.shape[1] != rm.g:
        raise ValueError("argument dimension does not match genus")
    char = char or ThetaChar.zero(rm.g)
    b = np.array(char.b)
    Zr, m0, lp = _reduce_arguments(Z, rm, char)
    # without a gradient the tail bound does not depend on the offset
    c_off = (math.sqrt(np.max(np.square(Zr.imag @ rm.imag_inv.T).sum(axis=1), initial=0.0))
             if gradient else 0.0)
    r_key = (tol, gradient, c_off)
    if r_key not in rm._radius_cache:
        rm._radius_cache[r_key] = truncation_radius(rm, tol, gradient, c_off)
    lat = _lattice(rm, char.a, rm._radius_cache[r_key])
    P = len(lat.E) // (rm.g + 1)
    E = lat.E if gradient else lat.E[:P]
    # rows in blocks of at most THETA_BLOCK entries x rows, a lone last row
    # joined to the block before: a one-row sum takes another numpy loop
    step = max(2, THETA_BLOCK // (len(E) + P + rm.g * len(lat.runs)))
    bounds = list(range(0, max(len(Z) - 1, 1), step)) + [len(Z)]
    sums = np.empty((len(E) // P, len(Z)), dtype=complex)
    for s, u in zip(bounds[:-1], bounds[1:]):
        W = _axis_tables(lat, (Zr[s:u] + b).T)
        # one contraction per prefix over the last axis, then its other factors
        C = np.einsum("pj,jr->pr", E, W[-1, lat.last]).reshape(len(sums), P, u - s)
        for w, idx in zip(W, lat.prefix):
            C *= w.take(idx, axis=0, mode="clip")
        sums[:, s:u] = C.sum(axis=1)
    pref = np.exp(lp)
    # d/dz of the prefactor contributes -2 pi i m0 times the value
    grads = (pref[:, None] * TWO_PI_I * (sums[1:].T - m0 * sums[0, :, None])
             if gradient else None)
    return pref * sums[0], grads


def _one_row(z, tol):
    """z as a one-row batch, once tol passes the single-point check."""
    if not 0.0 < tol <= 1e-3:
        raise ValueError("tol must lie in (0, 1e-3]")
    return np.atleast_1d(np.asarray(z, dtype=complex))[None, :]


def theta(z, rm: RiemannMatrix, tol=1e-10):
    """The complex value theta(z | Omega) at a single point z."""
    return complex(theta_batch(_one_row(z, tol), rm, tol=tol)[0][0])


def theta_gradient(z, rm: RiemannMatrix, char: ThetaChar = None, tol=1e-10):
    """The g-vector of first partials (d theta / d z_i)(z)."""
    return theta_batch(_one_row(z, tol), rm, char, tol, gradient=True)[1][0]
