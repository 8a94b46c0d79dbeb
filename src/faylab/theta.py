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
Hoeij & Schmies, "Computing Riemann theta functions", Math. Comp. 73, 2004):
E(n) = exp(pi i (n+a)' Omega (n+a)) is cached per lattice and a block of rows
takes W_k[j] = exp(2 pi i (j + a_k)(z_k + b_k)) over each axis's span of j,
so the term at n is E(n) W_1[n_1] ... W_g[n_g].  As |Im z_k| <= (1/2) sum_i
|Im Omega_ki| for a reduced z, log|W_k[j]| <= 2 pi max_j |j + a_k| (1/2)
sum_i |Im Omega_ki|, far below the 709 at which a double overflows.
Rounding, to first order in eps = 2^-53: with Q_n = pi sum_ij |n_i + a_i|
|Omega_ij| |n_j + a_j| and L_n = 2 pi sum_k |n_k + a_k| |z_k + b_k|, a term
t_n (g + 1 exps of rounded arguments, g products) is within 2(g + 2) eps
(1 + Q_n + L_n) |t_n| and a sum of N terms within eps sum_n (2(g + 2)(1 +
Q_n + L_n) + N + 2) |t_n|, the gradient's k-th entry with |t_n| weighted by
2 pi |n_k + a_k|; the direct exp(quadratic + linear) sum obeys this bound too.
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

#: most terms x rows theta_batch holds at once over its two complex buffers
#: (128 KB each), so that a whole report's batch does not raise peak memory
THETA_BLOCK = 2**14

TWO_PI_I = 2j * math.pi
PI_I = 1j * math.pi

#: a cached lattice: n + a, E(n), each axis's index of n_k and span of j + a_k
_Lattice = namedtuple("_Lattice", "na E index spans")


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
        self._StS_inv = np.linalg.inv(self._S.T @ self._S)
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


def _ellipsoid_points(rm: RiemannMatrix, center, R, R_row):
    """Integer points n with |w| <= R, w = S (n + center), and |w| - (1/2)
    sum_k |w.S_k| / |w| <= R_row (S_k column k of S), as an (N, g) array."""
    ext = R * np.sqrt(np.diag(rm._StS_inv))
    lows = np.ceil(-center - ext).astype(int)
    highs = np.floor(-center + ext).astype(int)
    axes = [np.arange(lo, hi + 1) for lo, hi in zip(lows, highs)]
    pts = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], -1).astype(float)
    w = (pts + center) @ rm._S.T
    ww = np.einsum("ij,ij->i", w, w)
    keep = (ww <= R * R) & (ww - 0.5 * np.abs(w @ rm._S).sum(axis=1) <= R_row * np.sqrt(ww))
    return pts[keep]


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
    if char is None:
        char = ThetaChar.zero(rm.g)
    a, b = np.array(char.a), np.array(char.b)
    Zr, m0, lp = _reduce_arguments(Z, rm, char)
    c_off = float(np.max(np.linalg.norm(Zr.imag @ rm.imag_inv.T, axis=1), initial=0.0))
    # without a gradient the tail bound does not depend on the offset
    r_key = (tol, gradient, c_off if gradient else 0.0)
    if r_key not in rm._radius_cache:
        rm._radius_cache[r_key] = truncation_radius(rm, tol, gradient, c_off)
    R = rm._radius_cache[r_key]
    # rows center their balls at a + y, |y_k| <= 1/2, so |S y| <= D/2; one
    # cached lattice around `a` holds every row's ball (b enters only the
    # linear term): n with w = S(n + a) lies in none if |w| - (1/2) sum_k
    # |w.S_k| / |w| > R_cache - D/2, which is at least R + 0.05 (the 0.05
    # covers y rounded past 1/2), as |S(n + a + y)| >= w.S(n + a + y) / |w|
    D = rm._S_norm * math.sqrt(rm.g)
    R_cache = 0.25 * math.ceil((R + 0.5 * D + 0.05) / 0.25)
    key = (char.a, R_cache)
    if key not in rm._lattice_cache:
        pts = _ellipsoid_points(rm, a, R_cache, R_cache - 0.5 * D)
        na, low = pts + a, pts.min(axis=0)
        E = np.exp(PI_I * np.einsum("ij,ij->i", na @ rm.omega, na))
        spans = [np.arange(lo, hi + 1) + ak for lo, hi, ak in zip(low, pts.max(axis=0), a)]
        rm._lattice_cache[key] = _Lattice(na, E, (pts - low).T.astype(np.intp), spans)
    lat = rm._lattice_cache[key]
    N = len(lat.E)
    # rows in blocks of THETA_BLOCK / 2 terms x rows, a lone last row joined
    # to the block before: a one-row sum takes another numpy loop
    step = max(2, THETA_BLOCK // (2 * N))
    bounds = list(range(0, max(len(Z) - 1, 1), step)) + [len(Z)]
    buf = np.empty((2, N * min(len(Z), step + 1)), dtype=complex)
    vals_red = np.empty(len(Z), dtype=complex)
    grads_red = np.empty((len(Z), rm.g), dtype=complex) if gradient else None
    for s, u in zip(bounds[:-1], bounds[1:]):
        # term (n, row) = E(n) prod_k W_k[n_k, row], W_k from each axis's span;
        # the indices lie in their spans, and mode="clip" keeps take unbuffered
        terms, factor = buf[:, :N * (u - s)].reshape(2, N, u - s)
        for k, (span, idx, zk) in enumerate(zip(lat.spans, lat.index, (Zr[s:u] + b).T)):
            w = np.multiply.outer(span, zk)
            np.exp(np.multiply(TWO_PI_I, w, out=w), out=w)
            w.take(idx, axis=0, out=factor if k else terms, mode="clip")
            if k:
                terms *= factor
        terms *= lat.E[:, None]
        vals_red[s:u] = terms.sum(axis=0)
        if gradient:
            grads_red[s:u] = TWO_PI_I * np.einsum("nm,ng->mg", terms, lat.na)
    pref = np.exp(lp)
    # d/dz of the prefactor contributes -2 pi i m0 times the value
    grads = (pref[:, None] * (grads_red - TWO_PI_I * m0 * vals_red[:, None])
             if gradient else None)
    return pref * vals_red, grads


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
