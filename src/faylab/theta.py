"""Riemann theta functions with half-integer characteristics.

Evaluates

    theta[a,b](z | Omega) = sum_{n in Z^g} exp(pi*i (n+a)' Omega (n+a)
                                               + 2*pi*i (n+a)' (z+b))

by a truncated lattice sum over an ellipsoid chosen from a certified
Gaussian tail bound.  Arguments are reduced modulo the period lattice
Z^g + Omega Z^g before summation; the exact exponential prefactor of the
reduction is kept as log-scale bookkeeping so unreduced Abel-Jacobi
vectors never overflow the series itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.special import erfc, gammaln


class ThetaError(Exception):
    pass


class NonPositiveDefinite(ThetaError):
    """Im(Omega) is not positive definite."""


class ToleranceUnachievable(ThetaError):
    """The requested tolerance needs more lattice points than the cap allows."""


#: default cap on the number of lattice terms a single evaluation may use
MAX_LATTICE_TERMS = 10**8

TWO_PI_I = 2j * math.pi
PI_I = 1j * math.pi


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
        # row map M with |M v|^2 = v' Im(Omega) v
        self._M = self._chol.T.copy()
        self._S = math.sqrt(math.pi) * self._M
        self._StS_inv = np.linalg.inv(self._S.T @ self._S)
        self._S_norm = np.linalg.norm(self._S, 2)
        self._Sinv_norm = np.linalg.norm(np.linalg.inv(self._S), 2)
        self._det_S = math.pi ** (self.g / 2.0) * float(np.prod(np.diag(self._chol)))
        self._lattice_cache = {}

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
    vals = (0.0, 0.5)
    out = []
    for a in product(vals, repeat=g):
        for b in product(vals, repeat=g):
            out.append(ThetaChar(a, b))
    return out


def odd_theta_chars(g):
    return [c for c in theta_chars(g) if c.parity == 1]


@dataclass
class ThetaValue:
    """Result of a theta evaluation.

    ``tail_bound`` is the certified truncation error of the reduced sum
    relative to the scale factor exp(pi y' Im(Omega)^-1 y), y = Im of the
    reduced argument.
    """

    value: complex
    gradient: object  # complex g-vector or None
    tail_bound: float


def _gauss_moments(x0, kmax):
    """M_k = int_x0^inf s^k exp(-s^2) ds for k = 0..kmax, x0 >= 0."""
    out = [0.5 * math.sqrt(math.pi) * float(erfc(x0))]
    if kmax >= 1:
        out.append(0.5 * math.exp(-x0 * x0))
    for k in range(2, kmax + 1):
        out.append(0.5 * (k - 1) * out[k - 2] + 0.5 * x0 ** (k - 1) * math.exp(-x0 * x0))
    return out


def _poly_mul(p, q):
    return list(np.convolve(p, q))


def _cell_tail_bound(rm: RiemannMatrix, R, gradient, center_offset):
    """Integral-comparison tail bound (tight for fine lattices).

    Compares the sum over lattice cells with the Gaussian integral over the
    region they cover.  With S = sqrt(pi) * chol(Im Omega)', D = |S| sqrt(g):

        tail <= det(S)^-1 * surf(g) * int_{R-2D}^inf (s+D)^(g-1) e^{-s^2} ds

    For gradients the summand carries an extra factor 2 pi |n+a| bounded by
    2 pi (|S^-1| (s + 2D) + center_offset).
    """
    g = rm.g
    D = rm._S_norm * math.sqrt(g)
    x0 = max(R - 2.0 * D, 0.0)
    surf = 2.0 * math.pi ** (g / 2.0) / math.exp(gammaln(g / 2.0))
    # (s + D)^(g-1) as polynomial coefficients in s, ascending
    poly = [1.0]
    for _ in range(g - 1):
        poly = _poly_mul(poly, [D, 1.0])
    if gradient:
        poly = _poly_mul(poly, [2.0 * math.pi * (rm._Sinv_norm * 2.0 * D + center_offset),
                                2.0 * math.pi * rm._Sinv_norm])
    moments = _gauss_moments(x0, len(poly) - 1)
    integral = sum(c * m for c, m in zip(poly, moments))
    return surf * integral / rm._det_S


def _geometric_tail_bound(rm: RiemannMatrix, R, gradient, center_offset):
    """Splitting tail bound (tight for coarse lattices).

    With r = |S(n+c)| and sigma the smallest singular value of S,

        sum_{r > R} f(r) e^{-r^2}
           <= sup_{r >= R} [f(r) e^{-r^2/2}] * e^{-R^2/4}
              * prod_axes sum_n e^{-sigma^2 (n+c)^2 / 4}

    where each axis sum is bounded by 2 + 2 sqrt(4 pi) / sigma.
    """
    g = rm.g
    sigma = 1.0 / rm._Sinv_norm
    axis = 2.0 + 2.0 * math.sqrt(4.0 * math.pi) / sigma
    if not gradient:
        return math.exp(-0.5 * R * R) * math.exp(-0.25 * R * R) * axis**g
    alpha = 2.0 * math.pi * rm._Sinv_norm
    beta = 2.0 * math.pi * center_offset
    # sup over r >= R of (alpha r + beta) exp(-r^2/2)
    q = beta / alpha
    r_star = 0.5 * (-q + math.sqrt(q * q + 4.0))
    r_sup = max(R, r_star)
    sup = (alpha * r_sup + beta) * math.exp(-0.5 * r_sup * r_sup)
    return sup * math.exp(-0.25 * R * R) * axis**g


def _tail_bound(rm: RiemannMatrix, R, gradient=False, center_offset=0.0):
    """Certified bound on the lattice tail outside radius R (the smaller of
    two independent bounds, each valid on its own)."""
    return min(_cell_tail_bound(rm, R, gradient, center_offset),
               _geometric_tail_bound(rm, R, gradient, center_offset))


def _term_estimate(rm: RiemannMatrix, R):
    """Rough count of lattice points inside radius R."""
    g = rm.g
    ball = math.pi ** (g / 2.0) / math.exp(gammaln(g / 2.0 + 1.0))
    return ball * R**g / rm._det_S + 3**g


def truncation_radius(rm: RiemannMatrix, tol, gradient=False, center_offset=0.0,
                      max_terms=None):
    """Smallest grid radius whose certified tail bound is below tol.

    Monotone: shrinking tol can only grow the radius.  Raises
    ToleranceUnachievable when the implied number of lattice terms exceeds
    the cap.
    """
    if not 0.0 < tol:
        raise ValueError("tol must be positive")
    if max_terms is None:
        max_terms = MAX_LATTICE_TERMS
    R = 0.5
    while _tail_bound(rm, R, gradient, center_offset) > tol:
        R += 0.25
        if _term_estimate(rm, R) > max_terms:
            raise ToleranceUnachievable(
                f"radius {R:.1f} would need more than {max_terms:.0g} lattice terms")
    return R


def _ellipsoid_points(rm: RiemannMatrix, center, R):
    """Integer points n with |S (n + center)| <= R, as an (N, g) array."""
    g = rm.g
    ext = R * np.sqrt(np.diag(rm._StS_inv))
    lows = np.ceil(-center - ext).astype(int)
    highs = np.floor(-center + ext).astype(int)
    axes = [np.arange(lo, hi + 1) for lo, hi in zip(lows, highs)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=-1).astype(float)
    w = (pts + center) @ rm._S.T
    keep = np.einsum("ij,ij->i", w, w) <= R * R
    return pts[keep]


def _reduce_arguments(Z, rm: RiemannMatrix, char: ThetaChar):
    """Reduce each row of Z modulo the lattice; return (Zr, log prefactors)."""
    a = np.array(char.a)
    b = np.array(char.b)
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

    Returns (values, gradients, radius, tail_bounds); gradients is None
    unless requested.  Values are the true analytic values (reduction
    prefactors folded back in).
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    if Z.shape[1] != rm.g:
        raise ValueError("argument dimension does not match genus")
    if char is None:
        char = ThetaChar.zero(rm.g)
    a = np.array(char.a)
    b = np.array(char.b)
    Zr, m0, lp = _reduce_arguments(Z, rm, char)
    centers = a + Zr.imag @ rm.imag_inv.T
    c_off = float(np.max(np.linalg.norm(centers - a, axis=1))) if len(centers) else 0.0
    R = truncation_radius(rm, tol, gradient=gradient, center_offset=c_off)
    # reduced arguments keep their centers within D/2 of the characteristic,
    # so one cached enumeration around `a` covers every batch at this radius
    D = rm._S_norm * math.sqrt(rm.g)
    R_cache = 0.25 * math.ceil((R + 0.5 * D + 0.05) / 0.25)
    key = (char.a, char.b, R_cache)
    if key not in rm._lattice_cache:
        pts = _ellipsoid_points(rm, a, R_cache)
        na = pts + a
        e_quad = PI_I * np.einsum("ij,ij->i", na @ rm.omega, na)
        rm._lattice_cache[key] = (na, e_quad)
    na, e_quad = rm._lattice_cache[key]
    e_lin = TWO_PI_I * (na @ (Zr + b).T)
    terms = np.exp(e_quad[:, None] + e_lin)
    vals_red = terms.sum(axis=0)
    pref = np.exp(lp)
    values = pref * vals_red
    grads = None
    if gradient:
        grads_red = TWO_PI_I * np.einsum("nm,ng->mg", terms, na)
        # d/dz of the prefactor contributes -2 pi i m0 times the value
        grads = pref[:, None] * (grads_red - TWO_PI_I * m0 * vals_red[:, None])
    tail = _tail_bound(rm, R, gradient=gradient, center_offset=c_off)
    tails = np.full(len(Z), tail)
    return values, grads, R, tails


def theta(z, rm: RiemannMatrix, char: ThetaChar = None, tol=1e-10,
          gradient=False) -> ThetaValue:
    """Evaluate a single theta value (optionally with its z-gradient)."""
    if not 0.0 < tol <= 1e-3:
        raise ValueError("tol must lie in (0, 1e-3]")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    values, grads, _, tails = theta_batch(z[None, :], rm, char, tol,
                                          gradient=gradient)
    return ThetaValue(value=complex(values[0]),
                      gradient=None if grads is None else grads[0],
                      tail_bound=float(tails[0]))


def theta_gradient(z, rm: RiemannMatrix, char: ThetaChar = None, tol=1e-10):
    """The g-vector of first partials (d theta / d z_i)(z)."""
    return theta(z, rm, char, tol, gradient=True).gradient
