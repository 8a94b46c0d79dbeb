"""Scalar kernels on a curve: the Fay kernel F, the prime form E, the
half-differential h, the pulled-back derivative 1-form, and the triple
Massey product m3 computed by two formulas.

Conventions.  All section-valued quantities are numbers in the affine
x-coordinate frame at each curve point (dx trivializes the canonical
bundle).  A degree-(g-1) bundle L off the theta divisor is stored by its
theta point e (|theta(e)| bounded below); inside the kernels its theta
function is realized as the odd-characteristic translate

    theta_L(z) = theta[delta](z - xi),   xi = w_delta - e,

which has the same zero divisor as z -> theta(z + e) and keeps every
frame factor consistent between the prime-form and derivative formulas
(the two realizations differ by an exponential automorphy ratio that
would otherwise surface in cross-formula comparisons).
"""

from __future__ import annotations

import numpy as np

from .theta import theta, theta_batch, theta_gradient
from .curves import (HyperellipticCurve, CurvePoint, PeriodData, make_point,
                     abel_jacobi, find_odd_char, theta_scale, ThetaLineBundle,
                     CurveError)


class KernelError(Exception):
    pass


class NearDivisor(KernelError):
    """A theta denominator is too close to the theta divisor."""


class CoincidentPoints(KernelError):
    pass


class RootSearchFailed(KernelError):
    pass


TWO_PI_I = 2j * np.pi


class CurveContext:
    """Curve + periods + a fixed non-singular odd characteristic, with
    caches for Abel-Jacobi values and square-root branches of h."""

    def __init__(self, curve: HyperellipticCurve, periods: PeriodData,
                 base: CurvePoint = None, tol=1e-10, theta_multiplier=1.0):
        self.curve = curve
        self.periods = periods
        self.rm = periods.rm
        self.g = curve.genus
        self.tol = tol
        # scales every theta value; identities must be insensitive to it
        # (sections are defined up to constants), which the suite asserts
        self.mult = complex(theta_multiplier)
        if base is None:
            x0 = curve.branch_points.real.max() + 0.9 + 0.6j
            base = make_point(curve, x0, 1)
        self.base = base
        self.delta = find_odd_char(self.rm)
        self.w = self.delta.shift_vector(self.rm)
        self.a_delta = np.array(self.delta.a)
        self.scale_raw = theta_scale(self.rm)
        self.scale = abs(self.mult) * self.scale_raw
        self.grad0 = self.mult * theta_gradient(np.zeros(self.g), self.rm,
                                                self.delta, tol=tol)
        self._aj_cache = {}
        self._h_cache = {}
        self._h_flips = set()
        self._kappa = None

    # -- point bookkeeping -------------------------------------------------

    def aj(self, p: CurvePoint):
        """Abel-Jacobi vector of p from the context base point (cached, so
        every identity reuses the exact same representative)."""
        k = p.key()
        if k not in self._aj_cache:
            self._aj_cache[k] = abel_jacobi(self.periods, p, self.base)
        return self._aj_cache[k]

    def diff(self, q: CurvePoint, p: CurvePoint):
        """The Jacobian point q - p (independent of the base)."""
        return self.aj(q) - self.aj(p)

    # -- theta shorthands --------------------------------------------------

    def theta_delta(self, z):
        return self.mult * theta(z, self.rm, self.delta, tol=self.tol).value

    def theta_delta_many(self, Z):
        vals, _, _, _ = theta_batch(np.asarray(Z), self.rm, self.delta, tol=self.tol)
        return self.mult * vals

    def xi_of_bundle(self, L):
        e = L.e if isinstance(L, ThetaLineBundle) else np.asarray(L, dtype=complex)
        return self.w - e

    # -- kernels -----------------------------------------------------------

    def omega_frame(self, p: CurvePoint):
        """Values of the normalized differentials at p, as dx-coefficients:
        A^{-1} (x^{i-1} / y)."""
        y = p.y(self.curve)
        v = np.array([p.x**i for i in range(self.g)], dtype=complex) / y
        return self.periods.A_inv @ v


def theta_form_at(ctx: CurveContext, p: CurvePoint):
    """The 1-form sum_i (d theta[delta]/d z_i)(0) omega_i evaluated at p,
    as the coefficient of dx, for the context's odd characteristic delta."""
    return complex(ctx.grad0 @ ctx.omega_frame(p))


def h_value(ctx: CurveContext, p: CurvePoint):
    """Principal square root of theta_form_at, cached per point.

    h(p)^2 equals the derivative 1-form at p; identities use each point's
    h with uniform parity, so the branch choice cancels (asserted by the
    sign-flip tests, not assumed).
    """
    k = p.key()
    if k not in ctx._h_cache:
        val = np.sqrt(complex(ctx.grad0 @ ctx.omega_frame(p)))
        ctx._h_cache[k] = val
    out = ctx._h_cache[k]
    return -out if k in ctx._h_flips else out


def fay_F(ctx: CurveContext, xi1, xi2, threshold=1e-8):
    """F(xi1, xi2) = theta(xi1+xi2) / (theta(xi1) theta(xi2)) for the
    odd-characteristic theta (a degree-1 theta vanishing at 0)."""
    xi1 = np.asarray(xi1, dtype=complex)
    xi2 = np.asarray(xi2, dtype=complex)
    vals = ctx.theta_delta_many([xi1 + xi2, xi1, xi2])
    if min(abs(vals[1]), abs(vals[2])) < threshold * ctx.scale:
        raise NearDivisor("theta denominator below threshold in F")
    return complex(vals[0] / (vals[1] * vals[2]))


def kronecker_F(ctx: CurveContext, x, xi, threshold=1e-8):
    """Genus-1 Fay kernel (the Kronecker function up to the theta'(0)
    normalization); arguments are scalars."""
    if ctx.g != 1:
        raise ValueError("kronecker_F needs a genus-1 context")
    return fay_F(ctx, np.atleast_1d(x), np.atleast_1d(xi), threshold)


def prime_form(ctx: CurveContext, p: CurvePoint, q: CurvePoint, threshold=1e-12):
    """E(p, q) = theta[delta](q - p) / (h(p) h(q)), in the x-frames.

    Antisymmetric; simple zero on the diagonal with residue-1
    normalization: E(p, t) ~ (x_t - x_p) as t -> p.
    """
    if p.key() == q.key():
        raise CoincidentPoints("prime form needs distinct points")
    v = ctx.diff(q, p)
    th = ctx.theta_delta(v)
    return complex(th / (h_value(ctx, p) * h_value(ctx, q)))


def massey_m3_prime(ctx: CurveContext, L, p: CurvePoint, q: CurvePoint,
                    threshold=1e-8):
    """m3(L, p, q) = theta_L(q - p) / (E(p, q) theta_L(0)), the prime-form
    route, with theta_L the odd-characteristic translate of the bundle."""
    if p.key() == q.key():
        raise CoincidentPoints("m3 needs distinct points")
    xi = ctx.xi_of_bundle(L)
    v = ctx.diff(q, p)
    num, den = ctx.theta_delta_many([v - xi, -xi])
    if abs(den) < threshold * ctx.scale:
        raise NearDivisor("theta_L(0) below threshold: h^0(L) != 0 numerically")
    E = prime_form(ctx, p, q)
    return complex(num / (E * den))


def massey_m3_theta(ctx: CurveContext, xi, p: CurvePoint, q: CurvePoint,
                    threshold=1e-8):
    """The derivative-formula route:

        m3(xi(D), p, q) = theta[d](v - xi) theta'[d](0)(p)
                          / (theta[d](v) theta[d](-xi)) * h(q)/h(p),

    v = q - p; the trailing ratio is the canonical-identification frame
    factor that lands the value in the same affine frames as the
    prime-form route.
    """
    if p.key() == q.key():
        raise CoincidentPoints("m3 needs distinct points")
    xi = np.asarray(xi, dtype=complex)
    v = ctx.diff(q, p)
    num, mid, den = ctx.theta_delta_many([v - xi, v, -xi])
    if abs(den) < threshold * ctx.scale or abs(mid) < threshold * ctx.scale:
        raise NearDivisor("theta denominator below threshold in m3")
    form_p = theta_form_at(ctx, p)
    return complex(num * form_p * h_value(ctx, q)
                   / (mid * den * h_value(ctx, p)))


def bundle_of_xi(ctx: CurveContext, xi):
    """Theta point of the bundle xi(D_delta); inverse of xi_of_bundle."""
    return ThetaLineBundle(e=ctx.w - np.asarray(xi, dtype=complex), degree=ctx.g - 1)


def sample_point(ctx: CurveContext, rng, spread=1.6, clearance=0.04):
    """Random curve point in a box around the branch locus, clear of it."""
    e = ctx.curve.branch_points
    lo_r, hi_r = e.real.min(), e.real.max()
    lo_i, hi_i = e.imag.min(), e.imag.max()
    c_r, c_i = 0.5 * (lo_r + hi_r), 0.5 * (lo_i + hi_i)
    half_r = 0.5 * (hi_r - lo_r) + ctx.curve.min_gap
    half_i = 0.5 * (hi_i - lo_i) + ctx.curve.min_gap
    for _ in range(200):
        x = (c_r + spread * half_r * (2 * rng.random() - 1)
             + 1j * (c_i + spread * half_i * (2 * rng.random() - 1)))
        if ctx.curve.dist_to_branch(np.array([x]))[0] > clearance * ctx.curve.min_gap:
            sheet = 1 if rng.random() < 0.5 else -1
            return make_point(ctx.curve, x, sheet)
    raise CurveError("could not sample a point clear of the branch locus")


def sample_xi(ctx: CurveContext, rng, spread=0.9):
    """Random Jacobian point u + Omega v with u, v uniform in a box."""
    u = spread * (rng.random(ctx.g) - 0.5)
    v = spread * (rng.random(ctx.g) - 0.5)
    return u + ctx.rm.omega @ v


def riemann_constant(ctx: CurveContext, n_divisors=None, rng_seed=20240719):
    """Vector kappa with theta(AJ(D) - kappa) = 0 for effective divisors D
    of degree g-1 (Abel-Jacobi taken from the context base).

    Calibration solve: kappa is a half-period shifted by (g-1) times the
    base-to-branch-point vector; candidates are scanned and verified on
    sampled divisors, then cached.
    """
    if ctx._kappa is not None:
        return ctx._kappa
    from .curves import abel_jacobi_from_branch
    from itertools import product as iproduct
    g = ctx.g
    if n_divisors is None:
        n_divisors = g + 2
    V1 = abel_jacobi_from_branch(ctx.periods, ctx.base, 0)
    rng = np.random.default_rng(rng_seed)
    Us = []
    for _ in range(n_divisors):
        u = np.zeros(g, dtype=complex)
        for _ in range(g - 1):
            u += ctx.aj(sample_point(ctx, rng))
        Us.append(u)
    best = None
    for a in iproduct((0.0, 0.5), repeat=g):
        for b in iproduct((0.0, 0.5), repeat=g):
            wc = ctx.rm.omega @ np.array(a) + np.array(b)
            kap = wc - (g - 1) * V1
            vals, _, _, _ = theta_batch(np.array([U - kap for U in Us]), ctx.rm,
                                        tol=ctx.tol)
            score = float(np.abs(vals).max()) / ctx.scale_raw
            if best is None or score < best[0]:
                best = (score, kap)
    if best[0] > 1e-6:
        raise RootSearchFailed(f"Riemann constant calibration failed ({best[0]:.2e})")
    ctx._kappa = best[1]
    return ctx._kappa


def delta_divisor_root(ctx: CurveContext, char=None):
    """Root data of the derivative-form numerator N(x) = sum_i w_i x^(i-1),
    w = A^-T grad theta[delta](0).

    The 1-form (sum_i d theta/d z_i (0) omega_i) equals N(x) dx / y, so its
    divisor (twice the odd-characteristic divisor) is detected by the roots
    of N: for genus 2 the single root must sit at a Weierstrass point,
    possibly the one at infinity (N then degenerates to a constant).
    Returns (roots, min distance of each root to the branch locus).
    """
    if char is None:
        grad = ctx.grad0
    else:
        grad = theta_gradient(np.zeros(ctx.g), ctx.rm, char, tol=ctx.tol)
    w = ctx.periods.A_inv.T @ grad
    coeffs = w[::-1]                      # highest degree first
    lead = np.abs(coeffs[0])
    rest = np.abs(coeffs[1:]).max() if ctx.g > 1 else 0.0
    if ctx.g == 1 or lead < 1e-10 * max(rest, 1e-300):
        return np.array([]), np.array([])  # divisor at the infinite branch point
    roots = np.roots(coeffs)
    dists = np.array([np.abs(r - ctx.curve.branch_points).min() for r in roots])
    return roots, dists
