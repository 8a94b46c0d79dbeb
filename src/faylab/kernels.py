"""Kernels on a curve: the Fay kernel F, the prime form E, the
half-differential h, the pulled-back derivative 1-form, and the triple
Massey product m3 computed by two formulas.

Every kernel takes a batch of points first.  CurveContext.aj, theta_form
and h_values map a point list to one row per point; F, E and m3 make one
theta_batch call for their whole batch, and raise if any pair in it would.

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

from itertools import product

import numpy as np

from .theta import theta_batch, theta_gradient
from .curves import (HyperellipticCurve, PeriodData, make_point,
                     abel_jacobi, abel_jacobi_from_branch, find_odd_char,
                     lattice_coords, theta_scale, CurveError)


class KernelError(Exception):
    pass


class NearDivisor(KernelError):
    """A theta denominator is too close to the theta divisor."""


class CoincidentPoints(KernelError):
    pass


class RootSearchFailed(KernelError):
    pass


#: |theta| below NEAR_DIVISOR * ctx.scale counts as on the theta divisor
NEAR_DIVISOR = 1e-8


class CurveContext:
    """Curve + periods + a fixed non-singular odd characteristic, with
    caches for Abel-Jacobi values and square-root branches of h."""

    def __init__(self, curve: HyperellipticCurve, periods: PeriodData,
                 theta_multiplier=1.0):
        self.curve = curve
        self.periods = periods
        self.rm = periods.rm
        self.g = curve.genus
        self.tol = 1e-10
        # scales every theta value; identities must be insensitive to it
        # (sections are defined up to constants), which the suite asserts
        self.mult = complex(theta_multiplier)
        self.base = make_point(curve, curve.branch_points.real.max() + 0.9 + 0.6j, 1)
        self.delta = find_odd_char(self.rm)
        self.w = self.delta.shift_vector(self.rm)
        self.scale_raw = theta_scale(self.rm)
        self.scale = abs(self.mult) * self.scale_raw
        self.grad0 = self.mult * theta_gradient(np.zeros(self.g), self.rm,
                                                self.delta, tol=self.tol)
        self._aj_cache = {}
        self._h_cache = {}
        self._kappa = None

    # -- point bookkeeping -------------------------------------------------

    def aj(self, ps):
        """Abel-Jacobi vectors of the points ps from the context base point,
        as an (N, g) array (cached per point, so every identity reuses the
        exact same representative), the misses in one abel_jacobi batch."""
        return _cached_rows(self._aj_cache, ps, lambda miss: abel_jacobi(
            self.periods, miss, self.base)).reshape(len(ps), self.g)

    # -- theta shorthands --------------------------------------------------

    def theta_delta(self, Z):
        """theta[delta] (times the context multiplier) over the last axis of
        Z, in one theta_batch call for all leading indices."""
        Z = np.asarray(Z, dtype=complex)
        vals, _, _, _ = theta_batch(Z.reshape(-1, self.g), self.rm, self.delta,
                                    tol=self.tol)
        return self.mult * vals.reshape(Z.shape[:-1])

    def xi_of_bundle(self, e):
        """xi = w - e for the theta point e of a degree-(g-1) bundle."""
        return self.w - np.asarray(e, dtype=complex)


def theta_form(ctx: CurveContext, ps):
    """The 1-form sum_i (d theta[delta]/d z_i)(0) omega_i at each point of
    ps, as the coefficient of dx, for the context's odd characteristic:
    grad0 . A^{-1} (x^{i-1} / y)."""
    out = np.empty(len(ps), dtype=complex)
    for k, p in enumerate(ps):
        v = np.array([p.x**i for i in range(ctx.g)], dtype=complex) / p.y(ctx.curve)
        out[k] = ctx.grad0 @ (ctx.periods.A_inv @ v)
    return out


def h_values(ctx: CurveContext, ps):
    """Principal square roots of theta_form at the points ps, cached per
    point; the cache misses of a batch take one theta_form call.

    h(p)^2 equals the derivative 1-form at p; identities use each point's
    h with uniform parity, so the branch choice cancels (asserted by the
    sign-flip tests, not assumed).
    """
    return _cached_rows(ctx._h_cache, ps, lambda miss: np.sqrt(theta_form(ctx, miss)))


def _cached_rows(cache, ps, compute):
    """Cached rows for the points ps; the misses take one compute call."""
    keys = [p.key() for p in ps]
    miss = {}
    for k, p in zip(keys, ps):
        if k not in cache:
            miss.setdefault(k, p)
    if miss:
        cache.update(zip(miss, compute(list(miss.values()))))
    return np.array([cache[k] for k in keys])


def _check_off_divisor(ctx, *denominators):
    """Raise NearDivisor if any theta denominator of a batch is below
    NEAR_DIVISOR * ctx.scale."""
    if min(np.abs(d).min() for d in denominators) < NEAR_DIVISOR * ctx.scale:
        raise NearDivisor("theta denominator below threshold")


def _pair_diffs(ctx, ps, qs):
    """The Jacobian points q - p of equal-length point lists, as an (N, g)
    array; raises CoincidentPoints if any pair repeats a point."""
    if any(p.key() == q.key() for p, q in zip(ps, qs, strict=True)):
        raise CoincidentPoints("kernel needs distinct points in every pair")
    V = ctx.aj(list(ps) + list(qs))
    return V[len(ps):] - V[:len(ps)]


def fay_F(ctx: CurveContext, xi1, xi2):
    """F(xi1, xi2) = theta(xi1+xi2) / (theta(xi1) theta(xi2)) for the
    odd-characteristic theta (a degree-1 theta vanishing at 0).

    xi1 and xi2 broadcast against each other; the last axis is C^g and the
    result has the broadcast leading shape.
    """
    xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=complex),
                                   np.asarray(xi2, dtype=complex))
    num, d1, d2 = ctx.theta_delta(np.stack([xi1 + xi2, xi1, xi2]))
    _check_off_divisor(ctx, d1, d2)
    return num / (d1 * d2)


def prime_form(ctx: CurveContext, ps, qs):
    """E(p, q) = theta[delta](q - p) / (h(p) h(q)), in the x-frames, for
    each pair (ps[k], qs[k]).

    Antisymmetric; simple zero on the diagonal with residue-1
    normalization: E(p, t) ~ (x_t - x_p) as t -> p.
    """
    th = ctx.theta_delta(_pair_diffs(ctx, ps, qs))
    return th / (h_values(ctx, ps) * h_values(ctx, qs))


def _m3_thetas(ctx, xis, ps, qs):
    """theta[delta] at v - xi, -xi and v (v = q - p) for each pair, in one
    theta_batch call; raises NearDivisor if any theta_L(0) = theta[delta](-xi)."""
    V = _pair_diffs(ctx, ps, qs)
    xis = np.asarray(xis, dtype=complex)
    num, den, th_v = ctx.theta_delta(np.stack([V - xis, -xis, V]))
    _check_off_divisor(ctx, den)
    return num, den, th_v


def massey_m3_prime(ctx: CurveContext, xis, ps, qs):
    """m3(xi, p, q) = theta_L(q - p) / (E(p, q) theta_L(0)) for each pair,
    the prime-form route, with theta_L(z) = theta[delta](z - xi) the
    odd-characteristic translate of the bundle (one xi per pair, (N, g))."""
    num, den, th_v = _m3_thetas(ctx, xis, ps, qs)
    E = th_v / (h_values(ctx, ps) * h_values(ctx, qs))
    return num / (E * den)


def massey_m3_theta(ctx: CurveContext, xis, ps, qs):
    """The derivative-formula route, for each pair:

        m3(xi(D), p, q) = theta[d](v - xi) theta'[d](0)(p)
                          / (theta[d](v) theta[d](-xi)) * h(q)/h(p),

    v = q - p; the trailing ratio is the canonical-identification frame
    factor that lands the value in the same affine frames as the
    prime-form route.
    """
    num, den, mid = _m3_thetas(ctx, xis, ps, qs)
    _check_off_divisor(ctx, mid)
    return num * theta_form(ctx, ps) * h_values(ctx, qs) / (mid * den * h_values(ctx, ps))


def sample_point(ctx: CurveContext, rng):
    """Random curve point in a box 1.6 times the branch locus's (padded)
    extent, at least 0.04 min_gap clear of it."""
    e = ctx.curve.branch_points
    lo_r, hi_r = e.real.min(), e.real.max()
    lo_i, hi_i = e.imag.min(), e.imag.max()
    c_r, c_i = 0.5 * (lo_r + hi_r), 0.5 * (lo_i + hi_i)
    half_r = 0.5 * (hi_r - lo_r) + ctx.curve.min_gap
    half_i = 0.5 * (hi_i - lo_i) + ctx.curve.min_gap
    for _ in range(200):
        x = (c_r + 1.6 * half_r * (2 * rng.random() - 1)
             + 1j * (c_i + 1.6 * half_i * (2 * rng.random() - 1)))
        if ctx.curve.dist_to_branch(np.array([x]))[0] > 0.04 * ctx.curve.min_gap:
            sheet = 1 if rng.random() < 0.5 else -1
            return make_point(ctx.curve, x, sheet)
    raise CurveError("could not sample a point clear of the branch locus")


def sample_xi(ctx: CurveContext, rng):
    """Random Jacobian point u + Omega v with u, v uniform in [-0.45, 0.45]^g."""
    u = 0.9 * (rng.random(ctx.g) - 0.5)
    v = 0.9 * (rng.random(ctx.g) - 0.5)
    return u + ctx.rm.omega @ v


def riemann_constant(ctx: CurveContext):
    """Vector kappa with theta(AJ(D) - kappa) = 0 for effective divisors D
    of degree g-1 (Abel-Jacobi taken from the context base).

    Calibration solve: kappa is a half-period shifted by (g-1) times the
    base-to-branch-point vector; candidates, each reduced into the
    fundamental cell, are scanned and verified on g + 2 sampled divisors,
    then cached.
    """
    if ctx._kappa is not None:
        return ctx._kappa
    g = ctx.g
    V1 = abel_jacobi_from_branch(ctx.periods, ctx.base, 0)
    rng = np.random.default_rng(20240719)
    # g + 2 divisors of g - 1 points each, summed in draw order
    pts = [sample_point(ctx, rng) for _ in range((g + 2) * (g - 1))]
    Us = ctx.aj(pts).reshape(g + 2, g - 1, g).sum(axis=1)
    best = None
    for a in product((0.0, 0.5), repeat=g):
        for b in product((0.0, 0.5), repeat=g):
            kap = ctx.rm.omega @ np.array(a) + np.array(b) - (g - 1) * V1
            # theta(U - kap) changes by an exponential factor under lattice
            # shifts of kap: score every candidate in one cell
            al, be = lattice_coords(kap, ctx.rm)
            kap = kap - np.floor(al + 0.25) - ctx.rm.omega @ np.floor(be + 0.25)
            vals, _, _, _ = theta_batch(Us - kap, ctx.rm, tol=ctx.tol)
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
