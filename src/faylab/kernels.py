"""Kernels on a curve: the Fay kernel F, the prime form E, the
half-differential h, the pulled-back derivative 1-form, and the triple
Massey product m3 computed by two formulas.

Every kernel takes a batch first.  CurveContext.aj, theta_form and
h_values map an (N, 2) array of point rows (x, sheet) to one row per
point, each row as if the point were alone.  E and m3 take their pairs
(ps[k], qs[k]) with the Jacobian points V[k] = AJ(qs[k]) - AJ(ps[k]); F, E
and m3 make one theta_batch call for their whole batch, and raise if any
pair in it would.

Conventions.  All section-valued quantities are numbers in the affine
x-coordinate frame at each curve point (dx trivializes the canonical
bundle).  A degree-(g-1) bundle L off the theta divisor is stored by its
theta point e (|theta(e)| bounded below, as the identity bodies that draw
e enforce); inside the kernels its theta function is realized as the
odd-characteristic translate

    theta_L(z) = theta[delta](z - xi),   xi = w_delta - e,

which has the same zero divisor as z -> theta(z + e) and keeps every
frame factor consistent between the prime-form and derivative formulas
(the two realizations differ by an exponential automorphy ratio that
would otherwise surface in cross-formula comparisons).
"""

from __future__ import annotations

import numpy as np

from .theta import theta_batch, theta_gradient
from .curves import (HyperellipticCurve, PeriodData, make_point,
                     abel_jacobi, abel_jacobi_between_branch_points,
                     abel_jacobi_from_branch, find_odd_char, lattice_coords,
                     theta_scale, CurveError)


class KernelError(Exception):
    pass


class NearDivisor(KernelError):
    """A theta denominator is too close to the theta divisor."""


class CoincidentPoints(KernelError):
    pass


#: |theta| below NEAR_DIVISOR * ctx.scale counts as on the theta divisor
NEAR_DIVISOR = 1e-8


class CurveContext:
    """Curve + periods + a fixed non-singular odd characteristic, and the
    values derived from them; nothing in it changes once it is built."""

    def __init__(self, curve: HyperellipticCurve, periods: PeriodData):
        self.curve = curve
        self.periods = periods
        self.rm = periods.rm
        self.g = curve.genus
        self.tol = 1e-10
        self.base = make_point(curve, curve.branch_points.real.max() + 0.9 + 0.6j, 1)
        self.delta = find_odd_char(self.rm)
        self.w = self.delta.shift_vector(self.rm)
        self.scale = theta_scale(self.rm)
        self.grad0 = theta_gradient(np.zeros(self.g), self.rm, self.delta, tol=self.tol)
        # w = A^-T grad0: the derivative 1-form is N(x) dx / y, N(x) = sum_i w_i x^(i-1)
        self.form_coeffs = periods.A_inv.T @ self.grad0

    # -- point bookkeeping -------------------------------------------------

    def aj(self, ps):
        """Abel-Jacobi vectors of the point rows ps from the context base
        point, as an (N, g) array, in one abel_jacobi batch."""
        return abel_jacobi(self.periods, ps, self.base)

    # -- theta shorthands --------------------------------------------------

    def theta_delta(self, Z):
        """theta[delta] over the last axis of Z, in one theta_batch call for
        all leading indices."""
        Z = np.asarray(Z, dtype=complex)
        vals, _ = theta_batch(Z.reshape(-1, self.g), self.rm, self.delta, tol=self.tol)
        return vals.reshape(Z.shape[:-1])

    def xi_of_bundle(self, e):
        """xi = w - e for the theta point e of a degree-(g-1) bundle."""
        return self.w - np.asarray(e, dtype=complex)


def theta_form(ctx: CurveContext, ps):
    """The 1-form sum_i (d theta[delta]/d z_i)(0) omega_i at each point of
    ps, as the coefficient of dx, for the context's odd characteristic:
    N(x) / y, elementwise over the points."""
    x, s = np.transpose(ps).copy()
    y = s * ctx.curve.y_principal(x)
    return np.polynomial.polynomial.polyval(x, ctx.form_coeffs) / y


def h_values(ctx: CurveContext, ps):
    """Principal square roots of theta_form at the points ps.

    h(p)^2 equals the derivative 1-form at p; identities use each point's
    h with uniform parity, so the branch choice cancels (asserted by the
    sign-flip tests, not assumed).
    """
    return np.sqrt(theta_form(ctx, ps))


def _check_off_divisor(ctx, *denominators):
    """Raise NearDivisor if any theta denominator of a batch is below
    NEAR_DIVISOR * ctx.scale."""
    if min(np.abs(d).min(initial=np.inf) for d in denominators) < NEAR_DIVISOR * ctx.scale:
        raise NearDivisor("theta denominator below threshold")


def _check_pairs(ps, qs):
    """Raise ValueError unless the point arrays ps and qs are as long, and
    CoincidentPoints if any pair (ps[k], qs[k]) repeats a point."""
    if len(ps) != len(qs):
        raise ValueError(f"{len(ps)} points paired with {len(qs)}")
    if (np.asarray(ps) == qs).all(axis=-1).any():
        raise CoincidentPoints("kernel needs distinct points in every pair")


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


def prime_form(ctx: CurveContext, V, ps, qs):
    """E(p, q) = theta[delta](q - p) / (h(p) h(q)), in the x-frames, for
    each pair (ps[k], qs[k]), with V[k] = AJ(qs[k]) - AJ(ps[k]).

    Antisymmetric; simple zero on the diagonal with residue-1
    normalization: E(p, t) ~ (x_t - x_p) as t -> p.
    """
    _check_pairs(ps, qs)
    return ctx.theta_delta(V) / (h_values(ctx, ps) * h_values(ctx, qs))


def _m3_thetas(ctx, xis, V, ps, qs):
    """theta[delta] at V - xi, -xi and V for each pair, in one theta_batch
    call; raises NearDivisor if any theta_L(0) = theta[delta](-xi)."""
    _check_pairs(ps, qs)
    xis = np.asarray(xis, dtype=complex)
    num, den, th_v = ctx.theta_delta(np.stack([V - xis, -xis, V]))
    _check_off_divisor(ctx, den)
    return num, den, th_v


def massey_m3_prime(ctx: CurveContext, xis, V, ps, qs):
    """m3(xi, p, q) = theta_L(q - p) / (E(p, q) theta_L(0)) for each pair,
    the prime-form route, with theta_L(z) = theta[delta](z - xi) the
    odd-characteristic translate of the bundle (one xi and one V row per pair)."""
    num, den, th_v = _m3_thetas(ctx, xis, V, ps, qs)
    E = th_v / (h_values(ctx, ps) * h_values(ctx, qs))
    return num / (E * den)


def massey_m3_theta(ctx: CurveContext, xis, V, ps, qs):
    """The derivative-formula route, for each pair:

        m3(xi(D), p, q) = theta[d](v - xi) theta'[d](0)(p)
                          / (theta[d](v) theta[d](-xi)) * h(q)/h(p),

    v = q - p, a row of V; the trailing ratio is the canonical-identification
    frame factor that lands the value in the same affine frames as the
    prime-form route.
    """
    num, den, mid = _m3_thetas(ctx, xis, V, ps, qs)
    _check_off_divisor(ctx, mid)
    return num * theta_form(ctx, ps) * h_values(ctx, qs) / (mid * den * h_values(ctx, ps))


def sample_points(ctx: CurveContext, take, rows, count):
    """count random curve point rows per stream of rows, as a (len(rows),
    count, 2) array, and {i: the CurveError that stopped stream rows[i]};
    take(rows, n) reads the next n doubles of each stream.  A point takes up
    to 200 candidates x of 2 doubles each in a box 1.6 times the branch
    locus's (padded) extent, the first more than 0.04 min_gap clear of the
    locus 1 more for its sheet."""
    c_r, c_i, half_r, half_i = ctx.curve.box
    pts, errors, live = np.zeros((len(rows), count, 2), dtype=complex), {}, np.arange(len(rows))
    for j in range(count):
        todo = live
        for _ in range(200):
            u = take(rows[todo], 2)
            x = (c_r + 1.6 * half_r * (2 * u[:, 0] - 1)
                 + 1j * (c_i + 1.6 * half_i * (2 * u[:, 1] - 1)))
            clear = ctx.curve.dist_to_branch(x)
            ok = clear > 0.04 * ctx.curve.min_gap
            sheet = np.where(take(rows[todo[ok]], 1)[:, 0] < 0.5, 1, -1)
            pts[todo[ok], j] = np.stack([x[ok], sheet], axis=1)
            for i in todo[ok & (clear <= 1e-6)]:
                try:
                    make_point(ctx.curve, *pts[i, j])       # which refuses it
                except CurveError as ex:
                    errors[i] = ex
            if not len(todo := todo[~ok]):
                break
        errors.update({i: CurveError("could not sample a point clear of the branch locus")
                       for i in todo})
        live = np.setdiff1d(live, list(errors))
    return pts, errors


def sample_point(ctx: CurveContext, rng):
    """One random curve point row, read from the Generator rng by sample_points."""
    pts, errors = sample_points(ctx, lambda rows, n: rng.random((len(rows), n)), np.arange(1), 1)
    if errors:
        raise errors[0]
    return pts[0, 0]


def _lattice_points(ctx, U):
    """u + Omega v for the pairs (u, v) = U[..., 0, :], U[..., 1, :] of g reals,
    Omega v as a stacked matrix-vector product, which has the bits of a
    one-row omega @ v (v @ omega.T has other last bits)."""
    return U[..., 0, :] + (ctx.rm.omega @ U[..., 1, :, None])[..., 0]


def sample_xi(ctx: CurveContext, take, rows, count):
    """count random Jacobian points u + Omega v per stream, u and v uniform
    in [-0.45, 0.45]^g (g doubles for u, then g for v), as a (len(rows),
    count, g) array, and no failures ({})."""
    U = take(rows, 2 * ctx.g * count).reshape(len(rows), count, 2, ctx.g)
    return _lattice_points(ctx, 0.9 * (U - 0.5)), {}


def random_line_bundle(ctx: CurveContext, take, rows, count):
    """count theta points e = u + Omega v of degree-(g-1) line bundles per
    stream, u and v uniform in [0, 1)^g, as sample_xi draws.  The bodies
    that draw e reject it when |theta(e)| <= 1e-4 ctx.scale, near the
    theta divisor (h^0 > 0)."""
    return _lattice_points(ctx, take(rows, 2 * ctx.g * count).reshape(
        len(rows), count, 2, ctx.g)), {}


def riemann_constant(ctx: CurveContext):
    """Vector kappa with theta(AJ(D) - kappa) = 0 for effective divisors D
    of degree g-1 (Abel-Jacobi taken from the context base), reduced into
    the cell [-1/4, 3/4)^2g of lattice coordinates.

    For the Weierstrass base e_0 it is the sum of the half-periods
    AJ_{e_0}(e_k) over the even k (Mumford, Tata Lectures on Theta II, IIIa
    5.3); the context base moves it by -(g-1) AJ_{e_0}(base)."""
    even = range(0, 2 * ctx.g + 1, 2)
    kap = (sum(abel_jacobi_between_branch_points(ctx.periods, k, 0) for k in even)
           - (ctx.g - 1) * abel_jacobi_from_branch(ctx.periods, ctx.base))
    al, be = lattice_coords(kap, ctx.rm)
    return kap - np.floor(al + 0.25) - ctx.rm.omega @ np.floor(be + 0.25)


def delta_divisor_root(ctx: CurveContext):
    """Root data of the derivative-form numerator N(x) = sum_i w_i x^(i-1),
    w = ctx.form_coeffs = A^-T grad theta[delta](0).

    The 1-form (sum_i d theta/d z_i (0) omega_i) equals N(x) dx / y, so its
    divisor (twice the odd-characteristic divisor) is detected by the roots
    of N: for genus 2 the single root must sit at a Weierstrass point,
    possibly the one at infinity (N then degenerates to a constant).
    Returns (roots, min distance of each root to the branch locus).
    """
    coeffs = ctx.form_coeffs[::-1]        # highest degree first
    lead = np.abs(coeffs[0])
    rest = np.abs(coeffs[1:]).max() if ctx.g > 1 else 0.0
    if ctx.g == 1 or lead < 1e-10 * max(rest, 1e-300):
        return np.array([]), np.array([])  # divisor at the infinite branch point
    roots = np.roots(coeffs)
    return roots, ctx.curve.dist_to_branch(roots)
