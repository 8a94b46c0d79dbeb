"""Scalar identity checks: each identity evaluated as a residual over
randomized inputs on registry curves, with deterministic per-trial
random streams and resampling of rejected draws.

All bundle parameters are carried as exact C^g vectors (never reduced
mid-identity) so that every term of an identity uses one consistent set
of representatives; theta evaluations reduce internally with exact
prefactors and are therefore representative-free as values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .theta import theta_batch, ThetaError
from .curves import (HyperellipticCurve, period_matrix, random_line_bundle,
                     CurveError)
from .kernels import (CurveContext, fay_F, prime_form, massey_m3_prime,
                      massey_m3_theta, h_values, theta_form,
                      sample_point, sample_xi, delta_divisor_root,
                      NEAR_DIVISOR, NearDivisor, CoincidentPoints, KernelError)
from .quasidet import (QuasiMatrix, SingularMinor, random_quasimatrix,
                       check_sylvester, check_column_expansion, check_homological)
from .quartic import (PlaneQuartic, QuarticError, TangentOrSingularLine,
                      HigherOrderZero, NotAZero, DegenerateRatios, canprop_residual,
                      cor2_residual, ratio_dual_residual,
                      tangent_reconstruction_residual, reconstruct_synthetic_residual)
from .registry import registry_entries
from .report import IdentityReport
from .rng import trial_rng


class SuiteError(Exception):
    pass


class UnknownIdentity(SuiteError):
    pass


class BadTriple(KernelError):
    pass


#: rejections of a trial's draw: run_identity resamples from the same stream
_RETRY = (NearDivisor, CoincidentPoints, SingularMinor, BadTriple,
          TangentOrSingularLine, HigherOrderZero, NotAZero, DegenerateRatios)


def _rel(total, blocks):
    m = max(abs(b) for b in blocks)
    return abs(total), abs(total) / m


def _distinct_points(ctx, rng, count):
    """count sampled points; raises BadTriple (run_identity redraws) if two
    x-coordinates are within 1e-3 min_gap."""
    pts = [sample_point(ctx, rng) for _ in range(count)]
    xs = np.array([p.x for p in pts])
    d = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(d, np.inf)
    if d.min() <= 1e-3 * ctx.curve.min_gap:
        raise BadTriple("sampled points too close")
    return pts


def _points_and_xi(ctx, rng, count):
    return _distinct_points(ctx, rng, count), sample_xi(ctx, rng)


def _points(draws, idx):
    """Points idx of every trial's point list (the first entry of its
    draw), trial after trial."""
    return [pts[k] for pts, *_ in draws for k in idx]


def _aj_rows(ctx, draws):
    """The Abel-Jacobi vectors of every trial's points in one ctx.aj call,
    as a (trials, points, g) array."""
    return ctx.aj(_points(draws, range(len(draws[0][0])))).reshape(len(draws), -1, ctx.g)


# ---------------------------------------------------------------------------
# theta-kernel identities
#
# Each identity is a draw, a function (ctx, rng) in the table below that
# makes one trial's random choices and rejects bad ones, and an evaluation,
# `<name>_evaluate(ctx, draws)`, which yields every trial's (abs, rel) from
# one ctx.aj call and one call per kernel.  The arithmetic around the
# kernels runs trial by trial, so a trial's residual does not depend on
# the trials evaluated with it.


def _mainid_residuals(ctx, cases):
    """The residual of eq. (mainid), the three-block sum of F-products, of
    each case (X, Y, Z, T, xi): AJ vectors of x, y, z_i, t_i (Z and T of
    shape (n, g)) and xi, from one fay_F call.  Its arguments per case:
    F(z_i - z_j, z_j - t_j) for i != j; for each i F(z_i - x, xi),
    F(y - z_i, S + xi), F(x - z_i, z_i - t_i) and F(y - z_i, z_i - t_i);
    then F(y - x, S + xi) and F(y - x, xi)."""
    n = len(cases[0][2])
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    A, B = [], []
    for X, Y, Z, T, xi in cases:
        D = Z - T
        S = D.sum(axis=0)
        xis = np.broadcast_to(xi, Z.shape)
        A.append(np.concatenate([Z[i] - Z[j], Z - X, Y - Z, X - Z, Y - Z, [Y - X] * 2]))
        B.append(np.concatenate([D[j], xis, S + xis, D, D, [S + xi, xi]]))
    for F in fay_F(ctx, np.array(A), np.array(B)):
        Fzz = np.ones((n, n), dtype=complex)
        Fzz[i, j] = F[:len(i)]
        a, b, c, e = F[len(i):-2].reshape(4, n)
        blocks = list(Fzz.prod(axis=1) * (a * b))
        blocks.append(c.prod() * F[-2])
        blocks.append(-(e.prod() * F[-1]))
        yield _rel(sum(blocks), blocks)


def trisecant_general_evaluate(ctx, draws):
    """Eq. (mainid): the three-block sum of F-products over x, y, z_i, t_i
    (2 + 2n points) and a free Jacobian point xi."""
    n = len(draws[0][0]) // 2 - 1
    return _mainid_residuals(ctx, [(V[0], V[1], V[2:2 + n], V[2 + n:], xi)
                                   for V, (_, xi) in zip(_aj_rows(ctx, draws), draws)])


def trisecant_classical_evaluate(ctx, draws):
    """The two-fraction n=1 form of the trisecant identity over x, y, z, t
    and xi."""
    th = ctx.theta_delta([[X - T, Y - Z, X - Z, Y - T, xi, xi + Y - X + Z - T,
                           Z - T, Y - X, Z - X, xi + Z - X, xi + Y - T,
                           xi + Z - T, xi + Y - X]
                          for (X, Y, Z, T), (_, xi) in zip(_aj_rows(ctx, draws), draws)])
    for (xt, yz, xz, yt, t_xi, t_long, zt, yx, zx, t_zx, t_yt, r1, r2) in th:
        if min(abs(xz), abs(yt), abs(zx)) < NEAR_DIVISOR * ctx.scale:
            raise NearDivisor("trisecant denominator too small")
        L1 = (xt * yz / (xz * yt)) * t_xi * t_long
        L2 = (zt * yx / (zx * yt)) * t_zx * t_yt
        R = r1 * r2
        yield _rel(L1 + L2 - R, [L1, L2, R] if abs(R) > 0 else [L1, L2, 1.0])


def divisor_symmetric_evaluate(ctx, draws):
    """Cor. (divisorid): the symmetric F-product identity over y and n+1
    pairs z_i, t_i, which is eq. (mainid) over the last n pairs at x = z_0,
    xi = z_0 - t_0."""
    n = (len(draws[0][0]) - 3) // 2
    return _mainid_residuals(ctx, [(V[1], V[0], V[2:n + 2], V[n + 3:], V[1] - V[n + 2])
                                   for V in _aj_rows(ctx, draws)])


def prime_form_identity_draw(ctx, n, rng):
    """A theta point e, then x, y, z_i, t_i (2 + 2n points)."""
    e = random_line_bundle(ctx.rm, rng, ctx.scale_raw)
    return _distinct_points(ctx, rng, 2 + 2 * n), e


def prime_form_identity_evaluate(ctx, draws):
    """The three-block E/theta identity for an arbitrary degree-1 theta,
    realized with a random translate of the plain theta."""
    m = len(draws[0][0])
    n = m // 2 - 1
    args = []
    for V, (_, e) in zip(_aj_rows(ctx, draws), draws):
        X, Y, Z, T = V[0], V[1], V[2:2 + n], V[2 + n:]
        S = (Z - T).sum(axis=0)
        args.append(np.concatenate([Z - X + e, Y - Z + S + e,
                                    [Y - X + e, S + e, Y - X + S + e, e]]))
    vals, _, _, _ = theta_batch(np.concatenate(args), ctx.rm, tol=ctx.tol)
    vals = (ctx.mult * vals).reshape(len(draws), -1)
    # E[a, b] = E(pts[a], pts[b]), 1 on the diagonal, with the point
    # indices x = 0, y = 1, z_i = 2 + i, t_i = 2 + n + i
    a, b = np.nonzero(~np.eye(m, dtype=bool))
    Es = prime_form(ctx, _points(draws, a), _points(draws, b)).reshape(len(draws), -1)
    z = 2 + np.arange(n)
    t = z + n
    for row, v in zip(Es, vals):
        E = np.ones((m, m), dtype=complex)
        E[a, b] = row
        blocks = list(E[np.ix_(t, z)].prod(axis=0) / E[np.ix_(z, z)].prod(axis=0)
                      * E[0, 1] / (E[0, z] * E[1, z]) * v[:n] * v[n:2 * n])
        blocks.append((E[t, 1] / E[z, 1]).prod() * v[2 * n] * v[2 * n + 1])
        blocks.append(-(E[t, 0] / E[z, 0]).prod() * v[2 * n + 2] * v[2 * n + 3])
        yield _rel(sum(blocks), blocks)


def residue_identity_draw(ctx, n, rng):
    """n points x_i and n theta points, the last the lattice-closing one."""
    if n not in (2, 3):
        raise SuiteError(f"residue identity implemented for n in (2, 3), not {n}")
    if n == 3 and ctx.g != 1:
        raise SuiteError("n=3 residue identity needs genus 1 "
                         "(degree count: n(g-1) = 2g-2 forces n = 2 otherwise)")
    xs = _distinct_points(ctx, rng, n)
    xis = [sample_xi(ctx, rng) for _ in range(n - 1)]
    return xs, np.array(xis + [-sum(xis)])


def residue_identity_evaluate(ctx, draws):
    """Good-triple residue identity: sum_i alpha(x_i) prod_{j != i}
    m3(L_j, x_j, x_i) = 0 with the bundles closing up to the canonical
    class (the last theta point is the lattice-closing value).

    n = 2 works at any genus with L_2 = omega L_1^{-1} (alpha constant in
    the odd-translate frames); n = 3 needs genus 1, where all bundles have
    degree 0 and alpha(x_i) = 1/h(x_i) realizes the trivialization.
    """
    n = len(draws[0][0])
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    m3 = massey_m3_prime(ctx, np.concatenate([xis[j] for _, xis in draws]),
                         _points(draws, j), _points(draws, i)).reshape(len(draws), -1)
    h = h_values(ctx, _points(draws, range(n))).reshape(len(draws), n)
    for row, h_x in zip(m3, h):
        m = np.ones((n, n), dtype=complex)
        m[i, j] = row
        blocks = m.prod(axis=1)
        if n == 3:
            blocks = blocks / h_x
        yield _rel(blocks.sum(), blocks)


def maincor_kernel_draw(ctx, rng):
    if ctx.g != 1:
        raise SuiteError("kernel-form corollary check runs at genus 1")
    return _points_and_xi(ctx, rng, 4)


def maincor_kernel_evaluate(ctx, draws):
    """Kernel-level n=1 instance of the two-bundle residue corollary over
    x, y, z, t and xi: alpha = phi * eta with phi the theta-ratio section
    and eta realized by the squared half-differential (folded into the m3
    frames)."""
    V = _aj_rows(ctx, draws)
    # phi(p) = theta[delta](p - t) / theta[delta](p - z)
    th = ctx.theta_delta([[Z - T, X - T, X - Z, Y - T, Y - Z] for X, Y, Z, T in V])
    xis = [[xi, Z - T - xi, Z - T - xi, xi] for (_, xi), (_, _, Z, T) in zip(draws, V)]
    m3 = massey_m3_prime(ctx, np.concatenate(xis), _points(draws, (0, 1, 1, 0)),
                         _points(draws, (2, 2, 0, 1)))
    h_z = h_values(ctx, _points(draws, [2]))
    for (zt, xt, xz, yt, yz), (m_xz, m_yz, m_yx, m_xy), h in zip(th, m3.reshape(-1, 4), h_z):
        t0 = zt / h**2 * m_xz * m_yz
        t1 = xt / xz * m_yx
        t2 = yt / yz * m_xy
        yield _rel(t0 + t1 + t2, [t0, t1, t2])


def cross_formula_draw(ctx, rng):
    """Points x, y, then the xi of a random bundle."""
    pts = _distinct_points(ctx, rng, 2)
    return pts, ctx.xi_of_bundle(random_line_bundle(ctx.rm, rng, ctx.scale_raw))


def cross_formula_evaluate(ctx, draws):
    """massey_m3_prime against massey_m3_theta on a random triple."""
    args = np.array([xi for _, xi in draws]), _points(draws, [0]), _points(draws, [1])
    m1 = massey_m3_prime(ctx, *args)
    m2 = massey_m3_theta(ctx, *args)
    return [(abs(a - b), abs(a - b) / abs(a)) for a, b in zip(m1, m2)]


def idcor_evaluate(ctx, draws):
    """Degenerate n=1 corollary m3(V(x-z), z, y) = m3(V,x,y) m3(V,x,z)^-1
    over x, y, z and xi, with the O(x-z) trivialization factor
    E(x,y)/(E(z,y)E(x,z)) that turns the abstract bundle equality into
    numbers in the affine frames."""
    xis = [[xi, xi, xi + X - Z] for (X, _, Z), (_, xi) in zip(_aj_rows(ctx, draws), draws)]
    m3 = massey_m3_prime(ctx, np.concatenate(xis), _points(draws, (0, 0, 2)),
                         _points(draws, (2, 1, 1)))
    E = prime_form(ctx, _points(draws, (2, 0, 0)), _points(draws, (1, 2, 1)))
    for (m_xz, m_xy, m_zy), (E_zy, E_xz, E_xy) in zip(m3.reshape(-1, 3), E.reshape(-1, 3)):
        lhs = m_zy * E_zy * E_xz / E_xy
        rhs = m_xy / m_xz
        yield abs(lhs - rhs), abs(lhs - rhs) / abs(rhs)


def theta_derivative_divisor_draw(ctx, rng):
    if ctx.g not in (1, 2):
        raise SuiteError("divisor-vanishing check runs at genus 1 or 2")
    return ([sample_point(ctx, rng) for _ in range(20)],)


def theta_derivative_divisor_evaluate(ctx, draws):
    """The derivative 1-form vanishes on the odd-characteristic divisor.

    The form is N(x) dx / y with N the adjoint numerator; its divisor is
    read off the roots of N.  Genus 2: the root must sit on a Weierstrass
    point (the odd-characteristic divisor is one; the x-chart cannot be
    evaluated on it directly, so the root distance is the residual).
    Genus 1: the divisor is empty, N is the nonzero constant making the
    form proportional to the invariant differential; the residual is the
    spread of theta_form * y over the controls.
    """
    vals = theta_form(ctx, _points(draws, range(20)))
    if ctx.g == 2:
        roots, dists = delta_divisor_root(ctx)
        # no root: the divisor sits at the branch point at infinity
        zero_val = float(dists.max()) / ctx.curve.min_gap if len(roots) else 0.0
    for (controls,), ctrl_vals in zip(draws, vals.reshape(len(draws), -1)):
        scale = float(np.median(np.abs(ctrl_vals)))
        if ctx.g == 1:
            ratios = np.array([v * p.y(ctx.curve) for v, p in zip(ctrl_vals, controls)])
            zero_val = float(np.abs(ratios - ratios.mean()).max() / abs(ratios.mean()))
        if float(np.abs(ctrl_vals).min()) / scale < 1e-3:
            raise NearDivisor("control point accidentally near the divisor")
        yield zero_val * scale, zero_val


def quasidet_geometric_draw(ctx, n, rng, block=1):
    """Points x_0..x_n, y_0..y_n, then one theta point per block slot."""
    pts = _distinct_points(ctx, rng, 2 * (n + 1))
    if block > 1 and ctx.g != 1:
        raise SuiteError("diagonal flat bundles are exercised at genus 1")
    return pts, np.array([sample_xi(ctx, rng) for _ in range(block)])


def quasidet_geometric_evaluate(ctx, draws):
    """Theta-kernel quasideterminant identity: |(m3(V,x_j,y_i))|_00 equals
    the twisted kernel times the prime-form cross-ratio product.

    One theta point is the scalar case; k of them make a diagonal flat
    bundle on a genus-1 curve (one per slot, same E-factor)."""
    n = len(draws[0][0]) // 2 - 1
    block = len(draws[0][1])
    # entries m3(xi_s, x_j, y_i) for every (s, i, j), then m3(xi_s + shift, x_0, y_0),
    # with x_k point k and y_k point n + 1 + k; EF = prod_k E(x_0, x_k) E(y_0, y_k)
    # / (E(x_0, y_k) E(y_0, x_k))
    s, i, j = np.indices((block, n + 1, n + 1)).reshape(3, -1)
    xis = [np.concatenate([xi[s], xi + sum(V[1:n + 1] - V[n + 2:])])
           for V, (_, xi) in zip(_aj_rows(ctx, draws), draws)]
    m3 = massey_m3_prime(ctx, np.concatenate(xis), _points(draws, [*j] + [0] * block),
                         _points(draws, [*(n + 1 + i)] + [n + 1] * block))
    x, y = list(range(1, n + 1)), list(range(n + 2, 2 * n + 2))
    E = prime_form(ctx, _points(draws, ([0] * n + [n + 1] * n) * 2),
                   _points(draws, x + y + y + x)).reshape(len(draws), 4, n)
    for m, (E_xx, E_yy, E_xy, E_yx) in zip(m3.reshape(len(draws), -1), E):
        ent = np.zeros((n + 1, n + 1, block, block), dtype=complex)
        ent[i, j, s, s] = m[:len(s)]
        lhs = QuasiMatrix(ent).qdet(0, 0)
        rhs = np.diag(m[len(s):] * (E_xx * E_yy / (E_xy * E_yx)).prod())
        num = float(np.abs(lhs - rhs).max())
        yield num, num / float(np.abs(rhs).max())


# ---------------------------------------------------------------------------
# carrier-level checks (no curve)


def quasidet_det_ratio_residual(env, rng):
    n = int(rng.integers(2, 6))
    A = random_quasimatrix(rng, n, 1)
    M = A.entries[:, :, 0, 0]
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n))
    minor = np.delete(np.delete(M, i, 0), j, 1)
    dm = np.linalg.det(minor)
    if abs(dm) < 1e-8:
        raise SingularMinor("oracle minor too small")
    oracle = (-1) ** (i + j) * np.linalg.det(M) / dm
    q = A.qdet(i, j)[0, 0]
    return abs(q - oracle), abs(q - oracle) / abs(oracle)


#: n x n carriers of k x k blocks; the column expansion draws n in 2..COLUMN_N
CARRIER_N, CARRIER_K, COLUMN_N = 3, 2, 4


def sylvester_residual(env, rng):
    A = random_quasimatrix(rng, CARRIER_N, CARRIER_K)
    r = check_sylvester(A, int(rng.integers(1, CARRIER_N)))
    return r, r


def column_expansion_residual(env, rng):
    A = random_quasimatrix(rng, int(rng.integers(2, COLUMN_N + 1)), CARRIER_K)
    r = check_column_expansion(A)
    return r, r


def homological_residual(env, rng):
    A = random_quasimatrix(rng, CARRIER_N, CARRIER_K)
    idx = rng.permutation(CARRIER_N)
    i, krow = int(idx[0]), int(idx[1])
    idx = rng.permutation(CARRIER_N)
    j, lcol = int(idx[0]), int(idx[1])
    r = check_homological(A, i, j, krow, lcol)
    return r, r


# ---------------------------------------------------------------------------
# identity registry and suite runner


@dataclass
class IdentitySpec:
    """One identity and the (trials, tol) it runs at, per key.

    `runner(env, rng)` makes one trial's draws and `evaluate(env, draws)`
    gives one (abs_res, rel_res) per draw, as an iterable; the default
    passes the draws through, for runners that return (abs_res, rel_res).
    `kind` is a registry curve type ("hyperelliptic" or "plane_quartic"),
    or "carrier" for checks that need no curve.  `table` maps a curve id
    or a genus to (trials, tol); a curve takes the row of its id if there
    is one, else the row of its genus, and carrier specs use the id "-".
    A (spec, curve) pair runs only if the curve finds a row.
    """
    name: str
    kind: str
    runner: object
    table: dict
    evaluate: object = lambda env, draws: draws


IDENTITIES = {}

for kind, rows in [
    ("hyperelliptic", [
        ("skewsym_n2", lambda ctx, rng: residue_identity_draw(ctx, 2, rng),
         residue_identity_evaluate, {1: (100, 1e-9), 2: (50, 1e-9), 3: (50, 1e-9)}),
        ("residue_n3", lambda ctx, rng: residue_identity_draw(ctx, 3, rng),
         residue_identity_evaluate, {1: (100, 1e-8)}),
        ("maincor_kernel", maincor_kernel_draw, maincor_kernel_evaluate, {1: (100, 1e-8)}),
        ("trisecant_general_n1", lambda ctx, rng: _points_and_xi(ctx, rng, 4),
         trisecant_general_evaluate, {1: (200, 1e-9), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("trisecant_general_n2", lambda ctx, rng: _points_and_xi(ctx, rng, 6),
         trisecant_general_evaluate, {1: (50, 1e-9), 2: (50, 1e-7), 3: (50, 1e-8)}),
        ("trisecant_general_n3", lambda ctx, rng: _points_and_xi(ctx, rng, 8),
         trisecant_general_evaluate, {1: (50, 1e-9), 2: (50, 1e-7), 3: (50, 1e-8)}),
        ("trisecant_classical", lambda ctx, rng: _points_and_xi(ctx, rng, 4),
         trisecant_classical_evaluate, {1: (200, 1e-9), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("divisor_symmetric_n1", lambda ctx, rng: (_distinct_points(ctx, rng, 5),),
         divisor_symmetric_evaluate, {1: (100, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("divisor_symmetric_n2", lambda ctx, rng: (_distinct_points(ctx, rng, 7),),
         divisor_symmetric_evaluate, {1: (50, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("prime_form_n1", lambda ctx, rng: prime_form_identity_draw(ctx, 1, rng),
         prime_form_identity_evaluate, {1: (200, 1e-8), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("prime_form_n2", lambda ctx, rng: prime_form_identity_draw(ctx, 2, rng),
         prime_form_identity_evaluate, {2: (50, 1e-7), 3: (50, 1e-8)}),
        ("theta_derivative_divisor", theta_derivative_divisor_draw,
         theta_derivative_divisor_evaluate, {1: (3, 1e-6), 2: (3, 1e-6)}),
        ("cross_formula_m3", cross_formula_draw, cross_formula_evaluate,
         {1: (200, 1e-8), 2: (200, 1e-8), 3: (50, 1e-8)}),
        ("idcor", lambda ctx, rng: _points_and_xi(ctx, rng, 3), idcor_evaluate,
         {1: (100, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("quasidet_geometric_n1", lambda ctx, rng: quasidet_geometric_draw(ctx, 1, rng),
         quasidet_geometric_evaluate, {1: (100, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("quasidet_geometric_n2", lambda ctx, rng: quasidet_geometric_draw(ctx, 2, rng),
         quasidet_geometric_evaluate, {1: (50, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("quasidet_geometric_diag",
         lambda ctx, rng: quasidet_geometric_draw(ctx, 1, rng, block=2),
         quasidet_geometric_evaluate, {1: (50, 1e-9)}),
    ]),
    ("plane_quartic", [
        ("canprop", canprop_residual,
         {"fermat": (200, 1e-9), 3: (100, 1e-8)}),
        ("cor2_three_term", cor2_residual,
         {"fermat": (100, 1e-9), 3: (50, 1e-8)}),
        ("ratio_dual", ratio_dual_residual,
         {"fermat": (200, 1e-9), 3: (100, 1e-8)}),
        ("tangent_reconstruction", tangent_reconstruction_residual,
         {"fermat": (100, 1e-8), 3: (100, 1e-8)}),
        ("reconstruct_synthetic", lambda env, rng: reconstruct_synthetic_residual(rng),
         {"fermat": (100, 1e-10), 3: (100, 1e-10)}),
    ]),
    ("carrier", [
        ("quasidet_det_ratio", quasidet_det_ratio_residual, {"-": (100, 1e-9)}),
        ("quasidet_sylvester", sylvester_residual, {"-": (100, 1e-9)}),
        ("quasidet_column_expansion", column_expansion_residual, {"-": (100, 1e-9)}),
        ("quasidet_homological", homological_residual, {"-": (100, 1e-9)}),
    ]),
]:
    for name, runner, *evaluate, table in rows:
        IDENTITIES[name] = IdentitySpec(name, kind, runner, table, *evaluate)


def _trials(spec, env, seed, label, trials, batch):
    """Draw each trial from its own stream, resampling rejected draws
    (_RETRY) from the same stream, up to 20 attempts per trial.  With
    batch, evaluate every trial's last draw in one call, and let any other
    exception through.  Without, evaluate each draw as it is made (a
    rejection there resamples too); a hard failure, or an infinite relative
    residual, ends the run.  Returns (one (abs, rel) per completed trial,
    the failure "" or "<exception class>: <message>")."""
    hard = () if batch else (KernelError, CurveError, SuiteError, QuarticError)
    out = []
    for trial in range(trials):
        rng = trial_rng(seed, label, trial)
        for _ in range(20):
            try:
                draw = spec.runner(env, rng)
                out += [draw] if batch else spec.evaluate(env, [draw])
            except _RETRY:
                continue
            except hard as ex:
                return out, f"{type(ex).__name__}: {ex}"
            break
        if not batch and out and math.isinf(out[-1][1]):
            break
    return (list(spec.evaluate(env, out)) if batch and out else out), ""


def run_identity(spec: IdentitySpec, env, curve_id, trials, tol, seed):
    """Run one identity for `trials` trials; resample (fresh draws from the
    same stream) on rejected draws (_RETRY), up to 20 attempts per trial.

    Every trial is drawn first and all are evaluated in one call.  If that
    raises anything but a rejected draw, the trials run again from fresh
    streams, one evaluation per draw, where a rejection in the evaluation
    resamples its trial and a hard failure fails the report at its trial.

    Reports carry requested vs completed counts: completion below 90%
    fails the report regardless of residuals.  An environment that failed
    to build (an exception in place of env) runs no trial and fails.
    """
    t0 = time.perf_counter()
    failure = f"{type(env).__name__}: {env}" if isinstance(env, Exception) else ""
    results = []
    if not failure:
        label = f"{spec.name}|{curve_id}"
        try:
            results, failure = _trials(spec, env, seed, label, trials, batch=True)
        except Exception:
            results, failure = _trials(spec, env, seed, label, trials, batch=False)
    completed = 0
    max_abs = max_rel = 0.0
    for abs_r, rel_r in results:
        completed += 1
        max_abs = max(max_abs, abs_r)
        max_rel = max(max_rel, rel_r)
        if math.isinf(max_rel):
            break
    if failure or completed == 0:
        # a hard failure, or no residual measured: report none, never a 0.0
        max_abs = max_rel = math.inf
    elapsed = int(1000 * (time.perf_counter() - t0))
    passed = (completed >= math.ceil(0.9 * trials)) and (max_rel < tol)
    return IdentityReport(identity_id=spec.name, curve_id=curve_id,
                          trials=trials, completed=completed,
                          max_abs_residual=max_abs, max_rel_residual=max_rel,
                          seed=seed, tol=tol, passed=passed, elapsed_ms=elapsed,
                          failure=failure)


@dataclass
class SuiteConfig:
    curves: list = None            # registry ids (None = full registry)
    identities: list = None       # identity names (None = all)
    trials: int = None            # override per-identity defaults
    master_seed: int = 42
    tol: float = None             # override per-identity defaults

    def validate(self):
        if self.identities is not None:
            for name in self.identities:
                if name not in IDENTITIES:
                    raise UnknownIdentity(f"unknown identity {name!r}")
        if self.trials is not None and self.trials < 1:
            raise SuiteError("trials must be >= 1")
        if self.tol is not None and not self.tol > 0:
            raise SuiteError("tol must be positive")


_CARRIER = {"id": "-", "type": "carrier"}


def _build_env(entry):
    """The evaluation environment a registry curve's identities run on."""
    if entry["type"] == "plane_quartic":
        return PlaneQuartic(entry["coefficients"], entry["id"])
    curve = HyperellipticCurve(entry["branch_points"], entry["id"])
    _, _, periods = period_matrix(curve)
    return CurveContext(curve, periods)


def run_suite(config: SuiteConfig, progress=None):
    """Execute the configured identities over the configured curves.

    Identities run in the configured order (all of them, sorted, if None);
    each runs on the configured curves of its kind in configured order, or
    once on "-" if it is a carrier check, whenever its table has a row for
    that curve (see IdentitySpec).  Environments are built once per curve,
    on first use.  Deterministic given (config, master_seed); per-check
    errors, and a curve whose environment cannot be built, give failing
    reports instead of aborting the suite.
    """
    config.validate()
    entries = registry_entries()
    if config.curves is None:
        curve_ids = sorted(entries)
    else:
        curve_ids = list(config.curves)
        for cid in curve_ids:
            if cid not in entries:
                raise SuiteError(f"unknown curve {cid!r}")
    names = config.identities if config.identities is not None else sorted(IDENTITIES)
    targets = [_CARRIER] + [entries[cid] for cid in curve_ids]
    envs = {"-": None}
    reports = []
    for name in names:
        spec = IDENTITIES[name]
        for entry in targets:
            cid = entry["id"]
            row = spec.table.get(cid, spec.table.get(entry.get("genus")))
            if entry["type"] != spec.kind or row is None:
                continue
            trials, tol = row
            trials = config.trials or trials
            tol = config.tol or tol
            if cid not in envs:
                try:
                    envs[cid] = _build_env(entry)
                except (CurveError, ThetaError, QuarticError, ValueError) as ex:
                    envs[cid] = ex
            rep = run_identity(spec, envs[cid], cid, trials, tol, config.master_seed)
            reports.append(rep)
            if progress:
                progress(rep)
    return reports
