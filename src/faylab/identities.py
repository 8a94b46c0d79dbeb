"""Scalar identity checks: each identity evaluated as a residual over
randomized inputs on registry curves, with deterministic per-trial
random streams and resampling of rejected draws.

All bundle parameters are carried as exact C^g vectors (never reduced
mid-identity) so that every term of an identity uses one consistent set
of representatives; theta evaluations reduce internally with exact
prefactors and are therefore representative-free as values.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .theta import theta_batch, ThetaError
from .curves import HyperellipticCurve, period_matrix, CurveError
from .kernels import (CurveContext, fay_F, prime_form, massey_m3_prime,
                      massey_m3_theta, h_values, theta_form, random_line_bundle,
                      sample_points, sample_xi, delta_divisor_root,
                      NEAR_DIVISOR, NearDivisor, CoincidentPoints, KernelError)
from .quasidet import (QuasiMatrix, SingularMinor, random_quasimatrix,
                       check_sylvester, check_column_expansion, check_homological)
from .quartic import (PlaneQuartic, QuarticError, TangentOrSingularLine,
                      HigherOrderZero, NotAZero, DegenerateRatios, canprop_residual,
                      cor2_residual, ratio_dual_residual,
                      tangent_reconstruction_residual, reconstruct_synthetic_residual)
from .registry import registry_entries
from .report import IdentityReport
from .rng import SEED_LIMIT, Table, trial_rng


class SuiteError(Exception):
    pass


class UnknownIdentity(SuiteError):
    pass


class BadTriple(KernelError):
    pass


#: a draw with two x-coordinates within CLOSE_POINTS * min_gap is rejected
CLOSE_POINTS = 1e-3


#: rejections of a trial's draw: run_identity resamples from the same stream
_RETRY = (NearDivisor, CoincidentPoints, SingularMinor, BadTriple,
          TangentOrSingularLine, HigherOrderZero, NotAZero, DegenerateRatios)
#: hard failures of a trial: they fail its report at that trial
_HARD = (KernelError, CurveError, SuiteError, QuarticError)


def _rel(total, blocks):
    m = max(abs(b) for b in blocks)
    return abs(total), abs(total) / m


def _distinct_points(ctx, take, rows, count):
    """sample_points, and BadTriple (run_identity redraws) for each stream
    with two x-coordinates within CLOSE_POINTS min_gap."""
    pts, errors = sample_points(ctx, take, rows, count)
    d = np.abs(pts[:, :, None, 0] - pts[:, None, :, 0])
    close = (d <= CLOSE_POINTS * ctx.curve.min_gap) & ~np.eye(count, dtype=bool)
    for i in np.flatnonzero(close.any(axis=(1, 2))):
        errors.setdefault(i, BadTriple("sampled points too close"))
    return pts, errors


def _theta(ctx, Z):
    """The plain theta at the rows of Z."""
    return theta_batch(Z, ctx.rm, tol=ctx.tol)[0]


# ---------------------------------------------------------------------------
# theta-kernel identities
#
# Each identity (here, in faylab.quartic, or a carrier check) is a generator
# body(env, *rng, **params).  A hyperelliptic body yields its draw requests
# (sampler, count) and is sent its arrays; the others take a Generator, make
# one trial's random choices and reject bad ones.  A body yields each kernel
# request (kernel, *args), is sent the kernel's rows for its own args and
# returns the trial's (abs, rel).  The bodies never call a sampler or a
# kernel: _drive makes each request in one call for all the trials of a
# round, so a trial's residual does not depend on the trials run with it.


def _mainid(X, Y, Z, T, xi):
    """The residual of eq. (mainid), the three-block sum of F-products,
    over the AJ vectors of x, y, z_i, t_i (Z and T of shape (n, g)) and xi,
    from one fay_F request: F(z_i - z_j, z_j - t_j) for i != j; for each i
    F(z_i - x, xi), F(y - z_i, S + xi), F(x - z_i, z_i - t_i) and
    F(y - z_i, z_i - t_i); then F(y - x, S + xi) and F(y - x, xi)."""
    n = len(Z)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    D = Z - T
    S = D.sum(axis=0)
    xis = np.broadcast_to(xi, Z.shape)
    F = yield (fay_F, np.concatenate([Z[i] - Z[j], Z - X, Y - Z, X - Z, Y - Z, [Y - X] * 2]),
               np.concatenate([D[j], xis, S + xis, D, D, [S + xi, xi]]))
    Fzz = np.ones((n, n), dtype=complex)
    Fzz[i, j] = F[:len(i)]
    a, b, c, e = F[len(i):-2].reshape(4, n)
    blocks = list(Fzz.prod(axis=1) * (a * b))
    blocks.append(c.prod() * F[-2])
    blocks.append(-(e.prod() * F[-1]))
    return _rel(sum(blocks), blocks)


def trisecant_general(ctx, n):
    """Eq. (mainid): the three-block sum of F-products over x, y, z_i, t_i
    (2 + 2n points) and a free Jacobian point xi."""
    pts = yield _distinct_points, 2 + 2 * n
    xi, = yield sample_xi, 1
    V = yield CurveContext.aj, pts
    return (yield from _mainid(V[0], V[1], V[2:2 + n], V[2 + n:], xi))


def trisecant_classical(ctx):
    """The two-fraction n=1 form of the trisecant identity over x, y, z, t
    and xi."""
    pts = yield _distinct_points, 4
    xi, = yield sample_xi, 1
    X, Y, Z, T = yield CurveContext.aj, pts
    (xt, yz, xz, yt, t_xi, t_long, zt, yx, zx, t_zx, t_yt, r1, r2) = yield (
        CurveContext.theta_delta, [X - T, Y - Z, X - Z, Y - T, xi, xi + Y - X + Z - T,
                                   Z - T, Y - X, Z - X, xi + Z - X, xi + Y - T,
                                   xi + Z - T, xi + Y - X])
    if min(abs(xz), abs(yt), abs(zx)) < NEAR_DIVISOR * ctx.scale:
        raise NearDivisor("trisecant denominator too small")
    L1 = (xt * yz / (xz * yt)) * t_xi * t_long
    L2 = (zt * yx / (zx * yt)) * t_zx * t_yt
    R = r1 * r2
    return _rel(L1 + L2 - R, [L1, L2, R] if abs(R) > 0 else [L1, L2, 1.0])


def divisor_symmetric(ctx, n):
    """Cor. (divisorid): the symmetric F-product identity over y and n+1
    pairs z_i, t_i, which is eq. (mainid) over the last n pairs at x = z_0,
    xi = z_0 - t_0."""
    pts = yield _distinct_points, 2 * n + 3
    V = yield CurveContext.aj, pts
    return (yield from _mainid(V[1], V[0], V[2:n + 2], V[n + 3:], V[1] - V[n + 2]))


def prime_form_identity(ctx, n):
    """The three-block E/theta identity for an arbitrary degree-1 theta,
    realized with a random translate e of the plain theta, e off the theta
    divisor, over x, y, z_i, t_i (2 + 2n points)."""
    e, = yield random_line_bundle, 1
    pts = yield _distinct_points, 2 + 2 * n
    V = yield CurveContext.aj, pts
    X, Y, Z, T = V[0], V[1], V[2:2 + n], V[2 + n:]
    S = (Z - T).sum(axis=0)
    v = yield _theta, np.concatenate([Z - X + e, Y - Z + S + e,
                                      [Y - X + e, S + e, Y - X + S + e, e]])
    if abs(v[-1]) <= 1e-4 * ctx.scale:
        raise NearDivisor("line bundle near the theta divisor")
    # E[a, b] = E(pts[a], pts[b]), 1 on the diagonal, with the point
    # indices x = 0, y = 1, z_i = 2 + i, t_i = 2 + n + i
    a, b = np.nonzero(~np.eye(len(pts), dtype=bool))
    E = np.ones((len(pts), len(pts)), dtype=complex)
    E[a, b] = yield prime_form, V[b] - V[a], pts[a], pts[b]
    z = 2 + np.arange(n)
    t = z + n
    blocks = list(E[np.ix_(t, z)].prod(axis=0) / E[np.ix_(z, z)].prod(axis=0)
                  * E[0, 1] / (E[0, z] * E[1, z]) * v[:n] * v[n:2 * n])
    blocks.append((E[t, 1] / E[z, 1]).prod() * v[2 * n] * v[2 * n + 1])
    blocks.append(-(E[t, 0] / E[z, 0]).prod() * v[2 * n + 2] * v[2 * n + 3])
    return _rel(sum(blocks), blocks)


def residue_identity(ctx, n):
    """Good-triple residue identity: sum_i alpha(x_i) prod_{j != i}
    m3(L_j, x_j, x_i) = 0 over n points x_i and n theta points, the last
    the lattice-closing one, so that the bundles close up to the canonical
    class.

    n = 2 works at any genus with L_2 = omega L_1^{-1} (alpha constant in
    the odd-translate frames); n = 3 needs genus 1, where all bundles have
    degree 0 and alpha(x_i) = 1/h(x_i) realizes the trivialization.
    """
    if not (n == 2 or n == 3 and ctx.g == 1):
        raise SuiteError(
            f"residue identity implemented for n = 2, and n = 3 at genus 1 (degree count: "
            f"n(g-1) = 2g-2 forces n = 2 otherwise), not n = {n} at genus {ctx.g}")
    xs = yield _distinct_points, n
    xis = yield sample_xi, n - 1
    xis = np.concatenate([xis, [-sum(xis)]])
    V = yield CurveContext.aj, xs
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    m = np.ones((n, n), dtype=complex)
    m[i, j] = yield massey_m3_prime, xis[j], V[i] - V[j], xs[j], xs[i]
    blocks = m.prod(axis=1)
    if n == 3:
        blocks = blocks / (yield h_values, xs)
    return _rel(blocks.sum(), blocks)


def maincor_kernel(ctx):
    """Kernel-level n=1 instance of the two-bundle residue corollary over
    x, y, z, t and xi: alpha = phi * eta with phi the theta-ratio section
    and eta realized by the squared half-differential (folded into the m3
    frames)."""
    if ctx.g != 1:
        raise SuiteError("kernel-form corollary check runs at genus 1")
    pts = yield _distinct_points, 4
    xi, = yield sample_xi, 1
    X, Y, Z, T = yield CurveContext.aj, pts
    # phi(p) = theta[delta](p - t) / theta[delta](p - z)
    zt, xt, xz, yt, yz = yield CurveContext.theta_delta, [Z - T, X - T, X - Z, Y - T, Y - Z]
    m_xz, m_yz, m_yx, m_xy = yield (massey_m3_prime,
                                    np.array([xi, Z - T - xi, Z - T - xi, xi]),
                                    np.array([Z - X, Z - Y, X - Y, Y - X]),
                                    pts[[0, 1, 1, 0]], pts[[2, 2, 0, 1]])
    h, = yield h_values, pts[2:3]
    t0 = zt / h**2 * m_xz * m_yz
    t1 = xt / xz * m_yx
    t2 = yt / yz * m_xy
    return _rel(t0 + t1 + t2, [t0, t1, t2])


def cross_formula(ctx):
    """massey_m3_prime against massey_m3_theta on a random triple: points
    x, y, then the xi of a random bundle off the theta divisor."""
    pts = yield _distinct_points, 2
    es = yield random_line_bundle, 1
    th, = yield _theta, es
    if abs(th) <= 1e-4 * ctx.scale:
        raise NearDivisor("line bundle near the theta divisor")
    V = yield CurveContext.aj, pts
    args = ctx.xi_of_bundle(es), V[1:] - V[:1], pts[:1], pts[1:]
    m1, = yield (massey_m3_prime, *args)
    m2, = yield (massey_m3_theta, *args)
    return abs(m1 - m2), abs(m1 - m2) / abs(m1)


def idcor(ctx):
    """Degenerate n=1 corollary m3(V(x-z), z, y) = m3(V,x,y) m3(V,x,z)^-1
    over x, y, z and xi, with the O(x-z) trivialization factor
    E(x,y)/(E(z,y)E(x,z)) that turns the abstract bundle equality into
    numbers in the affine frames."""
    pts = yield _distinct_points, 3
    xi, = yield sample_xi, 1
    X, Y, Z = yield CurveContext.aj, pts
    m_xz, m_xy, m_zy = yield (massey_m3_prime, np.array([xi, xi, xi + X - Z]),
                              np.array([Z - X, Y - X, Y - Z]), pts[[0, 0, 2]], pts[[2, 1, 1]])
    E_zy, E_xz, E_xy = yield (prime_form, np.array([Y - Z, Z - X, Y - X]),
                              pts[[2, 0, 0]], pts[[1, 2, 1]])
    lhs = m_zy * E_zy * E_xz / E_xy
    rhs = m_xy / m_xz
    return abs(lhs - rhs), abs(lhs - rhs) / abs(rhs)


def theta_derivative_divisor(ctx):
    """The derivative 1-form vanishes on the odd-characteristic divisor.

    The form is N(x) dx / y with N the adjoint numerator; its divisor is
    read off the roots of N.  Genus 2: the root must sit on a Weierstrass
    point (the odd-characteristic divisor is one; the x-chart cannot be
    evaluated on it directly, so the root distance is the residual).
    Genus 1: the divisor is empty, N is the nonzero constant making the
    form proportional to the invariant differential; the residual is the
    spread of theta_form * y over 20 control points.
    """
    if ctx.g not in (1, 2):
        raise SuiteError("divisor-vanishing check runs at genus 1 or 2")
    controls = yield sample_points, 20
    vals = yield theta_form, controls
    if ctx.g == 2:
        roots, dists = delta_divisor_root(ctx)
        # no root: the divisor sits at the branch point at infinity
        zero_val = float(dists.max()) / ctx.curve.min_gap if len(roots) else 0.0
    else:
        x, s = controls.T.copy()
        ratios = vals * s * ctx.curve.y_principal(x)
        zero_val = float(np.abs(ratios - ratios.mean()).max() / abs(ratios.mean()))
    scale = float(np.median(np.abs(vals)))
    if float(np.abs(vals).min()) / scale < 1e-3:
        raise NearDivisor("control point accidentally near the divisor")
    return zero_val * scale, zero_val


def quasidet_geometric(ctx, n, block):
    """Theta-kernel quasideterminant identity over x_0..x_n, y_0..y_n:
    |(m3(V,x_j,y_i))|_00 equals the twisted kernel times the prime-form
    cross-ratio product.

    One theta point is the scalar case; block of them make a diagonal flat
    bundle on a genus-1 curve (one per slot, same E-factor)."""
    if block > 1 and ctx.g != 1:
        raise SuiteError("diagonal flat bundles are exercised at genus 1")
    pts = yield _distinct_points, 2 * (n + 1)
    xi = yield sample_xi, block
    V = yield CurveContext.aj, pts
    X, Y = V[1:n + 1], V[n + 2:]
    # entries m3(xi_s, x_j, y_i) for every (s, i, j), then m3(xi_s + shift, x_0, y_0),
    # with x_k point k and y_k point n + 1 + k; EF = prod_k E(x_0, x_k) E(y_0, y_k)
    # / (E(x_0, y_k) E(y_0, x_k))
    s, i, j = np.indices((block, n + 1, n + 1)).reshape(3, -1)
    p, q = [*j] + [0] * block, [*(n + 1 + i)] + [n + 1] * block
    m = yield (massey_m3_prime, np.concatenate([xi[s], xi + sum(X - Y)]),
               V[q] - V[p], pts[p], pts[q])
    x, y = np.arange(1, n + 1), np.arange(n + 2, 2 * n + 2)
    a, b = np.repeat([0, n + 1] * 2, n), np.concatenate([x, y, y, x])
    E_xx, E_yy, E_xy, E_yx = (yield prime_form, V[b] - V[a], pts[a], pts[b]).reshape(4, n)
    ent = np.zeros((n + 1, n + 1, block, block), dtype=complex)
    ent[i, j, s, s] = m[:len(s)]
    lhs = QuasiMatrix(ent).qdet(0, 0)
    rhs = np.diag(m[len(s):] * (E_xx * E_yy / (E_xy * E_yx)).prod())
    num = float(np.abs(lhs - rhs).max())
    return num, num / float(np.abs(rhs).max())


def _runner(body, **params):
    """The table's runner of a body: one trial (given its Generator, if the
    body takes one) run up to its first request, as (generator, request).
    The generator yields the body's result last, as the request (None,
    (abs, rel))."""
    @functools.wraps(body)
    def runner(env, *rng):
        def trial():
            yield None, (yield from body(env, *rng, **params))
        gen = trial()
        return gen, next(gen)
    return runner


def _rows(env, kernel, parts):
    """kernel's rows for each part (one body's request arguments) from one
    call on all parts, each argument joined trial after trial along its
    first axis.  If that raises a rejection or a hard failure, each half of
    the parts is called again, down to the failing parts alone, which get
    their exception."""
    try:
        rows = kernel(env, *[np.concatenate(col) for col in zip(*parts)])
    except _RETRY + _HARD as ex:
        h = len(parts) // 2
        return _rows(env, kernel, parts[:h]) + _rows(env, kernel, parts[h:]) if h else [ex]
    return np.split(rows, np.cumsum([len(part[0]) for part in parts])[:-1])


def _drive(env, started, take, rows):
    """Runs the started bodies (each a runner's (generator, request)) to
    their ends, rows[i] the stream of started[i].  The bodies make the same
    requests, so each step is one call for the bodies still running: for a
    draw request (sampler, count), count an int, one sampler call reading
    the streams with take (see sample_points), else one _rows call.  Each
    body is sent its array or has its exception raised at its request.
    Returns, per body, (abs, rel) or the exception that stopped it."""
    gens, requests = [gen for gen, _ in started], [request for _, request in started]
    while live := [k for k, request in enumerate(requests) if request[0] is not None]:
        fn, *args = requests[live[0]]
        if isinstance(args[0], int):
            values, errors = fn(env, take, rows[live], args[0])
            answers = [errors.get(i, values[i]) for i in range(len(live))]
        else:
            answers = _rows(env, fn, [requests[k][1:] for k in live])
        for k, answer in zip(live, answers):
            try:
                requests[k] = (gens[k].throw(answer) if isinstance(answer, Exception)
                               else gens[k].send(answer))
            except _RETRY + _HARD as ex:
                requests[k] = None, ex
    return [result for _, result in requests]


# ---------------------------------------------------------------------------
# carrier-level checks (no curve): bodies that return before any request


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
    yield


#: n x n carriers of k x k blocks; the column expansion draws n in 2..COLUMN_N
CARRIER_N, CARRIER_K, COLUMN_N = 3, 2, 4


def sylvester_residual(env, rng):
    A = random_quasimatrix(rng, CARRIER_N, CARRIER_K)
    r = check_sylvester(A, int(rng.integers(1, CARRIER_N)))
    return r, r
    yield


def column_expansion_residual(env, rng):
    A = random_quasimatrix(rng, int(rng.integers(2, COLUMN_N + 1)), CARRIER_K)
    r = check_column_expansion(A)
    return r, r
    yield


def homological_residual(env, rng):
    A = random_quasimatrix(rng, CARRIER_N, CARRIER_K)
    idx = rng.permutation(CARRIER_N)
    i, krow = int(idx[0]), int(idx[1])
    idx = rng.permutation(CARRIER_N)
    j, lcol = int(idx[0]), int(idx[1])
    r = check_homological(A, i, j, krow, lcol)
    return r, r
    yield


# ---------------------------------------------------------------------------
# identity registry and suite runner


@dataclass
class IdentitySpec:
    """One identity and the (trials, tol) it runs at, per key.

    `runner(env, *rng)` is _runner(body, **params), which starts one trial
    for _drive; a hyperelliptic body draws by its requests, the others are
    given the trial's Generator.
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


IDENTITIES = {name: IdentitySpec(name, kind, runner, table)
              for kind, rows in [
    ("hyperelliptic", [
        ("skewsym_n2", _runner(residue_identity, n=2),
         {1: (100, 1e-9), 2: (50, 1e-9), 3: (50, 1e-9)}),
        ("residue_n3", _runner(residue_identity, n=3), {1: (100, 1e-8)}),
        ("maincor_kernel", _runner(maincor_kernel), {1: (100, 1e-8)}),
        ("trisecant_general_n1", _runner(trisecant_general, n=1),
         {1: (200, 1e-9), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("trisecant_general_n2", _runner(trisecant_general, n=2),
         {1: (50, 1e-9), 2: (50, 1e-7), 3: (50, 1e-8)}),
        ("trisecant_general_n3", _runner(trisecant_general, n=3),
         {1: (50, 1e-9), 2: (50, 1e-7), 3: (50, 1e-8)}),
        ("trisecant_classical", _runner(trisecant_classical),
         {1: (200, 1e-9), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("divisor_symmetric_n1", _runner(divisor_symmetric, n=1),
         {1: (100, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("divisor_symmetric_n2", _runner(divisor_symmetric, n=2),
         {1: (50, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("prime_form_n1", _runner(prime_form_identity, n=1),
         {1: (200, 1e-8), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("prime_form_n2", _runner(prime_form_identity, n=2), {2: (50, 1e-7), 3: (50, 1e-8)}),
        ("theta_derivative_divisor", _runner(theta_derivative_divisor),
         {1: (3, 1e-6), 2: (3, 1e-6)}),
        ("cross_formula_m3", _runner(cross_formula),
         {1: (200, 1e-8), 2: (200, 1e-8), 3: (50, 1e-8)}),
        ("idcor", _runner(idcor), {1: (100, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("quasidet_geometric_n1", _runner(quasidet_geometric, n=1, block=1),
         {1: (100, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("quasidet_geometric_n2", _runner(quasidet_geometric, n=2, block=1),
         {1: (50, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("quasidet_geometric_diag", _runner(quasidet_geometric, n=1, block=2),
         {1: (50, 1e-9)}),
    ]),
    ("plane_quartic", [
        ("canprop", _runner(canprop_residual),
         {"fermat": (200, 1e-9), 3: (100, 1e-8)}),
        ("cor2_three_term", _runner(cor2_residual),
         {"fermat": (100, 1e-9), 3: (50, 1e-8)}),
        ("ratio_dual", _runner(ratio_dual_residual),
         {"fermat": (200, 1e-9), 3: (100, 1e-8)}),
        ("tangent_reconstruction", _runner(tangent_reconstruction_residual),
         {"fermat": (100, 1e-8), 3: (100, 1e-8)}),
        ("reconstruct_synthetic", _runner(reconstruct_synthetic_residual),
         {"fermat": (100, 1e-10), 3: (100, 1e-10)}),
    ]),
    ("carrier", [
        ("quasidet_det_ratio", _runner(quasidet_det_ratio_residual), {"-": (100, 1e-9)}),
        ("quasidet_sylvester", _runner(sylvester_residual), {"-": (100, 1e-9)}),
        ("quasidet_column_expansion", _runner(column_expansion_residual), {"-": (100, 1e-9)}),
        ("quasidet_homological", _runner(homological_residual), {"-": (100, 1e-9)}),
    ]),
] for name, runner, table in rows}


def run_identity(spec: IdentitySpec, env, curve_id, trials, tol, seed):
    """Run one identity for `trials` trials, each with its own stream and
    20 attempts, in rounds.  A round starts every pending trial's runner, a
    hyperelliptic body drawing from the trial's row of one Table and the
    others given the trial's Generator, and _drive runs them together; a
    trial rejected (_RETRY) at its draw or in its evaluation is pending in
    the next round and reads on from where its stream stopped.  Rows do not
    depend on the trials run with them, so the record is that of running
    each trial alone, in trial order: a hard failure fails the report at
    its trial, a non-finite residual (inf or NaN) ends it with both maxima
    inf, and a trial out of attempts is not completed.  Completion below
    90% fails the report regardless of residuals.  An environment that
    failed to build (an exception in place of env) runs no trial and fails.
    """
    t0 = time.perf_counter()
    failure = f"{type(env).__name__}: {env}" if isinstance(env, Exception) else ""
    label, n = f"{spec.name}|{curve_id}", 0 if failure else trials
    if spec.kind == "hyperelliptic":
        take, rngs = Table(seed, label, range(n)).take, [()] * n
    else:
        take, rngs = None, [(trial_rng(seed, label, trial),) for trial in range(n)]
    outcomes, pending, rounds = [None] * n, range(n), 0
    while pending and rounds < 20:      # a pending trial's attempts, one a round
        started, rounds = {}, rounds + 1
        for k in pending:
            try:
                started[k] = spec.runner(env, *rngs[k])
            except _RETRY + _HARD as ex:
                outcomes[k] = ex
        ks = np.array(list(started), dtype=int)
        for k, outcome in zip(ks, _drive(env, list(started.values()), take, ks)):
            outcomes[k] = outcome
        pending = [k for k in pending if isinstance(outcomes[k], _RETRY)]
    completed = 0
    max_abs = max_rel = 0.0
    for outcome in [outcome for outcome in outcomes if not isinstance(outcome, _RETRY)]:
        if isinstance(outcome, Exception):
            failure = f"{type(outcome).__name__}: {outcome}"
            break
        completed += 1
        abs_r, rel_r = outcome
        if not (math.isfinite(abs_r) and math.isfinite(rel_r)):
            # max() below would drop a NaN
            max_abs = max_rel = math.inf
            break
        max_abs = max(max_abs, abs_r)
        max_rel = max(max_rel, rel_r)
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
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise SuiteError("tol must be positive and finite")
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise SuiteError(f"seed must be >= 0 and < {SEED_LIMIT}")


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
