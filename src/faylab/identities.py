"""Scalar identity checks: each identity evaluated as a residual over
randomized inputs on registry curves, with deterministic per-trial random
streams, resampling of rejected draws, and one body run per round of trials.

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
from .quasidet import (QuasiMatrix, SingularMinor, check_sylvester, check_column_expansion,
                       check_homological, qdet_at)
from .quartic import (PlaneQuartic, QuarticError, TangentOrSingularLine,
                      HigherOrderZero, NotAZero, DegenerateRatios, _abs, normals, canprop_residual,
                      cor2_residual, ratio_dual_residual,
                      tangent_reconstruction_residual, reconstruct_synthetic_residual)
from .registry import registry_entries
from .report import IdentityReport
from .rng import SEED_LIMIT, Table


class SuiteError(Exception):
    pass


class UnknownIdentity(SuiteError):
    pass


class BadTriple(KernelError):
    pass


#: a draw with two x-coordinates within CLOSE_POINTS * min_gap is rejected
CLOSE_POINTS = 1e-3
#: most trials of a report, which holds all their draws at once: 270 MB at genus 3
MAX_TRIALS = 10_000


#: rejections of a trial's draw: run_identity resamples from the same stream
_RETRY = (NearDivisor, CoincidentPoints, SingularMinor, BadTriple,
          TangentOrSingularLine, HigherOrderZero, NotAZero, DegenerateRatios)
#: hard failures of a trial: they fail its report at that trial
_HARD = (KernelError, CurveError, SuiteError, QuarticError)


def _rel(total, blocks):
    """(|total|, |total| / its largest |block|) per trial of blocks (T, n)."""
    a = _abs(total)
    return a, a / _abs(blocks).max(axis=1)


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


def _qdet(ctx, ent):
    """|A|_00 of each quasimatrix A of the stack ent (N, n, n, k, k)."""
    return QuasiMatrix(ent).qdet(0, 0)


# ---------------------------------------------------------------------------
# theta-kernel identities
#
# Each identity (here, in faylab.quartic, or a carrier check) is a generator
# body(env, **params) that runs once over T trials: it yields draws
# (sampler, count), sent (T, count, ...) arrays read from the trials' rows
# of the report's Table, kernel requests (kernel, *args) of (T, m, ...)
# args, sent (T, m, ...) rows, and refusals {trial: exception} of trials it
# rejects, and returns (abs, rel) as two (T,) arrays.  Its arithmetic keeps
# each trial's bits at any T: elementwise operations, sums and products over
# other axes with the trial axis outermost in memory, stacked solves, _abs,
# and the carrier checks, stacked per n (_by_shape) at gathered indices.  No
# body calls a sampler or a kernel: _drive makes each request in one call a round.


def _mainid(X, Y, Z, T, xi):
    """The residual of eq. (mainid), the three-block sum of F-products,
    over the AJ vectors of x, y, z_i, t_i (Z and T of shape (trials, n, g))
    and xi, from one fay_F request: F(z_i - z_j, z_j - t_j) for i != j; for
    each i F(z_i - x, xi), F(y - z_i, S + xi), F(x - z_i, z_i - t_i) and
    F(y - z_i, z_i - t_i); then F(y - x, S + xi) and F(y - x, xi)."""
    n = Z.shape[1]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    D = Z - T
    S = D.sum(axis=1)
    X, Y, xis = X[:, None], Y[:, None], np.broadcast_to(xi[:, None], Z.shape)
    F = yield (fay_F, np.concatenate([Z[:, i] - Z[:, j], Z - X, Y - Z, X - Z, Y - Z,
                                      Y - X, Y - X], axis=1),
               np.concatenate([D[:, j], xis, S[:, None] + xis, D, D,
                               (S + xi)[:, None], xi[:, None]], axis=1))
    Fzz = np.ones((len(Z), n, n), dtype=complex)
    Fzz[:, i, j] = F[:, :len(i)]
    a, b, c, e = F[:, len(i):-2].reshape(len(Z), 4, n).transpose(1, 0, 2)
    blocks = np.concatenate([Fzz.prod(axis=2) * (a * b), (c.prod(axis=1) * F[:, -2])[:, None],
                             -(e.prod(axis=1) * F[:, -1])[:, None]], axis=1)
    return _rel(blocks.sum(axis=1), blocks)


def trisecant_general(ctx, n):
    """Eq. (mainid): the three-block sum of F-products over x, y, z_i, t_i
    (2 + 2n points) and a free Jacobian point xi."""
    pts = yield _distinct_points, 2 + 2 * n
    xi = yield sample_xi, 1
    V = yield CurveContext.aj, pts
    return (yield from _mainid(V[:, 0], V[:, 1], V[:, 2:2 + n], V[:, 2 + n:], xi[:, 0]))


def trisecant_classical(ctx):
    """The two-fraction n=1 form of the trisecant identity over x, y, z, t
    and xi."""
    pts = yield _distinct_points, 4
    xi = (yield sample_xi, 1)[:, 0]
    X, Y, Z, T = (yield CurveContext.aj, pts).transpose(1, 0, 2)
    (xt, yz, xz, yt, t_xi, t_long, zt, yx, zx, t_zx, t_yt, r1, r2) = (yield (
        CurveContext.theta_delta, np.stack([X - T, Y - Z, X - Z, Y - T, xi, xi + Y - X + Z - T,
                                            Z - T, Y - X, Z - X, xi + Z - X, xi + Y - T,
                                            xi + Z - T, xi + Y - X], axis=1))).T
    near = np.minimum(np.minimum(_abs(xz), _abs(yt)), _abs(zx)) < NEAR_DIVISOR * ctx.scale
    yield {i: NearDivisor("trisecant denominator too small") for i in np.flatnonzero(near)}
    L1 = (xt * yz / (xz * yt)) * t_xi * t_long
    L2 = (zt * yx / (zx * yt)) * t_zx * t_yt
    R = r1 * r2
    return _rel(L1 + L2 - R, np.stack([L1, L2, np.where(_abs(R) > 0, R, 1.0)], axis=1))


def divisor_symmetric(ctx, n):
    """Cor. (divisorid): the symmetric F-product identity over y and n+1
    pairs z_i, t_i, which is eq. (mainid) over the last n pairs at x = z_0,
    xi = z_0 - t_0."""
    pts = yield _distinct_points, 2 * n + 3
    V = yield CurveContext.aj, pts
    return (yield from _mainid(V[:, 1], V[:, 0], V[:, 2:n + 2], V[:, n + 3:],
                               V[:, 1] - V[:, n + 2]))


def prime_form_identity(ctx, n):
    """The three-block E/theta identity for an arbitrary degree-1 theta,
    realized with a random translate e of the plain theta, e off the theta
    divisor, over x, y, z_i, t_i (2 + 2n points)."""
    e = yield random_line_bundle, 1
    pts = yield _distinct_points, 2 + 2 * n
    V = yield CurveContext.aj, pts
    X, Y, Z, T = V[:, :1], V[:, 1:2], V[:, 2:2 + n], V[:, 2 + n:]
    S = (Z - T).sum(axis=1, keepdims=True)
    v = yield _theta, np.concatenate([Z - X + e, Y - Z + S + e, Y - X + e, S + e,
                                      Y - X + S + e, e], axis=1)
    near = _abs(v[:, -1]) <= 1e-4 * ctx.scale
    yield {i: NearDivisor("line bundle near the theta divisor") for i in np.flatnonzero(near)}
    # E[:, a, b] = E(pts[a], pts[b]), 1 on the diagonal, with the point
    # indices x = 0, y = 1, z_i = 2 + i, t_i = 2 + n + i
    a, b = np.nonzero(~np.eye(pts.shape[1], dtype=bool))
    E = np.ones((len(V), pts.shape[1], pts.shape[1]), dtype=complex)
    E[:, a, b] = yield prime_form, V[:, b] - V[:, a], pts[:, a], pts[:, b]
    z = 2 + np.arange(n)
    # the rows t_i and z_i, C-contiguous (an index array would lay the
    # trial axis innermost, and a product over i would then depend on T)
    Et, Ez = E.take(z + n, axis=1), E.take(z, axis=1)
    blocks = np.concatenate([
        Et.take(z, axis=2).prod(axis=1) / Ez.take(z, axis=2).prod(axis=1) * E[:, :1, 1]
        / (E[:, 0, z] * E[:, 1, z]) * v[:, :n] * v[:, n:2 * n],
        ((Et[:, :, 1] / Ez[:, :, 1]).prod(axis=1) * v[:, 2 * n] * v[:, 2 * n + 1])[:, None],
        -((Et[:, :, 0] / Ez[:, :, 0]).prod(axis=1) * v[:, 2 * n + 2] * v[:, 2 * n + 3])[:, None]],
        axis=1)
    return _rel(blocks.sum(axis=1), blocks)


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
    xis = np.concatenate([xis, -xis.sum(axis=1, keepdims=True)], axis=1)
    V = yield CurveContext.aj, xs
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    m = np.ones((len(xs), n, n), dtype=complex)
    m[:, i, j] = yield massey_m3_prime, xis[:, j], V[:, i] - V[:, j], xs[:, j], xs[:, i]
    blocks = m.prod(axis=2)
    if n == 3:
        blocks = blocks / (yield h_values, xs)
    return _rel(blocks.sum(axis=1), blocks)


def maincor_kernel(ctx):
    """Kernel-level n=1 instance of the two-bundle residue corollary over
    x, y, z, t and xi: alpha = phi * eta with phi the theta-ratio section
    and eta realized by the squared half-differential (folded into the m3
    frames)."""
    if ctx.g != 1:
        raise SuiteError("kernel-form corollary check runs at genus 1")
    pts = yield _distinct_points, 4
    xi = (yield sample_xi, 1)[:, 0]
    X, Y, Z, T = (yield CurveContext.aj, pts).transpose(1, 0, 2)
    # phi(p) = theta[delta](p - t) / theta[delta](p - z)
    zt, xt, xz, yt, yz = (yield CurveContext.theta_delta,
                          np.stack([Z - T, X - T, X - Z, Y - T, Y - Z], axis=1)).T
    m_xz, m_yz, m_yx, m_xy = (yield (massey_m3_prime,
                                     np.stack([xi, Z - T - xi, Z - T - xi, xi], axis=1),
                                     np.stack([Z - X, Z - Y, X - Y, Y - X], axis=1),
                                     pts[:, [0, 1, 1, 0]], pts[:, [2, 2, 0, 1]])).T
    h = (yield h_values, pts[:, 2:3])[:, 0]
    t0 = zt / h**2 * m_xz * m_yz
    t1 = xt / xz * m_yx
    t2 = yt / yz * m_xy
    return _rel(t0 + t1 + t2, np.stack([t0, t1, t2], axis=1))


def cross_formula(ctx):
    """massey_m3_prime against massey_m3_theta on a random triple: points
    x, y, then the xi of a random bundle off the theta divisor."""
    pts = yield _distinct_points, 2
    es = yield random_line_bundle, 1
    near = _abs((yield _theta, es)[:, 0]) <= 1e-4 * ctx.scale
    yield {i: NearDivisor("line bundle near the theta divisor") for i in np.flatnonzero(near)}
    V = yield CurveContext.aj, pts
    args = ctx.xi_of_bundle(es), V[:, 1:] - V[:, :1], pts[:, :1], pts[:, 1:]
    m1 = (yield (massey_m3_prime, *args))[:, 0]
    m2 = (yield (massey_m3_theta, *args))[:, 0]
    return _abs(m1 - m2), _abs(m1 - m2) / _abs(m1)


def idcor(ctx):
    """Degenerate n=1 corollary m3(V(x-z), z, y) = m3(V,x,y) m3(V,x,z)^-1
    over x, y, z and xi, with the O(x-z) trivialization factor
    E(x,y)/(E(z,y)E(x,z)) that turns the abstract bundle equality into
    numbers in the affine frames."""
    pts = yield _distinct_points, 3
    xi = (yield sample_xi, 1)[:, 0]
    X, Y, Z = (yield CurveContext.aj, pts).transpose(1, 0, 2)
    m_xz, m_xy, m_zy = (yield (massey_m3_prime, np.stack([xi, xi, xi + X - Z], axis=1),
                               np.stack([Z - X, Y - X, Y - Z], axis=1),
                               pts[:, [0, 0, 2]], pts[:, [2, 1, 1]])).T
    E_zy, E_xz, E_xy = (yield (prime_form, np.stack([Y - Z, Z - X, Y - X], axis=1),
                               pts[:, [2, 0, 0]], pts[:, [1, 2, 1]])).T
    lhs = m_zy * E_zy * E_xz / E_xy
    rhs = m_xy / m_xz
    return _abs(lhs - rhs), _abs(lhs - rhs) / _abs(rhs)


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
        zero_val = np.full(len(vals), dists.max() / ctx.curve.min_gap if len(roots) else 0.0)
    else:
        ratios = vals * controls[..., 1] * ctx.curve.y_principal(controls[..., 0])
        mean = ratios.mean(axis=1)
        zero_val = np.abs(ratios - mean[:, None]).max(axis=1) / _abs(mean)
    scale = np.median(np.abs(vals), axis=1)
    near = np.abs(vals).min(axis=1) / scale < 1e-3
    yield {i: NearDivisor("control point near the divisor") for i in np.flatnonzero(near)}
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
    X, Y = V[:, 1:n + 1], V[:, n + 2:]
    # m3(xi_s, x_j, y_i) for every (s, i, j), then m3(xi_s + shift, x_0, y_0), x_k point k and
    # y_k point n + 1 + k; EF = prod_k E(x_0, x_k) E(y_0, y_k) / (E(x_0, y_k) E(y_0, x_k))
    s, i, j = np.indices((block, n + 1, n + 1)).reshape(3, -1)
    p, q = [*j] + [0] * block, [*(n + 1 + i)] + [n + 1] * block
    m = yield (massey_m3_prime,
               np.concatenate([xi[:, s], xi + (X - Y).sum(axis=1, keepdims=True)], axis=1),
               V[:, q] - V[:, p], pts[:, p], pts[:, q])
    x, y = np.arange(1, n + 1), np.arange(n + 2, 2 * n + 2)
    a, b = np.repeat([0, n + 1] * 2, n), np.concatenate([x, y, y, x])
    E_xx, E_yy, E_xy, E_yx = (yield prime_form, V[:, b] - V[:, a], pts[:, a],
                              pts[:, b]).reshape(len(V), 4, n).transpose(1, 0, 2)
    ent = np.zeros((len(V), 1, n + 1, n + 1, block, block), dtype=complex)
    ent[:, 0, i, j, s, s] = m[:, :len(s)]
    lhs = (yield _qdet, ent)[:, 0]
    rhs = (m[:, len(s):] * (E_xx * E_yy / (E_xy * E_yx)).prod(axis=1)[:, None])[..., None]
    rhs = rhs * np.eye(block)
    num = np.abs(lhs - rhs).max(axis=(1, 2))
    return num, num / np.abs(rhs).max(axis=(1, 2))


def _runner(body, **params):
    """The runner of a body, which starts one trial attempt for _drive: the
    body bound to env and params, named after the body."""
    @functools.wraps(body)
    def runner(env):
        return functools.partial(body, env, **params)
    return runner


def _rows(env, kernel, *args):
    """kernel's (T, m, ...) answer to (T, m, ...) args, one call on T m rows."""
    T, m = args[0].shape[:2]
    rows = kernel(env, *[a.reshape(T * m, *a.shape[2:]) for a in args])
    return rows.reshape(T, m, *rows.shape[1:])


def _drive(env, started, draws, rows):
    """Runs a round's started trials (each its runner's bound body) as one
    trial-axis body, trial i drawing from row rows[i] of the Table draws.
    A draw (sampler, count) is one sampler call, a kernel request one _rows
    call, a refusal {trial: exception} its own answer.  Trials a draw or a
    refusal fails end there, their cursors where they stopped; the body runs
    again over the others, their cursors set back.  If a request or the body
    raises, it runs again over each of its trials alone (cheaper than
    halving when several of 50 fail).  Returns per trial (abs, rel), with
    its bits alone, or its exception."""
    outcomes, todo = [None] * len(started), [np.arange(len(started))] if started else []
    start = draws.at[rows].copy()
    while todo:
        live = todo.pop()
        draws.at[rows[live]] = start[live]
        body = started[live[0]]()
        answer, ended = None, {}
        try:
            while not ended:
                request = body.send(answer)
                if isinstance(request, dict):
                    answer, ended = None, request
                elif isinstance(request[1], int):
                    answer, ended = request[0](env, draws.take, rows[live], request[1])
                else:
                    answer = _rows(env, *request)
        except StopIteration as stop:
            ended = dict(enumerate(zip(*[np.asarray(r).tolist() for r in stop.value])))
        except _RETRY + _HARD as ex:
            if len(live) > 1:
                todo += list(live[::-1, None])      # each trial alone, in order
                continue
            ended = {0: ex}
        for i, outcome in ended.items():
            outcomes[live[i]] = outcome
        if len(ended) < len(live):
            todo.append(np.delete(live, list(ended)))
    return outcomes


# ---------------------------------------------------------------------------
# carrier-level checks (no curve): bodies that draw complex normals and
# doubles, and run the stacked checks over each group of trials of one shape


def doubles(env, take, rows, count):
    """count doubles u in [0, 1) per stream of rows, as a (len(rows), count)
    array, and no failures ({}).  An integer in 0..n-1 is floor(n u), and an
    ordered pair of distinct indices of 0..n-1 (the first two of a random
    permutation) is i = floor(n u), k = (i + 1 + floor((n - 1) u')) mod n,
    from two doubles u, u'."""
    return take(rows, count), {}


def _carrier(z, n, k):
    """The n x n quasimatrices of k x k blocks of each row's first n^2 k^2 normals z."""
    return QuasiMatrix(z[:, :n * n * k * k].reshape(len(z), n, n, k, k))


def _by_shape(sizes, check):
    """check(t, n), a (..., len(t)) array, for the trials t of each value n
    of the (T,) sizes, joined in trial order: a (..., T) array."""
    groups = [np.flatnonzero(sizes == n) for n in sorted(set(sizes.tolist()))]
    out = np.concatenate([check(t, int(sizes[t[0]])) for t in groups], axis=-1)
    out[..., np.concatenate(groups)] = out.copy()
    return out


def _det_ratio(z, n, i, j):
    """|A|_ij of the n x n scalar matrix A of the first n^2 normals z of each
    trial against (-1)^(i+j) det A / det A^{ij}, as (abs, rel); it refuses
    the trials whose oracle minor has |det A^{ij}| < 1e-8."""
    def dets(t, n):
        M = z[t, :n * n].reshape(len(t), n, n)
        kept = (np.arange(n) != i[t, None])[:, :, None] & (np.arange(n) != j[t, None])[:, None]
        return np.stack([np.linalg.det(M), np.linalg.det(M[kept].reshape(len(t), n - 1, n - 1))])
    d, dm = _by_shape(n, dets)
    yield {t: SingularMinor("oracle minor too small") for t in np.flatnonzero(_abs(dm) < 1e-8)}
    oracle = (-1) ** (i + j) * d / dm
    q = _by_shape(n, lambda t, n: qdet_at(_carrier(z[t], n, 1), i[t], j[t])[:, 0, 0])
    return _abs(q - oracle), _abs(q - oracle) / _abs(oracle)


def _homological(A, u):
    """check_homological of the stack A at each trial's rows (i, k) and
    columns (j, l), drawn from u[:, :2] and u[:, 2:4] by doubles' rule."""
    i, j = (A.n * u[:, [0, 2]]).astype(int).T
    k, l = (np.stack([i, j]) + 1 + ((A.n - 1) * u[:, [1, 3]]).astype(int).T) % A.n
    return check_homological(A, i, j, k, l)


#: n x n carriers of k x k blocks; the column expansion draws n in 2..COLUMN_N
CARRIER_N, CARRIER_K, COLUMN_N = 3, 2, 4


def quasidet_det_ratio_residual(env):
    z = yield normals, 25
    u = yield doubles, 3
    n = 2 + (4 * u[:, 0]).astype(int)
    return (yield from _det_ratio(z, n, (n * u[:, 1]).astype(int), (n * u[:, 2]).astype(int)))


def sylvester_residual(env):
    z = yield normals, CARRIER_N**2 * CARRIER_K**2
    p = 1 + ((CARRIER_N - 1) * (yield doubles, 1)[:, 0]).astype(int)
    r = _by_shape(p, lambda t, p: check_sylvester(_carrier(z[t], CARRIER_N, CARRIER_K), p))
    return r, r


def column_expansion_residual(env):
    z = yield normals, COLUMN_N**2 * CARRIER_K**2
    n = 2 + ((COLUMN_N - 1) * (yield doubles, 1)[:, 0]).astype(int)
    r = _by_shape(n, lambda t, n: check_column_expansion(_carrier(z[t], n, CARRIER_K)))
    return r, r


def homological_residual(env):
    z = yield normals, CARRIER_N**2 * CARRIER_K**2
    r = _homological(_carrier(z, CARRIER_N, CARRIER_K), (yield doubles, 4))
    return r, r


# ---------------------------------------------------------------------------
# identity registry and suite runner


@dataclass
class IdentitySpec:
    """One identity, its runner _runner(body, **params), its `kind` (a
    registry curve type, or "carrier" for checks that need no curve), and
    its `table` from a curve id or a genus to (trials, tol): a curve takes
    the row of its id if there is one, else that of its genus; carrier
    specs use the id "-"."""
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
        ("quasidet_geometric_diag", _runner(quasidet_geometric, n=1, block=2), {1: (50, 1e-9)}),
    ]),
    ("plane_quartic", [
        ("canprop", _runner(canprop_residual), {"fermat": (200, 1e-9), 3: (100, 1e-8)}),
        ("cor2_three_term", _runner(cor2_residual), {"fermat": (100, 1e-9), 3: (50, 1e-8)}),
        ("ratio_dual", _runner(ratio_dual_residual), {"fermat": (200, 1e-9), 3: (100, 1e-8)}),
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
    """Run one identity for `trials` trials, each with its own stream (its
    row of one Table) and 20 attempts, in rounds: each starts every pending
    trial's runner and _drive runs them; a rejected trial (_RETRY) reads on
    in the next round.  The record is that of each trial run alone, in
    order: a hard failure fails the report at its trial, a non-finite
    residual ends it with both maxima inf, a trial out of attempts is not
    completed, and completion below 90% fails.  An environment that failed
    to build (an exception in place of env) runs no trial."""
    t0 = time.perf_counter()
    failure = f"{type(env).__name__}: {env}" if isinstance(env, Exception) else ""
    label, n = f"{spec.name}|{curve_id}", 0 if failure else trials
    draws = Table(seed, label, range(n))
    outcomes, pending, rounds = [None] * n, range(n), 0
    while pending and rounds < 20:      # a pending trial's attempts, one a round
        ks, rounds = np.array(pending, dtype=int), rounds + 1
        for k, outcome in zip(ks, _drive(env, [spec.runner(env) for k in ks], draws, ks)):
            outcomes[k] = outcome
        pending = [k for k in pending if isinstance(outcomes[k], _RETRY)]
    completed, max_abs, max_rel = 0, 0.0, 0.0
    for outcome in [outcome for outcome in outcomes if not isinstance(outcome, _RETRY)]:
        if isinstance(outcome, Exception):
            failure = f"{type(outcome).__name__}: {outcome}"
            break
        completed += 1
        if not all(map(math.isfinite, outcome)):
            max_abs = max_rel = math.inf        # max() below would drop a NaN
            break
        max_abs, max_rel = max(max_abs, outcome[0]), max(max_rel, outcome[1])
    if failure or completed == 0:
        # a hard failure, or no residual measured: report none, never a 0.0
        max_abs = max_rel = math.inf
    elapsed = int(1000 * (time.perf_counter() - t0))
    passed = (completed >= math.ceil(0.9 * trials)) and (max_rel < tol)
    return IdentityReport(spec.name, curve_id, trials, completed, max_abs, max_rel, seed,
                          tol, passed, elapsed, failure)


@dataclass
class SuiteConfig:
    curves: list = None            # registry ids (None = full registry)
    identities: list = None       # identity names (None = all)
    trials: int = None            # override per-identity defaults
    master_seed: int = 42
    tol: float = None             # override per-identity defaults

    def validate(self):
        for name in self.identities or ():
            if name not in IDENTITIES:
                raise UnknownIdentity(f"unknown identity {name!r}")
        for kind, ids in (("identity", self.identities or []), ("curve", self.curves or [])):
            if len(set(ids)) < len(ids):
                raise SuiteError(f"{kind} {max(ids, key=ids.count)!r} given twice")
        if self.trials is not None and not 1 <= self.trials <= MAX_TRIALS:
            raise SuiteError(f"trials must be >= 1 and <= {MAX_TRIALS}")
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise SuiteError("tol must be positive and finite")
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise SuiteError(f"seed must be >= 0 and < {SEED_LIMIT}")


def _build_env(entry):
    """The evaluation environment a registry curve's identities run on."""
    if entry["type"] == "plane_quartic":
        return PlaneQuartic(entry["coefficients"], entry["id"])
    curve = HyperellipticCurve(entry["branch_points"], entry["id"])
    return CurveContext(curve, period_matrix(curve)[2])


def run_suite(config: SuiteConfig, progress=None):
    """Execute the configured identities (all of them, sorted, if None) in
    order, each on the configured curves of its kind, or once on "-" if it
    is a carrier check, where its table has a row.  Environments are built
    once per curve, on first use.  Deterministic given (config,
    master_seed); per-check errors and unbuilt environments fail reports."""
    config.validate()
    entries = registry_entries()
    curve_ids = sorted(entries) if config.curves is None else list(config.curves)
    for cid in curve_ids:
        if cid not in entries:
            raise SuiteError(f"unknown curve {cid!r}")
    names = config.identities if config.identities is not None else sorted(IDENTITIES)
    targets = [{"id": "-", "type": "carrier"}] + [entries[cid] for cid in curve_ids]
    envs, reports = {"-": None}, []
    for name in names:
        spec = IDENTITIES[name]
        for entry in targets:
            cid = entry["id"]
            row = spec.table.get(cid, spec.table.get(entry.get("genus")))
            if entry["type"] != spec.kind or row is None:
                continue
            trials, tol = config.trials or row[0], config.tol or row[1]
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
