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
    """count sampled points, Abel-Jacobi mapped in one batch; raises BadTriple
    (run_identity redraws) if two x-coordinates are within 1e-3 min_gap."""
    pts = [sample_point(ctx, rng) for _ in range(count)]
    xs = np.array([p.x for p in pts])
    d = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(d, np.inf)
    if d.min() <= 1e-3 * ctx.curve.min_gap:
        raise BadTriple("sampled points too close")
    ctx.aj(pts)
    return pts


# ---------------------------------------------------------------------------
# theta-kernel identities


def _mainid_residual(ctx, X, Y, Z, T, xi):
    """The residual of eq. (mainid), the three-block sum of F-products over
    x, y, z_i, t_i (AJ vectors, Z and T of shape (n, g)) and xi, from one
    batched fay_F call."""
    n = len(Z)
    D = Z - T
    S = D.sum(axis=0)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    xis = np.broadcast_to(xi, Z.shape)
    # F(z_i - z_j, z_j - t_j) for i != j; for each i F(z_i - x, xi),
    # F(y - z_i, S + xi), F(x - z_i, z_i - t_i) and F(y - z_i, z_i - t_i);
    # then F(y - x, S + xi) and F(y - x, xi)
    F = fay_F(ctx,
              np.concatenate([Z[i] - Z[j], Z - X, Y - Z, X - Z, Y - Z, [Y - X] * 2]),
              np.concatenate([D[j], xis, S + xis, D, D, [S + xi, xi]]))
    Fzz = np.ones((n, n), dtype=complex)
    Fzz[i, j] = F[:len(i)]
    a, b, c, e = F[len(i):-2].reshape(4, n)
    blocks = list(Fzz.prod(axis=1) * (a * b))
    blocks.append(c.prod() * F[-2])
    blocks.append(-(e.prod() * F[-1]))
    return _rel(sum(blocks), blocks)


def trisecant_general_residual(ctx, n, rng):
    """Eq. (mainid): the three-block sum of F-products over x, y, z_i, t_i
    and a free Jacobian point xi."""
    pts = _distinct_points(ctx, rng, 2 + 2 * n)
    xi = sample_xi(ctx, rng)
    V = ctx.aj(pts)
    return _mainid_residual(ctx, V[0], V[1], V[2:2 + n], V[2 + n:], xi)


def trisecant_classical_residual(ctx, rng, pts=None, xi=None):
    """The two-fraction n=1 form of the trisecant identity."""
    if pts is None:
        pts = _distinct_points(ctx, rng, 4)
    if xi is None:
        xi = sample_xi(ctx, rng)
    X, Y, Z, T = ctx.aj(pts)
    th = ctx.theta_delta([X - T, Y - Z, X - Z, Y - T, xi, xi + Y - X + Z - T,
                          Z - T, Y - X, Z - X, xi + Z - X, xi + Y - T,
                          xi + Z - T, xi + Y - X])
    (xt, yz, xz, yt, t_xi, t_long, zt, yx, zx, t_zx, t_yt, r1, r2) = th
    if min(abs(xz), abs(yt), abs(zx)) < NEAR_DIVISOR * ctx.scale:
        raise NearDivisor("trisecant denominator too small")
    L1 = (xt * yz / (xz * yt)) * t_xi * t_long
    L2 = (zt * yx / (zx * yt)) * t_zx * t_yt
    R = r1 * r2
    return _rel(L1 + L2 - R, [L1, L2, R] if abs(R) > 0 else [L1, L2, 1.0])


def divisor_symmetric_residual(ctx, n, rng):
    """Cor. (divisorid): the symmetric F-product identity over n+1 pairs,
    which is eq. (mainid) over the last n pairs at x = z_0, xi = z_0 - t_0."""
    pts = _distinct_points(ctx, rng, 3 + 2 * n)
    V = ctx.aj(pts)
    Y, Z, T = V[0], V[1:n + 2], V[n + 2:]
    return _mainid_residual(ctx, Z[0], Y, Z[1:], T[1:], Z[0] - T[0])


def prime_form_identity_residual(ctx, n, rng):
    """The three-block E/theta identity for an arbitrary degree-1 theta,
    realized with a random translate of the plain theta."""
    e = random_line_bundle(ctx.rm, rng, ctx.scale_raw)
    pts = _distinct_points(ctx, rng, 2 + 2 * n)
    V = ctx.aj(pts)
    X, Y, Z, T = V[0], V[1], V[2:2 + n], V[2 + n:]
    S = (Z - T).sum(axis=0)
    args = np.concatenate([Z - X + e, Y - Z + S + e,
                           [Y - X + e, S + e, Y - X + S + e, e]])
    vals, _, _, _ = theta_batch(args, ctx.rm, tol=ctx.tol)
    vals = ctx.mult * vals
    # E[a, b] = E(pts[a], pts[b]), 1 on the diagonal, with the point
    # indices x = 0, y = 1, z_i = 2 + i, t_i = 2 + n + i
    a, b = np.nonzero(~np.eye(len(pts), dtype=bool))
    E = np.ones((len(pts), len(pts)), dtype=complex)
    E[a, b] = prime_form(ctx, [pts[k] for k in a], [pts[k] for k in b])
    z = 2 + np.arange(n)
    t = z + n
    blocks = list(E[np.ix_(t, z)].prod(axis=0) / E[np.ix_(z, z)].prod(axis=0)
                  * E[0, 1] / (E[0, z] * E[1, z]) * vals[:n] * vals[n:2 * n])
    blocks.append((E[t, 1] / E[z, 1]).prod() * vals[2 * n] * vals[2 * n + 1])
    blocks.append(-(E[t, 0] / E[z, 0]).prod() * vals[2 * n + 2] * vals[2 * n + 3])
    return _rel(sum(blocks), blocks)


def residue_identity_residual(ctx, n, rng):
    """Good-triple residue identity: sum_i alpha(x_i) prod_{j != i}
    m3(L_j, x_j, x_i) = 0 with the bundles closing up to the canonical
    class (the last theta point is the lattice-closing value).

    n = 2 works at any genus with L_2 = omega L_1^{-1} (alpha constant in
    the odd-translate frames); n = 3 needs genus 1, where all bundles have
    degree 0 and alpha(x_i) = 1/h(x_i) realizes the trivialization.
    """
    if n not in (2, 3):
        raise SuiteError(f"residue identity implemented for n in (2, 3), not {n}")
    if n == 3 and ctx.g != 1:
        raise SuiteError("n=3 residue identity needs genus 1 "
                         "(degree count: n(g-1) = 2g-2 forces n = 2 otherwise)")
    xs = _distinct_points(ctx, rng, n)
    xis = [sample_xi(ctx, rng) for _ in range(n - 1)]
    xis = np.array(xis + [-sum(xis)])
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    m = np.ones((n, n), dtype=complex)
    m[i, j] = massey_m3_prime(ctx, xis[j], [xs[k] for k in j], [xs[k] for k in i])
    blocks = m.prod(axis=1)
    if n == 3:
        blocks = blocks / h_values(ctx, xs)
    return _rel(blocks.sum(), blocks)


def maincor_kernel_residual(ctx, rng):
    """Kernel-level n=1 instance of the two-bundle residue corollary:
    alpha = phi * eta with phi the theta-ratio section and eta realized by
    the squared half-differential (folded into the m3 frames)."""
    if ctx.g != 1:
        raise SuiteError("kernel-form corollary check runs at genus 1")
    x, y, z, t = _distinct_points(ctx, rng, 4)
    xi = sample_xi(ctx, rng)
    X, Y, Z, T = ctx.aj([x, y, z, t])
    xi2 = (Z - T) - xi
    # phi(p) = theta[delta](p - t) / theta[delta](p - z)
    zt, xt, xz, yt, yz = ctx.theta_delta([Z - T, X - T, X - Z, Y - T, Y - Z])
    m_xz, m_yz, m_yx, m_xy = massey_m3_prime(ctx, [xi, xi2, xi2, xi],
                                             [x, y, y, x], [z, z, x, y])
    t0 = zt / h_values(ctx, [z])[0]**2 * m_xz * m_yz
    t1 = xt / xz * m_yx
    t2 = yt / yz * m_xy
    return _rel(t0 + t1 + t2, [t0, t1, t2])


def cross_formula_residual(ctx, rng):
    """massey_m3_prime against massey_m3_theta on a random triple."""
    x, y = _distinct_points(ctx, rng, 2)
    xi = ctx.xi_of_bundle(random_line_bundle(ctx.rm, rng, ctx.scale_raw))
    m1 = massey_m3_prime(ctx, [xi], [x], [y])[0]
    m2 = massey_m3_theta(ctx, [xi], [x], [y])[0]
    return abs(m1 - m2), abs(m1 - m2) / abs(m1)


def idcor_residual(ctx, rng):
    """Degenerate n=1 corollary m3(V(x-z), z, y) = m3(V,x,y) m3(V,x,z)^-1,
    with the O(x-z) trivialization factor E(x,y)/(E(z,y)E(x,z)) that turns
    the abstract bundle equality into numbers in the affine frames."""
    x, y, z = _distinct_points(ctx, rng, 3)
    xi = sample_xi(ctx, rng)
    X, Z = ctx.aj([x, z])
    xi_t = xi + X - Z
    m_xz, m_xy, m_zy = massey_m3_prime(ctx, [xi, xi, xi_t], [x, x, z], [z, y, y])
    E_zy, E_xz, E_xy = prime_form(ctx, [z, x, x], [y, z, y])
    lhs = m_zy * E_zy * E_xz / E_xy
    rhs = m_xy / m_xz
    return abs(lhs - rhs), abs(lhs - rhs) / abs(rhs)


def theta_derivative_divisor_residual(ctx, rng):
    """The derivative 1-form vanishes on the odd-characteristic divisor.

    The form is N(x) dx / y with N the adjoint numerator; its divisor is
    read off the roots of N.  Genus 2: the root must sit on a Weierstrass
    point (the odd-characteristic divisor is one; the x-chart cannot be
    evaluated on it directly, so the root distance is the residual).
    Genus 1: the divisor is empty, N is the nonzero constant making the
    form proportional to the invariant differential; the residual is the
    spread of theta_form * y over 20 controls.
    """
    controls = [sample_point(ctx, rng) for _ in range(20)]
    ctrl_vals = theta_form(ctx, controls)
    scale = float(np.median(np.abs(ctrl_vals)))
    if ctx.g == 2:
        roots, dists = delta_divisor_root(ctx)
        if len(roots) == 0:
            zero_val = 0.0        # divisor at the branch point at infinity
        else:
            zero_val = float(dists.max()) / ctx.curve.min_gap
    elif ctx.g == 1:
        ratios = np.array([v * p.y(ctx.curve) for v, p in zip(ctrl_vals, controls)])
        zero_val = float(np.abs(ratios - ratios.mean()).max() / abs(ratios.mean()))
    else:
        raise SuiteError("divisor-vanishing check runs at genus 1 or 2")
    min_ctrl = float(np.abs(ctrl_vals).min()) / scale
    if min_ctrl < 1e-3:
        raise NearDivisor("control point accidentally near the divisor")
    return zero_val * scale, zero_val


def quasidet_geometric_residual(ctx, n, rng, block=1):
    """Theta-kernel quasideterminant identity: |(m3(V,x_j,y_i))|_00 equals
    the twisted kernel times the prime-form cross-ratio product.

    block=1 is the scalar case; block=k uses a diagonal flat bundle on a
    genus-1 curve (k theta points, one per slot, same E-factor)."""
    pts = _distinct_points(ctx, rng, 2 * (n + 1))
    xs, ys = pts[:n + 1], pts[n + 1:]
    if block > 1 and ctx.g != 1:
        raise SuiteError("diagonal flat bundles are exercised at genus 1")
    xis = np.array([sample_xi(ctx, rng) for _ in range(block)])
    # entries m3(xi_s, x_j, y_i) for every (s, i, j), then m3(xi_s + shift, x_0, y_0)
    s, i, j = np.indices((block, n + 1, n + 1)).reshape(3, -1)
    V = ctx.aj(xs[1:] + ys[1:])
    shift = sum(V[:n] - V[n:])
    m3 = massey_m3_prime(ctx, np.concatenate([xis[s], xis + shift]),
                         [xs[k] for k in j] + [xs[0]] * block,
                         [ys[k] for k in i] + [ys[0]] * block)
    ent = np.zeros((n + 1, n + 1, block, block), dtype=complex)
    ent[i, j, s, s] = m3[:len(s)]
    lhs = QuasiMatrix(ent).qdet(0, 0)
    # EF = prod_k E(x_0, x_k) E(y_0, y_k) / (E(x_0, y_k) E(y_0, x_k))
    E = prime_form(ctx, ([xs[0]] * n + [ys[0]] * n) * 2,
                   xs[1:] + ys[1:] + ys[1:] + xs[1:]).reshape(4, n)
    EF = (E[0] * E[1] / (E[2] * E[3])).prod()
    rhs = np.diag(m3[len(s):] * EF)
    num = float(np.abs(lhs - rhs).max())
    den = float(np.abs(rhs).max())
    return num, num / den


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

    `kind` is a registry curve type ("hyperelliptic" or "plane_quartic"),
    or "carrier" for checks that need no curve.  `table` maps a curve id
    or a genus to (trials, tol); a curve takes the row of its id if there
    is one, else the row of its genus, and carrier specs use the id "-".
    A (spec, curve) pair runs only if the curve finds a row.
    """
    name: str
    kind: str
    runner: object                 # fn(env, rng) -> (abs_res, rel_res)
    table: dict


IDENTITIES = {}

for kind, rows in [
    ("hyperelliptic", [
        ("skewsym_n2", lambda ctx, rng: residue_identity_residual(ctx, 2, rng),
         {1: (100, 1e-9), 2: (50, 1e-9), 3: (50, 1e-9)}),
        ("residue_n3", lambda ctx, rng: residue_identity_residual(ctx, 3, rng),
         {1: (100, 1e-8)}),
        ("maincor_kernel", maincor_kernel_residual, {1: (100, 1e-8)}),
        ("trisecant_general_n1", lambda ctx, rng: trisecant_general_residual(ctx, 1, rng),
         {1: (200, 1e-9), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("trisecant_general_n2", lambda ctx, rng: trisecant_general_residual(ctx, 2, rng),
         {1: (50, 1e-9), 2: (50, 1e-7), 3: (50, 1e-8)}),
        ("trisecant_general_n3", lambda ctx, rng: trisecant_general_residual(ctx, 3, rng),
         {1: (50, 1e-9), 2: (50, 1e-7), 3: (50, 1e-8)}),
        ("trisecant_classical", trisecant_classical_residual,
         {1: (200, 1e-9), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("divisor_symmetric_n1", lambda ctx, rng: divisor_symmetric_residual(ctx, 1, rng),
         {1: (100, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("divisor_symmetric_n2", lambda ctx, rng: divisor_symmetric_residual(ctx, 2, rng),
         {1: (50, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("prime_form_n1", lambda ctx, rng: prime_form_identity_residual(ctx, 1, rng),
         {1: (200, 1e-8), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("prime_form_n2", lambda ctx, rng: prime_form_identity_residual(ctx, 2, rng),
         {2: (50, 1e-7), 3: (50, 1e-8)}),
        ("theta_derivative_divisor", theta_derivative_divisor_residual,
         {1: (3, 1e-6), 2: (3, 1e-6)}),
        ("cross_formula_m3", cross_formula_residual,
         {1: (200, 1e-8), 2: (200, 1e-8), 3: (50, 1e-8)}),
        ("idcor", idcor_residual, {1: (100, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("quasidet_geometric_n1", lambda ctx, rng: quasidet_geometric_residual(ctx, 1, rng),
         {1: (100, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("quasidet_geometric_n2", lambda ctx, rng: quasidet_geometric_residual(ctx, 2, rng),
         {1: (50, 1e-9), 2: (50, 1e-8), 3: (50, 1e-8)}),
        ("quasidet_geometric_diag",
         lambda ctx, rng: quasidet_geometric_residual(ctx, 1, rng, block=2),
         {1: (50, 1e-9)}),
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
    for name, runner, table in rows:
        IDENTITIES[name] = IdentitySpec(name, kind, runner, table)


def run_identity(spec: IdentitySpec, env, curve_id, trials, tol, seed):
    """Run one identity for `trials` trials; resample (fresh draws from the
    same stream) on rejected draws (_RETRY), up to 20 attempts per trial.

    On a CurveContext, CurveContext.look_ahead first maps the Abel-Jacobi
    points of every trial's first attempt, on a fresh copy of its stream,
    in one batch; the trials then draw the same points and find them cached.

    Reports carry requested vs completed counts: completion below 90%
    fails the report regardless of residuals.  An environment that failed
    to build (an exception in place of env) runs no trial and fails.
    """
    t0 = time.perf_counter()
    completed = 0
    failure = f"{type(env).__name__}: {env}" if isinstance(env, Exception) else ""
    max_abs = 0.0
    max_rel = 0.0
    label = f"{spec.name}|{curve_id}"
    if isinstance(env, CurveContext):
        env.look_ahead(spec.runner, (trial_rng(seed, label, t) for t in range(trials)))
    for trial in range(0 if failure else trials):
        rng = trial_rng(seed, label, trial)
        for _ in range(20):
            try:
                abs_r, rel_r = spec.runner(env, rng)
            except _RETRY:
                continue
            except (KernelError, CurveError, SuiteError, QuarticError) as ex:
                # hard per-check failure: fail this report, keep the suite going
                max_abs = max_rel = math.inf
                failure = f"{type(ex).__name__}: {ex}"
                break
            completed += 1
            max_abs = max(max_abs, abs_r)
            max_rel = max(max_rel, rel_r)
            break
        if math.isinf(max_rel):
            break
    if completed == 0:
        # no residual was measured: report none, never a perfect 0.0
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
