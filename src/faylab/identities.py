"""Scalar identity checks: each identity evaluated as a residual over
randomized inputs on registry curves, with deterministic per-trial
random streams and near-divisor resampling.

All bundle parameters are carried as exact C^g vectors (never reduced
mid-identity) so that every term of an identity uses one consistent set
of representatives; theta evaluations reduce internally with exact
prefactors and are therefore representative-free as values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .theta import theta_batch, ThetaError
from .curves import (HyperellipticCurve, period_matrix, random_line_bundle,
                     CurveError)
from .kernels import (CurveContext, fay_F, prime_form, massey_m3_prime,
                      massey_m3_theta, bundle_of_xi, h_value, theta_form_at,
                      sample_point, sample_xi, delta_divisor_root,
                      NearDivisor, CoincidentPoints, KernelError)
from .quasidet import (QuasiMatrix, SingularMinor, random_quasimatrix,
                       check_sylvester, check_column_expansion,
                       check_row_homological, check_col_homological)
from .quartic import (PlaneQuartic, QuarticError, canprop_residual, cor2_residual,
                      ratio_dual_residual, tangent_reconstruction_residual,
                      reconstruct_synthetic_residual)
from .registry import registry_entries
from .report import IdentityReport
from .rng import trial_rng


class SuiteError(Exception):
    pass


class UnknownIdentity(SuiteError):
    pass


class BadTriple(KernelError):
    pass


_RETRY = (NearDivisor, CoincidentPoints, SingularMinor, BadTriple)


def _rel(total, blocks):
    m = max(abs(b) for b in blocks)
    return abs(total), abs(total) / m


def _distinct_points(ctx, rng, count, min_sep=1e-3):
    for _ in range(40):
        pts = [sample_point(ctx, rng) for _ in range(count)]
        xs = np.array([p.x for p in pts])
        d = np.abs(xs[:, None] - xs[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > min_sep * ctx.curve.min_gap:
            return pts
    raise BadTriple("could not sample distinct points")


# ---------------------------------------------------------------------------
# theta-kernel identities


def trisecant_general_residual(ctx, n, rng):
    """Eq. (mainid): the three-block sum of F-products over x, y, z_i, t_i
    and a free Jacobian point xi."""
    pts = _distinct_points(ctx, rng, 2 + 2 * n)
    x, y = pts[0], pts[1]
    zs, ts = pts[2:2 + n], pts[2 + n:]
    xi = sample_xi(ctx, rng)
    X, Y = ctx.aj(x), ctx.aj(y)
    Z = [ctx.aj(p) for p in zs]
    T = [ctx.aj(p) for p in ts]
    S = sum(Z[k] - T[k] for k in range(n))
    blocks = []
    for i in range(n):
        term = 1.0 + 0j
        for j in range(n):
            if j != i:
                term *= fay_F(ctx, Z[i] - Z[j], Z[j] - T[j])
        term *= fay_F(ctx, Z[i] - X, xi) * fay_F(ctx, Y - Z[i], S + xi)
        blocks.append(term)
    t2 = 1.0 + 0j
    for i in range(n):
        t2 *= fay_F(ctx, X - Z[i], Z[i] - T[i])
    blocks.append(t2 * fay_F(ctx, Y - X, S + xi))
    t3 = 1.0 + 0j
    for i in range(n):
        t3 *= fay_F(ctx, Y - Z[i], Z[i] - T[i])
    blocks.append(-t3 * fay_F(ctx, Y - X, xi))
    return _rel(sum(blocks), blocks)


def trisecant_classical_residual(ctx, rng, pts=None, xi=None):
    """The two-fraction n=1 form of the trisecant identity."""
    if pts is None:
        pts = _distinct_points(ctx, rng, 4)
    if xi is None:
        xi = sample_xi(ctx, rng)
    x, y, z, t = pts
    X, Y, Z, T = (ctx.aj(p) for p in pts)
    th = ctx.theta_delta_many([X - T, Y - Z, X - Z, Y - T, xi, xi + Y - X + Z - T,
                               Z - T, Y - X, Z - X, xi + Z - X, xi + Y - T,
                               xi + Z - T, xi + Y - X])
    (xt, yz, xz, yt, t_xi, t_long, zt, yx, zx, t_zx, t_yt, r1, r2) = th
    if min(abs(xz), abs(yt), abs(zx)) < 1e-8 * ctx.scale:
        raise NearDivisor("trisecant denominator too small")
    L1 = (xt * yz / (xz * yt)) * t_xi * t_long
    L2 = (zt * yx / (zx * yt)) * t_zx * t_yt
    R = r1 * r2
    blocks = [L1, L2, R] if abs(R) > 0 else [L1, L2, 1.0]
    total = L1 + L2 - R
    return abs(total), abs(total) / max(abs(b) for b in blocks)


def divisor_symmetric_residual(ctx, n, rng):
    """Cor. (divisorid): the symmetric F-product identity over n+1 pairs."""
    m = n + 1
    pts = _distinct_points(ctx, rng, 1 + 2 * m)
    y = pts[0]
    zs, ts = pts[1:1 + m], pts[1 + m:]
    Y = ctx.aj(y)
    Z = [ctx.aj(p) for p in zs]
    T = [ctx.aj(p) for p in ts]
    S = sum(Z[k] - T[k] for k in range(m))
    blocks = []
    for i in range(m):
        term = 1.0 + 0j
        for j in range(m):
            if j != i:
                term *= fay_F(ctx, Z[i] - Z[j], Z[j] - T[j])
        term *= fay_F(ctx, Y - Z[i], S)
        blocks.append(term)
    rhs = 1.0 + 0j
    for i in range(m):
        rhs *= fay_F(ctx, Y - Z[i], Z[i] - T[i])
    blocks.append(-rhs)
    return _rel(sum(blocks), blocks)


def prime_form_identity_residual(ctx, n, rng):
    """The three-block E/theta identity for an arbitrary degree-1 theta,
    realized with a random translate of the plain theta."""
    e = random_line_bundle(ctx.rm, rng, scale=ctx.scale_raw).e
    pts = _distinct_points(ctx, rng, 2 + 2 * n)
    x, y = pts[0], pts[1]
    zs, ts = pts[2:2 + n], pts[2 + n:]
    X, Y = ctx.aj(x), ctx.aj(y)
    Z = [ctx.aj(p) for p in zs]
    T = [ctx.aj(p) for p in ts]
    S = sum(Z[k] - T[k] for k in range(n))
    args = []
    for i in range(n):
        args += [Z[i] - X + e, Y - Z[i] + S + e]
    args += [Y - X + e, S + e, Y - X + S + e, e]
    vals, _, _, _ = theta_batch(np.array(args), ctx.rm, tol=ctx.tol)
    vals = ctx.mult * vals
    blocks = []
    for i in range(n):
        term = 1.0 + 0j
        for j in range(n):
            if j != i:
                term *= prime_form(ctx, ts[j], zs[i]) / prime_form(ctx, zs[j], zs[i])
        term *= (prime_form(ctx, ts[i], zs[i]) * prime_form(ctx, x, y)
                 / (prime_form(ctx, x, zs[i]) * prime_form(ctx, y, zs[i])))
        term *= vals[2 * i] * vals[2 * i + 1]
        blocks.append(term)
    t2 = 1.0 + 0j
    for i in range(n):
        t2 *= prime_form(ctx, ts[i], y) / prime_form(ctx, zs[i], y)
    blocks.append(t2 * vals[2 * n] * vals[2 * n + 1])
    t3 = 1.0 + 0j
    for i in range(n):
        t3 *= prime_form(ctx, ts[i], x) / prime_form(ctx, zs[i], x)
    blocks.append(-t3 * vals[2 * n + 2] * vals[2 * n + 3])
    return _rel(sum(blocks), blocks)


def residue_identity_residual(ctx, n, rng):
    """Good-triple residue identity: sum_i alpha(x_i) prod_{j != i}
    m3(L_j, x_j, x_i) = 0 with the bundles closing up to the canonical
    class (the last theta point is the lattice-closing value).

    n = 2 works at any genus with L_2 = omega L_1^{-1} (alpha constant in
    the odd-translate frames); n = 3 needs genus 1, where all bundles have
    degree 0 and alpha(x_i) = 1/h(x_i) realizes the trivialization.
    """
    if n == 2:
        x, y = _distinct_points(ctx, rng, 2)
        xi = sample_xi(ctx, rng)
        t1 = massey_m3_prime(ctx, bundle_of_xi(ctx, xi), x, y)
        t2 = massey_m3_prime(ctx, bundle_of_xi(ctx, -xi), y, x)
        return _rel(t1 + t2, [t1, t2])
    if n == 3:
        if ctx.g != 1:
            raise SuiteError("n=3 residue identity needs genus 1 "
                             "(degree count: n(g-1) = 2g-2 forces n = 2 otherwise)")
        xs = _distinct_points(ctx, rng, 3)
        xi1 = sample_xi(ctx, rng)
        xi2 = sample_xi(ctx, rng)
        xis = [xi1, xi2, -(xi1 + xi2)]
        blocks = []
        for i in range(3):
            term = 1.0 / h_value(ctx, xs[i])
            for j in range(3):
                if j != i:
                    term *= massey_m3_prime(ctx, bundle_of_xi(ctx, xis[j]),
                                            xs[j], xs[i])
            blocks.append(term)
        return _rel(sum(blocks), blocks)
    raise SuiteError(f"residue identity implemented for n in (2, 3), not {n}")


def maincor_kernel_residual(ctx, rng):
    """Kernel-level n=1 instance of the two-bundle residue corollary:
    alpha = phi * eta with phi the theta-ratio section and eta realized by
    the squared half-differential (folded into the m3 frames)."""
    if ctx.g != 1:
        raise SuiteError("kernel-form corollary check runs at genus 1")
    x, y, z, t = _distinct_points(ctx, rng, 4)
    xi = sample_xi(ctx, rng)
    Z, T = ctx.aj(z), ctx.aj(t)
    xi2 = (Z - T) - xi
    thd = ctx.theta_delta

    def phi(p):
        return thd(ctx.aj(p) - T) / thd(ctx.aj(p) - Z)

    t0 = (thd(Z - T) / h_value(ctx, z)**2
          * massey_m3_prime(ctx, bundle_of_xi(ctx, xi), x, z)
          * massey_m3_prime(ctx, bundle_of_xi(ctx, xi2), y, z))
    t1 = phi(x) * massey_m3_prime(ctx, bundle_of_xi(ctx, xi2), y, x)
    t2 = phi(y) * massey_m3_prime(ctx, bundle_of_xi(ctx, xi), x, y)
    return _rel(t0 + t1 + t2, [t0, t1, t2])


def cross_formula_residual(ctx, rng):
    """massey_m3_prime against massey_m3_theta on a random triple."""
    x, y = _distinct_points(ctx, rng, 2)
    L = random_line_bundle(ctx.rm, rng, scale=ctx.scale_raw)
    m1 = massey_m3_prime(ctx, L, x, y)
    m2 = massey_m3_theta(ctx, ctx.xi_of_bundle(L), x, y)
    return abs(m1 - m2), abs(m1 - m2) / abs(m1)


def idcor_residual(ctx, rng):
    """Degenerate n=1 corollary m3(V(x-z), z, y) = m3(V,x,y) m3(V,x,z)^-1,
    with the O(x-z) trivialization factor E(x,y)/(E(z,y)E(x,z)) that turns
    the abstract bundle equality into numbers in the affine frames."""
    x, y, z = _distinct_points(ctx, rng, 3)
    xi = sample_xi(ctx, rng)
    m_xz = massey_m3_prime(ctx, bundle_of_xi(ctx, xi), x, z)
    m_xy = massey_m3_prime(ctx, bundle_of_xi(ctx, xi), x, y)
    xi_t = xi + ctx.aj(x) - ctx.aj(z)
    lhs = (massey_m3_prime(ctx, bundle_of_xi(ctx, xi_t), z, y)
           * prime_form(ctx, z, y) * prime_form(ctx, x, z) / prime_form(ctx, x, y))
    rhs = m_xy / m_xz
    return abs(lhs - rhs), abs(lhs - rhs) / abs(rhs)


def theta_derivative_divisor_residual(ctx, rng, n_controls=20):
    """The derivative 1-form vanishes on the odd-characteristic divisor.

    The form is N(x) dx / y with N the adjoint numerator; its divisor is
    read off the roots of N.  Genus 2: the root must sit on a Weierstrass
    point (the odd-characteristic divisor is one; the x-chart cannot be
    evaluated on it directly, so the root distance is the residual).
    Genus 1: the divisor is empty, N is the nonzero constant making the
    form proportional to the invariant differential; the residual is the
    spread of theta_form * y over the controls.
    """
    controls = [sample_point(ctx, rng) for _ in range(n_controls)]
    ctrl_vals = np.array([theta_form_at(ctx, p) for p in controls])
    scale = float(np.median(np.abs(ctrl_vals)))
    if ctx.g == 2:
        roots, dists = delta_divisor_root(ctx)
        if len(roots) == 0:
            zero_val = 0.0        # divisor at the branch point at infinity
        else:
            zero_val = float(dists.max()) / ctx.curve.min_gap
    elif ctx.g == 1:
        ratios = np.array([theta_form_at(ctx, p) * p.y(ctx.curve) for p in controls])
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
    if block == 1:
        xis = [sample_xi(ctx, rng)]
    else:
        if ctx.g != 1:
            raise SuiteError("diagonal flat bundles are exercised at genus 1")
        xis = [sample_xi(ctx, rng) for _ in range(block)]
    ent = np.zeros((n + 1, n + 1, block, block), dtype=complex)
    for s, xi in enumerate(xis):
        for i in range(n + 1):
            for j in range(n + 1):
                ent[i, j, s, s] = massey_m3_prime(ctx, bundle_of_xi(ctx, xi),
                                                  xs[j], ys[i])
    A = QuasiMatrix(ent)
    lhs = A.qdet(0, 0)
    shift = sum(ctx.aj(xs[i]) - ctx.aj(ys[i]) for i in range(1, n + 1))
    EF = 1.0 + 0j
    for i in range(1, n + 1):
        EF *= (prime_form(ctx, xs[0], xs[i]) * prime_form(ctx, ys[0], ys[i])
               / (prime_form(ctx, xs[0], ys[i]) * prime_form(ctx, ys[0], xs[i])))
    rhs = np.zeros((block, block), dtype=complex)
    for s, xi in enumerate(xis):
        rhs[s, s] = massey_m3_prime(ctx, bundle_of_xi(ctx, xi + shift),
                                    xs[0], ys[0]) * EF
    num = float(np.abs(lhs - rhs).max())
    den = float(np.abs(rhs).max())
    return num, num / den


# ---------------------------------------------------------------------------
# carrier-level checks (no curve)


def quasidet_det_ratio_residual(rng, n=None):
    if n is None:
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


def sylvester_residual(rng, n=3, k=2):
    A = random_quasimatrix(rng, n, k)
    r = check_sylvester(A, int(rng.integers(1, n)))
    return r, r


def column_expansion_residual(rng, n=4, k=2):
    A = random_quasimatrix(rng, int(rng.integers(2, n + 1)), k)
    r = check_column_expansion(A)
    return r, r


def homological_residual(rng, n=3, k=2):
    A = random_quasimatrix(rng, n, k)
    idx = rng.permutation(n)
    i, krow = int(idx[0]), int(idx[1])
    idx = rng.permutation(n)
    j, lcol = int(idx[0]), int(idx[1])
    r1 = check_row_homological(A, i, j, krow, lcol)
    r2 = check_col_homological(A, i, j, krow, lcol)
    return max(r1, r2), max(r1, r2)




# ---------------------------------------------------------------------------
# identity registry and suite runner


@dataclass
class IdentitySpec:
    """One identity and the (trials, tol) it runs at, per key.

    `kind` is a registry curve type ("hyperelliptic" or "plane_quartic"),
    or "carrier" for checks that need no curve.  `table` maps a key to
    (trials, tol); the key is the genus for hyperelliptic specs, the curve
    id for plane-quartic specs and "-" for carrier specs.  A (spec, curve)
    pair runs only if its key is in the table.
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
         {1: (50, 1e-9), 2: (50, 1e-7)}),
        ("trisecant_general_n3", lambda ctx, rng: trisecant_general_residual(ctx, 3, rng),
         {1: (50, 1e-9), 2: (50, 1e-7)}),
        ("trisecant_classical", trisecant_classical_residual,
         {1: (200, 1e-9), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("divisor_symmetric_n1", lambda ctx, rng: divisor_symmetric_residual(ctx, 1, rng),
         {1: (100, 1e-9), 2: (50, 1e-8)}),
        ("divisor_symmetric_n2", lambda ctx, rng: divisor_symmetric_residual(ctx, 2, rng),
         {1: (50, 1e-9), 2: (50, 1e-8)}),
        ("prime_form_n1", lambda ctx, rng: prime_form_identity_residual(ctx, 1, rng),
         {1: (200, 1e-8), 2: (100, 1e-8), 3: (50, 1e-8)}),
        ("prime_form_n2", lambda ctx, rng: prime_form_identity_residual(ctx, 2, rng),
         {2: (50, 1e-7)}),
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
         {"fermat": (200, 1e-9), "quartic-generic": (100, 1e-8)}),
        ("cor2_three_term", cor2_residual,
         {"fermat": (100, 1e-9), "quartic-generic": (50, 1e-8)}),
        ("ratio_dual", ratio_dual_residual,
         {"fermat": (200, 1e-9), "quartic-generic": (100, 1e-8)}),
        ("tangent_reconstruction", tangent_reconstruction_residual,
         {"fermat": (100, 1e-8), "quartic-generic": (100, 1e-8)}),
        ("reconstruct_synthetic", lambda env, rng: reconstruct_synthetic_residual(rng),
         {"fermat": (100, 1e-10), "quartic-generic": (100, 1e-10)}),
    ]),
    ("carrier", [
        ("quasidet_det_ratio", lambda env, rng: quasidet_det_ratio_residual(rng),
         {"-": (100, 1e-9)}),
        ("quasidet_sylvester", lambda env, rng: sylvester_residual(rng),
         {"-": (100, 1e-9)}),
        ("quasidet_column_expansion", lambda env, rng: column_expansion_residual(rng),
         {"-": (100, 1e-9)}),
        ("quasidet_homological", lambda env, rng: homological_residual(rng),
         {"-": (100, 1e-9)}),
    ]),
]:
    for name, runner, table in rows:
        IDENTITIES[name] = IdentitySpec(name, kind, runner, table)


def run_identity(spec: IdentitySpec, env, curve_id, trials, tol, seed,
                 retry_budget=20):
    """Run one identity for `trials` trials; resample (fresh draws from the
    same stream) on near-divisor rejections, up to the retry budget.

    Reports carry requested vs completed counts: completion below 90%
    fails the report regardless of residuals.
    """
    t0 = time.perf_counter()
    completed = 0
    max_abs = 0.0
    max_rel = 0.0
    for trial in range(trials):
        rng = trial_rng(seed, f"{spec.name}|{curve_id}", trial)
        for _ in range(retry_budget):
            try:
                abs_r, rel_r = spec.runner(env, rng)
            except _RETRY:
                continue
            except (KernelError, CurveError, SuiteError, QuarticError):
                # hard per-check failure: fail this report, keep the suite going
                max_abs = max_rel = math.inf
                break
            completed += 1
            max_abs = max(max_abs, abs_r)
            max_rel = max(max_rel, rel_r)
            break
        if math.isinf(max_rel):
            break
    elapsed = int(1000 * (time.perf_counter() - t0))
    passed = (completed >= math.ceil(0.9 * trials)) and (max_rel < tol)
    return IdentityReport(identity_id=spec.name, curve_id=curve_id,
                          trials=trials, completed=completed,
                          max_abs_residual=max_abs, max_rel_residual=max_rel,
                          seed=seed, tol=tol, passed=passed, elapsed_ms=elapsed)


@dataclass
class SuiteConfig:
    curves: list = None            # registry ids (None = full registry)
    identities: list = None       # identity names (None = all)
    trials: int = None            # override per-identity defaults
    master_seed: int = 42
    tolerances: dict = field(default_factory=dict)

    def validate(self):
        if self.identities is not None:
            for name in self.identities:
                if name not in IDENTITIES:
                    raise UnknownIdentity(f"unknown identity {name!r}")
        if self.trials is not None and self.trials < 1:
            raise SuiteError("trials must be >= 1")
        for k, v in self.tolerances.items():
            if not v > 0:
                raise SuiteError("tolerances must be positive")


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
    once on "-" if it is a carrier check, whenever its table has the key of
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
            key = entry["genus"] if entry["type"] == "hyperelliptic" else cid
            if entry["type"] != spec.kind or key not in spec.table:
                continue
            trials, tol = spec.table[key]
            trials = config.trials or trials
            tol = config.tolerances.get(name, tol)
            if cid not in envs:
                try:
                    envs[cid] = _build_env(entry)
                except (CurveError, ThetaError, QuarticError, ValueError) as ex:
                    envs[cid] = ex
            if isinstance(envs[cid], Exception):
                rep = IdentityReport(identity_id=name, curve_id=cid, trials=trials,
                                     completed=0, max_abs_residual=math.inf,
                                     max_rel_residual=math.inf,
                                     seed=config.master_seed, tol=tol,
                                     passed=False, elapsed_ms=0)
            else:
                rep = run_identity(spec, envs[cid], cid, trials, tol,
                                   config.master_seed)
            reports.append(rep)
            if progress:
                progress(rep)
    return reports
