"""Independent oracles for the test suite: direct 1-D q-series for genus-1
theta functions, AGM period computation, finite differences, path
integrals continued by a cumulative sum of half-log ratios, Abel-Jacobi
along hub paths and along legs from a table of arcs about each branch
point, branch-point constants chained across neighbouring pairs, cycle
crossings found one pair of edges at a time, the plane-quartic line
restriction and gradient as one many-operand einsum each, the record of a
report run one trial at a time, each trial drawn from its own Generator,
and the theta radius search stepped from 0.5.

These deliberately avoid the package's lattice-ellipsoid evaluator,
period integrator and Abel-Jacobi rays, and its rounds of trials; only the
crossing count, the arc table and its legs (and so the chained branch
constants) continue y with the package's integrate_path.
"""

import importlib
import itertools
import math

import numpy as np

from faylab.curves import CurveError, integrate_path, lattice_coords, make_point
from faylab.identities import _HARD, _RETRY, _drive
from faylab.quasidet import QuasiMatrix
from faylab.report import IdentityReport, report_record
from faylab.rng import trial_rng
from faylab.theta import ToleranceUnachievable, _tail_bound


def stepped_truncation_radius(rm, tol, gradient=False, center_offset=0.0):
    """The least R = 0.5 + 0.25 k with _tail_bound(R) <= tol by stepping up
    from 0.5, refused (ToleranceUnachievable) at the first step whose ball
    holds more than MAX_LATTICE_TERMS points (read when called)."""
    theta = importlib.import_module("faylab.theta")
    R, g = 0.5, rm.g
    ball = math.pi ** (g / 2.0) / math.exp(math.lgamma(g / 2.0 + 1.0)) / rm._det_S
    while _tail_bound(rm, R, gradient, center_offset) > tol:
        R += 0.25
        if ball * R**g + 3**g > theta.MAX_LATTICE_TERMS:
            raise ToleranceUnachievable(f"radius {R:.1f}")
    return R


def point_y(curve, P):
    """y at the point row P = (x, sheet): the sheet times the principal root."""
    return P[1] * curve.y_principal(P[0])


def involution(P):
    """The point row over the same x on the other sheet."""
    return np.array([P[0], -P[1]])


def qseries_theta3(z, tau, n_terms=40):
    """theta[0,0](z | tau) as a direct symmetric sum."""
    ns = np.arange(-n_terms, n_terms + 1)
    return np.exp(1j * np.pi * ns**2 * tau + 2j * np.pi * ns * z).sum()


def qseries_theta_char(a, b, z, tau, n_terms=40):
    """theta[a,b](z | tau) for scalar half-characteristics, direct sum."""
    ns = np.arange(-n_terms, n_terms + 1) + a
    return np.exp(1j * np.pi * ns**2 * tau + 2j * np.pi * ns * (z + b)).sum()


def qseries_theta_char_deriv(a, b, z, tau, n_terms=40):
    """d/dz of the scalar characteristic series."""
    ns = np.arange(-n_terms, n_terms + 1) + a
    return (2j * np.pi * ns
            * np.exp(1j * np.pi * ns**2 * tau + 2j * np.pi * ns * (z + b))).sum()


def agm(a, b, tol=1e-15):
    """Arithmetic-geometric mean of positive reals."""
    a, b = float(a), float(b)
    while abs(a - b) > tol * abs(a):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return a


def agm_tau(e1, e2, e3):
    """Period ratio tau of y^2 = (x-e1)(x-e2)(x-e3), real e1 < e2 < e3,
    via Gauss' AGM relations for the complete elliptic integrals."""
    m1 = agm(np.sqrt(e3 - e1), np.sqrt(e3 - e2))
    m2 = agm(np.sqrt(e3 - e1), np.sqrt(e2 - e1))
    return 1j * m1 / m2


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def brute_force_continuation(branch_points, lead, vertices, y0, steps=20000):
    """y at every vertex of a polygon, continued from y0 at vertices[0] in
    `steps` uniform steps per edge, each taking the square root of
    lead * prod(x - e_k) nearest the previous y."""
    ys = [complex(y0)]
    for za, zb in zip(vertices[:-1], vertices[1:]):
        x = np.linspace(za, zb, steps + 1)
        r = np.sqrt(lead * np.prod(x[:, None] - np.asarray(branch_points), axis=1))
        # the root nearest s r_{j-1} is s r_j when Re(r_j conj(r_{j-1})) >= 0
        keep = np.where((r[1:] * r[:-1].conj()).real >= 0, 1, -1)
        s = (1 if abs(r[0] - ys[-1]) <= abs(r[0] + ys[-1]) else -1) * np.prod(keep)
        ys.append(s * r[-1])
    return np.array(ys)


def branch_expansion(e_k, x, y, genus):
    """Leading term of int_{e_k}^{(x, y)} t^i dt / y(t), i < genus, near the
    branch point e_k: there y^2 is c (t - e_k) to first order, so the
    integral is 2 e_k^i (x - e_k) / y."""
    return 2.0 * e_k ** np.arange(genus) * (x - e_k) / y


def hub_path_one(e_k, rho, x, turns=0):
    """The hub path of one point: from the hub e_k + rho round the circle
    |z - e_k| = rho in chords of at most a quarter turn to the angle of x
    (plus `turns` full turns), then straight to x, through the radii rho
    2^-j > |x - e_k| on the way in, so that no edge is longer than twice
    its clearance from e_k."""
    angle = np.angle(x - e_k) + 2.0 * np.pi * turns
    n = max(1, int(np.ceil(abs(angle) / (0.5 * np.pi))))
    arc = e_k + rho * np.exp(1j * angle * np.arange(n + 1) / n)
    halves = 0.5 ** np.arange(1, max(1, int(np.log2(rho / abs(x - e_k))) + 1))
    return list(arc) + list(e_k + (arc[-1] - e_k) * halves[halves * rho > abs(x - e_k)]) + [x]


def log_sum_path(curve, paths, y0s, order):
    """(1, x, .., x^(g-1)) dx / y along each polygon of paths, y = y0s[i] at
    vertex 0 of path i, in one array pass: every edge in Gauss-Legendre
    panels no wider than half its clearance from the branch points, y
    continued through every node by a cumulative sum of half-log ratios of
    f within its path, and each path's integral one np.add.reduceat.
    Returns the (len(paths), g) integrals and y at every vertex, path by
    path, as integrate_path does."""
    e = curve.branch_points
    nodes, weights = np.polynomial.legendre.leggauss(order)
    lens = np.array([len(p) for p in paths])
    zb = np.concatenate([np.asarray(p, dtype=complex) for p in paths])
    za, first = np.roll(zb, 1), np.cumsum(lens) - lens
    za[first] = zb[first]           # vertex 0 of a path ends an edge of no length
    d = zb - za
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(((e - za[:, None]) / d[:, None]).real, 0.0, 1.0)
        gap = np.abs(za[:, None] + t * d[:, None] - e).min(axis=1)
        n = np.where(d != 0, np.ceil(np.abs(d) / (0.5 * gap)), 0).astype(int)
    # edge i: n_i panels of order nodes, then its end vertex zb_i
    size = n * order + 1
    item, offset = np.repeat(np.arange(len(zb)), size), np.cumsum(size) - size
    p, j = np.divmod(np.arange(size.sum()) - offset[item], order)
    inner, ni = p < n[item], np.maximum(n[item], 1)
    ts = (p + 0.5 * (nodes[j] + 1.0)) / ni
    x = np.where(inner, za[item] + ts * d[item], zb[item])
    w = np.where(inner, weights[j] * 0.5 * d[item] / ni, 0.0)
    path = np.repeat(np.arange(len(paths)), lens)[item]
    starts = offset[first]
    fx = curve.f(x)
    step = np.concatenate([[0.0], 0.5 * np.log(fx[1:] / fx[:-1])])
    # each path's first step takes back the one before's total, so that the
    # running sum starts each path near 0 and rounds as the path's own would
    step[starts] = 0.0
    step[starts[1:]] = -np.add.reduceat(step, starts)[:-1]
    log_y = np.cumsum(step)
    y = np.asarray(y0s)[path] * np.exp(log_y - log_y[starts][path])
    wy = w / y
    return (np.stack([np.add.reduceat(x ** i * wy, starts) for i in range(curve.genus)], axis=1),
            y[~inner])


def hub_aj_rows(periods, ks, pts):
    """A^-1 int_{e_k}^P for k = ks[i], P = pts[i], along the hub path of P.x
    about e_k (rho_k half the distance from e_k to its nearest neighbour),
    continued by log_sum_path from the principal root at the hub, with the
    hub constant A^-1 int_{e_k}^{hub} half a full turn from the hub's other
    sheet; a row is negated where its path lands on iota P.  Each hub
    constant and each path is integrated once, all in one log_sum_path."""
    curve, e = periods.curve, periods.curve.branch_points
    rho = 0.5 * np.sort(np.abs(e - e[:, None]), axis=1)[:, 1]
    y_h = curve.y_principal(e + rho)
    hubs, routes = list(dict.fromkeys(ks)), list(dict.fromkeys(zip(ks, pts[:, 0])))
    paths = ([hub_path_one(e[k], rho[k], e[k] + rho[k], turns=1) for k in hubs]
             + [hub_path_one(e[k], rho[k], x) for k, x in routes])
    y0s = np.concatenate([-y_h[hubs], [y_h[k] for k, _ in routes]])
    # in groups of 256 paths, to bound the node arrays
    vecs, ys = map(np.concatenate, zip(*(log_sum_path(curve, paths[i:i + 256], y0s[i:i + 256], 12)
                                          for i in range(0, len(paths), 256))))
    ends = ys[np.cumsum([len(p) for p in paths]) - 1]
    at = {r: i for i, r in enumerate(hubs + routes)}
    hub, route = np.array([at[k] for k in ks]), np.array([at[r] for r in zip(ks, pts[:, 0])])
    y = pts[:, 1] * curve.y_principal(pts[:, 0])
    sign = np.where(np.abs(ends[route] - y) < np.abs(ends[route] + y), 1, -1)
    return sign[:, None] * (0.5 * vecs[hub] + vecs[route]) @ periods.A_inv.T


#: Gauss-Legendre order of the arc table and its legs: on panels no wider
#: than half their clearance, 12 nodes err by at most 1.3e-21 M (the
#: Bernstein-ellipse bound, rho = 4 + sqrt(15))
ARC_ORDER = 12


def arc_vertices(e, rho):
    """The arc table's V_kj = e_k + rho_k exp(i j pi/8) in column j + 8, |j| <= 8."""
    return e[:, None] + rho[:, None] * np.exp(1j * np.pi / 8 * np.arange(-8, 9))


def arc_column(d):
    """Column j + 8 of the leg to e_k + d: V_kj, j = trunc(arg d / (pi/8))."""
    return np.trunc(np.angle(d) / (np.pi / 8)).astype(int) + 8


def arc_table(periods):
    """(V, y_V, R): about each e_k, rho_k half its nearest gap, the vertices
    V_kj (see arc_vertices), y continued to them along the circle's chords
    from the principal root at the hub h_k = V_k0, and R_kj = A^-1
    int_{e_k}^{V_kj} = R_k0 + I_kj, the arcs I_kj = A^-1 int_{h_k}^{V_kj}
    in one integrate_path batch.  The involution negates integrals from e_k,
    and the half turns end on opposite sheets: R_k0 = -(I_k,8 + I_k,-8)/2."""
    curve, e, g = periods.curve, periods.curve.branch_points, periods.curve.genus
    V = arc_vertices(e, 0.5 * np.sort(np.abs(e - e[:, None]), axis=1)[:, 1])
    # arc (k, j): V_k0, V_k1, .. V_kj (or V_k,-1, .. for j < 0)
    arcs = [V[k, 8::1 if j >= 0 else -1][:abs(j) + 1]
            for k in range(len(e)) for j in range(-8, 9)]
    vecs, ys = integrate_path(curve, arcs, np.repeat(curve.y_principal(V[:, 8]), 17), ARC_ORDER)
    arc = (periods.A_inv @ vecs[..., None])[..., 0].reshape(len(e), 17, g)
    return (V, ys[np.cumsum([len(a) for a in arcs]) - 1].reshape(V.shape),
            arc - 0.5 * (arc[:, :1] + arc[:, 16:]))


def arc_leg_rows(periods, pts, ks):
    """Rows A^-1 int_{e_k}^P for the point rows P = pts[i] from their branch
    points k = ks[i]: R_kj from the arc table plus the leg [V_kj, x] of
    column arc_column(x - e_k), all legs in one integrate_path call.  A leg
    landing on iota P gives -AJ(P).

    If e_k is a nearest branch point of x, r = |x - e_k|, rho = rho_k and
    phi <= pi/8 the angle at e_k from V_kj to x, the leg keeps min(0.7 rho,
    r) clear of all.  Of e_k: leg points project onto the bisector of phi
    at cos(pi/16) min(rho, r) or more, 0.7 rho unless r <= rho cos(phi),
    when x is nearest.  Of e_m, m != k, 2 rho or more from e_k and r from x:
    the leg lies within max(rho, r) of e_k, so a leg point z with a =
    |z - e_k| <= 1.3 rho is 0.7 rho from e_m; for a in (1.3 rho, r],
    |z - x|^2 <= a^2 + r^2 - 2 a r cos(pi/8) <= (r - 0.7 rho)^2 (convex in
    a, so checked at a = 1.3 rho and a = r), so |z - e_m| >= r - |z - x|
    >= 0.7 rho.
    Sliding V_kj round the circle to the angle of x sweeps legs that keep
    this clearance, so the leg is homotopic to the hub route (round the
    circle from h_k to the angle of x, then straight out): same lattice
    representative."""
    curve, (V, y_V, R) = periods.curve, arc_table(periods)
    x, s = pts.T.copy()
    col = arc_column(x - curve.branch_points[ks])
    vecs, ys = integrate_path(curve, np.stack([V[ks, col], x], axis=1), y_V[ks, col], ARC_ORDER)
    y = s * curve.y_principal(x)
    end = ys[1::2] / y                  # +-1 where a leg lands on +-y
    sign = np.sign(end.real)
    if (abs(end - sign) > 1e-6).any():
        raise CurveError("sheet tracking did not land on the requested point")
    return sign[:, None] * (R[ks, col] + (periods.A_inv @ vecs[..., None])[..., 0])


def chained_branch_constants(periods):
    """Row k: A^-1 int_{e_0}^{e_k} chained from e_0 across each pair (e_j,
    e_k) whose midpoint m has no nearer branch point (so every k is
    reached): int_{e_0}^{e_k} = int_{e_0}^{e_j} + int_{e_j}^m - int_{e_k}^m,
    the legs by arc_leg_rows in one batch, each row reduced into the cell
    [-1/4, 3/4)^2g of lattice coordinates."""
    e, rm = periods.curve.branch_points, periods.rm
    chain, reached = [], [0]
    for j in reached:
        for k in range(len(e)):
            m = 0.5 * (e[j] + e[k])
            if k not in reached and np.abs(e - m).min() >= (1 - 1e-9) * abs(m - e[j]):
                chain.append((j, k, np.array([m, 1])))
                reached.append(k)
    js, ks, ms = zip(*chain)
    legs = arc_leg_rows(periods, np.array(ms + ms), list(js + ks))
    consts = {0: np.zeros(periods.curve.genus, dtype=complex)}
    for (j, k, _), to_j, to_k in zip(chain, legs, legs[len(chain):]):
        v = consts[j] + to_j - to_k
        al, be = lattice_coords(v, rm)
        consts[k] = v - np.floor(al + 0.25) - rm.omega @ np.floor(be + 0.25)
    return np.array([consts[k] for k in range(len(e))])


def section_tensor(T, W):
    """T(W_i, W_j, W_k, W_l) of each (2, 3) block W[n], as one 5-operand einsum."""
    return np.einsum("abcd,nia,njb,nkc,nld->nijkl", T, W, W, W, W)


def tensor_gradient(T, X):
    """4 T(., X, X, X), gradient axis last, as one 4-operand einsum."""
    return 4 * np.einsum("abcd,...b,...c,...d->...a", T, X, X, X)


def segment_crossing(a0, a1, b0, b1):
    """Transversal crossing of the open segments [a0, a1] and [b0, b1], as
    (t, sign) with the crossing at a0 + t (a1 - a0) and sign that of the
    cross product of their directions, or None; one pair of edges at a time."""
    d1 = a1 - a0
    d2 = b1 - b0
    denom = d1.real * d2.imag - d1.imag * d2.real
    if abs(denom) < 1e-14 * (abs(d1) * abs(d2) + 1e-300):
        return None
    w = b0 - a0
    t = (w.real * d2.imag - w.imag * d2.real) / denom
    s = (w.real * d1.imag - w.imag * d1.real) / denom
    if not (1e-9 < t < 1 - 1e-9 and 1e-9 < s < 1 - 1e-9):
        return None
    return t, 1 if denom > 0 else -1


def pairwise_crossings(cycles):
    """(i, j, m, n, t, sign) for each crossing of edge m of cycles[i] with
    edge n of cycles[j], i < j, by segment_crossing over every pair."""
    hits = []
    for i, j in itertools.combinations(range(len(cycles)), 2):
        for m, (a0, a1) in enumerate(zip(cycles[i][:-1], cycles[i][1:])):
            for n, (b0, b1) in enumerate(zip(cycles[j][:-1], cycles[j][1:])):
                hit = segment_crossing(a0, a1, b0, b1)
                if hit is not None:
                    hits.append((i, j, m, n) + hit)
    return hits


def pairwise_intersection_matrix(curve, cycles, ys, order):
    """The antisymmetric matrix of signed sheet-matched crossing counts of
    the cycles, ys[i] the y at the vertices of cycles[i]: each crossing of
    pairwise_crossings counts where y continued along the legs from both
    edges' starts to it lands on one sheet."""
    legs, y0s, hits = [], [], pairwise_crossings(cycles)
    for i, j, m, n, t, _ in hits:
        zc = cycles[i][m] + t * (cycles[i][m + 1] - cycles[i][m])
        legs += [[cycles[i][m], zc], [cycles[j][n], zc]]
        y0s += [ys[i][m], ys[j][n]]
    M = np.zeros((len(cycles), len(cycles)), dtype=int)
    ends = integrate_path(curve, legs, y0s, order)[1][1::2]
    for (i, j, _, _, _, sign), y1, y2 in zip(hits, ends[::2], ends[1::2]):
        if abs(y1 - y2) < abs(y1 + y2):
            M[i, j] += sign
    return M - M.T


def scalar_points(ctx, rng, count):
    """count curve point rows drawn from the Generator rng one double at a
    time, by the rule sample_points follows for each stream: up to 200
    candidates x in the box 1.6 times the branch locus's padded extent, the
    first more than 0.04 min_gap clear of it followed by a sheet draw, and
    make_point's refusal within 1e-6; CurveError after 200 candidates."""
    e, (c_r, c_i, half_r, half_i) = ctx.curve.branch_points, ctx.curve.box
    pts = []
    for _ in range(count):
        for _ in range(200):
            x = (c_r + 1.6 * half_r * (2 * rng.random() - 1)
                 + 1j * (c_i + 1.6 * half_i * (2 * rng.random() - 1)))
            clear = np.abs(x - e).min()
            if clear > 0.04 * ctx.curve.min_gap:
                sheet = 1 if rng.random() < 0.5 else -1
                pts.append(np.array([x, sheet], dtype=complex) if clear > 1e-6
                           else make_point(ctx.curve, x, sheet))
                break
        else:
            raise CurveError("could not sample a point clear of the branch locus")
    return np.array(pts)


class GeneratorDraws:
    """The draws of one stream read from the Generator rng, for a sampler's
    take(rows, n) (rows a one- or zero-element index array) and a Table's
    cursor; a trial run alone has no other trial to set its cursor back for."""

    def __init__(self, rng):
        self.rng, self.at = rng, np.zeros(1, dtype=int)

    def take(self, rows, n):
        return self.rng.random((len(rows), n))


def draw_one(sampler, ctx, rng, count=1):
    """sampler's count draws for one stream read from the Generator rng
    (the exception that stops it raised)."""
    values, errors = sampler(ctx, GeneratorDraws(rng).take, np.zeros(1, dtype=int), count)
    if errors:
        raise errors[0]
    return values[0]


def generator_trial(spec, env, rng):
    """One trial of spec run alone (T = 1) by _drive, its draws read from
    the Generator rng.  Returns (abs, rel) or the exception that stopped the
    trial after its start; a runner that refuses to start raises."""
    result, = _drive(env, [spec.runner(env)], GeneratorDraws(rng), np.zeros(1, dtype=int))
    return result


def trial_steps(spec, env, rng):
    """(request, answer) for each draw and kernel request of one trial of
    spec run alone (T = 1): a draw read from the
    Generator rng by draw_one, a kernel request answered by its kernel on
    the trial's rows.  A refusal of the trial ends the steps."""
    body, answer = spec.runner(env)(), None
    while True:
        try:
            request = body.send(answer)
        except StopIteration:
            return
        if isinstance(request, dict):
            if request:
                return
            answer = None
            continue
        fn, *args = request
        answer = (draw_one(fn, env, rng, *args) if isinstance(args[0], int)
                  else fn(env, *[a[0] for a in args]))[None]
        yield request, answer


def per_trial_record(spec, env, curve_id, trials, tol, seed):
    """The record of run_identity (without elapsed_ms, with the failure)
    from a loop over the trials in order: each trial is run alone by
    generator_trial, a rejection at the draw or in the evaluation runs it
    again, reading on from its trial_rng Generator (20 attempts a trial), a
    hard failure ends the report at its trial, and a non-finite residual
    ends it after its trial."""
    out, failure = [], ""
    for trial in range(trials):
        rng = trial_rng(seed, f"{spec.name}|{curve_id}", trial)
        for _ in range(20):
            try:
                result = generator_trial(spec, env, rng)
                if isinstance(result, Exception):
                    raise result
            except _RETRY:
                continue
            except _HARD as ex:
                failure = f"{type(ex).__name__}: {ex}"
            else:
                out.append(result)
            break
        if failure or (out and not all(map(math.isfinite, out[-1]))):
            break
    if failure or not out or not all(map(math.isfinite, out[-1])):
        max_abs = max_rel = math.inf
    else:
        max_abs, max_rel = map(max, zip(*out))
    passed = len(out) >= math.ceil(0.9 * trials) and max_rel < tol
    rec = report_record(IdentityReport(spec.name, curve_id, trials, len(out), max_abs,
                                       max_rel, seed, tol, passed, 0, failure))
    del rec["elapsed_ms"]
    return dict(rec, failure=failure)


def random_quasimatrix(rng, n, k, lead=()):
    """An n x n quasimatrix of k x k blocks of complex normals drawn from the
    Generator rng, or a stack of them of leading shape lead (the same
    normals at lead (1,))."""
    shape = (*lead, n, n, k, k)
    ent = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return QuasiMatrix(ent)
