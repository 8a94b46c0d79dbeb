import cmath
import math
import time
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from faylab import curves
from faylab.curves import (HyperellipticCurve, period_matrix,
                           make_point, abel_jacobi, abel_jacobi_from_branch,
                           abel_jacobi_between_branch_points,
                           lattice_coords, find_odd_char,
                           vanishing_locus_check,
                           integrate_path, BranchPointCollision, CurveError,
                           NotSymplectic, PathTooCloseToBranchPoint, PathTooLong)
from faylab.theta import theta, theta_batch, ThetaChar
from faylab.kernels import random_line_bundle, riemann_constant, sample_point
from faylab.registry import registry_entries

from conftest import HYPERELLIPTIC, build_context, far_path_aj, pair_args, polygon_clearance
from oracles import (agm_tau, arc_column, arc_table, arc_vertices, branch_expansion,
                     brute_force_continuation, hub_aj_rows, chained_branch_constants,
                     draw_one, hub_path_one, involution, log_sum_path, point_y,
                     pairwise_crossings, pairwise_intersection_matrix, qseries_theta_char)


def frac_dist(z, rm):
    al, be = lattice_coords(z, rm)
    return max(np.abs(al - np.round(al)).max(), np.abs(be - np.round(be)).max())


class TestConstruction:
    def test_collision_rejected(self):
        # an even model whose branch points all repeat has none to send to
        # infinity: it is refused before the Moebius change divides by zero
        for pts in ([0.0, 1e-10, 1.0], [0, 0, 1, 1], [0, 0, 0, 0]):
            with pytest.raises(BranchPointCollision):
                HyperellipticCurve(pts)

    def test_overflowing_even_model_rejected(self):
        # clearances of ~1e-320 overflow the Moebius change to -inf+nanj:
        # refused like a small gap, with no numpy warning (an error here)
        with pytest.raises(BranchPointCollision):
            HyperellipticCurve([0, 1e-320, 5e-321, 1e-319])

    def test_even_model_converted(self):
        # y^2 = (x^2-1)(x^2-4): Moebius conversion to an odd model
        c = HyperellipticCurve([1.0, -1.0, 2.0, -2.0], "even-test")
        assert c.genus == 1
        assert len(c.branch_points) == 3
        A, B, pd = period_matrix(c)
        om = pd.rm.omega
        assert np.abs(om - om.T).max() < 1e-10
        assert np.linalg.eigvalsh(om.imag).min() > 0

    def test_point_validation(self):
        c = HyperellipticCurve([0.0, 1.0, -1.0])
        with pytest.raises(PathTooCloseToBranchPoint):
            make_point(c, 1.0 + 1e-9, 1)
        p = make_point(c, 0.5 + 0.5j, -1)
        assert p.shape == (2,) and p[1] == -1
        assert abs(point_y(c, p) ** 2 - c.f(p[:1])[0]) < 1e-10
        with pytest.raises(ValueError, match="sheet"):
            make_point(c, 0.5 + 0.5j, 0)


    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_f_of_a_lone_point(self, cid):
        # f of a point given as 0-d, as length 1 and inside a batch is
        # bitwise the same
        c = registry_curve(cid)
        rng = np.random.default_rng(31)
        x = c.box[0] + 1j * c.box[1] + 2 * (c.box[2] * (rng.random(400) - 0.5)
                                            + 1j * c.box[3] * (rng.random(400) - 0.5))
        batch = c.f(x)
        assert c.f(x[0]).shape == () and c.f(x[:1]).shape == (1,)
        assert np.array_equal(batch, [c.f(v) for v in x])
        assert np.array_equal(batch, [c.f(x[k:k + 1])[0] for k in range(len(x))])
        assert np.array_equal(batch[:2], c.f(x[:2]))

    def test_points_equal_by_value(self):
        # a point is its row (x, sheet): equal by value, which is how the
        # coincidence test compares it
        c = HyperellipticCurve([0.0, 1.0, -1.0])
        p = make_point(c, 0.3 + 0.7j, -1)
        q = make_point(c, 0.3 + 0.7j, -1)
        assert np.array_equal(p, q) and not np.array_equal(p, involution(p))
        assert np.array_equal(involution(p), make_point(c, 0.3 + 0.7j, 1))
        assert not np.array_equal(p, make_point(c, 0.3 + 0.7j + 1e-13, -1))


class TestHomology:
    @pytest.mark.parametrize("cid", ["lemniscatic", "equianharmonic",
                                     "g2-real", "g3-real"])
    def test_symplectic_pairing(self, cid, monkeypatch):
        # the crossing matrix of the built cycles, before any orientation fix
        entry = registry_entries()[cid]
        c = HyperellipticCurve(entry["branch_points"], cid)
        g = c.genus
        seen = []
        real = curves._intersection_matrix
        monkeypatch.setattr(curves, "_intersection_matrix",
                            lambda *a: seen.append(real(*a)) or seen[-1])
        period_matrix(c)
        M, = seen
        # diagonal blocks vanish; off-diagonal is +-identity
        assert np.array_equal(M[:g, :g], np.zeros((g, g), dtype=int))
        assert np.array_equal(M[g:, g:], np.zeros((g, g), dtype=int))
        assert np.array_equal(np.abs(M[:g, g:]), np.eye(g, dtype=int))

    def test_crossings_match_the_pair_by_pair_rule(self):
        # the array pass of _crossings and _intersection_matrix against
        # oracles.segment_crossing, one pair of edges at a time, on the cycles
        # of seeded random curves and on hand-made edges
        c0 = HyperellipticCurve([-1.0, 0.0, 1.0])
        hand = [[1 + 2j, 1 + 3j, 1 + 4j],       # ends on the next (t = 1), starts on it (t = 0)
                [3j, 2 + 3j, 2 + 5j],           # the edge [0, 2] + 3i, then a turn
                [4j, 2 + 4j],                   # parallel to it, ends on its turn (s = 1)
                [1 + 3j, 3 + 3j, 3 + 3.5j],     # collinear with it, overlapping
                [2 + 3.5j, 2.5 + 3.5j],         # starts on its turn (s = 0)
                [-1 + 2j, 3j, 2 + 3.5j],        # through its first vertex
                [0.5 + 2j, 0.5 + 4j],           # crosses it at t = 1/4
                [0.1 + 3j, 1.9 + 3j + 1e-15j]]  # parallel to it but for 1e-15
        cases = [(c0, hand)]
        rng = np.random.default_rng(2026)
        for g, scale, _ in product((1, 2, 3), (0.0, 1.0, 1e-3 / 3), range(3)):
            c = HyperellipticCurve(rng.uniform(-3, 3, 2 * g + 1)
                                   + 1j * scale * rng.uniform(-3, 3, 2 * g + 1))
            cases.append((c, sum(curves._build_cycles(c), [])))
        for c, cycles in cases:
            first = np.cumsum([0] + [len(z) for z in cycles])
            want = sorted((i, j, first[i] + m, first[j] + n, t, sign)
                          for i, j, m, n, t, sign in pairwise_crossings(cycles))
            assert sorted(zip(*[a.tolist() for a in curves._crossings(cycles)])) == want
            _, ys = integrate_path(c, cycles, c.y_principal([z[0] for z in cycles]),
                                   curves.PERIOD_ORDER)
            M = pairwise_intersection_matrix(c, cycles, np.split(ys, first[1:-1]),
                                             curves.PERIOD_ORDER)
            assert np.array_equal(curves._intersection_matrix(c, cycles, ys), M)
        # of the hand-made edges, only those that cross strictly inside both,
        # neither parallel, count: (i, j, m, n, sign)
        assert [hit[:4] + hit[5:] for hit in pairwise_crossings(hand)] == [
            (0, 5, 1, 1, -1), (1, 6, 0, 0, 1), (5, 6, 1, 0, 1), (6, 7, 0, 0, -1)]


def near_branch_path(c):
    """A polygon that comes within 0.01 min_gap of the branch point e_1,
    winds once around it on a square of that radius, and leaves."""
    e, gap = c.branch_points[1], c.min_gap
    return ([-2.3 - 1.1j, e + gap * (0.3 + 0.6j)]
            + [e + 0.01 * gap * 1j**k for k in range(1, 6)]
            + [e + gap * (0.4 - 0.5j), 3.1 + 1.7j])


def registry_curve(cid):
    return HyperellipticCurve(registry_entries()[cid]["branch_points"], cid)


class TestTracker:
    @pytest.mark.parametrize("order", [16, 256])
    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_matches_brute_force(self, cid, order):
        c = registry_curve(cid)
        path = near_branch_path(c)
        y0 = c.y_principal(np.array([path[0]]))[0]
        _, ys = integrate_path(c, [path], [y0], order)
        ref = brute_force_continuation(c.branch_points, c.lead, path, y0)
        assert np.all(np.abs(ys - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_y_squared_is_f(self, cid):
        c = registry_curve(cid)
        path = near_branch_path(c)
        _, ys = integrate_path(c, [path], [c.y_principal(np.array([path[0]]))[0]], 32)
        fx = c.f(np.array(path))
        assert np.all(np.abs(ys**2 - fx) <= 1e-12 * np.abs(fx))

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_split_walk_agrees(self, cid):
        c = registry_curve(cid)
        path = near_branch_path(c)
        y0 = c.y_principal(np.array([path[0]]))[0]
        (vec,), ys = integrate_path(c, [path], [y0], 16)
        for k in (0, 3, 6):
            zm = path[k] + 0.37 * (path[k + 1] - path[k])
            (vec_split,), ys_split = integrate_path(
                c, [path[:k + 1] + [zm] + path[k + 1:]], [y0], 16)
            assert np.abs(vec_split - vec).max() <= 1e-12 * np.abs(vec).max()
            assert abs(ys_split[-1] - ys[-1]) <= 1e-13 * abs(ys[-1])

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_order_independent(self, cid):
        c = registry_curve(cid)
        path = near_branch_path(c)
        y0 = c.y_principal(np.array([path[0]]))[0]
        v16, _ = integrate_path(c, [path], [y0], 16)
        v256, _ = integrate_path(c, [path], [y0], 256)
        assert np.abs(v16 - v256).max() <= 1e-12 * np.abs(v256).max()

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_batch_rows_equal_single_paths(self, cid):
        # each row of a batch equals the path integrated alone, bitwise: a
        # long path, a two-vertex one, a hub path and one with a zero-length
        # edge, in mixed order
        c = registry_curve(cid)
        e, gap = c.branch_points, c.min_gap
        paths = [near_branch_path(c), [e[0] + gap * (0.3 + 0.4j), e[-1] + 2.0j],
                 hub_path_one(e[1], 0.5 * gap, e[1] + 0.8 * gap * (1 - 1j)),
                 [3.1 + 1.7j, 3.1 + 1.7j, -2.3 - 1.1j]]
        order = [2, 0, 3, 1, 0]
        y0s = [c.y_principal(np.array([paths[i][0]]))[0] for i in order]
        vecs, ys = integrate_path(c, [paths[i] for i in order], y0s, 16)
        assert vecs.shape == (len(order), c.genus)
        ys = np.split(ys, np.cumsum([len(paths[i]) for i in order])[:-1])
        for i, y0, vec, y in zip(order, y0s, vecs, ys):
            (one,), one_ys = integrate_path(c, [paths[i]], [y0], 16)
            assert np.array_equal(vec, one) and np.array_equal(y, one_ys)
            assert len(y) == len(paths[i])

    def test_node_cap_per_path(self, monkeypatch):
        # MAX_PATH_NODES bounds each path of a batch, not the batch
        c = registry_curve("lemniscatic")
        path = near_branch_path(c)
        short = path[:3]
        y0 = c.y_principal(np.array([path[0]]))[0]
        need = 16 * sum(math.ceil(abs(b - a) / (0.5 * polygon_clearance([a, b], c.branch_points)))
                        for a, b in zip(short[:-1], short[1:]))
        monkeypatch.setattr(curves, "MAX_PATH_NODES", need)
        vecs, _ = integrate_path(c, [short] * 3, [y0] * 3, 16)
        assert vecs.shape == (3, 1)
        with pytest.raises(PathTooLong):
            integrate_path(c, [short, path], [y0, y0], 16)

    def test_touching_path_rejected(self):
        c = HyperellipticCurve([0.0, 1.0, -1.0])
        with pytest.raises(PathTooCloseToBranchPoint):
            integrate_path(c, [[-0.5 + 1e-10j, 0.5 + 1e-10j]], [1.0], 32)

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_continuation_matches_log_sum(self, cid):
        # y at every vertex of the period cycles (order 32) and of 200 legs
        # from the oracle's arc table (order 12) is the log-sum continuation's
        ctx = build_context(cid)
        c, (V, y_V, _) = ctx.curve, arc_table(ctx.periods)
        cycles = sum(curves._build_cycles(c), [])
        rng = np.random.default_rng(29)
        xs = np.array([sample_point(ctx, rng)[0] for _ in range(200)])
        ks = np.argmin(np.abs(c.branch_points - xs[:, None]), axis=1)
        js = arc_column(xs - c.branch_points[ks])
        legs = [[V[k, j], x] for k, j, x in zip(ks, js, xs)]
        for paths, y0s, order in ((cycles, c.y_principal([z[0] for z in cycles]), 32),
                                  (legs, y_V[ks, js], 12)):
            _, ys = integrate_path(c, paths, y0s, order)
            ref = log_sum_path(c, paths, y0s, order)[1]
            assert np.all(np.abs(ys - ref) <= 1e-12 * np.abs(ref))


class TestPeriods:
    def test_lemniscatic_agm(self):
        c = HyperellipticCurve([0.0, 1.0, -1.0], "lemniscatic")
        _, _, pd = period_matrix(c)
        tau = agm_tau(-1.0, 0.0, 1.0)
        assert abs(pd.rm.omega[0, 0] - tau) < 1e-8
        assert abs(pd.rm.omega[0, 0] - 1j) < 1e-8

    def test_equianharmonic_lambda(self):
        # j = 0: the modular lambda of tau is a primitive sixth root of unity,
        # a root of l^2 - l + 1 for every tau in the SL2(Z) orbit
        entry = registry_entries()["equianharmonic"]
        c = HyperellipticCurve(entry["branch_points"], "equianharmonic")
        _, _, pd = period_matrix(c)
        tau = pd.rm.omega[0, 0]
        lam = (qseries_theta_char(0.5, 0.0, 0.0, tau)
               / qseries_theta_char(0.0, 0.0, 0.0, tau)) ** 4
        assert abs(lam * lam - lam + 1.0) < 1e-10

    def test_order_convergence(self, monkeypatch):
        c = HyperellipticCurve([0.0, 1.0, 2.0, 3.0, 4.0], "g2-real")
        _, _, pd1 = period_matrix(c)
        monkeypatch.setattr(curves, "PERIOD_ORDER", 64)
        _, _, pd2 = period_matrix(c)
        assert np.abs(pd1.rm.omega - pd2.rm.omega).max() < 1e-10

    def test_spread_branch_points_refused_fast(self):
        # the b-cycle would need about 2.6e8 nodes at order 32
        c = HyperellipticCurve([0.0, 1.0, 1e6], "spread")
        t0 = time.perf_counter()
        with pytest.raises(PathTooLong, match="quadrature nodes"):
            period_matrix(c)
        assert time.perf_counter() - t0 < 1.0

    def test_cycles_that_never_cross(self, monkeypatch):
        # no crossing legs: the empty integrate_path batch gives empty
        # arrays, the pairing is zero, and period_matrix refuses it
        c = HyperellipticCurve([0.0, 1.0, -1.0])
        vecs, ys = integrate_path(c, [], [], 32)
        assert vecs.shape == (0, 1) and ys.shape == (0,)
        square = [3 + 1j, 2 + 1j, 2 - 1j, 3 - 1j, 3 + 1j]
        monkeypatch.setattr(curves, "_build_cycles",
                            lambda curve: ([square], [[z - 6 for z in square]]))
        with pytest.raises(NotSymplectic, match="a_k.b_k"):
            period_matrix(c)

    def test_random_real_g2(self):
        rng = np.random.default_rng(77)
        for _ in range(3):
            pts = np.sort(rng.uniform(-4, 4, 5))
            while np.diff(pts).min() < 0.5:
                pts = np.sort(rng.uniform(-4, 4, 5))
            c = HyperellipticCurve(pts, "random-g2")
            _, _, pd = period_matrix(c)
            om = pd.rm.omega
            assert np.abs(om - om.T).max() < 1e-10
            assert np.linalg.eigvalsh(om.imag).min() > 0

    def test_intersection_numbers_computed_once(self, monkeypatch):
        # one integrate_path call continues y around all 2g cycles and one
        # along every crossing leg, none repeated for the orientation check
        calls = []
        real = curves.integrate_path
        monkeypatch.setattr(curves, "integrate_path",
                            lambda *a: calls.append(len(a[1])) or real(*a))
        c = HyperellipticCurve([0.0, 1.0, 2.0, 3.0, 4.0], "g2-real")
        period_matrix(c)
        assert len(calls) == 2 and calls[0] == 4

    def test_reversed_b_cycle_flipped_back(self, monkeypatch):
        # a b-cycle built clockwise has a_0 . b_0 = -1; period_matrix
        # reverses it and corrects its row and column of the pairing
        c = HyperellipticCurve([0.0, 1.0, 2.0, 3.0, 4.0], "g2-real")
        _, _, ref = period_matrix(c)
        real = curves._build_cycles

        def first_b_clockwise(curve):
            a_cycles, b_cycles = real(curve)
            b_cycles[0] = b_cycles[0][::-1]
            return a_cycles, b_cycles
        monkeypatch.setattr(curves, "_build_cycles", first_b_clockwise)
        _, _, pd = period_matrix(c)
        assert np.abs(pd.rm.omega - ref.rm.omega).max() < 1e-12

    @pytest.mark.parametrize("cid", ["lemniscatic", "equianharmonic",
                                     "g2-real", "g3-real"])
    def test_registry_omegas_valid(self, cid):
        entry = registry_entries()[cid]
        c = HyperellipticCurve(entry["branch_points"], cid)
        _, _, pd = period_matrix(c)
        om = pd.rm.omega
        assert np.abs(om - om.T).max() < 1e-10
        assert np.linalg.eigvalsh(om.imag).min() > 0


def hub_cases(c, rng, n_box):
    """(ks, pts): point rows on both sheets and a branch point each for the
    hub oracle: its nearest, or for a point on the bisector of two nearest,
    both.  The points: n_box in the sampling box 1.6 times c.box and as many
    outside c.box; at 1e-3 rho_k and at 2e-6 from each e_k; at arg(x - e_k)
    = pi and about +-pi and +-pi/8, 0.5 rho_k out; and four on each
    bisector whose branch points stay nearest there."""
    e = c.branch_points
    rho = 0.5 * np.sort(np.abs(e - e[:, None]), axis=1)[:, 1]
    c_r, c_i, half_r, half_i = c.box
    xs = [c_r + 1.6 * half_r * (2 * rng.random(n_box) - 1)
          + 1j * (c_i + 1.6 * half_i * (2 * rng.random(n_box) - 1))]
    out = (c_r + 1j * c_i + (1.1 + 3 * rng.random(n_box)) * (half_r + half_i)
           * np.exp(2j * np.pi * rng.random(n_box)))
    assert ((abs(out.real - c_r) > half_r) | (abs(out.imag - c_i) > half_i)).all()
    xs.append(out)
    for k in range(len(e)):
        xs.append(e[k] + 1e-3 * rho[k] * np.exp(2j * np.pi * rng.random(4)))
        xs.append(e[k] + 2e-6 * np.exp(2j * np.pi * rng.random(2)))
        xs.append(e[k] + 0.5 * rho[k] * np.append(
            -1.0, np.exp(1j * np.pi * np.array([1.0, -1.0, 0.125, -0.125]))))
    xs = np.concatenate(xs)
    xs = xs[c.dist_to_branch(xs) > 1e-6]
    ks = list(np.argmin(np.abs(e - xs[:, None]), axis=1))
    for j, k in combinations(range(len(e)), 2):
        m, r = 0.5 * (e[j] + e[k]), 0.5 * abs(e[k] - e[j])
        u = 1j * (e[k] - e[j]) / abs(e[k] - e[j])
        for x in m + np.array([-0.6, -0.25, 0.25, 0.6]) * r * u:
            if c.dist_to_branch(x) >= (1 - 1e-9) * max(abs(x - e[j]), abs(x - e[k])):
                xs, ks = np.append(xs, [x, x]), ks + [j, k]
    pts = np.array([(x, s) for x in xs for s in (1, -1)], dtype=complex)
    return np.repeat(ks, 2), pts


def assert_rays_keep_the_hub_representatives(pd, ks, pts):
    """_from_rays's rows of pts from ks equal hub_aj_rows's within 1e-12 of
    max(1, |row|)."""
    rows = curves._from_rays(pd, pts, ks)
    old = hub_aj_rows(pd, ks, pts)
    scale = np.maximum(1.0, np.abs(old).max(axis=1))
    assert (np.abs(rows - old).max(axis=1) <= 1e-12 * scale).all()


def assert_block_rule(blocks, alone):
    """Each block of _dense_rays, given as (its rays' x - e_k, the nodes a
    ray), holds rays of one panel count, each the count the same ray took
    in a smaller call (alone[x - e_k], in nodes), and at most PATH_NODES
    nodes unless it is one ray."""
    for us, size in blocks:
        assert size % curves.RAY_ORDER == 0 and all(alone[u] == size for u in us)
        assert len(us) * size <= curves.PATH_NODES or len(us) == 1


class TestAbelJacobi:
    def test_zero_path(self, ctx_g1):
        pd = ctx_g1.periods
        base = ctx_g1.base
        assert np.abs(abel_jacobi(pd, base, base)).max() == 0.0

    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real"])
    def test_concatenation(self, cid):
        ctx = build_context(cid)
        pd = ctx.periods
        rng = np.random.default_rng(4)
        for _ in range(3):
            P = sample_point(ctx, rng)
            Q = sample_point(ctx, rng)
            mid = sample_point(ctx, rng)
            v1 = abel_jacobi(pd, P, Q)
            v2 = abel_jacobi(pd, P, mid) + abel_jacobi(pd, mid, Q)
            assert frac_dist(v1 - v2, pd.rm) < 1e-9

    def test_involution_negates(self, ctx_g1):
        pd = ctx_g1.periods
        rng = np.random.default_rng(5)
        base = ctx_g1.base
        for _ in range(3):
            P = sample_point(ctx_g1, rng)
            v = abel_jacobi(pd, P, base)
            w = abel_jacobi(pd, involution(P), involution(base))
            assert frac_dist(v + w, pd.rm) < 1e-9

    def test_path_independence(self, ctx_g2):
        # AJ against one integral along a polygon Q -> F -> P through a far
        # point F, compared at the point over P.x where the polygon lands
        pd = ctx_g2.periods
        rng = np.random.default_rng(6)
        compared = 0
        for _ in range(4):
            P = sample_point(ctx_g2, rng)
            Q = sample_point(ctx_g2, rng)
            hit = far_path_aj(pd, Q, P)
            if hit is None:
                continue
            vec, landed = hit
            assert frac_dist(abel_jacobi(pd, landed, Q) - vec, pd.rm) < 1e-8
            compared += 1
        assert compared >= 3

    def test_branch_points_are_half_periods(self):
        for cid in HYPERELLIPTIC:
            pd = build_context(cid).periods
            for j in range(1, len(pd.curve.branch_points)):
                v = abel_jacobi_between_branch_points(pd, j, 0)
                al, be = lattice_coords(v, pd.rm)
                assert np.abs(2 * al - np.round(2 * al)).max() < 1e-13
                assert np.abs(2 * be - np.round(2 * be)).max() < 1e-13

    def test_stated_half_periods_match_the_chain(self):
        # the table of _branch_constants against AJ chained from e_0 by
        # midpoint legs, in 2x lattice coordinates: on the registry, on a
        # genus-2 curve with non-real branch points given as five points and
        # as six (so that _to_odd_model runs), and on seeded random real,
        # complex and even-degree curves of genus 1-3; the curves that
        # period_matrix refuses are skipped and counted
        def two(rows, rm):
            return 2 * np.concatenate(lattice_coords(np.transpose(rows), rm))

        def off(pd):
            table = curves._branch_constants(pd)
            return np.abs(two(table, pd.rm) - two(chained_branch_constants(pd), pd.rm)).max()

        item4 = [0, 1 + 0.5j, -1 + 0.3j, 2 - 0.4j, 0.5 + 1.5j]
        for pts in [build_context(cid).curve.branch_points for cid in HYPERELLIPTIC] + [
                item4, item4 + [3 + 2j]]:
            assert off(period_matrix(HyperellipticCurve(pts))[2]) < 1e-12, pts
        rng = np.random.default_rng(35)
        for g in (1, 2, 3):
            accepted, refused = 0, 0
            for kind in ("real", "complex", "even") * 9:
                n = 2 * g + 1 + (kind == "even")
                pts = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n) * (kind != "real")
                try:
                    pd = period_matrix(HyperellipticCurve(pts))[2]
                except CurveError:
                    refused += 1
                    continue
                assert off(pd) < 1e-12, pts
                accepted += 1
            assert accepted >= 20, (g, refused)

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_from_branch_differences(self, cid):
        # the branch-point endpoint cancels: AJ from e_k to P minus AJ from
        # e_k to P' is AJ from P' to P, for every k (AJ from e_k is AJ from
        # e_0 less AJ from e_0 to e_k)
        ctx = build_context(cid)
        pd = ctx.periods
        rng = np.random.default_rng(14)
        for _ in range(2):
            P = sample_point(ctx, rng)
            Q = sample_point(ctx, rng)
            ref = abel_jacobi(pd, P, Q)
            for k in range(len(pd.curve.branch_points)):
                e0_ek = abel_jacobi_between_branch_points(pd, k, 0)
                v = ((abel_jacobi_from_branch(pd, P) - e0_ek)
                     - (abel_jacobi_from_branch(pd, Q) - e0_ek))
                assert frac_dist(v - ref, pd.rm) < 1e-13

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_hub_constant_local_expansion(self, cid):
        # at 1e-3 rho_k from e_k, in 8 directions and on both sheets, AJ
        # from e_k is the leading term of the local expansion
        pd = build_context(cid).periods
        c = pd.curve
        for k, e_k in enumerate(c.branch_points):
            rho = 0.5 * np.abs(np.delete(c.branch_points, k) - e_k).min()
            for d in range(8):
                for sheet in (1, -1):
                    P = make_point(c, e_k + 1e-3 * rho * np.exp(0.25j * np.pi * d), sheet)
                    ref = pd.A_inv @ branch_expansion(e_k, P[0], point_y(c, P), c.genus)
                    got = (abel_jacobi_from_branch(pd, P)
                           - abel_jacobi_between_branch_points(pd, k, 0))
                    assert np.abs(got - ref).max() <= 1e-2 * np.abs(ref).max()

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_hub_routes_agree_on_bisectors(self, cid):
        # where two chained branch points tie as nearest, routing through
        # either gives the same point of the Jacobian
        pd = build_context(cid).periods
        c = pd.curve
        e = c.branch_points
        B = [abel_jacobi_between_branch_points(pd, j, 0) for j in range(len(e))]
        checked = 0
        for j, k in combinations(range(len(e)), 2):
            m, r = 0.5 * (e[j] + e[k]), 0.5 * abs(e[k] - e[j])
            if c.dist_to_branch(m) < (1 - 1e-9) * r:
                continue                      # a nearer branch point: not chained
            u = 1j * (e[k] - e[j]) / abs(e[k] - e[j])
            for s in (-0.6, -0.25, 0.25, 0.6):
                x = m + s * r * u
                if c.dist_to_branch(x) < (1 - 1e-9) * abs(x - e[j]):
                    continue                  # e_j and e_k no longer nearest
                for sheet in (1, -1):
                    X = np.array([x, sheet], dtype=complex)
                    to_j, to_k = curves._from_rays(pd, np.array([X, X]), [j, k])
                    assert frac_dist((B[j] + to_j) - (B[k] + to_k), pd.rm) < 1e-12
                    checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_legs_keep_the_hub_representatives(self, cid):
        # every ray's row is the hub route's, with its full-turn hub
        # constant and log-sum continuation, unreduced: on 1,000 points of
        # the sampling box and the edge cases of hub_cases, all on both sheets
        pd = build_context(cid).periods
        ks, pts = hub_cases(pd.curve, np.random.default_rng(31), 1000)
        assert_rays_keep_the_hub_representatives(pd, ks, pts)

    def test_rays_keep_the_hub_representatives_on_seeded_curves(self, monkeypatch):
        # the hub oracle against the rays on 20 seeded complex curves of
        # genus 1-3 (period_matrix's refusals skipped), 40 box points and the
        # edge cases a curve; every row, in a batch that spans blocks of at
        # most 256 nodes, is bitwise its own one-point call, and each ray is
        # laid at the panel count it takes alone
        rng, accepted, genera = np.random.default_rng(36), 0, []
        monkeypatch.setattr(curves, "PATH_NODES", 2**8)
        blocks, real = [], curves._dense_rays

        def watched(ek, u, hw, scale, s2, weights):
            blocks.append((u.tolist(), len(s2)))
            return real(ek, u, hw, scale, s2, weights)
        monkeypatch.setattr(curves, "_dense_rays", watched)
        for attempt in range(60):
            g = 1 + attempt % 3
            e = rng.uniform(-2, 2, 2 * g + 1) + 1j * rng.uniform(-2, 2, 2 * g + 1)
            try:
                pd = period_matrix(HyperellipticCurve(e))[2]
            except CurveError:
                continue
            ks, pts = hub_cases(pd.curve, rng, 40)
            assert_rays_keep_the_hub_representatives(pd, ks, pts)
            blocks.clear()
            rows = curves._from_rays(pd, pts, ks)
            batch, alone = blocks[:], {}
            assert len(batch) > 1 and max(len(us) for us, _ in batch) > 1
            for k, p, row in zip(ks, pts, rows):
                blocks.clear()
                assert np.array_equal(curves._from_rays(pd, p[None], [k])[0], row)
                [([u], alone[u])] = blocks
            assert_block_rule(batch, alone)
            accepted += 1
            genera.append(g)
            if accepted == 20:
                break
        assert accepted == 20 and set(genera) == {1, 2, 3}

    def test_root_factors_keep_real_part_over_half(self):
        # Re F_m = 1 - s^2 Re w_m is linear in s^2, so on a ray it is least at
        # t = 0 (where it is 1) or at t = T: there it is at least 1/2, to
        # rounding, for every factor, on the registry curves and 30 seeded
        # complex curves, at box points and hub_cases's edge cases (bisector
        # ties, 2e-6 from a branch point, outside HyperellipticCurve.box)
        rng = np.random.default_rng(39)
        cs = [build_context(cid).curve for cid in HYPERELLIPTIC]
        for attempt in range(30):
            g = 1 + attempt % 3
            cs.append(HyperellipticCurve(rng.uniform(-2, 2, 2 * g + 1)
                                         + 1j * rng.uniform(-2, 2, 2 * g + 1)))
        for c in cs:
            ks, pts = hub_cases(c, rng, 200)
            e = c.branch_points
            d = (e - e[:, None])[~np.eye(len(e), dtype=bool)].reshape(len(e), -1)[ks]
            # F_m / 2 = 1/2 + hw_m at t = T, as _from_rays forms it
            hw = -0.5 * (pts[:, 0] - e[ks])[:, None] / d
            assert (2.0 * (0.5 + hw.real) >= 0.5 - 1e-15).all()

    def test_ray_root_is_the_principal_root(self):
        # sqrt F = a + i Im F / (2a), a = sqrt((|F| + Re F) / 2), is within 4
        # eps of np.sqrt(F), relative, on 1e5 seeded F (F / 2 = 1/2 + hw as
        # _ray_roots forms it) with Re F from 1/2 to 1e8 and |Im F| up to 1e8
        rng = np.random.default_rng(39)
        n = 10**5
        hr = -0.25 + 10.0 ** rng.uniform(-17, 8, n)
        hi = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-17, 7.7, n)
        hr[:100], hi[100:200] = -0.25, 0.0
        hw = (hr + 1j * hi)[:, None]
        F = 2.0 * (0.5 + hw[:, 0])
        assert F.real.min() >= 0.5 and np.abs(F.imag).max() > 1e7
        root, want = curves._ray_roots(hw, np.ones(1))[:, 0], np.sqrt(F)
        assert (np.abs(root - want) <= 4 * np.finfo(float).eps * np.abs(want)).all()

    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real", "g3-real"])
    def test_one_point_call_as_in_a_batch(self, cid):
        # one point row at a time, as the benchmark's Abel-Jacobi probe maps
        # sampled points: a (g,) vector, bitwise the row the point gets in a
        # ctx.aj batch
        ctx = build_context(cid)
        rng = np.random.default_rng(41)
        ps = np.array([sample_point(ctx, rng) for _ in range(5)])
        for p, row in zip(ps, ctx.aj(ps)):
            one = abel_jacobi(ctx.periods, p, ctx.base)
            assert one.shape == (ctx.g,) and np.array_equal(one, row)

    def test_unlanded_sheet_raises(self, ctx_g1, monkeypatch):
        # a ray ending on neither sheet over P (its row's sheet made 1j, so
        # y = 1j sqrt f(x)) is an error, not a silent pick of the nearer
        # sheet, and it fails P's whole batch
        pd = ctx_g1.periods
        ps = [sample_point(ctx_g1, np.random.default_rng(s)) for s in (17, 18, 19)]
        real = curves._from_rays

        def off_sheet(periods, pts, ks):
            pts = pts.copy()
            pts[1, 1] = 1j
            return real(periods, pts, ks)

        monkeypatch.setattr(curves, "_from_rays", off_sheet)
        with pytest.raises(CurveError, match="did not land"):
            abel_jacobi(pd, ps, ctx_g1.base)

    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real"])
    def test_long_lists_integrate_in_chunks(self, cid, monkeypatch):
        # 400 points and the base take one _from_rays call, which lays the
        # rays of each panel count in blocks of at most PATH_NODES nodes
        # (more only for a block of one ray), and every row is the point's
        # own, bitwise
        ctx = build_context(cid)
        pd = ctx.periods
        rng = np.random.default_rng(23)
        ps = [sample_point(ctx, rng) for _ in range(400)]
        calls, blocks, real = [], [], curves._dense_rays

        def counted(ek, u, hw, scale, s2, weights):
            blocks.append((u.tolist(), len(s2)))
            return real(ek, u, hw, scale, s2, weights)
        monkeypatch.setattr(curves, "_dense_rays", counted)
        one = np.array([abel_jacobi(pd, p, ctx.base) for p in ps])
        alone = {u: size for us, size in blocks for u in us}
        blocks.clear()
        real_call = curves._from_rays
        monkeypatch.setattr(curves, "_from_rays",
                            lambda periods, pts, ks: calls.append(len(pts))
                            or real_call(periods, pts, ks))
        rows = abel_jacobi(pd, ps, ctx.base)
        assert calls == [401] and sum(len(us) for us, _ in blocks) == 401 and len(blocks) > 2
        assert_block_rule(blocks, alone)
        # a panel count's blocks are full but for its last
        for size in {size for _, size in blocks}:
            counts = [len(us) for us, n in blocks if n == size]
            cap = max(1, curves.PATH_NODES // size)
            assert all(n == cap for n in counts[:-1]) and 0 < counts[-1] <= cap
        assert np.array_equal(rows, one)

    def test_point_near_a_branch_point_refused(self, ctx_g2):
        # a row within 1e-6 of a branch point, or on it, is refused as the
        # leg ending there was, though its ray would be short and clear,
        # and it fails its whole batch
        pd, e = ctx_g2.periods, ctx_g2.curve.branch_points
        P = sample_point(ctx_g2, np.random.default_rng(5))
        for k in range(len(e)):
            for d in (9e-7, -9e-7j, 0.0):
                with pytest.raises(PathTooCloseToBranchPoint):
                    abel_jacobi(pd, [P, np.array([e[k] + d, 1])], ctx_g2.base)

    def test_long_ray_refused_before_any_node(self, monkeypatch):
        # under a cap of 2,000 nodes a path or ray, not a batch: the periods
        # (cycles of at most about 1,400 nodes) and the report batches of
        # lemniscatic (rays of at most 45 nodes) pass, while g2-real with
        # its base point moved out to x = 1e5 (a ray of 5,697 nodes) fails
        # its own reports, PathTooLong raised before _dense_rays lays a node
        # of its batch
        import faylab.identities as ids
        from faylab.identities import SuiteConfig, run_suite
        monkeypatch.setattr(curves, "MAX_PATH_NODES", 2000)
        real_env, real_rays, real_block = ids._build_env, curves._from_rays, curves._dense_rays
        asked, laid = [], []

        def far_base(entry):
            env = real_env(entry)
            if entry["id"] == "g2-real":
                env.base = make_point(env.curve, 1e5, 1)
            return env

        def rays(periods, pts, ks):
            asked.append(periods.curve.curve_id)
            return real_rays(periods, pts, ks)

        def block(*args):
            laid.append(asked[-1])
            return real_block(*args)
        monkeypatch.setattr(ids, "_build_env", far_base)
        monkeypatch.setattr(curves, "_from_rays", rays)
        monkeypatch.setattr(curves, "_dense_rays", block)
        reps = run_suite(SuiteConfig(curves=["lemniscatic", "g2-real"], trials=20,
                                     identities=["idcor", "quasidet_det_ratio"]))
        got = [(r.identity_id, r.curve_id, r.completed, r.passed, r.failure.split(":")[0])
               for r in reps]
        assert got == [("idcor", "lemniscatic", 20, True, ""),
                       ("idcor", "g2-real", 0, False, "PathTooLong"),
                       ("quasidet_det_ratio", "-", 20, True, "")]
        assert reps[1].failure.endswith("ray needs 5697 quadrature nodes, more than 2000")
        assert "g2-real" in asked and set(laid) == {"lemniscatic"}


unit_square = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
    lambda p: complex(*p))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7]).flatmap(
           lambda n: st.lists(unit_square, min_size=n, max_size=n)),
       st.lists(unit_square.map(lambda x: 1.5 * x), min_size=1, max_size=4))
def test_hub_path_clearance(pts, xs):
    # the leg to each x from the arc vertex of its nearest branch point e_k,
    # trunc(arg(x - e_k) / (pi/8)) eighth turns round the circle of radius
    # rho_k, keeps min(0.7 rho_k, |x - e_k|) clear of every branch point
    e = np.array(pts)
    gaps = np.abs(e[:, None] - e[None, :]) + np.eye(len(e))
    assume(gaps.min() >= 0.05)
    c = HyperellipticCurve(e)
    e = c.branch_points
    xs = np.array(xs)
    ks = np.argmin(np.abs(e - xs[:, None]), axis=1)
    assume((np.abs(xs - e[ks]) > 1e-6).all())
    rho = 0.5 * np.sort(np.abs(e - e[:, None]), axis=1)[:, 1]
    V = arc_vertices(e, rho)
    for k, j, x in zip(ks, arc_column(xs - e[ks]), xs):
        eighths = math.trunc(cmath.phase(x - e[k]) / (math.pi / 8))
        assert j == eighths + 8
        assert abs(V[k, j] - (e[k] + rho[k] * cmath.exp(1j * math.pi / 8 * eighths))) <= 1e-15
        bound = min(0.7 * rho[k], abs(x - e[k]))
        assert polygon_clearance([V[k, j], x], e) >= (1 - 1e-9) * bound


class TestCharacteristics:
    @pytest.mark.parametrize("cid,count", [("lemniscatic", 1), ("g2-real", 6),
                                           ("g3-real", 28)])
    def test_odd_counts(self, cid, count):
        from faylab.theta import odd_theta_chars
        ctx = build_context(cid)
        assert len(odd_theta_chars(ctx.g)) == count
        delta = find_odd_char(ctx.rm)
        assert delta.parity == 1
        z0 = np.zeros(ctx.g)
        assert abs(theta_batch(z0, ctx.rm, delta)[0][0]) < 1e-10

    def test_g1_odd_char_is_half_half(self, ctx_g1):
        assert find_odd_char(ctx_g1.rm) == ThetaChar((0.5,), (0.5,))

    @pytest.mark.parametrize("singular", [0, 2])
    def test_first_hit_ends_the_search(self, ctx_g3, monkeypatch, singular):
        # the first `singular` odd characteristics get a zero gradient; the
        # next one is the answer, and no gradient is evaluated after it
        from faylab.theta import odd_theta_chars
        chars = odd_theta_chars(3)
        asked = []

        def gradient(z, rm, ch, tol, _real=curves.theta_gradient):
            asked.append(ch)
            return 0 * z if len(asked) <= singular else _real(z, rm, ch, tol=tol)
        monkeypatch.setattr(curves, "theta_gradient", gradient)
        assert find_odd_char(ctx_g3.rm) == chars[singular]
        assert asked == chars[:singular + 1]


class TestLineBundles:
    def test_samples_the_cell(self, ctx_g2):
        # e = u + Omega v from two draws of g uniforms, u then v; the
        # identity bodies that draw e test it against the theta divisor
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(5):
            e, = draw_one(random_line_bundle, ctx_g2, rng)
            u, v = twin.random(ctx_g2.g), twin.random(ctx_g2.g)
            assert np.array_equal(e, u + ctx_g2.rm.omega @ v)

    def test_lattice_representatives_agree(self, ctx_g1):
        # kernel values from e and e + lattice agree after the predicted
        # automorphy factor is cancelled
        from faylab.kernels import massey_m3_prime
        rng = np.random.default_rng(10)
        e, = draw_one(random_line_bundle, ctx_g1, rng)
        P = sample_point(ctx_g1, rng)
        Q = sample_point(ctx_g1, rng)
        m = np.array([1.0])
        n = np.array([-2.0])
        e2 = e + n + ctx_g1.rm.omega @ m
        m1 = massey_m3_prime(ctx_g1, [ctx_g1.xi_of_bundle(e)], *pair_args(ctx_g1, [P], [Q]))[0]
        m2 = massey_m3_prime(ctx_g1, [ctx_g1.xi_of_bundle(e2)], *pair_args(ctx_g1, [P], [Q]))[0]
        v = (ctx_g1.aj([Q]) - ctx_g1.aj([P]))[0]
        # e -> e + lattice shifts xi by -lattice; the m3 ratio picks up
        # exp(-2 pi i m . v)
        fac = np.exp(-2j * np.pi * m @ v)
        assert abs(m2 - fac * m1) < 1e-9 * abs(m1)


class TestVanishingLocus:
    def test_g1_odd_point(self, ctx_g1):
        rng = np.random.default_rng(11)
        x = sample_point(ctx_g1, rng)
        controls = [sample_point(ctx_g1, rng) for _ in range(20)]
        max_zero, min_ctrl = vanishing_locus_check(
            ctx_g1.periods, ctx_g1.w, x, [x], controls, ctx_g1.base)
        assert max_zero < 1e-10 * ctx_g1.scale
        assert min_ctrl > 1e-3 * ctx_g1.scale

    def test_g2_calibrated_divisor(self, ctx_g2):
        rng = np.random.default_rng(12)
        kappa = riemann_constant(ctx_g2)
        x = sample_point(ctx_g2, rng)
        D2 = [sample_point(ctx_g2, rng)]
        e = kappa - ctx_g2.aj(D2).sum(axis=0)
        controls = [sample_point(ctx_g2, rng) for _ in range(100)]
        max_zero, min_ctrl = vanishing_locus_check(
            ctx_g2.periods, e, x, D2 + [x], controls, ctx_g2.base)
        assert max_zero < 1e-7 * ctx_g2.scale
        assert min_ctrl > 1e-3 * ctx_g2.scale

    def test_on_theta_bundle_rejected(self, ctx_g1):
        # e = kappa lies on the theta divisor: Riemann vanishing
        kappa = riemann_constant(ctx_g1)
        assert abs(theta(kappa, ctx_g1.rm)) < 1e-10 * ctx_g1.scale


class TestRiemannConstant:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3)])
    @pytest.mark.parametrize("cid", ["g2-real", "g3-real"])
    def test_independent_of_lattice_representative(self, monkeypatch, cid, m, n):
        # the same calibration from a base-to-branch vector moved by the
        # lattice vector n + m Omega 1 finds the same kappa modulo the lattice
        import faylab.kernels as kernels
        ctx = build_context(cid)
        ref = riemann_constant(kernels.CurveContext(ctx.curve, ctx.periods))
        ones = np.ones(ctx.g)
        real = kernels.abel_jacobi_from_branch
        monkeypatch.setattr(kernels, "abel_jacobi_from_branch",
                            lambda *a: real(*a) + n * ones + m * ctx.rm.omega @ ones)
        kappa = riemann_constant(kernels.CurveContext(ctx.curve, ctx.periods))
        assert frac_dist(kappa - ref, ctx.rm) < 1e-12

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_vanishing_on_divisors(self, cid):
        ctx = build_context(cid)
        kappa = riemann_constant(ctx)
        rng = np.random.default_rng(13)
        for _ in range(4):
            u = np.zeros(ctx.g, dtype=complex)
            for _ in range(ctx.g - 1):
                u += ctx.aj([sample_point(ctx, rng)])[0]
            val = abs(theta(u - kappa, ctx.rm))
            assert val < 1e-7 * ctx.scale
