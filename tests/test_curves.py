import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from faylab import curves
from faylab.curves import (HyperellipticCurve, CurvePoint, period_matrix,
                           make_point, abel_jacobi, abel_jacobi_from_branch,
                           abel_jacobi_between_branch_points,
                           lattice_coords, find_odd_char,
                           random_line_bundle, vanishing_locus_check,
                           integrate_path, BranchPointCollision, CurveError,
                           PathTooCloseToBranchPoint, PathTooLong,
                           RejectionBudgetExceeded)
from faylab.theta import theta, ThetaChar
from faylab.kernels import riemann_constant, sample_point
from faylab.registry import registry_entries

from conftest import build_context, far_path_aj, polygon_clearance
from oracles import (agm_tau, branch_expansion, brute_force_continuation,
                     qseries_theta_char)

HYPERELLIPTIC = ["lemniscatic", "equianharmonic", "g2-real", "g3-real"]


def frac_dist(z, rm):
    al, be = lattice_coords(z, rm)
    return max(np.abs(al - np.round(al)).max(), np.abs(be - np.round(be)).max())


class TestConstruction:
    def test_collision_rejected(self):
        with pytest.raises(BranchPointCollision):
            HyperellipticCurve([0.0, 1e-10, 1.0])

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
        assert abs(p.y(c) ** 2 - c.f(np.array([p.x]))[0]) < 1e-10


    def test_key_rounded_once(self, monkeypatch):
        # the cache key is rounded when the point is made, not per lookup;
        # equality and hashing stay on the fields
        calls = []
        monkeypatch.setattr(curves, "round", lambda v, n: calls.append(v) or round(v, n),
                            raising=False)
        p = CurvePoint(0.3 + 0.7j, -1)
        assert [p.key() for _ in range(5)] == [(0.3, 0.7, -1)] * 5
        assert len(calls) == 2
        q = CurvePoint(0.3 + 0.7j, -1)
        assert p == q and hash(p) == hash(q) and p != p.involution()


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
        _, (ys,) = integrate_path(c, [path], [y0], order)
        ref = brute_force_continuation(c.branch_points, c.lead, path, y0)
        assert np.all(np.abs(ys - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_y_squared_is_f(self, cid):
        c = registry_curve(cid)
        path = near_branch_path(c)
        _, (ys,) = integrate_path(c, [path], [c.y_principal(np.array([path[0]]))[0]], 32)
        fx = c.f(np.array(path))
        assert np.all(np.abs(ys**2 - fx) <= 1e-12 * np.abs(fx))

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_split_walk_agrees(self, cid):
        c = registry_curve(cid)
        path = near_branch_path(c)
        y0 = c.y_principal(np.array([path[0]]))[0]
        (vec,), (ys,) = integrate_path(c, [path], [y0], 16)
        for k in (0, 3, 6):
            zm = path[k] + 0.37 * (path[k + 1] - path[k])
            (vec_split,), (ys_split,) = integrate_path(
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
                 curves._hub_path(e[1], 0.5 * gap, e[1] + 0.8 * gap * (1 - 1j)),
                 [3.1 + 1.7j, 3.1 + 1.7j, -2.3 - 1.1j]]
        order = [2, 0, 3, 1, 0]
        y0s = [c.y_principal(np.array([paths[i][0]]))[0] for i in order]
        vecs, ys = integrate_path(c, [paths[i] for i in order], y0s, 16)
        assert vecs.shape == (len(order), c.genus)
        for i, y0, vec, y in zip(order, y0s, vecs, ys):
            (one,), (one_ys,) = integrate_path(c, [paths[i]], [y0], 16)
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

    def test_order_convergence(self):
        c = HyperellipticCurve([0.0, 1.0, 2.0, 3.0, 4.0], "g2-real")
        _, _, pd1 = period_matrix(c, quadrature_order=32)
        _, _, pd2 = period_matrix(c, quadrature_order=64)
        assert np.abs(pd1.rm.omega - pd2.rm.omega).max() < 1e-10

    def test_spread_branch_points_refused_fast(self):
        # the b-cycle would need about 2.6e8 nodes at order 32
        c = HyperellipticCurve([0.0, 1.0, 1e6], "spread")
        t0 = time.perf_counter()
        with pytest.raises(PathTooLong, match="quadrature nodes"):
            period_matrix(c)
        assert time.perf_counter() - t0 < 1.0

    def test_order_floor(self):
        c = HyperellipticCurve([0.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            period_matrix(c, quadrature_order=8)
        with pytest.raises(ValueError):
            period_matrix(c, quadrature_order=257)

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
            w = abel_jacobi(pd, P.involution(), base.involution())
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

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_from_branch_differences(self, cid):
        # the branch-point endpoint cancels: AJ from e_k to P minus AJ from
        # e_k to P' is AJ from P' to P, for every k
        ctx = build_context(cid)
        pd = ctx.periods
        rng = np.random.default_rng(14)
        for _ in range(2):
            P = sample_point(ctx, rng)
            Q = sample_point(ctx, rng)
            ref = abel_jacobi(pd, P, Q)
            for k in range(len(pd.curve.branch_points)):
                v = (abel_jacobi_from_branch(pd, P, k)
                     - abel_jacobi_from_branch(pd, Q, k))
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
                    ref = pd.A_inv @ branch_expansion(e_k, P.x, P.y(c), c.genus)
                    got = abel_jacobi_from_branch(pd, P, k)
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
                    X = CurvePoint(complex(x), sheet)
                    to_j, to_k = curves._from_hubs(pd, [X, X], [j, k])
                    assert frac_dist((B[j] + to_j) - (B[k] + to_k), pd.rm) < 1e-12
                    checked += 1
        assert checked >= 8

    def test_unlanded_sheet_raises(self, ctx_g1, monkeypatch):
        # a continuation that ends on neither sheet over P is an error, not
        # a silent pick of the nearer sheet, and it fails P's whole batch
        pd = ctx_g1.periods
        ps = [sample_point(ctx_g1, np.random.default_rng(s)) for s in (17, 18, 19)]
        abel_jacobi(pd, ps, ctx_g1.base)          # hub and base constants built

        def off_sheet(curve, paths, y0s, order):
            vecs, ys = integrate_path(curve, paths, y0s, order)
            ys[1] = np.array([1j * ps[1].y(curve)])
            return vecs, ys

        monkeypatch.setattr(curves, "integrate_path", off_sheet)
        with pytest.raises(CurveError, match="did not land"):
            abel_jacobi(pd, ps, ctx_g1.base)


unit_square = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
    lambda p: complex(*p))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7]).flatmap(
           lambda n: st.lists(unit_square, min_size=n, max_size=n)),
       unit_square.map(lambda x: 1.5 * x))
def test_hub_path_clearance(pts, x):
    # the hub path of x's nearest branch point keeps min(0.7 rho_k, |x - e_k|)
    # clear of every branch point
    e = np.array(pts)
    gaps = np.abs(e[:, None] - e[None, :]) + np.eye(len(e))
    assume(gaps.min() >= 0.05)
    c = HyperellipticCurve(e)
    k = int(np.argmin(np.abs(c.branch_points - x)))
    e_k = c.branch_points[k]
    assume(abs(x - e_k) > 1e-6)
    rho = 0.5 * np.abs(np.delete(c.branch_points, k) - e_k).min()
    path = curves._hub_path(e_k, rho, x)
    bound = min(0.7 * rho, abs(x - e_k))
    assert polygon_clearance(path, c.branch_points) >= (1 - 1e-9) * bound


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
        assert abs(theta(z0, ctx.rm, delta).value) < 1e-10

    def test_g1_odd_char_is_half_half(self, ctx_g1):
        assert find_odd_char(ctx_g1.rm) == ThetaChar((0.5,), (0.5,))


class TestLineBundles:
    def test_threshold_respected(self, ctx_g2):
        rng = np.random.default_rng(9)
        scale = ctx_g2.scale
        for _ in range(5):
            e = random_line_bundle(ctx_g2.rm, rng, scale)
            assert abs(theta(e, ctx_g2.rm).value) > 1e-4 * scale

    def test_budget_exceeded(self, ctx_g1):
        kappa = riemann_constant(ctx_g1)
        # a "generator" whose draws u, v always give e = u + Omega v = kappa,
        # on the theta divisor: two draws for each of the 10 attempts
        class OnTheta:
            def __init__(self):
                al, be = lattice_coords(kappa, ctx_g1.rm)
                self.draws = [al % 1.0, be % 1.0] * 10
            def random(self, n=None):
                return self.draws.pop(0)
        gen = OnTheta()
        with pytest.raises(RejectionBudgetExceeded):
            random_line_bundle(ctx_g1.rm, gen, ctx_g1.scale, budget=10)
        assert gen.draws == []

    def test_lattice_representatives_agree(self, ctx_g1):
        # kernel values from e and e + lattice agree after the predicted
        # automorphy factor is cancelled
        from faylab.kernels import massey_m3_prime
        rng = np.random.default_rng(10)
        e = random_line_bundle(ctx_g1.rm, rng, ctx_g1.scale)
        P = sample_point(ctx_g1, rng)
        Q = sample_point(ctx_g1, rng)
        m = np.array([1.0])
        n = np.array([-2.0])
        e2 = e + n + ctx_g1.rm.omega @ m
        m1 = massey_m3_prime(ctx_g1, [ctx_g1.xi_of_bundle(e)], [P], [Q])[0]
        m2 = massey_m3_prime(ctx_g1, [ctx_g1.xi_of_bundle(e2)], [P], [Q])[0]
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
        assert abs(theta(kappa, ctx_g1.rm).value) < 1e-10 * ctx_g1.scale


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

    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real", "g3-real"])
    def test_vanishing_on_divisors(self, cid):
        ctx = build_context(cid)
        kappa = riemann_constant(ctx)
        rng = np.random.default_rng(13)
        for _ in range(4):
            u = np.zeros(ctx.g, dtype=complex)
            for _ in range(ctx.g - 1):
                u += ctx.aj([sample_point(ctx, rng)])[0]
            val = abs(theta(u - kappa, ctx.rm).value)
            assert val < 1e-7 * ctx.scale
