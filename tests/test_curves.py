import numpy as np
import pytest

from faylab.curves import (HyperellipticCurve, period_matrix, make_point,
                           abel_jacobi, abel_jacobi_between_branch_points,
                           lattice_coords, reduce_mod_lattice, find_odd_char,
                           random_line_bundle, vanishing_locus_check,
                           BranchPointCollision, PathTooCloseToBranchPoint,
                           RejectionBudgetExceeded, _build_cycles,
                           _attach_sheets, _intersection_matrix, _segment_feet,
                           _track_points)
from faylab.theta import theta, ThetaChar
from faylab.kernels import riemann_constant, sample_point
from faylab.registry import registry_entries

from conftest import build_context
from oracles import agm_tau, qseries_theta_char

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


class TestHomology:
    @pytest.mark.parametrize("cid", ["lemniscatic", "equianharmonic",
                                     "g2-real", "g3-real"])
    def test_symplectic_pairing(self, cid):
        entry = registry_entries()[cid]
        c = HyperellipticCurve(entry["branch_points"], cid)
        g = c.genus
        a_cycles, b_cycles = _build_cycles(c)
        for cyc in a_cycles + b_cycles:
            _attach_sheets(c, cyc)
        M = _intersection_matrix(c, a_cycles + b_cycles)
        # diagonal blocks vanish; off-diagonal is +-identity
        assert np.array_equal(M[:g, :g], np.zeros((g, g), dtype=int))
        assert np.array_equal(M[g:, g:], np.zeros((g, g), dtype=int))
        assert np.array_equal(np.abs(M[:g, g:]), np.eye(g, dtype=int))


def tracker_segments(c):
    """(za, zb, dmin) triples: a generic segment, one passing 0.05 min_gap
    from a branch point, and a branch-leg ray into that branch point with
    its walk sized from the other branch points."""
    e = c.branch_points[1]
    gap = c.min_gap
    others = np.delete(c.branch_points, 1)
    ray_in = e + 1.8e-6 * 0.4 * gap
    return [(-2.3 - 1.1j, 3.1 + 1.7j, None),
            (e + gap * (-0.5 + 0.05j), e + gap * (0.5 + 0.05j), None),
            (e + 0.4 * gap, ray_in,
             float(_segment_feet(others, e + 0.4 * gap, ray_in)[1].min()))]


class TestTracker:
    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_y_squared_is_f(self, cid):
        entry = registry_entries()[cid]
        c = HyperellipticCurve(entry["branch_points"], cid)
        ts = np.linspace(0.0, 1.0, 41)[1:]
        for za, zb, dmin in tracker_segments(c):
            ya = c.y_principal(np.array([za]))[0]
            ys, y_end = _track_points(c, za, zb, ya, ts, dmin)
            fx = c.f(za + ts * (zb - za))
            assert np.all(np.abs(ys**2 - fx) <= 1e-12 * np.abs(fx))
            assert y_end == ys[-1]

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_split_walk_agrees(self, cid):
        entry = registry_entries()[cid]
        c = HyperellipticCurve(entry["branch_points"], cid)
        for za, zb, dmin in tracker_segments(c):
            zm = za + 0.37 * (zb - za)
            ya = c.y_principal(np.array([za]))[0]
            _, y_whole = _track_points(c, za, zb, ya, dmin=dmin)
            _, y_mid = _track_points(c, za, zm, ya, dmin=dmin)
            _, y_split = _track_points(c, zm, zb, y_mid, dmin=dmin)
            assert abs(y_whole - y_split) <= 1e-13 * abs(y_whole)

    def test_touching_path_rejected(self):
        c = HyperellipticCurve([0.0, 1.0, -1.0])
        with pytest.raises(PathTooCloseToBranchPoint):
            _track_points(c, -0.5 + 1e-10j, 0.5 + 1e-10j, 1.0)


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

    def test_order_floor(self):
        c = HyperellipticCurve([0.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            period_matrix(c, quadrature_order=8)

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
        pd = ctx_g2.periods
        rng = np.random.default_rng(6)
        for seed in range(4):
            P = sample_point(ctx_g2, rng)
            Q = sample_point(ctx_g2, rng)
            v1 = abel_jacobi(pd, P, Q, detour_seed=0)
            v2 = abel_jacobi(pd, P, Q, detour_seed=1)
            # route through an explicit far midpoint for an honestly
            # different homotopy class
            mid = make_point(ctx_g2.curve, 6.0 + 3.0j, 1)
            v3 = abel_jacobi(pd, P, mid) + abel_jacobi(pd, mid, Q)
            assert frac_dist(v1 - v2, pd.rm) < 1e-8
            assert frac_dist(v1 - v3, pd.rm) < 1e-8

    def test_branch_points_are_half_periods(self):
        for cid in HYPERELLIPTIC:
            pd = build_context(cid).periods
            for j in range(1, len(pd.curve.branch_points)):
                v = abel_jacobi_between_branch_points(pd, j, 0)
                al, be = lattice_coords(v, pd.rm)
                assert np.abs(2 * al - np.round(2 * al)).max() < 1e-11
                assert np.abs(2 * be - np.round(2 * be)).max() < 1e-11

    def test_reduction(self, ctx_g2):
        rm = ctx_g2.rm
        rng = np.random.default_rng(8)
        z = rng.standard_normal(2) * 3 + 1j * rng.standard_normal(2) * 2
        red = reduce_mod_lattice(z, rm)
        assert red.reduced
        al, be = lattice_coords(red.z, rm)
        assert np.all(np.abs(al) <= 0.5 + 1e-12)
        assert np.all(np.abs(be) <= 0.5 + 1e-12)
        assert frac_dist(z - red.z, rm) < 1e-10


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
            L = random_line_bundle(ctx_g2.rm, rng, scale=scale)
            assert abs(theta(L.e, ctx_g2.rm).value) > 1e-4 * scale

    def test_budget_exceeded(self, ctx_g1):
        class ZeroRng:
            def random(self, n=None):
                return np.zeros(n) if n else 0.0
        kappa = riemann_constant(ctx_g1)
        # a "generator" that always lands on the theta divisor
        class OnTheta:
            def __init__(self, rm):
                al, be = lattice_coords(kappa, ctx_g1.rm)
                self.u, self.v = al % 1.0, be % 1.0
            def random(self, n=None):
                return self.u
        with pytest.raises(RejectionBudgetExceeded):
            random_line_bundle(ctx_g1.rm, OnTheta(ctx_g1.rm), budget=10,
                               scale=ctx_g1.scale)

    def test_lattice_representatives_agree(self, ctx_g1):
        # kernel values from e and e + lattice agree after the predicted
        # automorphy factor is cancelled
        from faylab.kernels import massey_m3_prime, bundle_of_xi
        from faylab.curves import ThetaLineBundle
        rng = np.random.default_rng(10)
        L = random_line_bundle(ctx_g1.rm, rng, scale=ctx_g1.scale)
        P = sample_point(ctx_g1, rng)
        Q = sample_point(ctx_g1, rng)
        m = np.array([1.0])
        n = np.array([-2.0])
        L2 = ThetaLineBundle(e=L.e + n + ctx_g1.rm.omega @ m, degree=L.degree)
        m1 = massey_m3_prime(ctx_g1, L, P, Q)
        m2 = massey_m3_prime(ctx_g1, L2, P, Q)
        v = ctx_g1.diff(Q, P)
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
        e = kappa - sum(ctx_g2.aj(p) for p in D2)
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
    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real", "g3-real"])
    def test_vanishing_on_divisors(self, cid):
        ctx = build_context(cid)
        kappa = riemann_constant(ctx)
        rng = np.random.default_rng(13)
        for _ in range(4):
            u = np.zeros(ctx.g, dtype=complex)
            for _ in range(ctx.g - 1):
                u += ctx.aj(sample_point(ctx, rng))
            val = abs(theta(u - kappa, ctx.rm).value)
            assert val < 1e-7 * ctx.scale
