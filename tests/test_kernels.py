import numpy as np
import pytest

from faylab.curves import make_point, random_line_bundle
from faylab.kernels import (CurveContext, fay_F, prime_form,
                            massey_m3_prime, massey_m3_theta, theta_form,
                            h_values, sample_point, sample_xi,
                            delta_divisor_root, NearDivisor, CoincidentPoints)
from faylab.theta import theta_gradient, odd_theta_chars

from conftest import build_context
from oracles import qseries_theta_char, qseries_theta_char_deriv


def second_odd_context(cid):
    """A context whose odd characteristic differs from the default one."""
    base = build_context(cid)
    ctx = CurveContext(base.curve, base.periods)
    for ch in odd_theta_chars(ctx.g):
        if ch != base.delta:
            g0 = theta_gradient(np.zeros(ctx.g), ctx.rm, ch, tol=1e-10)
            if np.linalg.norm(g0) > 1e-6:
                ctx.delta = ch
                ctx.w = ch.shift_vector(ctx.rm)
                ctx.grad0 = g0
                ctx._h_cache = {}
                return ctx
    raise RuntimeError("no second odd characteristic found")


class TestFayKernel:
    def test_symmetry(self, ctx_g2):
        rng = np.random.default_rng(0)
        for _ in range(10):
            xi1 = sample_xi(ctx_g2, rng)
            xi2 = sample_xi(ctx_g2, rng)
            f1 = fay_F(ctx_g2, xi1, xi2)
            f2 = fay_F(ctx_g2, xi2, xi1)
            assert abs(f1 - f2) < 1e-10 * abs(f1)

    def test_lattice_automorphy(self, ctx_g2):
        rng = np.random.default_rng(1)
        rm = ctx_g2.rm
        for _ in range(5):
            xi1 = sample_xi(ctx_g2, rng)
            xi2 = sample_xi(ctx_g2, rng)
            m = rng.integers(-1, 2, 2).astype(float)
            n = rng.integers(-1, 2, 2).astype(float)
            f1 = fay_F(ctx_g2, xi1, xi2 + rm.omega @ m + n)
            # theta(x1+x2+lam)/theta(x2+lam) picks up exp(-2 pi i m.xi1)
            fac = np.exp(-2j * np.pi * m @ xi1)
            f0 = fay_F(ctx_g2, xi1, xi2)
            assert abs(f1 - fac * f0) < 1e-9 * abs(f1)

    def test_kronecker_oracle(self, ctx_g1):
        # F against the q-series Kronecker function, up to theta'(0)
        tau = complex(ctx_g1.rm.omega[0, 0])
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = complex(sample_xi(ctx_g1, rng)[0])
            xi = complex(sample_xi(ctx_g1, rng)[0])
            mine = fay_F(ctx_g1, [x], [xi])
            th = lambda z: qseries_theta_char(0.5, 0.5, z, tau)
            thp0 = qseries_theta_char_deriv(0.5, 0.5, 0.0, tau)
            kron = thp0 * th(x + xi) / (th(x) * th(xi))
            assert abs(mine * thp0 - kron) < 1e-9 * abs(kron)

    def test_pole_residue(self, ctx_g1):
        # x F(x, xi) -> 1/theta'(0) as x -> 0; error is linear in x, so one
        # Richardson step over the 4 shrinking arguments nails the limit
        rng = np.random.default_rng(3)
        xi = sample_xi(ctx_g1, rng)
        thp0 = theta_gradient(np.zeros(1), ctx_g1.rm, ctx_g1.delta)[0]
        vals = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            x = eps * (1 + 0.3j)
            vals.append(x * fay_F(ctx_g1, [x], xi))
        extrap = (10.0 * vals[-1] - vals[-2]) / 9.0
        assert abs(extrap - 1.0 / thp0) < 1e-6 * abs(1.0 / thp0)

    def test_near_divisor_raises(self, ctx_g1):
        with pytest.raises(NearDivisor):
            fay_F(ctx_g1, np.zeros(1), np.array([0.3 + 0.1j]))


class TestThetaForm:
    def test_fd_along_curve(self, ctx_g2):
        # theta_form = d/dx theta[delta](AJ(t)) in the x-chart
        from faylab.curves import abel_jacobi
        from faylab.theta import theta
        rng = np.random.default_rng(4)
        for _ in range(4):
            P = sample_point(ctx_g2, rng)
            form = theta_form(ctx_g2, [P])[0]
            h = 1e-5
            vals = []
            for dx in (h, -h):
                Q = make_point(ctx_g2.curve, P.x + dx, P.sheet)
                arg = abel_jacobi(ctx_g2.periods, Q, ctx_g2.base)
                vals.append(theta(arg - ctx_g2.aj([P])[0] + 0j, ctx_g2.rm,
                                  ctx_g2.delta, tol=1e-12).value)
            fd = (vals[0] - vals[1]) / (2 * h)
            assert abs(form - fd) < 1e-6 * abs(form)

    def test_scaling_linearity(self, ctx_g2):
        rng = np.random.default_rng(5)
        P = sample_point(ctx_g2, rng)
        base_val = theta_form(ctx_g2, [P])[0]
        ctx2 = CurveContext(ctx_g2.curve, ctx_g2.periods,
                            theta_multiplier=2.5 - 1.0j)
        assert abs(theta_form(ctx2, [P])[0] - (2.5 - 1.0j) * base_val) \
            < 1e-12 * abs(base_val)

    def test_vanishes_on_divisor_g2(self, ctx_g2):
        # the numerator root sits at a Weierstrass point, and the x-frame
        # coefficient decays like sqrt(distance) along the curve toward it
        roots, dists = delta_divisor_root(ctx_g2)
        assert len(roots) == 1
        assert dists[0] < 1e-10
        e_star = ctx_g2.curve.branch_points[
            np.argmin(np.abs(roots[0] - ctx_g2.curve.branch_points))]
        vals = []
        for rho in (1e-2, 1e-4, 1e-6):
            P = make_point(ctx_g2.curve, e_star + rho * (1 + 0.4j), 1)
            vals.append(abs(theta_form(ctx_g2, [P])[0]))
        assert vals[0] > vals[1] > vals[2]
        # sqrt decay: value(rho/100) ~ value(rho)/10
        assert vals[2] / vals[1] < 0.3
        assert vals[2] < 1e-2 * ctx_g2.scale

    def test_other_odd_chars_also_root_on_branch(self, ctx_g2):
        hits = 0
        for ch in odd_theta_chars(2):
            roots, dists = delta_divisor_root(ctx_g2, ch)
            if len(roots):
                assert dists.max() < 1e-8
                hits += 1
        assert hits >= 5          # the sixth sits at the infinite branch point


class TestPrimeForm:
    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real"])
    def test_antisymmetry(self, cid):
        ctx = build_context(cid)
        rng = np.random.default_rng(6)
        for _ in range(10):
            P = sample_point(ctx, rng)
            Q = sample_point(ctx, rng)
            E1 = prime_form(ctx, [P], [Q])[0]
            E2 = prime_form(ctx, [Q], [P])[0]
            assert abs(E1 + E2) < 1e-9 * abs(E1)

    def test_coincident_points(self, ctx_g1):
        rng = np.random.default_rng(7)
        P = sample_point(ctx_g1, rng)
        with pytest.raises(CoincidentPoints):
            prime_form(ctx_g1, [P], [P])

    def test_diagonal_residue(self, ctx_g2):
        # E(P, t)/(x_t - x_P) -> 1 as t -> P in the x-frames
        rng = np.random.default_rng(8)
        P = sample_point(ctx_g2, rng)
        vals = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            t = make_point(ctx_g2.curve, P.x + eps, P.sheet)
            vals.append(prime_form(ctx_g2, [P], [t])[0] / eps)
        assert abs(vals[-1] - 1.0) < 1e-6

    def test_lemniscatic_sigma_oracle(self, ctx_g1):
        # independent q-series realization of theta[1/2,1/2] and h
        tau = complex(ctx_g1.rm.omega[0, 0])
        rng = np.random.default_rng(9)
        thp0 = qseries_theta_char_deriv(0.5, 0.5, 0.0, tau)
        Ainv = ctx_g1.periods.A_inv[0, 0]
        for _ in range(5):
            P = sample_point(ctx_g1, rng)
            Q = sample_point(ctx_g1, rng)
            v = complex((ctx_g1.aj([Q]) - ctx_g1.aj([P]))[0, 0])
            h_or = lambda R: np.sqrt(thp0 * Ainv / R.y(ctx_g1.curve))
            oracle = qseries_theta_char(0.5, 0.5, v, tau) / (h_or(P) * h_or(Q))
            mine = prime_form(ctx_g1, [P], [Q])[0]
            # principal square roots on both sides: equal up to sign per point
            assert min(abs(mine - oracle), abs(mine + oracle)) < 1e-8 * abs(mine)

    def test_no_zero_off_diagonal(self, ctx_g2):
        rng = np.random.default_rng(10)
        count = 0
        while count < 30:
            P = sample_point(ctx_g2, rng)
            Q = sample_point(ctx_g2, rng)
            if abs(P.x - Q.x) < 0.1:
                continue
            count += 1
            assert abs(prime_form(ctx_g2, [P], [Q])[0]) > 1e-6

    @pytest.mark.parametrize("cid", ["g2-real", "g3-real"])
    def test_independent_of_odd_char(self, cid):
        ctx1 = build_context(cid)
        ctx2 = second_odd_context(cid)
        rng = np.random.default_rng(11)
        for _ in range(8):
            P = sample_point(ctx1, rng)
            Q = sample_point(ctx1, rng)
            E1 = prime_form(ctx1, [P], [Q])[0]
            E2 = prime_form(ctx2, [P], [Q])[0]
            # E^2 is branch-free; E itself matches up to the h-branch signs
            assert abs(E1**2 - E2**2) < 1e-8 * abs(E1**2)


class TestMassey:
    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real"])
    def test_cross_formula(self, cid):
        ctx = build_context(cid)
        rng = np.random.default_rng(12)
        done = 0
        while done < 200:
            e = random_line_bundle(ctx.rm, rng, ctx.scale)
            P = sample_point(ctx, rng)
            Q = sample_point(ctx, rng)
            try:
                m1 = massey_m3_prime(ctx, [ctx.xi_of_bundle(e)], [P], [Q])[0]
                m2 = massey_m3_theta(ctx, [ctx.xi_of_bundle(e)], [P], [Q])[0]
            except (NearDivisor, CoincidentPoints):
                continue
            done += 1
            assert abs(m1 - m2) < 1e-8 * abs(m1)

    def test_vanishing_criterion(self, ctx_g1):
        # |m3| is small exactly when the shifted theta point fails the
        # bundle threshold
        from faylab.theta import theta
        rng = np.random.default_rng(13)
        pairs = []
        for _ in range(60):
            e = random_line_bundle(ctx_g1.rm, rng, ctx_g1.scale)
            P = sample_point(ctx_g1, rng)
            Q = sample_point(ctx_g1, rng)
            try:
                m = massey_m3_prime(ctx_g1, [ctx_g1.xi_of_bundle(e)], [P], [Q])[0]
            except (NearDivisor, CoincidentPoints):
                continue
            shifted = abs(theta(e + (ctx_g1.aj([Q]) - ctx_g1.aj([P]))[0],
                                ctx_g1.rm).value)
            pairs.append((abs(m), shifted / ctx_g1.scale))
        small_m = [s for m, s in pairs if m < 1e-4]
        large_m = [s for m, s in pairs if m > 1e-1]
        for s in small_m:
            assert s < 1e-3
        for s in large_m:
            assert s > 1e-4

    def test_skewsym_composite(self, ctx_g1):
        rng = np.random.default_rng(14)
        for _ in range(10):
            xi = sample_xi(ctx_g1, rng)
            P = sample_point(ctx_g1, rng)
            Q = sample_point(ctx_g1, rng)
            m1 = massey_m3_prime(ctx_g1, [xi], [P], [Q])[0]
            m2 = massey_m3_prime(ctx_g1, [-xi], [Q], [P])[0]
            assert abs(m1 + m2) < 1e-9 * abs(m1)

    def test_theta_route_lattice_invariance(self, ctx_g2):
        rng = np.random.default_rng(15)
        xi = sample_xi(ctx_g2, rng)
        P = sample_point(ctx_g2, rng)
        Q = sample_point(ctx_g2, rng)
        m = np.array([1.0, -1.0])
        n = np.array([0.0, 2.0])
        lam = n + ctx_g2.rm.omega @ m
        m1 = massey_m3_theta(ctx_g2, [xi], [P], [Q])[0]
        m2 = massey_m3_theta(ctx_g2, [xi + lam], [P], [Q])[0]
        v = (ctx_g2.aj([Q]) - ctx_g2.aj([P]))[0]
        fac = np.exp(2j * np.pi * m @ v)
        assert abs(m2 - fac * m1) < 1e-9 * abs(m1)


class TestBatches:
    """A stacked kernel call equals its row-by-row calls and raises if any
    row would."""

    @staticmethod
    def draws(ctx, count=6):
        rng = np.random.default_rng(17)
        ps = [sample_point(ctx, rng) for _ in range(count)]
        qs = [sample_point(ctx, rng) for _ in range(count)]
        xis = np.array([sample_xi(ctx, rng) for _ in range(count)])
        return ps, qs, xis

    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real", "g3-real"])
    def test_stacked_equals_rows(self, cid):
        ctx = build_context(cid)
        ps, qs, xis = self.draws(ctx)
        # fay_F broadcasts over leading axes: a 6 x 6 table in one call
        F = fay_F(ctx, xis[:, None], xis[None, ::-1] + 0.1)
        rows = [[fay_F(ctx, a, b + 0.1) for b in xis[::-1]] for a in xis]
        assert F.shape == (6, 6)
        assert np.all(np.abs(F - np.array(rows)) <= 1e-14 * np.abs(F))
        for kernel, args in [(prime_form, (ps, qs)),
                             (massey_m3_prime, (xis, ps, qs)),
                             (massey_m3_theta, (xis, ps, qs))]:
            stacked = kernel(ctx, *args)
            rows = np.array([kernel(ctx, *([a[k]] for a in args))[0]
                             for k in range(len(ps))])
            assert np.all(np.abs(stacked - rows) <= 1e-14 * np.abs(rows)), kernel

    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real", "g3-real"])
    def test_point_batches_equal_single_calls(self, cid):
        # rows of ctx.aj and h_values equal one-point calls bitwise, in any
        # order and with repeated points; fresh contexts keep caches apart
        base = build_context(cid)
        ps, qs, _ = self.draws(base, 4)
        batch = [(ps + qs)[k] for k in (5, 2, 2, 7, 0, 5, 1, 6, 3, 4, 0)]
        ctx = CurveContext(base.curve, base.periods)
        aj, h = ctx.aj(batch), h_values(ctx, batch)
        one = CurveContext(base.curve, base.periods)
        assert aj.shape == (len(batch), ctx.g)
        assert np.array_equal(aj, np.array([one.aj([p])[0] for p in batch]))
        assert np.array_equal(h, np.array([h_values(one, [p])[0] for p in batch]))
        assert ctx.aj([]).shape == (0, ctx.g) and h_values(ctx, []).shape == (0,)

    def test_one_near_divisor_row_raises(self, ctx_g2):
        ps, qs, xis = self.draws(ctx_g2)
        xis[2] = 0.0              # theta[delta](0) = 0: on the theta divisor
        with pytest.raises(NearDivisor):
            fay_F(ctx_g2, xis, xis[::-1])
        with pytest.raises(NearDivisor):
            massey_m3_prime(ctx_g2, xis, ps, qs)
        with pytest.raises(NearDivisor):
            massey_m3_theta(ctx_g2, xis, ps, qs)

    def test_one_coincident_pair_raises(self, ctx_g2):
        ps, qs, xis = self.draws(ctx_g2)
        qs[3] = ps[3]
        for kernel, args in [(prime_form, (ps, qs)),
                             (massey_m3_prime, (xis, ps, qs)),
                             (massey_m3_theta, (xis, ps, qs))]:
            with pytest.raises(CoincidentPoints):
                kernel(ctx_g2, *args)

    def test_one_integration_per_attempt(self, monkeypatch):
        # once the hub and branch constants are built, every idcor attempt
        # that gets past _distinct_points maps all its points in one
        # integrate_path call, and no kernel integrates again
        import faylab.curves as curves
        import faylab.identities as identities
        from faylab.rng import trial_rng
        base = build_context("lemniscatic")
        ctx = CurveContext(base.curve, base.periods)
        ctx.aj([base.base])
        calls = {"integrate_path": 0, "_distinct_points": 0}
        for mod, name in ((curves, "integrate_path"), (identities, "_distinct_points")):
            def counted(*args, _fn=getattr(mod, name), _name=name):
                out = _fn(*args)
                calls[_name] += 1
                return out
            monkeypatch.setattr(mod, name, counted)
        for k in range(20):
            try:
                identities.idcor_residual(ctx, trial_rng(42, "idcor", k))
            except identities.KernelError:
                pass
        assert calls["_distinct_points"] >= 15
        assert calls["integrate_path"] == calls["_distinct_points"]


class TestSignFlips:
    def test_identity_residuals_invariant(self, ctx_g2):
        # flipping the h-branch at one point must not change any residual
        from faylab.identities import prime_form_identity_residual
        from faylab.rng import trial_rng
        rng = trial_rng(7, "signflip", 0)
        base = prime_form_identity_residual(ctx_g2, 1, rng)[1]
        # flip one cached point and recompute with the same draws
        key = next(iter(ctx_g2._h_cache))
        ctx_g2._h_cache[key] = -ctx_g2._h_cache[key]
        try:
            rng = trial_rng(7, "signflip", 0)
            flipped = prime_form_identity_residual(ctx_g2, 1, rng)[1]
        finally:
            ctx_g2._h_cache[key] = -ctx_g2._h_cache[key]
        assert abs(base - flipped) < 1e-12 + 1e-6 * base

    def test_cross_formula_invariant_under_flip(self, ctx_g1):
        rng = np.random.default_rng(16)
        e = random_line_bundle(ctx_g1.rm, rng, ctx_g1.scale)
        P = sample_point(ctx_g1, rng)
        Q = sample_point(ctx_g1, rng)
        m1 = massey_m3_prime(ctx_g1, [ctx_g1.xi_of_bundle(e)], [P], [Q])[0]
        t1 = massey_m3_theta(ctx_g1, [ctx_g1.xi_of_bundle(e)], [P], [Q])[0]
        ctx_g1._h_cache[P.key()] = -ctx_g1._h_cache[P.key()]
        try:
            m2 = massey_m3_prime(ctx_g1, [ctx_g1.xi_of_bundle(e)], [P], [Q])[0]
            t2 = massey_m3_theta(ctx_g1, [ctx_g1.xi_of_bundle(e)], [P], [Q])[0]
        finally:
            ctx_g1._h_cache[P.key()] = -ctx_g1._h_cache[P.key()]
        # both routes flip together; their agreement is branch-insensitive
        assert abs(m2 - t2) < 1e-10 * abs(m2)
        assert abs(abs(m2) - abs(m1)) < 1e-10 * abs(m1)
