import numpy as np
import pytest

from faylab.curves import abel_jacobi, make_point
from faylab.kernels import (CurveContext, fay_F, prime_form,
                            massey_m3_prime, massey_m3_theta, theta_form,
                            h_values, random_line_bundle, sample_point, sample_xi,
                            delta_divisor_root, NearDivisor, CoincidentPoints)
from faylab.rng import trial_rng
from faylab.theta import theta_gradient, odd_theta_chars

from conftest import HYPERELLIPTIC, build_context, one_trial, pair_args, scale_theta
from oracles import (draw_one, point_y, qseries_theta_char, qseries_theta_char_deriv,
                     scalar_points)


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
                ctx.form_coeffs = ctx.periods.A_inv.T @ g0
                return ctx
    raise RuntimeError("no second odd characteristic found")


class TestFayKernel:
    def test_symmetry(self, ctx_g2):
        rng = np.random.default_rng(0)
        for _ in range(10):
            xi1 = draw_one(sample_xi, ctx_g2, rng)[0]
            xi2 = draw_one(sample_xi, ctx_g2, rng)[0]
            f1 = fay_F(ctx_g2, xi1, xi2)
            f2 = fay_F(ctx_g2, xi2, xi1)
            assert abs(f1 - f2) < 1e-10 * abs(f1)

    def test_lattice_automorphy(self, ctx_g2):
        rng = np.random.default_rng(1)
        rm = ctx_g2.rm
        for _ in range(5):
            xi1 = draw_one(sample_xi, ctx_g2, rng)[0]
            xi2 = draw_one(sample_xi, ctx_g2, rng)[0]
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
            x = complex(draw_one(sample_xi, ctx_g1, rng)[0][0])
            xi = complex(draw_one(sample_xi, ctx_g1, rng)[0][0])
            mine = fay_F(ctx_g1, [x], [xi])
            th = lambda z: qseries_theta_char(0.5, 0.5, z, tau)
            thp0 = qseries_theta_char_deriv(0.5, 0.5, 0.0, tau)
            kron = thp0 * th(x + xi) / (th(x) * th(xi))
            assert abs(mine * thp0 - kron) < 1e-9 * abs(kron)

    def test_pole_residue(self, ctx_g1):
        # x F(x, xi) -> 1/theta'(0) as x -> 0; error is linear in x, so one
        # Richardson step over the 4 shrinking arguments nails the limit
        rng = np.random.default_rng(3)
        xi = draw_one(sample_xi, ctx_g1, rng)[0]
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
    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_fd_along_curve(self, cid):
        # theta_form = d/dx theta[delta](AJ(t)) in the x-chart, at every
        # genus; at genus 1 this is the check that reaches theta, since
        # theta_form * y is a constant there whatever the gradient
        from faylab.curves import abel_jacobi
        from faylab.theta import theta_batch
        ctx = build_context(cid)
        rng = np.random.default_rng(4)
        for _ in range(8):
            P = sample_point(ctx, rng)
            form = theta_form(ctx, [P])[0]
            h = 1e-5
            vals = []
            for dx in (h, -h):
                # the sheet whose y continues P's, across a cut of sqrt(f) too
                y = ctx.curve.y_principal(np.array([P[0], P[0] + dx]))
                sheet = P[1] if (y[1] * y[0].conjugate()).real > 0 else -P[1]
                Q = make_point(ctx.curve, P[0] + dx, sheet)
                arg = abel_jacobi(ctx.periods, Q, ctx.base)
                vals.append(theta_batch(arg - ctx.aj([P])[0] + 0j, ctx.rm,
                                        ctx.delta, 1e-12)[0][0])
            fd = (vals[0] - vals[1]) / (2 * h)
            assert abs(form - fd) < 1e-6 * abs(form)

    def test_scaling_linearity(self, ctx_g2, monkeypatch):
        rng = np.random.default_rng(5)
        P = sample_point(ctx_g2, rng)
        base_val = theta_form(ctx_g2, [P])[0]
        scale_theta(monkeypatch, 2.5 - 1.0j)
        ctx2 = CurveContext(ctx_g2.curve, ctx_g2.periods)
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
        # a context given the form of each ch, as second_odd_context gives it
        ctx = CurveContext(ctx_g2.curve, ctx_g2.periods)
        hits = 0
        for ch in odd_theta_chars(2):
            g0 = theta_gradient(np.zeros(2), ctx.rm, ch, tol=ctx.tol)
            ctx.form_coeffs = ctx.periods.A_inv.T @ g0
            roots, dists = delta_divisor_root(ctx)
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
            E1 = prime_form(ctx, *pair_args(ctx, [P], [Q]))[0]
            E2 = prime_form(ctx, *pair_args(ctx, [Q], [P]))[0]
            assert abs(E1 + E2) < 1e-9 * abs(E1)

    def test_coincident_points(self, ctx_g1):
        rng = np.random.default_rng(7)
        P = sample_point(ctx_g1, rng)
        with pytest.raises(CoincidentPoints):
            prime_form(ctx_g1, *pair_args(ctx_g1, [P], [P]))

    def test_diagonal_residue(self, ctx_g2):
        # E(P, t)/(x_t - x_P) -> 1 as t -> P in the x-frames
        rng = np.random.default_rng(8)
        P = sample_point(ctx_g2, rng)
        vals = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            t = make_point(ctx_g2.curve, P[0] + eps, P[1])
            vals.append(prime_form(ctx_g2, *pair_args(ctx_g2, [P], [t]))[0] / eps)
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
            h_or = lambda R: np.sqrt(thp0 * Ainv / point_y(ctx_g1.curve, R))
            oracle = qseries_theta_char(0.5, 0.5, v, tau) / (h_or(P) * h_or(Q))
            mine = prime_form(ctx_g1, *pair_args(ctx_g1, [P], [Q]))[0]
            # principal square roots on both sides: equal up to sign per point
            assert min(abs(mine - oracle), abs(mine + oracle)) < 1e-8 * abs(mine)

    def test_no_zero_off_diagonal(self, ctx_g2):
        rng = np.random.default_rng(10)
        count = 0
        while count < 30:
            P = sample_point(ctx_g2, rng)
            Q = sample_point(ctx_g2, rng)
            if abs(P[0] - Q[0]) < 0.1:
                continue
            count += 1
            assert abs(prime_form(ctx_g2, *pair_args(ctx_g2, [P], [Q]))[0]) > 1e-6

    @pytest.mark.parametrize("cid", ["g2-real", "g3-real"])
    def test_independent_of_odd_char(self, cid):
        ctx1 = build_context(cid)
        ctx2 = second_odd_context(cid)
        rng = np.random.default_rng(11)
        for _ in range(8):
            P = sample_point(ctx1, rng)
            Q = sample_point(ctx1, rng)
            E1 = prime_form(ctx1, *pair_args(ctx1, [P], [Q]))[0]
            E2 = prime_form(ctx2, *pair_args(ctx2, [P], [Q]))[0]
            # E^2 is branch-free; E itself matches up to the h-branch signs
            assert abs(E1**2 - E2**2) < 1e-8 * abs(E1**2)


class TestMassey:
    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real"])
    def test_cross_formula(self, cid):
        ctx = build_context(cid)
        rng = np.random.default_rng(12)
        done = 0
        while done < 200:
            e = draw_one(random_line_bundle, ctx, rng)[0]
            P = sample_point(ctx, rng)
            Q = sample_point(ctx, rng)
            try:
                m1 = massey_m3_prime(ctx, [ctx.xi_of_bundle(e)], *pair_args(ctx, [P], [Q]))[0]
                m2 = massey_m3_theta(ctx, [ctx.xi_of_bundle(e)], *pair_args(ctx, [P], [Q]))[0]
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
            e = draw_one(random_line_bundle, ctx_g1, rng)[0]
            P = sample_point(ctx_g1, rng)
            Q = sample_point(ctx_g1, rng)
            try:
                m = massey_m3_prime(ctx_g1, [ctx_g1.xi_of_bundle(e)], *pair_args(ctx_g1, [P], [Q]))[0]
            except (NearDivisor, CoincidentPoints):
                continue
            shifted = abs(theta(e + (ctx_g1.aj([Q]) - ctx_g1.aj([P]))[0],
                                ctx_g1.rm))
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
            xi = draw_one(sample_xi, ctx_g1, rng)[0]
            P = sample_point(ctx_g1, rng)
            Q = sample_point(ctx_g1, rng)
            m1 = massey_m3_prime(ctx_g1, [xi], *pair_args(ctx_g1, [P], [Q]))[0]
            m2 = massey_m3_prime(ctx_g1, [-xi], *pair_args(ctx_g1, [Q], [P]))[0]
            assert abs(m1 + m2) < 1e-9 * abs(m1)

    def test_theta_route_lattice_invariance(self, ctx_g2):
        rng = np.random.default_rng(15)
        xi = draw_one(sample_xi, ctx_g2, rng)[0]
        P = sample_point(ctx_g2, rng)
        Q = sample_point(ctx_g2, rng)
        m = np.array([1.0, -1.0])
        n = np.array([0.0, 2.0])
        lam = n + ctx_g2.rm.omega @ m
        m1 = massey_m3_theta(ctx_g2, [xi], *pair_args(ctx_g2, [P], [Q]))[0]
        m2 = massey_m3_theta(ctx_g2, [xi + lam], *pair_args(ctx_g2, [P], [Q]))[0]
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
        xis = np.array([draw_one(sample_xi, ctx, rng)[0] for _ in range(count)])
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
        for kernel, args in [(prime_form, pair_args(ctx, ps, qs)),
                             (massey_m3_prime, (xis, *pair_args(ctx, ps, qs))),
                             (massey_m3_theta, (xis, *pair_args(ctx, ps, qs)))]:
            stacked = kernel(ctx, *args)
            rows = np.array([kernel(ctx, *(a[k:k + 1] for a in args))[0]
                             for k in range(len(ps))])
            assert np.all(np.abs(stacked - rows) <= 1e-14 * np.abs(rows)), kernel

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_point_batches_equal_single_calls(self, cid):
        # rows of ctx.aj and h_values equal one-point calls bitwise, in any
        # order and with repeated points; every kernel takes an empty batch
        ctx = build_context(cid)
        ps, qs, _ = self.draws(ctx, 4)
        batch = [(ps + qs)[k] for k in (5, 2, 2, 7, 0, 5, 1, 6, 3, 4, 0)]
        aj, h = ctx.aj(batch), h_values(ctx, batch)
        assert aj.shape == (len(batch), ctx.g)
        assert np.array_equal(aj, np.array([ctx.aj([p])[0] for p in batch]))
        assert np.array_equal(h, np.array([h_values(ctx, [p])[0] for p in batch]))
        none, empty = np.empty((0, ctx.g)), np.empty((0, 2), dtype=complex)
        assert ctx.aj(empty).shape == abel_jacobi(ctx.periods, empty, ctx.base).shape == (0, ctx.g)
        assert h_values(ctx, empty).shape == theta_form(ctx, empty).shape == (0,)
        for kernel, args in [(fay_F, (none, none)), (prime_form, pair_args(ctx, empty, empty)),
                             (massey_m3_prime, (none, *pair_args(ctx, empty, empty))),
                             (massey_m3_theta, (none, *pair_args(ctx, empty, empty)))]:
            assert kernel(ctx, *args).shape == (0,), kernel

    def test_near_points_keep_their_rows(self, ctx_g2):
        # points 1e-13 apart are two points: one ctx.aj call gives each the
        # row abel_jacobi gives it alone
        ctx = CurveContext(ctx_g2.curve, ctx_g2.periods)
        ps = [make_point(ctx.curve, 0.3 + 0.7j + d, 1) for d in (0.0, 1e-13)]
        rows = ctx.aj(ps)
        assert not np.array_equal(rows[0], rows[1])
        for p, row in zip(ps, rows):
            assert np.array_equal(row, abel_jacobi(ctx.periods, p, ctx.base))

    @pytest.mark.parametrize("cid", HYPERELLIPTIC)
    def test_form_rows_as_if_alone(self, cid):
        # theta_form and h_values of 200 points equal each point alone,
        # bitwise, and theta_form the per-point grad0 . A^-1 (x^(i-1) / y)
        # to rounding
        ctx = build_context(cid)
        rng = np.random.default_rng(29)
        ps = [sample_point(ctx, rng) for _ in range(200)]
        form = theta_form(ctx, ps)
        assert np.array_equal(form, [theta_form(ctx, [p])[0] for p in ps])
        assert np.array_equal(h_values(ctx, ps), [h_values(ctx, [p])[0] for p in ps])
        ref = np.array([ctx.grad0 @ ctx.periods.A_inv
                        @ (p[0] ** np.arange(ctx.g) / point_y(ctx.curve, p)) for p in ps])
        assert np.all(np.abs(form - ref) <= 1e-13 * np.abs(ref))

    def test_one_near_divisor_row_raises(self, ctx_g2):
        ps, qs, xis = self.draws(ctx_g2)
        xis[2] = 0.0              # theta[delta](0) = 0: on the theta divisor
        with pytest.raises(NearDivisor):
            fay_F(ctx_g2, xis, xis[::-1])
        with pytest.raises(NearDivisor):
            massey_m3_prime(ctx_g2, xis, *pair_args(ctx_g2, ps, qs))
        with pytest.raises(NearDivisor):
            massey_m3_theta(ctx_g2, xis, *pair_args(ctx_g2, ps, qs))

    def test_one_coincident_pair_raises(self, ctx_g2):
        ps, qs, xis = self.draws(ctx_g2)
        qs[3] = ps[3]
        for kernel, args in [(prime_form, pair_args(ctx_g2, ps, qs)),
                             (massey_m3_prime, (xis, *pair_args(ctx_g2, ps, qs))),
                             (massey_m3_theta, (xis, *pair_args(ctx_g2, ps, qs)))]:
            with pytest.raises(CoincidentPoints):
                kernel(ctx_g2, *args)

    def test_unequal_pair_lengths_raise(self, ctx_g2):
        # one point against three does not broadcast into three pairs
        ps, qs, xis = self.draws(ctx_g2, 3)
        V, ps, qs = pair_args(ctx_g2, np.array(ps), np.array(qs))
        for kernel, args in [(prime_form, (V, ps[:1], qs)),
                             (massey_m3_prime, (xis, V, ps[:1], qs)),
                             (prime_form, (V, ps, qs[:1])),
                             (massey_m3_prime, (xis, V, ps, qs[:1]))]:
            with pytest.raises(ValueError, match="paired"):
                kernel(ctx_g2, *args)

    def test_one_integration_per_attempt(self, monkeypatch):
        # every idcor attempt that gets past _distinct_points, evaluated
        # alone, maps all its points in one _from_rays call, and no kernel
        # integrates again
        import faylab.curves as curves
        import faylab.identities as identities
        from faylab.rng import trial_rng
        base = build_context("lemniscatic")
        ctx = CurveContext(base.curve, base.periods)
        ctx.aj([base.base])
        calls = {"_from_rays": 0, "_distinct_points": 0}
        for mod, name in ((curves, "_from_rays"), (identities, "_distinct_points")):
            def counted(*args, _fn=getattr(mod, name), _name=name):
                out = _fn(*args)
                # a draw counts if no stream of it was rejected
                calls[_name] += _name == "_from_rays" or not out[1]
                return out
            monkeypatch.setattr(mod, name, counted)
        for k in range(20):
            try:
                one_trial("idcor", ctx, trial_rng(42, "idcor", k))
            except identities.KernelError:
                pass
        assert calls["_distinct_points"] >= 15
        assert calls["_from_rays"] == calls["_distinct_points"]


def flip_h(monkeypatch, point, seen):
    """Make h_values negate the rows of the point `point`, and record every
    point it is asked for in `seen`."""
    import faylab.kernels as kernels

    def flipped(ctx, ps, _real=h_values):
        seen.extend(ps)
        h = _real(ctx, ps)
        return np.where((np.asarray(ps) == point).all(axis=-1), -h, h)
    monkeypatch.setattr(kernels, "h_values", flipped)


class TestSignFlips:
    def test_identity_residuals_invariant(self, ctx_g2, monkeypatch):
        # flipping the h-branch at one point must not change any residual
        from faylab.rng import trial_rng
        rng = trial_rng(7, "signflip", 0)
        seen = []
        flip_h(monkeypatch, None, seen)
        base = one_trial("prime_form_n1", ctx_g2, rng)[1]
        # flip h at the first point the trial used, with the same draws
        again = []
        flip_h(monkeypatch, seen[0], again)
        rng = trial_rng(7, "signflip", 0)
        flipped = one_trial("prime_form_n1", ctx_g2, rng)[1]
        assert any(np.array_equal(seen[0], p) for p in again)
        assert abs(base - flipped) < 1e-12 + 1e-6 * base

    def test_cross_formula_invariant_under_flip(self, ctx_g1, monkeypatch):
        rng = np.random.default_rng(16)
        e = draw_one(random_line_bundle, ctx_g1, rng)[0]
        P = sample_point(ctx_g1, rng)
        Q = sample_point(ctx_g1, rng)
        m1 = massey_m3_prime(ctx_g1, [ctx_g1.xi_of_bundle(e)], *pair_args(ctx_g1, [P], [Q]))[0]
        t1 = massey_m3_theta(ctx_g1, [ctx_g1.xi_of_bundle(e)], *pair_args(ctx_g1, [P], [Q]))[0]
        flip_h(monkeypatch, P, [])
        m2 = massey_m3_prime(ctx_g1, [ctx_g1.xi_of_bundle(e)], *pair_args(ctx_g1, [P], [Q]))[0]
        t2 = massey_m3_theta(ctx_g1, [ctx_g1.xi_of_bundle(e)], *pair_args(ctx_g1, [P], [Q]))[0]
        # both routes flip together; their agreement is branch-insensitive
        assert abs(m2 - t2) < 1e-10 * abs(m2)
        assert abs(abs(m2) - abs(m1)) < 1e-10 * abs(m1)


@pytest.mark.parametrize("cid", ["lemniscatic", "g2-real"])
@pytest.mark.parametrize("half", [None, 0.0196])
def test_table_points_follow_the_scalar_rule(cid, half, monkeypatch):
    # 40 streams of 4 points each from one Table equal the points each
    # stream's Generator gives one double at a time, and leave every cursor
    # where the Generator stops; in a box of half-width 0.0196 about e_1
    # about 1 candidate in 50 is clear, so some points take more than 100
    # doubles and some streams end with CurveError after 200 candidates
    from faylab.curves import CurveError
    from faylab.kernels import sample_points
    from faylab.rng import Table
    ctx = build_context(cid)
    if half is not None:
        e1 = ctx.curve.branch_points[1]
        monkeypatch.setattr(ctx.curve, "box", (e1.real, e1.imag, half, half))
    table = Table(3, "pin|points", range(40))
    pts, errors = sample_points(ctx, table.take, np.arange(40), 4)
    failed = 0
    for k in range(40):
        rng = trial_rng(3, "pin|points", k)
        try:
            want = scalar_points(ctx, rng, 4)
        except CurveError as ex:
            failed += 1
            assert isinstance(errors[k], CurveError) and errors[k].args == ex.args
            continue
        assert k not in errors and pts[k].tobytes() == want.tobytes()
        assert table.take(np.array([k]), 1)[0, 0] == rng.random()
    assert (failed > 0) == (half is not None) and failed < 40


def test_sample_point_clearance():
    # one clearance test per draw: within 0.04 min_gap of a branch point
    # the draw is redrawn, and within 1e-6 (below 0.04 min_gap only when
    # min_gap < 2.5e-5) the sheet is drawn and the point refused
    from types import SimpleNamespace
    from faylab.curves import CurveError, HyperellipticCurve, PathTooCloseToBranchPoint
    c = HyperellipticCurve([0.0, 1e-5, 1.0])
    ctx = SimpleNamespace(curve=c)
    half_r, half_i = 0.5 + c.min_gap, c.min_gap

    class Scripted:
        """Uniform draws that put x at the given points, then a sheet draw."""
        def __init__(self, *xs):
            self.draws = [d for x in xs for d in (0.5 * ((x.real - 0.5) / (1.6 * half_r) + 1),
                                                  0.5 * (x.imag / (1.6 * half_i) + 1))]
            self.draws.append(0.25)

        def random(self, size):
            return np.reshape([self.draws.pop(0) for _ in range(np.prod(size))], size)

    rng = Scripted(1 + 1e-7j, 1 + 2e-6j)
    p = sample_point(ctx, rng)
    assert rng.draws == [] and p[1] == 1 and abs(p[0] - (1 + 2e-6j)) < 1e-12
    rng = Scripted(1 + 3e-7j, 1 + 5e-7j)
    with pytest.raises(PathTooCloseToBranchPoint):
        sample_point(ctx, rng)
    assert rng.draws == []
    # a point's 200th candidate is its last: 199 too close and one clear
    # give the clear one, 200 too close a CurveError
    rng = Scripted(*[1 + 1e-7j] * 199, 0.5 + 0j)
    assert sample_point(ctx, rng)[0].real == pytest.approx(0.5) and rng.draws == []
    rng = Scripted(*[1 + 1e-7j] * 200, 0.5 + 0j)
    with pytest.raises(CurveError, match="could not sample"):
        sample_point(ctx, rng)
    assert len(rng.draws) == 3
