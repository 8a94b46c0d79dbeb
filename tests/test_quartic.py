import numpy as np
import pytest

from faylab.quartic import (MONOMIALS, PlaneQuartic, _restrict, line_section, l_of_v,
                            residue_sum, ratio_r, reconstruct_tangent_coords,
                            projective_distance, TangentOrSingularLine,
                            DegenerateForm, NotSmooth, NotAZero, HigherOrderZero,
                            DegenerateRatios, QuarticError)
from faylab.registry import registry_entries
from faylab.rng import trial_rng

from conftest import one_trial
from oracles import section_tensor, tensor_gradient


def _random_form(rng):
    return rng.standard_normal(3) + 1j * rng.standard_normal(3)


def _random_quadric(rng):
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return 0.5 * (M + M.T)


def _monomial_sum(coefficients, X):
    return sum(c * X[0]**i * X[1]**j * X[2]**k
               for (i, j, k), c in coefficients.items())


def _monomial_grad(coefficients, X):
    g = np.zeros(3, dtype=complex)
    for e, c in coefficients.items():
        for a in range(3):
            if e[a]:
                d = list(e)
                d[a] -= 1
                g[a] += e[a] * c * X[0]**d[0] * X[1]**d[1] * X[2]**d[2]
    return g


@pytest.mark.parametrize("cid", ["fermat", "quartic-generic"])
def test_tensor_matches_monomial_sum(cid):
    coefficients = registry_entries()[cid]["coefficients"]
    C4 = PlaneQuartic(coefficients, cid)
    rng = np.random.default_rng(21)
    for _ in range(10):
        X, l = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        F = _monomial_sum(coefficients, X)
        assert abs(C4.value(X) - F) < 1e-13 * np.linalg.norm(X)**4
        g = _monomial_grad(coefficients, X)
        assert np.abs(C4.grad(X) - g).max() < 1e-13 * np.linalg.norm(X)**3
        # the line restriction of T: its section points are zeros of the
        # monomial sum
        for p in line_section(C4, [l])[0]:
            assert abs(_monomial_sum(coefficients, p)) < 1e-12 * np.linalg.norm(p)**4


#: the Klein quartic X0^3 X1 + X1^3 X2 + X2^3 X0, smooth
KLEIN = {(3, 1, 0): 1.0, (0, 3, 1): 1.0, (1, 0, 3): 1.0}


def _coefficients(cid):
    """A registry quartic's coefficients, Klein's, or for "random-i" the
    i-th of five seeded complex-normal quartics."""
    if cid.startswith("random-"):
        c = np.random.default_rng(37).standard_normal((5, len(MONOMIALS), 2)) @ [1, 1j]
        return dict(zip(MONOMIALS, c[int(cid[7:])]))
    return KLEIN if cid == "klein" else registry_entries()[cid]["coefficients"]


@pytest.mark.parametrize("cid", ["fermat", "quartic-generic", "klein"]
                         + [f"random-{i}" for i in range(5)])
def test_contractions_match_the_one_einsum_references(cid):
    # the line restriction and the gradient, contracted one index at a
    # time, against one einsum over all of T's indices, on 200 random
    # (u, v) pairs and 200 x 4 random lifts, within 1e-14 of each row's
    # largest entry
    C4 = PlaneQuartic(_coefficients(cid), cid)
    rng = np.random.default_rng(41)
    W, X = (rng.standard_normal((200, m, 3, 2)) @ [1, 1j] for m in (2, 4))
    for got, want, n in ((_restrict(C4.T, W), section_tensor(C4.T, W), 16),
                         (C4.grad(X), tensor_gradient(C4.T, X), 3),
                         (C4.grad(X[0, 0]), tensor_gradient(C4.T, X[0, 0]), 3)):
        assert got.shape == want.shape
        got, want = got.reshape(-1, n), want.reshape(-1, n)
        assert (np.abs(got - want).max(axis=1) <= 1e-14 * np.abs(want).max(axis=1)).all()


class TestLineSection:
    def test_fermat_coordinate_line(self, fermat):
        # X2 = 0 meets the Fermat quartic where u^4 = -1
        pts, = line_section(fermat, [[0.0, 0.0, 1.0]])
        assert len(pts) == 4
        for p in pts:
            assert abs(p[2]) < 1e-12 * np.abs(p).max()
            assert abs(fermat.value(p)) < 1e-10 * np.linalg.norm(p)**4
            ratio = p[1] / p[0]
            assert abs(ratio**4 + 1.0) < 1e-10

    def test_random_lines_on_curve(self, quartic_generic):
        rng = np.random.default_rng(0)
        for _ in range(10):
            l = _random_form(rng)
            pts, = line_section(quartic_generic, [l])
            for p in pts:
                nrm = np.linalg.norm(p)
                assert abs(quartic_generic.value(p)) < 1e-10 * nrm**4
                assert abs(np.asarray(l) @ p) < 1e-9 * nrm * np.linalg.norm(l)

    def test_tangent_line_rejected(self, fermat):
        rng = np.random.default_rng(1)
        P = line_section(fermat, [_random_form(rng)])[0, 0]
        tangent = fermat.grad(P)          # the tangent line at P
        with pytest.raises(TangentOrSingularLine):
            line_section(fermat, [tangent])

    def test_zero_form_rejected(self, fermat):
        with pytest.raises(DegenerateForm):
            line_section(fermat, [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("cid", ["fermat", "quartic-generic", "klein"])
    def test_rows_do_not_depend_on_their_batch(self, cid):
        # row k of a batch of lines, and of their l(v_P), has the bits of
        # line k alone.  The Klein quartic X0^3 X1 + X1^3 X2 + X2^3 X0 and
        # l = (1, 0, 0.5) have basis point u = (0, 1, 0) on the curve: the
        # leading coefficient is exactly 0, and u is the 4th point.  With
        # l = (1, 0.5, 0) the other basis point v = (0, 0, 1) is on it: the
        # trailing coefficient is exactly 0, and the roots are np.roots'
        C4 = PlaneQuartic(_coefficients(cid), cid)
        rng = np.random.default_rng(31)
        L = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        if cid == "klein":
            L[17], L[23] = [1.0, 0.0, 0.5], [1.0, 0.5, 0.0]
        pts = line_section(C4, L)
        mu = l_of_v(C4, np.repeat(L, 4, axis=0), pts.reshape(-1, 3)).reshape(-1, 4)
        for k, l in enumerate(L):
            alone = line_section(C4, [l])
            assert alone.tobytes() == pts[k:k + 1].tobytes()
            assert l_of_v(C4, [l] * 4, alone[0]).tobytes() == mu[k].tobytes()
        assert (np.abs(C4.value(pts)) < 1e-10 * np.linalg.norm(pts, axis=-1)**4).all()
        if cid == "klein":
            assert np.array_equal(pts[17, 3], [0, 1, 0])
            # u = (-0.5, 1, 0) and F(s u + t v) = -s^4 / 8 + s^3 t - s t^3 / 2,
            # so X1 is lam: np.roots' order, root 0 (the point v) last
            c = np.array([-0.125, 1, 0, -0.5, 0], dtype=complex)
            lam = np.roots(c)
            lam = lam - np.polyval(c, lam) / np.polyval(np.polyder(c), lam)
            assert pts[23, :, 1].tobytes() == lam.tobytes()
            assert np.array_equal(pts[23, 3], [0, 0, 1])
        # a tangent line anywhere in a batch fails the batch
        L[5] = C4.grad(pts[9, 2])
        with pytest.raises(TangentOrSingularLine):
            line_section(C4, L)

    def test_smoothness_probe_rejects_singular(self):
        # X0^2 X1^2 is a repeated pair of lines: every probe line meets it
        # in double points
        with pytest.raises(NotSmooth):
            PlaneQuartic({(2, 2, 0): 1.0})


class TestForms:
    def test_l_of_v_finite_difference(self, quartic_generic):
        # chart reference: with alpha the largest coordinate of P and
        # (alpha, u, v) a chart with F_v != 0, walk along the curve in X_u
        # (X_alpha = 1, X_v by Newton) and differentiate the adjoint
        # coefficient l / F_v; then l(v_P) = parity * P_alpha^2 * F_v^2 *
        # d(l / F_v)/du.  Both charts of every section point must agree
        # with the chart-free l_of_v.
        C4 = quartic_generic
        rng = np.random.default_rng(7)
        l = _random_form(rng)
        h = 1e-6
        charts = 0
        for P in line_section(C4, [l])[0]:
            alpha = int(np.argmax(np.abs(P)))
            lift = P / P[alpha]
            g = C4.grad(lift)
            others = [i for i in range(3) if i != alpha]
            val = l_of_v(C4, l, P)
            for upos, vpos in (others, others[::-1]):
                if abs(g[vpos]) < 0.3 * max(abs(g[i]) for i in others):
                    continue
                def coeff_at(du):
                    X = lift.copy()
                    X[upos] += du
                    for _ in range(60):
                        X[vpos] -= C4.value(X) / C4.grad(X)[vpos]
                        if abs(C4.value(X)) < 1e-14:
                            break
                    return (l @ X) / C4.grad(X)[vpos]
                fd = (coeff_at(h) - coeff_at(-h)) / (2 * h)
                parity = 1.0 if upos == (alpha + 1) % 3 else -1.0
                ref = parity * P[alpha]**2 * g[vpos]**2 * fd
                assert abs(val - ref) < 1e-7 * abs(val)
                charts += 1
        assert charts >= 6

    def test_l_of_v_requires_zero(self, fermat):
        rng = np.random.default_rng(5)
        pts, = line_section(fermat, [_random_form(rng)])
        with pytest.raises(NotAZero):
            l_of_v(fermat, _random_form(rng), pts[0])

    def test_l_of_v_scaling(self, fermat):
        rng = np.random.default_rng(6)
        l = _random_form(rng)
        P = line_section(fermat, [l])[0, 0]
        v1 = l_of_v(fermat, l, P)
        v2 = l_of_v(fermat, 3.5j * l, P)
        assert abs(v2 - 3.5j * v1) < 1e-12 * abs(v1)

    def test_l_of_v_lift_rescaling(self, quartic_generic):
        rng = np.random.default_rng(19)
        l = _random_form(rng)
        c = 1.7 - 0.3j
        for P in line_section(quartic_generic, [l])[0]:
            v1 = l_of_v(quartic_generic, l, P)
            v2 = l_of_v(quartic_generic, l, c * P)
            assert abs(v2 - c**2 * v1) < 1e-12 * abs(v2)

    def test_tangent_form_is_higher_order_zero(self, fermat):
        # the tangent line grad F(P) meets the curve at P to second order
        rng = np.random.default_rng(20)
        P = line_section(fermat, [_random_form(rng)])[0, 0]
        with pytest.raises(HigherOrderZero):
            l_of_v(fermat, fermat.grad(P), P)

    def test_batch_matches_rows(self, quartic_generic):
        l = _random_form(np.random.default_rng(22))
        pts, = line_section(quartic_generic, [l])
        batch = l_of_v(quartic_generic, l, pts)
        assert batch.shape == (4,)
        for P, mu in zip(pts, batch):
            assert abs(l_of_v(quartic_generic, l, P) - mu) <= 1e-14 * abs(mu)

    def test_one_bad_row_fails_the_batch(self, fermat):
        # a batch raises if any one of its rows would
        rng = np.random.default_rng(23)
        l = _random_form(rng)
        pts, = line_section(fermat, [l])
        l_of_v(fermat, l, pts)
        off = pts.copy()
        off[2] = line_section(fermat, [_random_form(rng)])[0, 0]
        with pytest.raises(NotAZero):
            l_of_v(fermat, l, off)
        # the tangent line at P meets the curve doubly at P and simply at
        # two other points P + s Q, Q = t x P, for the roots s of
        # F(P + s Q) / s^2
        P = pts[1]
        t = fermat.grad(P)
        Q = np.cross(t, P)
        s = np.exp(2j * np.pi * np.arange(5) / 5)
        c = np.linalg.solve(np.vander(s, 5), fermat.value(P + s[:, None] * Q))
        simple = [P + r * Q for r in np.roots(c[:3])]
        assert min(projective_distance(simple, P)) > 1e-3
        l_of_v(fermat, t, simple)
        with pytest.raises(HigherOrderZero):
            l_of_v(fermat, t, [simple[0], P, simple[1]])


def _canprop(C4, l, Q):
    pts, = line_section(C4, [l])
    return residue_sum(np.einsum("ia,ab,ib->i", pts, Q, pts), l_of_v(C4, l, pts))


class TestCanprop:
    def test_divisible_quadric_exact_zero(self, fermat):
        rng = np.random.default_rng(8)
        l = _random_form(rng)
        m = _random_form(rng)
        Q = 0.5 * (np.outer(l, m) + np.outer(m, l))
        abs_r, rel_r = _canprop(fermat, l, Q)
        assert abs_r < 1e-12

    def test_fermat(self, fermat):
        worst = 0.0
        for trial in range(50):
            rng = trial_rng(11, "canprop", trial)
            worst = max(worst, one_trial("canprop", fermat, rng)[1])
        assert worst < 1e-9

    def test_generic(self, quartic_generic):
        worst = 0.0
        for trial in range(25):
            rng = trial_rng(11, "canprop-g", trial)
            worst = max(worst, one_trial("canprop", quartic_generic, rng)[1])
        assert worst < 1e-8

    def test_invariant_under_adding_l_multiple(self, fermat):
        rng = np.random.default_rng(9)
        l = _random_form(rng)
        Q = _random_quadric(rng)
        m = _random_form(rng)
        shift = 0.5 * (np.outer(l, m) + np.outer(m, l))
        r1 = _canprop(fermat, l, Q)
        r2 = _canprop(fermat, l, Q + shift)
        assert abs(r1[0] - r2[0]) < 1e-12 * max(1.0, r1[0])


class TestCor2:
    def test_fermat(self, fermat):
        worst = 0.0
        for trial in range(30):
            rng = trial_rng(12, "cor2", trial)
            worst = max(worst, one_trial("cor2_three_term", fermat, rng)[1])
        assert worst < 1e-9

    def test_generic(self, quartic_generic):
        worst = 0.0
        for trial in range(15):
            rng = trial_rng(12, "cor2-g", trial)
            worst = max(worst, one_trial("cor2_three_term", quartic_generic, rng)[1])
        assert worst < 1e-8

    def test_m_equal_l_collapses(self, fermat):
        # every term carries l(P)^2 ~ roundoff^2
        rng = np.random.default_rng(10)
        l = _random_form(rng)
        pts = line_section(fermat, [l])[0, :3]
        abs_r, rel_r = residue_sum((pts @ l)**2, l_of_v(fermat, l, pts))
        assert abs_r < 1e-20


class TestRatio:
    def test_dual_computation(self, fermat):
        worst = 0.0
        for trial in range(50):
            rng = trial_rng(13, "ratio", trial)
            worst = max(worst, one_trial("ratio_dual", fermat, rng)[1])
        assert worst < 1e-9

    def test_swap_divisor_labels(self, fermat):
        # r is a symmetric product over D1, D2: label order cannot matter
        rng = np.random.default_rng(14)
        l = _random_form(rng)
        pts, = line_section(fermat, [l])
        r1 = ratio_r(l, pts[[2, 3]], pts[0], pts[1])
        r2 = ratio_r(l, pts[[3, 2]], pts[0], pts[1])
        assert r1 == r2

    def test_matches_line_coordinates(self, quartic_generic):
        # det(l, D, s u + t v) = -(s t_D - t s_D) det(l, u, v): the ratio of
        # determinants is the ratio of binary forms in line coordinates
        rng = np.random.default_rng(24)
        for _ in range(10):
            l = _random_form(rng)
            pts, = line_section(quartic_generic, [l])
            c = [2.0 - 1j, 0.3 + 0.8j]
            x, y = c[0] * pts[0], c[1] * pts[1]
            uv = np.linalg.svd(l[None])[2][1:].conj().T     # a basis of {l = 0}
            sx, sy, *sD = [np.linalg.lstsq(uv, p, rcond=None)[0]
                           for p in (x, y, *pts[2:])]
            def forms(s):
                return np.prod([s[0] * d[1] - s[1] * d[0] for d in sD])
            r = ratio_r(l, pts[2:], x, y)
            assert abs(r - forms(sy) / forms(sx)) < 1e-12 * abs(r)

    def test_lift_rescaling_law(self, fermat):
        rng = np.random.default_rng(15)
        l = _random_form(rng)
        pts, = line_section(fermat, [l])
        x, y = pts[0], pts[1]
        c, cp = 1.7 - 0.3j, -0.6 + 1.1j
        law = (cp**2 / c**2)
        r0 = ratio_r(l, pts[2:], x, y)
        r1 = ratio_r(l, pts[2:], c * x, cp * y)
        assert abs(r1 - law * r0) < 1e-10 * abs(r1)
        t0 = -l_of_v(fermat, l, y) / l_of_v(fermat, l, x)
        t1 = -l_of_v(fermat, l, cp * y) / l_of_v(fermat, l, c * x)
        assert abs(t1 - law * t0) < 1e-10 * abs(t1)


class TestReconstruction:
    def test_length_one(self):
        assert reconstruct_tangent_coords([1.0], [2.0]) == [1.0 + 0.0j]

    def test_synthetic_oracle_length5(self):
        worst = 0.0
        for trial in range(40):
            rng = trial_rng(16, "synth", trial)
            worst = max(worst, one_trial("reconstruct_synthetic", None, rng)[1])
        assert worst < 1e-10

    def test_two_point_formula_algebra(self):
        # (l0(v):l1(v)) = ((c1-d)/(d-c0) : 1) for honest ratio data
        rng = np.random.default_rng(17)
        for _ in range(20):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c0, c1 = -v[0] / u[0], -v[1] / u[1]
            d = -(v[0] + v[1]) / (u[0] + u[1])
            recon = np.array([(c1 - d) / (d - c0), 1.0])
            assert projective_distance(recon, u) < 1e-10

    def test_degenerate_ratios_raise(self):
        with pytest.raises(DegenerateRatios):
            reconstruct_tangent_coords([1.0, 1.0, 2.0], [1.0, 1.0, 3.0])

    def test_scale_invariance_of_inputs(self):
        rng = np.random.default_rng(18)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = [-v[i] / u[i] for i in range(4)]
        b = [-(v[:i + 1].sum()) / (u[:i + 1].sum()) for i in range(4)]
        c = 2.3 - 0.9j     # rescaling the second lift scales all ratios
        out1 = reconstruct_tangent_coords(a, b)
        out2 = reconstruct_tangent_coords([c * x for x in a], [c * x for x in b])
        assert projective_distance(np.array(out1), np.array(out2)) < 1e-10

    @pytest.mark.parametrize("which", ["fermat", "quartic-generic"])
    def test_geometric_vs_direct(self, which, fermat, quartic_generic):
        C4 = fermat if which == "fermat" else quartic_generic
        worst = 0.0
        for trial in range(30):
            rng = trial_rng(19, f"recon|{which}", trial)
            worst = max(worst, one_trial("tangent_reconstruction", C4, rng)[1])
        assert worst < 1e-8

    def test_second_line_missing_x_is_hard_failure(self, monkeypatch, fermat):
        # x must be among the points of the second line: a second section of
        # another line is a fault of the runner, not a draw to resample
        import faylab.quartic as quartic
        sections = []

        def other_second_line(C4, L):
            sections.append(L)
            return line_section(C4, L.conj() if len(sections) == 2 else L)
        monkeypatch.setattr(quartic, "line_section", other_second_line)
        with pytest.raises(QuarticError, match="does not lie") as info:
            one_trial("tangent_reconstruction", fermat, trial_rng(25, "recon", 0))
        assert not isinstance(info.value, TangentOrSingularLine)

    def test_x_repeated_on_second_line_is_redrawn(self, monkeypatch, fermat):
        # x found twice among the second section is not one simple point
        import faylab.quartic as quartic
        sections = []
        def doubled_x(C4, L):
            pts, = line_section(C4, L)
            sections.append(pts)
            if len(sections) == 2:
                x = sections[0][0]
                pts[np.argmax(projective_distance(pts, x))] = (0.5 + 2j) * x
            return pts[None]
        monkeypatch.setattr(quartic, "line_section", doubled_x)
        with pytest.raises(TangentOrSingularLine, match="not a simple point"):
            one_trial("tangent_reconstruction", fermat, trial_rng(25, "recon", 1))


@pytest.mark.parametrize("name,sections", [
    ("canprop", 1), ("cor2_three_term", 1), ("ratio_dual", 1), ("tangent_reconstruction", 2)],
    ids=["canprop", "cor2", "ratio_dual", "tangent_reconstruction"])
def test_each_line_sectioned_once(monkeypatch, fermat, name, sections):
    # one trial sections each random line once and reads the tangent
    # quantities l(v_P) of all its lines from one batched call
    import faylab.quartic as quartic
    from faylab.identities import IDENTITIES
    calls = {"line_section": 0, "l_of_v": 0}
    for kernel in calls:
        def counted(*args, _fn=getattr(quartic, kernel), _name=kernel):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(quartic, kernel, counted)
    one_trial(name, fermat, trial_rng(42, IDENTITIES[name].runner.__name__, 0))
    assert calls == {"line_section": sections, "l_of_v": 1}
