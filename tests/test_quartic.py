import numpy as np
import pytest

from faylab.quartic import (PlaneQuartic, QuarticPoint, line_section, form_value,
                            eta_prime, check_canprop, check_cor2, ratio_r,
                            reconstruct_tangent_coords, projective_distance,
                            chart_of, canprop_residual, cor2_residual,
                            ratio_dual_residual, tangent_reconstruction_residual,
                            reconstruct_synthetic_residual, _random_form,
                            _random_quadric, _form_through,
                            TangentOrSingularLine, DegenerateForm, NotSmooth,
                            NotAZero, DegenerateRatios)
from faylab.rng import trial_rng


class TestLineSection:
    def test_fermat_coordinate_line(self, fermat):
        # X2 = 0 meets the Fermat quartic where u^4 = -1
        pts = line_section(fermat, [0.0, 0.0, 1.0])
        assert len(pts) == 4
        for p in pts:
            lift, _ = QuarticPoint(p.lift).normalized()
            assert abs(lift[2]) < 1e-12
            assert abs(fermat.value(p.lift)) < 1e-10 * np.linalg.norm(p.lift)**4
            ratio = p.lift[1] / p.lift[0]
            assert abs(ratio**4 + 1.0) < 1e-10

    def test_random_lines_on_curve(self, quartic_generic):
        rng = np.random.default_rng(0)
        for _ in range(10):
            l = _random_form(rng)
            pts = line_section(quartic_generic, l)
            for p in pts:
                nrm = np.linalg.norm(p.lift)
                assert abs(quartic_generic.value(p.lift)) < 1e-10 * nrm**4
                assert abs(np.asarray(l) @ p.lift) < 1e-9 * nrm * np.linalg.norm(l)

    def test_tangent_line_rejected(self, fermat):
        rng = np.random.default_rng(1)
        pts = line_section(fermat, _random_form(rng))
        P = pts[0].lift
        tangent = fermat.grad(P)          # the tangent line at P
        with pytest.raises(TangentOrSingularLine):
            line_section(fermat, tangent)

    def test_zero_form_rejected(self, fermat):
        with pytest.raises(DegenerateForm):
            line_section(fermat, [0.0, 0.0, 0.0])

    def test_smoothness_probe_rejects_singular(self):
        # X0^2 X1^2 is a repeated pair of lines: every probe line meets it
        # in double points
        with pytest.raises(NotSmooth):
            PlaneQuartic({(2, 2, 0): 1.0}, probes=50)


class TestForms:
    def test_vanishing_form(self, fermat):
        rng = np.random.default_rng(2)
        pts = line_section(fermat, _random_form(rng))
        P = pts[0]
        m = _form_through(rng, [P.lift])
        assert abs(form_value(fermat, m, P)) < 1e-9

    def test_linearity_in_m(self, fermat):
        rng = np.random.default_rng(3)
        pts = line_section(fermat, _random_form(rng))
        P = pts[0]
        m = _random_form(rng)
        c = 2.0 - 1.3j
        assert abs(form_value(fermat, c * m, P) - c * form_value(fermat, m, P)) \
            < 1e-14 * abs(form_value(fermat, m, P))

    def test_chart_covariance(self, quartic_generic):
        # the same 1-form evaluated through two charts transforms by the
        # Jacobian du_beta/du_alpha computed by implicit differentiation
        C4 = quartic_generic
        rng = np.random.default_rng(4)
        found = 0
        for _ in range(40):
            pts = line_section(C4, _random_form(rng))
            for P in pts:
                lift, alpha = P.normalized()
                g = C4.grad(lift)
                others = [i for i in range(3) if i != alpha]
                # try the chart with the other admissible pivot
                vpos = max(others, key=lambda i: abs(g[i]))
                upos = [i for i in others if i != vpos][0]
                if abs(g[upos]) < 0.3 * abs(g[vpos]):
                    continue
                m = _random_form(rng)
                val1 = form_value(C4, m, P)      # default chart (upos, vpos)
                # forced swapped chart: v' = upos, u' = vpos
                from faylab.quartic import _chart_parity
                par = _chart_parity(alpha, vpos, upos)
                val2 = par * (m @ lift) / g[upos]
                # du'/du along the curve: u' = X_vpos coordinate, so
                # du'/du = v'(u) = -F_u/F_v in the default chart
                jac = -g[upos] / g[vpos]
                assert abs(val1 - val2 * jac) < 1e-9 * abs(val1)
                found += 1
                break
            if found >= 5:
                break
        assert found >= 5

    def test_eta_prime_requires_zero(self, fermat):
        rng = np.random.default_rng(5)
        pts = line_section(fermat, _random_form(rng))
        P = QuarticPoint(pts[0].normalized()[0])
        with pytest.raises(NotAZero):
            eta_prime(fermat, _random_form(rng), P)

    def test_eta_prime_scaling(self, fermat):
        rng = np.random.default_rng(6)
        l = _random_form(rng)
        pts = line_section(fermat, l)
        P = QuarticPoint(pts[0].normalized()[0])
        v1 = eta_prime(fermat, l, P)
        v2 = eta_prime(fermat, 3.5j * l, P)
        assert abs(v2 - 3.5j * v1) < 1e-12 * abs(v1)

    def test_eta_prime_finite_difference(self, quartic_generic):
        # derivative of the adjoint coefficient along the curve
        C4 = quartic_generic
        rng = np.random.default_rng(7)
        l = _random_form(rng)
        pts = line_section(C4, l)
        lift, alpha = pts[0].normalized()
        P = QuarticPoint(lift)
        a, upos, vpos = chart_of(C4, P)
        val = eta_prime(C4, l, P)
        # walk along the curve in u, solving v by Newton
        h = 1e-6
        def eta_at(du):
            X = lift.copy()
            X[upos] += du
            for _ in range(60):
                F = C4.value(X)
                X[vpos] -= F / C4.grad(X)[vpos]
                if abs(C4.value(X)) < 1e-14:
                    break
            return form_value(C4, l, QuarticPoint(X))
        fd = (eta_at(h) - eta_at(-h)) / (2 * h)
        assert abs(val - fd) < 1e-7 * abs(val)


class TestCanprop:
    def test_divisible_quadric_exact_zero(self, fermat):
        rng = np.random.default_rng(8)
        l = _random_form(rng)
        m = _random_form(rng)
        Q = 0.5 * (np.outer(l, m) + np.outer(m, l))
        abs_r, rel_r = check_canprop(fermat, l, Q)
        assert abs_r < 1e-12

    def test_fermat(self, fermat):
        worst = 0.0
        for trial in range(50):
            rng = trial_rng(11, "canprop", trial)
            worst = max(worst, canprop_residual(fermat, rng)[1])
        assert worst < 1e-9

    def test_generic(self, quartic_generic):
        worst = 0.0
        for trial in range(25):
            rng = trial_rng(11, "canprop-g", trial)
            worst = max(worst, canprop_residual(quartic_generic, rng)[1])
        assert worst < 1e-8

    def test_invariant_under_adding_l_multiple(self, fermat):
        rng = np.random.default_rng(9)
        l = _random_form(rng)
        Q = _random_quadric(rng)
        m = _random_form(rng)
        shift = 0.5 * (np.outer(l, m) + np.outer(m, l))
        r1 = check_canprop(fermat, l, Q)
        r2 = check_canprop(fermat, l, Q + shift)
        assert abs(r1[0] - r2[0]) < 1e-12 * max(1.0, r1[0])


class TestCor2:
    def test_fermat(self, fermat):
        worst = 0.0
        for trial in range(30):
            rng = trial_rng(12, "cor2", trial)
            worst = max(worst, cor2_residual(fermat, rng)[1])
        assert worst < 1e-9

    def test_generic(self, quartic_generic):
        worst = 0.0
        for trial in range(15):
            rng = trial_rng(12, "cor2-g", trial)
            worst = max(worst, cor2_residual(quartic_generic, rng)[1])
        assert worst < 1e-8

    def test_m_equal_l_collapses(self, fermat):
        # every term carries l(P)^2 ~ roundoff^2
        rng = np.random.default_rng(10)
        l = _random_form(rng)
        abs_r, rel_r = check_cor2(fermat, l, l, l)
        assert abs_r < 1e-20


class TestRatio:
    def test_dual_computation(self, fermat):
        worst = 0.0
        for trial in range(50):
            rng = trial_rng(13, "ratio", trial)
            worst = max(worst, ratio_dual_residual(fermat, rng)[1])
        assert worst < 1e-9

    def test_swap_divisor_labels(self, fermat):
        # r is a symmetric product over D1, D2: label order cannot matter,
        # which holds structurally (the product runs over the set)
        rng = np.random.default_rng(14)
        l = _random_form(rng)
        pts = line_section(fermat, l)
        r1, _ = ratio_r(fermat, pts[0].lift, pts[1].lift, l)
        r2, _ = ratio_r(fermat, pts[0].lift, pts[1].lift, l)
        assert r1 == r2

    def test_lift_rescaling_law(self, fermat):
        rng = np.random.default_rng(15)
        l = _random_form(rng)
        pts = line_section(fermat, l)
        x, y = pts[0].lift, pts[1].lift
        r0, t0 = ratio_r(fermat, x, y, l)
        c, cp = 1.7 - 0.3j, -0.6 + 1.1j
        r1, t1 = ratio_r(fermat, c * x, cp * y, l)
        law = (cp**2 / c**2)
        assert abs(r1 - law * r0) < 1e-10 * abs(r1)
        assert abs(t1 - law * t0) < 1e-10 * abs(t1)


class TestReconstruction:
    def test_length_one(self):
        assert reconstruct_tangent_coords([1.0], [2.0]) == [1.0 + 0.0j]

    def test_synthetic_oracle_length5(self):
        worst = 0.0
        for trial in range(40):
            rng = trial_rng(16, "synth", trial)
            worst = max(worst, reconstruct_synthetic_residual(rng)[1])
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
            worst = max(worst, tangent_reconstruction_residual(C4, rng)[1])
        assert worst < 1e-8
