import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faylab.theta import (RiemannMatrix, ThetaChar, theta, theta_batch,
                          theta_gradient, truncation_radius, theta_chars,
                          odd_theta_chars, NonPositiveDefinite,
                          ToleranceUnachievable)

from oracles import qseries_theta3, qseries_theta_char, qseries_theta_char_deriv

RM1 = RiemannMatrix([[1j]])
RM2 = RiemannMatrix([[1.0j, 0.3], [0.3, 1.3j]])
RM3 = RiemannMatrix([[1.2j, 0.2, 0.1], [0.2, 1.5j, -0.25], [0.1, -0.25, 1.1j]])
RMS = {1: RM1, 2: RM2, 3: RM3}


def rand_z(rng, g, scale=0.5):
    return scale * (rng.standard_normal(g) + 1j * rng.standard_normal(g))


class TestConstruction:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            RiemannMatrix([[1j, 0.5], [0.2, 1j]])

    def test_rejects_indefinite(self):
        with pytest.raises(NonPositiveDefinite):
            RiemannMatrix([[1j, 0.0], [0.0, -1j]])

    def test_char_entries_validated(self):
        with pytest.raises(ValueError):
            ThetaChar((0.25,), (0.0,))

    def test_char_counts(self):
        for g in (1, 2, 3):
            assert len(theta_chars(g)) == 4**g
            assert len(odd_theta_chars(g)) == 2**(g - 1) * (2**g - 1)

    def test_g1_odd_char(self):
        (c,) = odd_theta_chars(1)
        assert c == ThetaChar((0.5,), (0.5,))


class TestValues:
    def test_theta3_at_zero(self):
        val = theta([0.0], RM1, tol=1e-12).value
        assert abs(val - qseries_theta3(0.0, 1j)) < 1e-10
        assert abs(val - 1.08643481121331) < 1e-11

    def test_odd_char_vanishes(self):
        for g in (1, 2, 3):
            z = np.zeros(g)
            for ch in odd_theta_chars(g)[:4]:
                assert abs(theta(z, RMS[g], ch).value) < 1e-12

    def test_g1_char_series_match(self):
        rng = np.random.default_rng(0)
        for ch in theta_chars(1):
            for _ in range(5):
                z = complex(rand_z(rng, 1)[0])
                mine = theta([z], RM1, ch, tol=1e-12).value
                ref = qseries_theta_char(ch.a[0], ch.b[0], z, 1j)
                assert abs(mine - ref) < 1e-12 * max(1.0, abs(ref))

    def test_tail_bound_below_tol(self):
        tv = theta(np.array([0.1 + 0.2j, -0.3 + 0.1j]), RM2, tol=1e-10)
        assert tv.tail_bound < 1e-10

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            theta([0.0], RM1, tol=1e-2)


class TestParity:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_parity_random(self, g):
        rng = np.random.default_rng(g)
        rm = RMS[g]
        chars = theta_chars(g)
        for _ in range(100):
            z = rand_z(rng, g)
            ch = chars[rng.integers(0, len(chars))]
            tp = theta(z, rm, ch, tol=1e-12).value
            tm = theta(-z, rm, ch, tol=1e-12).value
            sign = -1.0 if ch.parity else 1.0
            assert abs(tm - sign * tp) < 1e-10 * max(abs(tp), 1e-3)


class TestQuasiPeriodicity:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_lattice_shift(self, g):
        rng = np.random.default_rng(10 + g)
        rm = RMS[g]
        for _ in range(25):
            z = rand_z(rng, g)
            m = rng.integers(-2, 3, g).astype(float)
            n = rng.integers(-2, 3, g).astype(float)
            lhs = theta(z + rm.omega @ m + n, rm, tol=1e-12).value
            fac = np.exp(-1j * np.pi * m @ rm.omega @ m - 2j * np.pi * m @ z)
            rhs = fac * theta(z, rm, tol=1e-12).value
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_char_shift(self):
        # with characteristics the factor gains exp(2 pi i (a.n - m.(b)))
        rng = np.random.default_rng(5)
        rm = RM2
        ch = ThetaChar((0.5, 0.0), (0.0, 0.5))
        for _ in range(10):
            z = rand_z(rng, 2)
            m = rng.integers(-2, 3, 2).astype(float)
            n = rng.integers(-2, 3, 2).astype(float)
            lhs = theta(z + rm.omega @ m + n, rm, ch, tol=1e-12).value
            a, b = np.array(ch.a), np.array(ch.b)
            fac = np.exp(2j * np.pi * (a @ n) - 2j * np.pi * m @ (z + b)
                         - 1j * np.pi * m @ rm.omega @ m)
            rhs = fac * theta(z, rm, ch, tol=1e-12).value
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)


class TestGradient:
    def test_even_char_zero_gradient(self):
        for g in (1, 2, 3):
            grad = theta_gradient(np.zeros(g), RMS[g], tol=1e-12)
            assert np.abs(grad).max() < 1e-12

    def test_matches_finite_differences_g2(self):
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(10):
            z = rand_z(rng, 2)
            grad = theta_gradient(z, RM2, tol=1e-12)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (theta(z + e, RM2, tol=1e-12).value
                      - theta(z - e, RM2, tol=1e-12).value) / (2 * h)
                denom = max(abs(grad[i]), np.abs(grad).max())
                assert abs(grad[i] - fd) < 1e-6 * denom

    def test_odd_g1_derivative_against_series(self):
        ch = ThetaChar((0.5,), (0.5,))
        grad = theta_gradient(np.zeros(1), RM1, ch, tol=1e-12)[0]
        ref = qseries_theta_char_deriv(0.5, 0.5, 0.0, 1j)
        assert abs(grad) > 0.1
        assert abs(grad - ref) < 1e-10 * abs(ref)


class TestTruncation:
    def test_self_refinement(self):
        R = truncation_radius(RM1, 1e-10)
        v1 = theta([0.3 + 0.1j], RM1, tol=1e-10).value
        v2 = theta([0.3 + 0.1j], RM1, tol=1e-14).value
        assert abs(v1 - v2) < 1e-12 * abs(v2)
        assert R > 0

    def test_monotone_in_tol(self):
        for rm in (RM1, RM2, RM3):
            assert truncation_radius(rm, 1e-6) <= truncation_radius(rm, 1e-12)

    def test_scaling_shrinks_radius(self):
        rm_scaled = RiemannMatrix(4.0 * RM1.omega)
        assert truncation_radius(rm_scaled, 1e-10) <= truncation_radius(RM1, 1e-10)

    def test_refinement_stability(self):
        z = [0.2 + 0.3j]
        prev = theta(z, RM1, tol=1e-6).value
        for tol in (5e-7, 2.5e-7, 1e-8):
            cur = theta(z, RM1, tol=tol).value
            assert abs(cur - prev) < 2e-6
            prev = cur

    def test_terms_cap(self):
        with pytest.raises(ToleranceUnachievable):
            truncation_radius(RiemannMatrix([[1e-4j]]), 1e-10, max_terms=100)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_parity_property(seed):
    rng = np.random.default_rng(seed)
    g = int(rng.integers(1, 4))
    rm = RMS[g]
    chars = theta_chars(g)
    ch = chars[rng.integers(0, len(chars))]
    z = rand_z(rng, g)
    tp = theta(z, rm, ch, tol=1e-12).value
    tm = theta(-z, rm, ch, tol=1e-12).value
    sign = -1.0 if ch.parity else 1.0
    assert abs(tm - sign * tp) < 1e-10 * max(abs(tp), 1e-3)


def box_sum(rm, char, z, R):
    """theta[char](z) summed term by term over every n in the bounding box
    of the truncation ellipsoid of radius R about the series' centre."""
    a, b = np.array(char.a), np.array(char.b)
    centre = a + rm.imag_inv @ z.imag
    ext = R * np.sqrt(np.diag(np.linalg.inv(np.pi * rm.imag)))
    axes = [np.arange(np.floor(-c - e), np.ceil(-c + e) + 1)
            for c, e in zip(centre, ext)]
    na = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], -1) + a
    quad = np.einsum("ij,ij->i", na @ rm.omega, na)
    return np.exp(1j * np.pi * quad + 2j * np.pi * (na @ (z + b))).sum()


cell = st.floats(min_value=-0.49, max_value=0.49)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=st.integers(min_value=1, max_value=3), data=st.data())
def test_tail_bound_certifies_truncation(g, data):
    # z = alpha + Omega beta in the fundamental cell is its own reduced
    # argument, so the certified bound scales by exp(pi y' Im(Omega)^-1 y)
    rm = RMS[g]
    alpha = np.array(data.draw(st.lists(cell, min_size=g, max_size=g)))
    beta = np.array(data.draw(st.lists(cell, min_size=g, max_size=g)))
    char = data.draw(st.sampled_from(theta_chars(g)))
    tol = data.draw(st.sampled_from([1e-3, 1e-5, 1e-7, 1e-9]))
    z = alpha + rm.omega @ beta
    vals, _, R, tails = theta_batch(z[None, :], rm, char, tol=tol)
    scale = np.exp(np.pi * z.imag @ rm.imag_inv @ z.imag)
    assert abs(vals[0] - box_sum(rm, char, z, R + 3)) <= tails[0] * scale


def test_batch_matches_single():
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((6, 2)) * 0.4 + 1j * rng.standard_normal((6, 2)) * 0.3
    vals, grads, _, tails = theta_batch(Z, RM2, tol=1e-12, gradient=True)
    for k in range(6):
        tv = theta(Z[k], RM2, tol=1e-12, gradient=True)
        assert abs(vals[k] - tv.value) < 1e-12 * max(1.0, abs(tv.value))
        assert np.abs(grads[k] - tv.gradient).max() < 1e-10
