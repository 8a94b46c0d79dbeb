import importlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faylab.theta import (RiemannMatrix, ThetaChar, theta, theta_batch,
                          theta_gradient, truncation_radius, theta_chars,
                          odd_theta_chars, NonPositiveDefinite,
                          ToleranceUnachievable, THETA_BLOCK, _axis_tables,
                          _lattice, _reduce_arguments, _tail_bound)

from conftest import HYPERELLIPTIC, build_context
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
        val = theta([0.0], RM1, tol=1e-12)
        assert abs(val - qseries_theta3(0.0, 1j)) < 1e-10
        assert abs(val - 1.08643481121331) < 1e-11

    def test_odd_char_vanishes(self):
        for g in (1, 2, 3):
            z = np.zeros(g)
            for ch in odd_theta_chars(g)[:4]:
                assert abs(theta_batch(z, RMS[g], ch)[0][0]) < 1e-12

    def test_g1_char_series_match(self):
        rng = np.random.default_rng(0)
        for ch in theta_chars(1):
            for _ in range(5):
                z = complex(rand_z(rng, 1)[0])
                mine = theta_batch([z], RM1, ch, 1e-12)[0][0]
                ref = qseries_theta_char(ch.a[0], ch.b[0], z, 1j)
                assert abs(mine - ref) < 1e-12 * max(1.0, abs(ref))

    def test_tail_bound_below_tol(self):
        # the bound at the radius a value-only call at tol 1e-10 sums to
        assert _tail_bound(RM2, truncation_radius(RM2, 1e-10), False, 0.0) < 1e-10

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
            tp = theta_batch(z, rm, ch, 1e-12)[0][0]
            tm = theta_batch(-z, rm, ch, 1e-12)[0][0]
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
            lhs = theta(z + rm.omega @ m + n, rm, tol=1e-12)
            fac = np.exp(-1j * np.pi * m @ rm.omega @ m - 2j * np.pi * m @ z)
            rhs = fac * theta(z, rm, tol=1e-12)
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
            lhs = theta_batch(z + rm.omega @ m + n, rm, ch, 1e-12)[0][0]
            a, b = np.array(ch.a), np.array(ch.b)
            fac = np.exp(2j * np.pi * (a @ n) - 2j * np.pi * m @ (z + b)
                         - 1j * np.pi * m @ rm.omega @ m)
            rhs = fac * theta_batch(z, rm, ch, 1e-12)[0][0]
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
                fd = (theta(z + e, RM2, tol=1e-12)
                      - theta(z - e, RM2, tol=1e-12)) / (2 * h)
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
        v1 = theta([0.3 + 0.1j], RM1, tol=1e-10)
        v2 = theta([0.3 + 0.1j], RM1, tol=1e-14)
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
        prev = theta(z, RM1, tol=1e-6)
        for tol in (5e-7, 2.5e-7, 1e-8):
            cur = theta(z, RM1, tol=tol)
            assert abs(cur - prev) < 2e-6
            prev = cur

    def test_terms_cap(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("faylab.theta"),
                            "MAX_LATTICE_TERMS", 100)
        with pytest.raises(ToleranceUnachievable):
            truncation_radius(RiemannMatrix([[1e-4j]]), 1e-10)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_parity_property(seed):
    rng = np.random.default_rng(seed)
    g = int(rng.integers(1, 4))
    rm = RMS[g]
    chars = theta_chars(g)
    ch = chars[rng.integers(0, len(chars))]
    z = rand_z(rng, g)
    tp = theta_batch(z, rm, ch, 1e-12)[0][0]
    tm = theta_batch(-z, rm, ch, 1e-12)[0][0]
    sign = -1.0 if ch.parity else 1.0
    assert abs(tm - sign * tp) < 1e-10 * max(abs(tp), 1e-3)


def box_terms(rm, char, Z, R):
    """The points n + a and the terms of theta[char] at each row of Z, as
    an (M, rows) array, over every n in a box holding each row's truncation
    ellipsoid of radius R about the series' centre."""
    a, b = np.array(char.a), np.array(char.b)
    centres = a + Z.imag @ rm.imag_inv.T
    ext = R * np.sqrt(np.diag(np.linalg.inv(np.pi * rm.imag)))
    axes = [np.arange(np.floor(-c.max() - e), np.ceil(-c.min() + e) + 1)
            for c, e in zip(centres.T, ext)]
    na = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], -1) + a
    quad = np.einsum("ij,ij->i", na @ rm.omega, na)
    return na, np.exp(1j * np.pi * quad[:, None] + 2j * np.pi * (na @ (Z + b).T))


def box_sum(rm, char, z, R):
    """theta[char](z) summed term by term over the box of box_terms."""
    return box_terms(rm, char, z[None, :], R)[1].sum()


cell = st.floats(min_value=-0.49, max_value=0.49)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=st.integers(min_value=1, max_value=3), data=st.data())
def test_tail_bound_certifies_truncation(g, data):
    # z = alpha + Omega beta, beta in the fundamental cell, less the whole
    # real periods by which Re(Omega) beta moves it out of the cell, is its
    # own reduced argument, so the certified bound scales by
    # exp(pi y' Im(Omega)^-1 y)
    rm = RMS[g]
    alpha = np.array(data.draw(st.lists(cell, min_size=g, max_size=g)))
    beta = np.array(data.draw(st.lists(cell, min_size=g, max_size=g)))
    char = data.draw(st.sampled_from(theta_chars(g)))
    tol = data.draw(st.sampled_from([1e-3, 1e-5, 1e-7, 1e-9]))
    z = alpha + rm.omega @ beta
    z = z - np.round(z.real)
    assert np.array_equal(_reduce_arguments(z[None, :], rm, char)[0][0], z)
    vals, _ = theta_batch(z[None, :], rm, char, tol=tol)
    # the radius and the certified bound of the sum theta_batch made
    R = truncation_radius(rm, tol)
    tail = _tail_bound(rm, R, False, 0.0)
    scale = np.exp(np.pi * z.imag @ rm.imag_inv @ z.imag)
    assert abs(vals[0] - box_sum(rm, char, z, R + 3)) <= tail * scale


def test_batch_matches_single():
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((6, 2)) * 0.4 + 1j * rng.standard_normal((6, 2)) * 0.3
    vals, grads = theta_batch(Z, RM2, tol=1e-12, gradient=True)
    for k in range(6):
        value = theta(Z[k], RM2, tol=1e-12)
        assert abs(vals[k] - value) < 1e-12 * max(1.0, abs(value))
        assert np.abs(grads[k] - theta_gradient(Z[k], RM2, tol=1e-12)).max() < 1e-10


def test_radius_memo_matches_fresh_matrix():
    # theta_batch memoizes the truncation radius on the RiemannMatrix; a
    # warm matrix must give bitwise what a fresh one gives.  At tol 8e-4 the
    # two gradient batches need different radii (their reduced centres lie
    # 0.01 and 0.64 from the characteristic), so the key must keep the
    # centre offset of gradient calls.
    rng = np.random.default_rng(21)
    alpha = rng.uniform(-0.4, 0.4, (3, 2))
    near = alpha + 0.01 * rng.uniform(-1.0, 1.0, (3, 2)) @ RM2.omega.T
    far = alpha + np.array([0.45, -0.45]) @ RM2.omega.T
    def fresh(Z, tol, grad):
        """theta_batch on a fresh matrix, and that matrix's radius cache,
        which holds the one radius the call used."""
        rm = RiemannMatrix(RM2.omega)
        out = theta_batch(Z, rm, tol=tol, gradient=grad)
        return out, rm._radius_cache
    radii = [list(fresh(Z, 8e-4, True)[1].values()) for Z in (near, far)]
    assert radii[0] != radii[1]
    warm = RiemannMatrix(RM2.omega)
    calls = [(Z, tol, grad) for tol in (8e-4, 1e-10) for grad in (False, True)
             for Z in (near, far)]
    for _ in range(2):
        for Z, tol, grad in calls:
            vals, grads = theta_batch(Z, warm, tol=tol, gradient=grad)
            (f_vals, f_grads), f_radius = fresh(Z, tol, grad)
            # the warm matrix summed at the radius the fresh one did
            assert f_radius.items() <= warm._radius_cache.items()
            assert np.array_equal(vals, f_vals)
            assert (grads is None) == (f_grads is None)
            if grad:
                assert np.array_equal(grads, f_grads)


def test_lattice_shared_across_b():
    # the lattice points and their factors E(n) depend on a and the
    # radius only: two odd characteristics with one a hold one lattice, and
    # the second one's values are those of a fresh matrix
    c1, c2 = [c for c in odd_theta_chars(3) if c.a == (0.0, 0.0, 0.5)][:2]
    rm = RiemannMatrix(RM3.omega)
    Z = np.array([[0.1, -0.2, 0.3j], [0.2j, 0.1, -0.1]])
    theta_batch(Z, rm, c1)
    vals = theta_batch(Z, rm, c2)[0]
    assert len(rm._lattice_cache) == 1
    assert vals.tobytes() == theta_batch(Z, RiemannMatrix(RM3.omega), c2)[0].tobytes()


@pytest.mark.parametrize("cid", HYPERELLIPTIC)
def test_cut_lattice_covers_every_row_ball(cid):
    # a row reduced to y, |y_k| <= 1/2, sums the n with |S(n + a + y)| <= R
    # (S'S = pi Im(Omega)): the lattice its call caches must hold every such
    # n, at the 2^g corners of the cube, where the cut's bound is met, and at
    # 200 random y, for each a, with and without the gradient.  On g3-real
    # the cut must also leave out a fifth or more of the R_cache ball.
    rm0 = build_context(cid).rm
    g = rm0.g
    S = np.sqrt(np.pi) * np.linalg.cholesky(rm0.imag).T
    Y = np.vstack([list(product((-0.5, 0.5), repeat=g)),
                   np.random.default_rng(33).uniform(-0.5, 0.5, (200, g))])
    SY = Y @ S.T
    for a, grad, tol in product(sorted({c.a for c in theta_chars(g)}), (False, True),
                                (1e-10, 1e-8)):
        rm = RiemannMatrix(rm0.omega)
        theta_batch(Y @ rm.omega.T, rm, ThetaChar(a, (0.0,) * g), tol, gradient=grad)
        R, = rm._radius_cache.values()
        ((_, R_cache), lattice), = rm._lattice_cache.items()
        # a box holding every n with |S(n + a)| <= R_cache + 1: the uncut
        # ball, and every row's ball, which lies within R + |S y| of a
        assert R + np.sqrt(np.einsum("ij,ij->i", SY, SY)).max() <= R_cache + 1
        ext = (R_cache + 1) * np.sqrt(np.diag(np.linalg.inv(S.T @ S)))
        box = np.array(list(product(*[np.arange(-np.ceil(e), np.ceil(e) + 1) for e in ext])))
        w = (box + a) @ S.T
        ww = np.einsum("ij,ij->i", w, w)
        d2 = ww[:, None] + 2 * w @ SY.T + np.einsum("ij,ij->i", SY, SY)
        need = {tuple(n) for n in box[(d2 <= R * R).any(axis=1)]}
        have = {tuple(n) for n in lattice.na - a}
        assert need <= have, (a, grad, tol, len(need - have))
        if cid == "g3-real":
            assert len(have) <= 0.8 * (ww <= R_cache * R_cache).sum(), (a, grad, tol)


def test_blocks_equal_calls_of_two_or_three_rows(monkeypatch):
    # at genus 3 a block holds THETA_BLOCK // (entries a row) rows, the
    # entries being its axis tables, its contraction (P rows, (g + 1) P with
    # gradients) and one prefix factor (P rows); a call of two blocks and one
    # row more sums the lone row with the block before it, and every row,
    # value and gradient, has the bits it has in calls of two or three rows.
    # Every row's reduced centre lies 0.45 sqrt(3) from the characteristic,
    # so the gradient calls too share one radius and lattice.
    rng = np.random.default_rng(31)
    char = odd_theta_chars(3)[0]
    beta = 0.45 * rng.choice([-1.0, 1.0], (300, 3))
    pool = rng.uniform(-1, 1, (300, 3)) + beta @ RM3.omega.T
    blocks = []
    def axis_tables(lat, zb):
        blocks.append(zb.shape[1])
        return _axis_tables(lat, zb)
    monkeypatch.setattr(importlib.import_module("faylab.theta"), "_axis_tables", axis_tables)
    for grad in (False, True):
        rm = RiemannMatrix(RM3.omega)
        theta_batch(pool[:2], rm, char, gradient=grad)
        lattice, = rm._lattice_cache.values()
        P = len(lattice.E) // 4
        step = THETA_BLOCK // ((5 if grad else 2) * P + 3 * len(lattice.runs))
        n = 2 * step + 1
        assert 5 < n <= len(pool)
        Z = pool[:n]
        blocks.clear()
        whole = theta_batch(Z, rm, char, gradient=grad)
        assert blocks == [step, step + 1]
        cuts = list(range(0, n - 3, 3)) + [n]
        calls = [theta_batch(Z[a:b], rm, char, gradient=grad)
                 for a, b in zip(cuts[:-1], cuts[1:])]
        assert len(rm._lattice_cache) == 1
        for k, part in enumerate(zip(*calls)):
            if part[0] is not None:
                assert whole[k].tobytes() == np.concatenate(part).tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is double here")
@pytest.mark.parametrize("a", [0.0, 0.5])
def test_axis_tables_against_long_double_exps(a):
    # W_k[j] = exp(2 pi i (j + a_k) zb_k), zb = z + b, is one exp at j = 0
    # and |j| products outward: at |j| <= 6 and rows z in RM3's reduced cell,
    # within the module docstring's bound (5 (|j| + 1) + 4 pi (|j + a_k| +
    # 1) |zb_k|) eps of a long-double exp, and at j = 0 the direct exp
    rng = np.random.default_rng(41)
    g, b = 3, np.array([0.0, 0.5, 0.5])
    Z = rng.uniform(-2, 2, (300, g)) @ RM3.omega.T + rng.uniform(-2, 2, (300, g))
    Zr = _reduce_arguments(Z, RM3, ThetaChar((a,) * g, tuple(b)))[0]
    lattice = _lattice(RiemannMatrix(RM3.omega), (a,) * g, 11.0)
    assert lattice.lo <= -6 and len(lattice.runs) + lattice.lo > 6
    zb = (Zr + b).T
    W = _axis_tables(lattice, zb)
    j = np.arange(-6, 7)
    pi = 4 * np.arctan(np.longdouble(1))
    ref = np.exp(2j * pi * (j[:, None] + np.longdouble(a)) * zb[:, None].astype(np.clongdouble))
    err = np.abs(W[:, j - lattice.lo] - ref).astype(float) / np.abs(ref).astype(float)
    eps = np.finfo(float).eps / 2
    bound = eps * (5 * (abs(j)[:, None] + 1)
                   + 4 * np.pi * (abs(j + a)[:, None] + 1) * abs(zb)[:, None])
    assert (err <= bound).all()
    assert np.array_equal(W[:, -lattice.lo], np.exp(2j * np.pi * (a * zb)))


# the corners alpha + Omega beta of the fundamental cell, beta in
# {-0.49, 0.49}^g and alpha = +-(0.49, ..., 0.49): the rows whose series
# centres lie farthest from the characteristic's, with the largest |Im z_k|
CORNERS = {g: np.array([(s * np.full(g, 0.49), beta) for s in (-1, 1)
                        for beta in product((-0.49, 0.49), repeat=g)]) for g in RMS}


def rounding_bound(rm, char, na, Z):
    """The module docstring's first-order rounding bound on the sums over
    the points na at the rows of Z: (rows,) for the values, (rows, g) for
    the gradients."""
    g, zb = rm.g, Z + np.array(char.b)
    quad = np.einsum("ni,ij,nj->n", na, rm.omega, na)
    Q = np.pi * np.einsum("ni,ij,nj->n", abs(na), abs(rm.omega), abs(na))
    L = 2 * np.pi * abs(na) @ abs(zb).T
    t = abs(np.exp(1j * np.pi * quad[:, None] + 2j * np.pi * (na @ zb.T)))
    w = np.finfo(float).eps / 2 * (2 * (g + 2) * (1 + Q[:, None] + L) + len(na) + 2) * t
    return w.sum(axis=0), 2 * np.pi * w.T @ abs(na)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_product_form_matches_direct_sum(g):
    # every characteristic's per-axis product sum, values and gradients, at
    # the cell's corners on a matrix with Re(Omega) != 0 (g >= 2), against
    # the direct exponential sum (box_terms, its gradient weighting each
    # term by 2 pi i (n + a)) within the tail bound and both sums' rounding
    # bounds
    rm0 = RMS[g]
    Z = CORNERS[g][:, 0] + CORNERS[g][:, 1] @ rm0.omega.T
    # the reduced arguments: beta in the cell, alpha moved by whole periods
    Zr = Z - np.round(Z.real)
    scale = np.exp(np.pi * np.einsum("ri,ij,rj->r", Z.imag, rm0.imag_inv, Z.imag))
    for char in theta_chars(g):
        calls = []
        for grad in (False, True):
            rm = RiemannMatrix(rm0.omega)
            vals, grads = theta_batch(Z, rm, char, tol=1e-12, gradient=grad)
            # the call's one radius and lattice
            ((_, _, c_off), R), = rm._radius_cache.items()
            lattice, = rm._lattice_cache.values()
            calls.append((vals, grads, R, c_off, rounding_bound(rm, char, lattice.na, Zr)))
        na, terms = box_terms(rm0, char, Z, max(call[2] for call in calls) + 3)
        direct = terms.sum(axis=0), 2j * np.pi * np.einsum("nm,ng->mg", terms, na)
        r_direct = rounding_bound(rm0, char, na, Z)
        for vals, grads, R, c_off, r_sum in calls:
            bound = _tail_bound(rm0, R, False, 0.0) * scale + r_sum[0] + r_direct[0]
            assert (abs(vals - direct[0]) <= bound).all(), char
            if grads is not None:
                bound = _tail_bound(rm0, R, True, c_off) * scale
                bound = bound[:, None] + r_sum[1] + r_direct[1]
                assert (abs(grads - direct[1]) <= bound).all(), char


def test_g3_real_has_one_vanishing_even_constant(ctx_g3):
    # a genus-3 curve is hyperelliptic exactly when one of its 36 even theta
    # constants vanishes; each of them sums a lattice shifted by its a
    even = [c for c in theta_chars(3) if c.parity == 0]
    assert len(even) == 36
    consts = np.array([abs(theta_batch(np.zeros((1, 3)), ctx_g3.rm, c, tol=1e-14)[0][0])
                       for c in even])
    assert (consts < 1e-12).sum() == 1
    assert np.sort(consts)[1] > 1e-2
