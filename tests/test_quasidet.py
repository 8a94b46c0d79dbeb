import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faylab.identities import (CARRIER_K, CARRIER_N, COLUMN_N, column_expansion_residual,
                               doubles, homological_residual, quasidet_det_ratio_residual,
                               sylvester_residual)
from faylab.quartic import normals
from faylab.quasidet import (QuasiMatrix, carrier_inv, check_sylvester,
                             check_column_expansion, check_homological,
                             SingularMinor)

from oracles import random_quasimatrix


class TestCarrier:
    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.abs(carrier_inv(a) @ a - np.eye(3)).max() < 1e-10

    def test_singular_rejected(self):
        with pytest.raises(SingularMinor):
            carrier_inv(np.zeros((2, 2)))


class TestQuasideterminant:
    def test_1x1(self):
        A = QuasiMatrix(np.array([[3.0 + 1.0j]]))
        assert A.qdet(0, 0)[0, 0] == 3.0 + 1.0j

    def test_2x2_scalar(self):
        rng = np.random.default_rng(3)
        A = random_quasimatrix(rng, 2, 1)
        a = A.entries[:, :, 0, 0]
        expect = a[0, 0] - a[0, 1] * a[1, 0] / a[1, 1]
        assert abs(A.qdet(0, 0)[0, 0] - expect) < 1e-12 * abs(expect)
        det_ratio = np.linalg.det(a) / a[1, 1]
        assert abs(A.qdet(0, 0)[0, 0] - det_ratio) < 1e-12 * abs(det_ratio)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=5))
    def test_scalar_det_ratio(self, seed, n):
        rng = np.random.default_rng(seed)
        A = random_quasimatrix(rng, n, 1)
        M = A.entries[:, :, 0, 0]
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        minor = np.delete(np.delete(M, i, 0), j, 1)
        dm = np.linalg.det(minor)
        if abs(dm) < 1e-8:
            return
        oracle = (-1) ** (i + j) * np.linalg.det(M) / dm
        assert abs(A.qdet(i, j)[0, 0] - oracle) < 1e-9 * abs(oracle)

    def test_upper_triangular(self):
        rng = np.random.default_rng(4)
        T = np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        A = QuasiMatrix(T)
        assert abs(A.qdet(0, 0)[0, 0] - T[0, 0]) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        A = random_quasimatrix(rng, 3, 2)
        # row 2 and column 1 of A are row 0 and column 0 of P
        P = QuasiMatrix(A.entries[np.ix_([2, 0, 1], [1, 2, 0])])
        assert np.abs(A.qdet(2, 1) - P.qdet(0, 0)).max() < 1e-12

    def test_index_lists_equal_extracted_submatrix(self):
        # qdet(i, j, rows, cols) is the quasideterminant of the submatrix
        # on rows x cols, at the positions of i and j in those lists
        rng = np.random.default_rng(11)
        for k in (1, 2, 3):
            A = random_quasimatrix(rng, 5, k)
            for rows, cols in [([3, 0, 4], [1, 4, 2]), ([4, 1, 2, 0], [0, 3, 2, 1]),
                               ([2], [3])]:
                sub = QuasiMatrix(A.entries[np.ix_(rows, cols)])
                for a, i in enumerate(rows):
                    for b, j in enumerate(cols):
                        assert np.array_equal(A.qdet(i, j, rows, cols), sub.qdet(a, b))
        with pytest.raises(ValueError):
            A.qdet(0, 0, [1, 2], [0, 1])
        with pytest.raises(ValueError):
            A.qdet(0, 0, [0, 1, 2], [0, 1])

    def test_inverse_block_oracle(self):
        # |A|_ij = ((A^-1)_ji)^-1 for every (i, j), with A^-1 the inverse
        # of the flattened nk x nk matrix
        rng = np.random.default_rng(2)
        for k in (1, 2, 3):
            for n in (2, 3, 4, 5):
                A = random_quasimatrix(rng, n, k)
                if n == 3:
                    A.entries[1, 1] = 0.0    # zero leading block in the minor of (0, 0)
                big = A.entries.transpose(0, 2, 1, 3).reshape(n * k, n * k)
                inv = np.linalg.inv(big).reshape(n, k, n, k)
                for i in range(n):
                    for j in range(n):
                        oracle = np.linalg.inv(inv[j, :, i, :])
                        err = np.abs(A.qdet(i, j) - oracle).max()
                        assert err < 1e-10 * np.abs(oracle).max()

    def test_minor_without_invertible_block_in_a_column(self):
        # block column 0 of the minor holds two rank-1 blocks, yet the
        # minor is invertible as a whole
        rng = np.random.default_rng(3)
        A = random_quasimatrix(rng, 3, 2)
        A.entries[1, 1] = [[1.0, 0.0], [0.0, 0.0]]
        A.entries[2, 1] = [[0.0, 0.0], [0.0, 1.0]]
        minor = A.entries[1:, 1:].transpose(0, 2, 1, 3).reshape(4, 4)
        assert np.linalg.matrix_rank(minor) == 4
        big = A.entries.transpose(0, 2, 1, 3).reshape(6, 6)
        expect = np.linalg.inv(np.linalg.inv(big)[:2, :2])
        assert np.abs(A.qdet(0, 0) - expect).max() < 1e-12 * np.abs(expect).max()

    def test_singular_minor_raises(self):
        ent = np.zeros((3, 3, 1, 1), dtype=complex)
        ent[0, 0, 0, 0] = 1.0
        with pytest.raises(SingularMinor):
            QuasiMatrix(ent).qdet(0, 0)


class TestStructuralIdentities:
    def test_sylvester_block(self):
        rng = np.random.default_rng(6)
        for n, k, npiv in [(3, 2, 1), (3, 2, 2), (4, 2, 2)]:
            A = random_quasimatrix(rng, n, k, (1,))
            assert check_sylvester(A, npiv)[0] < 1e-9

    def test_sylvester_scalar(self):
        rng = np.random.default_rng(7)
        A = random_quasimatrix(rng, 4, 1, (1,))
        assert check_sylvester(A, 2)[0] < 1e-10

    def test_sylvester_identity_matrix(self):
        ent = np.zeros((1, 3, 3, 2, 2), dtype=complex)
        for i in range(3):
            ent[0, i, i] = np.eye(2)
        assert check_sylvester(QuasiMatrix(ent), 1)[0] < 1e-14

    def test_column_expansion(self):
        rng = np.random.default_rng(8)
        for n in (2, 4):
            A = random_quasimatrix(rng, n, 2, (1,))
            assert check_column_expansion(A)[0] < (1e-10 if n == 2 else 1e-9)

    def test_column_expansion_upper_triangular(self):
        rng = np.random.default_rng(9)
        ent = np.zeros((3, 3, 2, 2), dtype=complex)
        for i in range(3):
            for j in range(i, 3):
                ent[i, j] = rng.standard_normal((2, 2))
        # sum collapses: |A|_00 = a_00
        A = QuasiMatrix(ent)
        assert np.abs(A.qdet(0, 0) - ent[0, 0]).max() < 1e-12

    def test_homological_relations(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            A = random_quasimatrix(rng, 3, 2, (1,))
            idx = rng.permutation(3)
            jdx = rng.permutation(3)
            assert check_homological(A, idx[:1], jdx[:1], idx[1:2], jdx[1:2])[0] < 1e-9


def run_carrier_body(body, z, u):
    """(abs, rel), a (2, T) array, of a carrier body over the trials of the
    rows of z and u, sent as its normals and its doubles (their first count
    columns); the body must refuse no trial."""
    gen, answer = body(None), None
    while True:
        try:
            request = gen.send(answer)
        except StopIteration as stop:
            return np.array(stop.value)
        if isinstance(request, dict):
            assert request == {}
            answer = None
        else:
            answer = {normals: z, doubles: u}[request[0]][:, :request[1]]


def normals_for(rng, trials):
    return rng.standard_normal((trials, 64)) + 1j * rng.standard_normal((trials, 64))


def index_double(v, n):
    """The double u with floor(n u) = v."""
    return (v + 0.5) / n


def pair_double(i, k, n):
    """The double u' with (i + 1 + floor((n - 1) u')) mod n = k."""
    return index_double((k - i - 1) % n, n - 1)


class TestStackedChecks:
    """One mixed stack of trials, of several shapes and every index
    combination, has the bits of each trial run alone (T = 1)."""

    @staticmethod
    def alone_equals_stacked(run, trials):
        stacked = run(np.arange(trials))
        alone = np.concatenate([run(np.array([t])) for t in range(trials)], axis=-1)
        assert stacked.shape[-1] == trials
        assert stacked.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_homological_every_index(self, n):
        # at n = 2 the submatrices A^{ij} are 1 x 1, qdet's branch without a minor
        rng = np.random.default_rng(20 + n)
        i, j, k, l = np.array([c for c in itertools.product(range(n), repeat=4)
                               if c[0] != c[2] and c[1] != c[3]]).T
        A = random_quasimatrix(rng, n, 2, (len(i),))
        self.alone_equals_stacked(
            lambda t: check_homological(QuasiMatrix(A.entries[t]), i[t], j[t], k[t], l[t]),
            len(i))

    def test_det_ratio_every_n_and_index(self):
        rng = np.random.default_rng(30)
        combos = [(n, i, j) for n in range(2, 6) for i in range(n) for j in range(n)]
        n, i, j = np.array(combos)[rng.permutation(len(combos))].T
        u = np.column_stack([index_double(n - 2, 4), index_double(i, n), index_double(j, n)])
        z = normals_for(rng, len(u))
        self.alone_equals_stacked(
            lambda t: run_carrier_body(quasidet_det_ratio_residual, z[t], u[t]), len(u))

    def test_column_expansion_mixed_n(self):
        rng = np.random.default_rng(31)
        n = np.array([4, 2, 3, 3, 2, 4, 2, 4])
        u, z = index_double(n - 2, COLUMN_N - 1)[:, None], normals_for(rng, len(n))
        self.alone_equals_stacked(
            lambda t: run_carrier_body(column_expansion_residual, z[t], u[t]), len(n))

    def test_sylvester_both_pivot_sizes(self):
        rng = np.random.default_rng(32)
        pivot = np.array([2, 1, 1, 2, 1, 2, 2])
        u, z = index_double(pivot - 1, CARRIER_N - 1)[:, None], normals_for(rng, len(pivot))
        self.alone_equals_stacked(
            lambda t: run_carrier_body(sylvester_residual, z[t], u[t]), len(pivot))

    def test_homological_body_draws_every_index(self):
        rng = np.random.default_rng(33)
        n = CARRIER_N
        i, j, k, l = np.array([c for c in itertools.product(range(n), repeat=4)
                               if c[0] != c[2] and c[1] != c[3]]).T
        u = np.column_stack([index_double(i, n), pair_double(i, k, n),
                             index_double(j, n), pair_double(j, l, n)])
        z = normals_for(rng, len(u))
        A = QuasiMatrix(z[:, :n * n * CARRIER_K**2].reshape(len(u), n, n, CARRIER_K, CARRIER_K))
        r = run_carrier_body(homological_residual, z, u)
        assert r.tobytes() == np.array([check_homological(A, i, j, k, l)] * 2).tobytes()

    def test_det_ratio_refuses_a_small_oracle_minor(self):
        # n = 2, i = j = 0: the minor is the entry a_11, zero in trial 1
        z = normals_for(np.random.default_rng(34), 3)
        z[1, 3] = 0.0
        gen = quasidet_det_ratio_residual(None)
        assert gen.send(None)[0] is normals
        assert gen.send(z[:, :25])[0] is doubles
        refused = gen.send(np.full((3, 3), [index_double(0, 4), 0.0, 0.0]))
        assert list(refused) == [1] and isinstance(refused[1], SingularMinor)
