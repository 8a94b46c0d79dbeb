import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
            A = random_quasimatrix(rng, n, k)
            assert check_sylvester(A, npiv) < 1e-9

    def test_sylvester_scalar(self):
        rng = np.random.default_rng(7)
        A = random_quasimatrix(rng, 4, 1)
        assert check_sylvester(A, 2) < 1e-10

    def test_sylvester_identity_matrix(self):
        ent = np.zeros((3, 3, 2, 2), dtype=complex)
        for i in range(3):
            ent[i, i] = np.eye(2)
        assert check_sylvester(QuasiMatrix(ent), 1) < 1e-14

    def test_column_expansion(self):
        rng = np.random.default_rng(8)
        for n in (2, 4):
            A = random_quasimatrix(rng, n, 2)
            assert check_column_expansion(A) < (1e-10 if n == 2 else 1e-9)

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
            A = random_quasimatrix(rng, 3, 2)
            idx = rng.permutation(3)
            jdx = rng.permutation(3)
            i, k = int(idx[0]), int(idx[1])
            j, l = int(jdx[0]), int(jdx[1])
            assert check_homological(A, i, j, k, l) < 1e-9
