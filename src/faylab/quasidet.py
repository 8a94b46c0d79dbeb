"""Quasideterminants over a non-commutative carrier of complex k x k
blocks (k = 1 recovers the commutative scalar case).

|A|_ij = a_ij - r_i (A^{ij})^{-1} c_j, with r_i the row i without j and c_j
the column j without i.  A block matrix over M_k(C) is a dense complex
matrix, so the minor is flattened to one (n-1)k x (n-1)k matrix and the
Schur complement costs one linear solve (Gelfand, Gelfand, Retakh &
Wilson, "Quasideterminants", Adv. Math. 193 (2005)).
"""

from __future__ import annotations

import numpy as np


class SingularMinor(Exception):
    pass


_RCOND = 1e-8


def _solve(M, rhs):
    """M^{-1} rhs; fails when M is ill-conditioned (rcond below 1e-8)."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= _RCOND * sv[0] or sv[0] == 0.0:
        raise SingularMinor("matrix not invertible (rcond below 1e-8)")
    return np.linalg.solve(M, rhs)


def carrier_inv(a):
    """Partial inversion of a carrier element; fails on ill-conditioned blocks."""
    a = np.asarray(a, dtype=complex)
    return _solve(a, np.eye(a.shape[0], dtype=complex))


class QuasiMatrix:
    """Square grid of carrier elements with row/column labels."""

    def __init__(self, entries, row_labels=None, col_labels=None):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim == 2:
            entries = entries[:, :, None, None]
        if entries.ndim != 4 or entries.shape[0] != entries.shape[1] \
                or entries.shape[2] != entries.shape[3]:
            raise ValueError("entries must be (n, n, k, k)")
        self.entries = entries
        self.n = entries.shape[0]
        self.k = entries.shape[2]
        self.row_labels = tuple(row_labels if row_labels is not None else range(self.n))
        self.col_labels = tuple(col_labels if col_labels is not None else range(self.n))

    def submatrix(self, rows, cols):
        ri = [self.row_labels.index(r) for r in rows]
        ci = [self.col_labels.index(c) for c in cols]
        return QuasiMatrix(self.entries[np.ix_(ri, ci)], tuple(rows), tuple(cols))

    def without(self, row, col):
        rows = [r for r in self.row_labels if r != row]
        cols = [c for c in self.col_labels if c != col]
        return self.submatrix(rows, cols)

    def entry(self, row, col):
        return self.entries[self.row_labels.index(row), self.col_labels.index(col)]

    def permuted(self, row_order, col_order):
        return self.submatrix(row_order, col_order)

    def qdet(self, row, col):
        """(row, col)-quasideterminant, by labels."""
        i = self.row_labels.index(row)
        j = self.col_labels.index(col)
        if self.n == 1:
            return self.entries[0, 0].copy()
        ri = [r for r in range(self.n) if r != i]
        ci = [c for c in range(self.n) if c != j]
        m, k = self.n - 1, self.k
        minor = self.entries[np.ix_(ri, ci)].transpose(0, 2, 1, 3).reshape(m * k, m * k)
        row = self.entries[i, ci].transpose(1, 0, 2).reshape(k, m * k)
        col = self.entries[ri, j].reshape(m * k, k)
        return self.entries[i, j] - row @ _solve(minor, col)


def carrier_norm(a):
    return float(np.abs(a).max())


def random_quasimatrix(rng, n, k):
    ent = rng.standard_normal((n, n, k, k)) + 1j * rng.standard_normal((n, n, k, k))
    return QuasiMatrix(ent)


# ---------------------------------------------------------------------------
# structural identities


def check_sylvester(A: QuasiMatrix, n_pivot):
    """Sylvester identity residual: compressing A against the trailing
    n_pivot x n_pivot pivot block reproduces the big quasideterminant.

    With P the last n_pivot row/col labels and c_ij = |A_{(i,P),(j,P)}|_{ij}
    for leading labels i, j, the identity is |C|_{pq} = |A|_{pq}.
    """
    lead_r = list(A.row_labels[: A.n - n_pivot])
    lead_c = list(A.col_labels[: A.n - n_pivot])
    piv_r = list(A.row_labels[A.n - n_pivot:])
    piv_c = list(A.col_labels[A.n - n_pivot:])
    m = len(lead_r)
    C = np.zeros((m, m, A.k, A.k), dtype=complex)
    for a, i in enumerate(lead_r):
        for b, j in enumerate(lead_c):
            sub = A.submatrix([i] + piv_r, [j] + piv_c)
            C[a, b] = sub.qdet(i, j)
    Cq = QuasiMatrix(C, tuple(lead_r), tuple(lead_c))
    lhs = Cq.qdet(lead_r[0], lead_c[0])
    rhs = A.qdet(lead_r[0], lead_c[0])
    return carrier_norm(lhs - rhs) / max(carrier_norm(rhs), 1e-300)


def check_column_expansion(A: QuasiMatrix):
    """|A|_00 = a_00 - sum_{i>=1} |A^{i0}|_{0i} |A^{00}|_{ii}^(-1) a_{i0}."""
    r0, c0 = A.row_labels[0], A.col_labels[0]
    lhs = A.qdet(r0, c0)
    acc = A.entry(r0, c0).copy()
    A00 = A.without(r0, c0)
    for i, ci in zip(A.row_labels[1:], A.col_labels[1:]):
        term = (A.without(i, c0).qdet(r0, ci)
                @ carrier_inv(A00.qdet(i, ci))
                @ A.entry(i, c0))
        acc = acc - term
    return carrier_norm(lhs - acc) / max(carrier_norm(lhs), 1e-300)


def check_row_homological(A: QuasiMatrix, i, j, k_row, l_col):
    """Row relation: |A|_ij |A^{il}|_{kj}^{-1} = -|A|_il |A^{ij}|_{kl}^{-1}."""
    lhs = A.qdet(i, j) @ carrier_inv(A.without(i, l_col).qdet(k_row, j))
    rhs = -(A.qdet(i, l_col) @ carrier_inv(A.without(i, j).qdet(k_row, l_col)))
    return carrier_norm(lhs - rhs) / max(carrier_norm(lhs), 1e-300)


def check_col_homological(A: QuasiMatrix, i, j, k_row, l_col):
    """Column relation: |A^{kj}|_{il}^{-1} |A|_ij = -|A^{ij}|_{kl}^{-1} |A|_kj."""
    lhs = carrier_inv(A.without(k_row, j).qdet(i, l_col)) @ A.qdet(i, j)
    rhs = -(carrier_inv(A.without(i, j).qdet(k_row, l_col)) @ A.qdet(k_row, j))
    return carrier_norm(lhs - rhs) / max(carrier_norm(lhs), 1e-300)
