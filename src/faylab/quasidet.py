"""Quasideterminants over a non-commutative carrier of complex k x k
blocks (k = 1 recovers the commutative scalar case).

|A|_ij = a_ij - (row i without j) (A^{ij})^{-1} (column j without i),
with the minor inverted by block Gaussian elimination with pivot search.
"""

from __future__ import annotations

import numpy as np


class SingularMinor(Exception):
    pass


_PIVOT_RCOND = 1e-8


def carrier_inv(a):
    """Partial inversion of a carrier element; fails on ill-conditioned blocks."""
    a = np.asarray(a, dtype=complex)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= _PIVOT_RCOND * sv[0] or sv[0] == 0.0:
        raise SingularMinor("carrier element not invertible")
    return np.linalg.inv(a)


def block_inverse(M):
    """Inverse of an (m, m, k, k) block matrix by block Gaussian elimination
    with first-invertible-pivot search."""
    M = np.asarray(M, dtype=complex)
    m, m2, k, _ = M.shape
    if m != m2:
        raise ValueError("block matrix must be square")
    A = M.copy()
    I = np.zeros_like(A)
    for i in range(m):
        I[i, i] = np.eye(k)
    for col in range(m):
        piv = None
        for row in range(col, m):
            sv = np.linalg.svd(A[row, col], compute_uv=False)
            if sv[0] > 0 and sv[-1] > _PIVOT_RCOND * sv[0]:
                piv = row
                break
        if piv is None:
            raise SingularMinor(f"no invertible pivot in block column {col}")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            I[[col, piv]] = I[[piv, col]]
        pinv = np.linalg.inv(A[col, col])
        for c in range(m):
            A[col, c] = pinv @ A[col, c]
            I[col, c] = pinv @ I[col, c]
        for r in range(m):
            if r == col:
                continue
            f = A[r, col].copy()
            for c in range(m):
                A[r, c] = A[r, c] - f @ A[col, c]
                I[r, c] = I[r, c] - f @ I[col, c]
    return I


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
        minor = self.entries[np.ix_(ri, ci)]
        minv = block_inverse(minor)
        out = self.entries[i, j].copy()
        for cpos, c in enumerate(ci):
            for rpos, r in enumerate(ri):
                out = out - self.entries[i, c] @ minv[cpos, rpos] @ self.entries[r, j]
        return out


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
