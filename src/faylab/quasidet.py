"""Quasideterminants over a non-commutative carrier of complex k x k
blocks (k = 1 recovers the commutative scalar case).

|A|_ij = a_ij - r_i (A^{ij})^{-1} c_j, with r_i the row i without j and c_j
the column j without i.  A block matrix over M_k(C) is a dense complex
matrix, so the minor is flattened to one (n-1)k x (n-1)k matrix and the
Schur complement costs one linear solve (Gelfand, Gelfand, Retakh &
Wilson, "Quasideterminants", Adv. Math. 193 (2005)); a stack of them, one
stacked solve that gives each matrix the bits it has alone.
"""

from __future__ import annotations

import numpy as np


class SingularMinor(Exception):
    pass


_RCOND = 1e-8


def _solve(M, rhs):
    """M^{-1} rhs, stacked; fails when any M is ill-conditioned (rcond < 1e-8)."""
    sv = np.linalg.svd(M, compute_uv=False)
    if ((sv[..., -1] <= _RCOND * sv[..., 0]) | (sv[..., 0] == 0.0)).any():
        raise SingularMinor("matrix not invertible (rcond below 1e-8)")
    return np.linalg.solve(M, rhs)


def carrier_inv(a):
    """Partial inversion of a carrier element; fails on ill-conditioned blocks."""
    a = np.asarray(a, dtype=complex)
    return _solve(a, np.eye(a.shape[0], dtype=complex))


class QuasiMatrix:
    """Square grid of carrier elements, entries (n, n, k, k) or a stack (..., n, n, k, k)."""

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim == 2:
            entries = entries[:, :, None, None]
        if entries.ndim < 4 or entries.shape[-4] != entries.shape[-3] \
                or entries.shape[-2] != entries.shape[-1]:
            raise ValueError("entries must be (..., n, n, k, k)")
        self.entries = entries
        self.n = entries.shape[-3]
        self.k = entries.shape[-1]

    def qdet(self, i, j, rows=None, cols=None):
        """(i, j)-quasideterminant of the submatrix on rows x cols (all of
        them by default), every index counted in the whole matrix."""
        rows = range(self.n) if rows is None else rows
        cols = range(self.n) if cols is None else cols
        if i not in rows or j not in cols or len(rows) != len(cols):
            raise ValueError("need i in rows, j in cols and a square submatrix")
        ri = [r for r in rows if r != i]
        ci = [c for c in cols if c != j]
        A, mk, k = self.entries, len(ri) * self.k, self.k
        if not ri:
            return A[..., i, j, :, :].copy()
        lead = A.shape[:-4]
        minor = A.take(ri, axis=-4).take(ci, axis=-3).swapaxes(-3, -2).reshape(*lead, mk, mk)
        row = A[..., i, :, :, :].take(ci, axis=-3).swapaxes(-3, -2).reshape(*lead, k, mk)
        col = A[..., :, j, :, :].take(ri, axis=-3).reshape(*lead, mk, k)
        return A[..., i, j, :, :] - row @ _solve(minor, col)


def _rel(diff, ref):
    """max |diff| / max |ref|, for carrier elements."""
    return float(np.abs(diff).max()) / max(float(np.abs(ref).max()), 1e-300)


def _but(n, r):
    """The indices 0..n-1 without r."""
    return [x for x in range(n) if x != r]


# ---------------------------------------------------------------------------
# structural identities


def check_sylvester(A: QuasiMatrix, n_pivot):
    """Sylvester identity residual: compressing A against the trailing
    n_pivot x n_pivot pivot block reproduces the big quasideterminant.

    With P the last n_pivot indices and c_ij = |A_{(i,P),(j,P)}|_{ij} for
    leading indices i, j, the identity is |C|_{00} = |A|_{00}.
    """
    m = A.n - n_pivot
    piv = list(range(m, A.n))
    C = np.zeros((m, m, A.k, A.k), dtype=complex)
    for i in range(m):
        for j in range(m):
            C[i, j] = A.qdet(i, j, [i] + piv, [j] + piv)
    rhs = A.qdet(0, 0)
    return _rel(QuasiMatrix(C).qdet(0, 0) - rhs, rhs)


def check_column_expansion(A: QuasiMatrix):
    """|A|_00 = a_00 - sum_{i>=1} |A^{i0}|_{0i} |A^{00}|_{ii}^(-1) a_{i0}."""
    lhs = A.qdet(0, 0)
    acc = A.entries[0, 0].copy()
    rest = _but(A.n, 0)
    for i in rest:
        term = (A.qdet(0, i, _but(A.n, i), rest)
                @ carrier_inv(A.qdet(i, i, rest, rest))
                @ A.entries[i, 0])
        acc = acc - term
    return _rel(lhs - acc, lhs)


def check_homological(A: QuasiMatrix, i, j, k_row, l_col):
    """The larger residual of the row relation
    |A|_ij |A^{il}|_{kj}^{-1} = -|A|_il |A^{ij}|_{kl}^{-1} and the column
    relation |A^{kj}|_{il}^{-1} |A|_ij = -|A^{ij}|_{kl}^{-1} |A|_kj."""
    n = A.n
    a_ij = A.qdet(i, j)
    inv_ij = carrier_inv(A.qdet(k_row, l_col, _but(n, i), _but(n, j)))
    lhs = a_ij @ carrier_inv(A.qdet(k_row, j, _but(n, i), _but(n, l_col)))
    row = _rel(lhs + A.qdet(i, l_col) @ inv_ij, lhs)
    lhs = carrier_inv(A.qdet(i, l_col, _but(n, k_row), _but(n, j))) @ a_ij
    col = _rel(lhs + inv_ij @ A.qdet(k_row, j), lhs)
    return max(row, col)
