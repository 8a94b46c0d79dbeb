"""Quasideterminants over a non-commutative carrier of complex k x k
blocks (k = 1 recovers the commutative scalar case).

|A|_ij = a_ij - r_i (A^{ij})^{-1} c_j, with r_i the row i without j and c_j
the column j without i.  A block matrix over M_k(C) is a dense complex
matrix, so the minor is flattened and the Schur complement is one linear
solve (Gelfand, Gelfand, Retakh & Wilson, "Quasideterminants", Adv. Math.
193 (2005)); a stack's, one stacked solve that gives each matrix the bits it
has alone.  Each structural check takes a stack (T, n, n, k, k) of one n and
gives (T,) residuals, gathering submatrices at indices drawn per trial.
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
    """Partial inversion of carrier elements (..., k, k); fails on ill-conditioned blocks."""
    a = np.asarray(a, dtype=complex)
    return _solve(a, np.eye(a.shape[-1], dtype=complex))


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
    """max |diff| / max |ref| of each carrier element of a stack (T, k, k)."""
    return np.abs(diff).max(axis=(-2, -1)) / np.maximum(np.abs(ref).max(axis=(-2, -1)), 1e-300)


def qdet_at(A: QuasiMatrix, r, c, r_out=None, c_out=None):
    """|A^{r_out c_out}|_rc of each trial of the stack A (|A|_rc if r_out and
    c_out are None) at (T,) indices: qdet on the submatrix gathered with the
    other rows and columns in order and r and c last, which gives each trial
    the bits of its A.qdet(r, c, rows, cols) alone."""
    t = np.arange(len(r))
    def order(p, out):
        keep = np.ones((len(p), A.n), dtype=bool)
        keep[t, p] = keep[t, p if out is None else out] = False
        return np.column_stack([np.nonzero(keep)[1].reshape(len(p), -1), p])
    B = QuasiMatrix(A.entries[t[:, None, None], order(r, r_out)[:, :, None],
                              order(c, c_out)[:, None]])
    return B.qdet(B.n - 1, B.n - 1)


# ---------------------------------------------------------------------------
# structural identities


def check_sylvester(A: QuasiMatrix, n_pivot):
    """Sylvester identity residual: compressing A against the trailing
    n_pivot x n_pivot pivot block reproduces the big quasideterminant.

    With P the last n_pivot indices and c_ij = |A_{(i,P),(j,P)}|_{ij} for
    leading indices i, j, the identity is |C|_{00} = |A|_{00}.
    """
    m, piv = A.n - n_pivot, list(range(A.n - n_pivot, A.n))
    C = np.array([[A.qdet(i, j, [i] + piv, [j] + piv) for j in range(m)] for i in range(m)])
    rhs = A.qdet(0, 0)
    return _rel(QuasiMatrix(np.moveaxis(C, 2, 0)).qdet(0, 0) - rhs, rhs)


def check_column_expansion(A: QuasiMatrix):
    """|A|_00 = a_00 - sum_{i>=1} |A^{i0}|_{0i} |A^{00}|_{ii}^(-1) a_{i0}."""
    lhs, acc, rest = A.qdet(0, 0), A.entries[:, 0, 0], list(range(1, A.n))
    for i in rest:
        acc = acc - (A.qdet(0, i, [r for r in range(A.n) if r != i], rest)
                     @ carrier_inv(A.qdet(i, i, rest, rest)) @ A.entries[:, i, 0])
    return _rel(lhs - acc, lhs)


def check_homological(A: QuasiMatrix, i, j, k_row, l_col):
    """The larger residual, at (T,) indices, of the row relation
    |A|_ij |A^{il}|_{kj}^{-1} = -|A|_il |A^{ij}|_{kl}^{-1} and the column
    relation |A^{kj}|_{il}^{-1} |A|_ij = -|A^{ij}|_{kl}^{-1} |A|_kj."""
    a_ij = qdet_at(A, i, j)
    inv_ij = carrier_inv(qdet_at(A, k_row, l_col, i, j))
    lhs = a_ij @ carrier_inv(qdet_at(A, k_row, j, i, l_col))
    row = _rel(lhs + qdet_at(A, i, l_col) @ inv_ij, lhs)
    lhs = carrier_inv(qdet_at(A, i, l_col, k_row, j)) @ a_ij
    col = _rel(lhs + inv_ij @ qdet_at(A, k_row, j), lhs)
    return np.maximum(row, col)
