"""Exact linear algebra: fraction-free integer determinants and sparse
Gaussian elimination over the finite fields of the rings module.

Integer matrices are plain lists of row lists.  A gf row is a dict
{column: code} that holds only its nonzero entries, and the columns are
ordered by their keys.  A field context must accompany every gf routine.
Every gf elimination step is one _sub, which computes x - f*y over the
union of the two supports through the field's tables, so a cell costs
table lookups and no field call.  Everything here is pure; the
dimensions in this package stay below a few hundred.
"""

from __future__ import annotations


def bareiss_det(rows) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_one_minus(rows) -> int:
    """det(I - M) for a square integer matrix M."""
    return bareiss_det([[(1 if i == j else 0) - x for j, x in enumerate(row)]
                        for i, row in enumerate(rows)])


# ---------------------------------------------------------------------------
# gf(q) routines; `F` is a GaloisField context, entries are codes

def _sub(F, x, f, y):
    """The sparse row x - f*y; neither x nor y is mutated."""
    out = dict(x)
    if f:
        add, neg, mul = F.add_table, F.neg_table, F.mul_table[f]
        for c, v in y.items():
            w = add[out.get(c, 0)][neg[mul[v]]]
            if w:
                out[c] = w
            else:
                del out[c]
    return out


def gf_reduce(F, x, basis):
    """x reduced by a reduced basis {pivot: row}.  A basis row is zero at
    every other pivot, so x's coefficients at the pivots are read once."""
    for c, f in [(c, f) for c, f in x.items() if c in basis]:
        x = _sub(F, x, f, basis[c])
    return x


def gf_rref(F, rows):
    """(rref, pivot columns) of sparse rows, the reduced rows in pivot
    order.  Each row is reduced by the basis built so far, normalised at
    its least column, and that column is cleared from the basis.  Input
    rows are not mutated."""
    basis = {}
    for row in rows:
        x = gf_reduce(F, row, basis)
        if not x:
            continue
        p = min(x)
        scale = F.mul_table[F.inv(x[p])]
        x = {c: scale[v] for c, v in x.items()}
        for c, b in basis.items():
            if p in b:
                basis[c] = _sub(F, b, b[p], x)
        basis[p] = x
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def gf_solve(F, rows, ncols):
    """One solution x of A x = b over gf, or None.  Each sparse row holds a
    row of A over the columns 0 .. ncols-1 and its entry of b at ncols."""
    red, pivots = gf_rref(F, rows)
    if pivots and pivots[-1] == ncols:
        return None  # pivot in the constant column: inconsistent
    x = [0] * ncols
    for row, c in zip(red, pivots):
        x[c] = row.get(ncols, 0)
    return x


def gf_det(F, rows):
    """The determinant of a square matrix of codes, given as row lists."""
    a = [{c: v for c, v in enumerate(r) if v} for r in rows]
    n = len(a)
    det = F.one()
    for c in range(n):
        pr = next((i for i in range(c, n) if c in a[i]), None)
        if pr is None:
            return F.zero()
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = F.neg(det)
        det = F.mul(det, a[c][c])
        s = F.inv(a[c][c])
        for i in range(c + 1, n):
            if c in a[i]:
                a[i] = _sub(F, a[i], F.mul(a[i][c], s), a[c])
    return det
