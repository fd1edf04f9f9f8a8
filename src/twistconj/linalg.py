"""Exact linear algebra: fraction-free integer determinants and dense
Gaussian elimination over the finite fields of the rings module.

Matrices are plain lists of row lists.  Field entries are gf codes, so a
field context must accompany every gf routine.  Every gf elimination step
is one row_sub, which reads x - f*y off the field's addition table through
a q-entry table of -f*v built once per row, so a cell costs table
lookups and no field call.  Everything here is pure; the dimensions in
this package stay below a few hundred.
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

def row_sub(F, x, f, y, start=0):
    """The row x - f*y of codes.  The columns before `start` are copied
    from x, which is exact when y is zero there."""
    neg = F.neg_table
    negf = [neg[v] for v in F.mul_table[f]]
    add = F.add_table
    return x[:start] + [add[u][negf[v]] for u, v in zip(x[start:], y[start:])]


def gf_rref(F, rows):
    """(rref, pivot columns).  Input rows are not mutated."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        s = F.inv(a[r][c])
        if s != 1:
            scale = F.mul_table[s]
            a[r] = [scale[x] for x in a[r]]
        # rows from r on are zero before column c, the pivot row among them
        piv = a[r]
        for i, row in enumerate(a):
            if row[c] != 0 and i != r:
                a[i] = row_sub(F, row, row[c], piv, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [row for row in a[:r]], pivots


def gf_rank(F, rows) -> int:
    return len(gf_rref(F, rows)[0])


def gf_solve(F, rows, rhs):
    """One solution x of A x = b over gf, or None.  A given as row lists."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    red, pivots = gf_rref(F, aug)
    x = [0] * ncols
    for row, c in zip(red, pivots):
        if c == ncols:
            return None  # pivot in the constant column: inconsistent
        x[c] = row[-1]
    return x


def gf_det(F, rows):
    a = [list(r) for r in rows]
    n = len(a)
    det = F.one()
    for c in range(n):
        pr = None
        for i in range(c, n):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            return F.zero()
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = F.neg(det)
        det = F.mul(det, a[c][c])
        s = F.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != 0:
                a[i] = row_sub(F, a[i], F.mul(a[i][c], s), a[c], c)
    return det

