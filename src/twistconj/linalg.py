"""Exact linear algebra: fraction-free integer determinants and sparse
Gaussian elimination over the finite fields of the rings module.

Integer matrices are plain lists of row lists.  A gf row is a dict
{column: code} that holds only its nonzero entries, and the columns are
ordered by their keys.  A field context must accompany every gf routine.
Every gf elimination step is one _sub, which updates x -= f*y in place
over y's support through the field's tables, so a cell costs table
lookups and no field call.  _sub only ever updates a row its caller
owns: gf_reduce copies its input once, before the first update, and
gf_rref and gf_det update only their private rows.  gf_rref finds the
basis rows that hold a new pivot through a column index, so its work
grows with the fill, not with rank times rows.  No public routine mutates
its arguments; the dimensions in this package stay below a few hundred.
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
    """x -= f*y in place, over y's support; x and y are distinct rows."""
    if f:
        add, mul = F.add_table, F.mul_table[F.neg_table[f]]
        for c, v in y.items():
            w = add[x.get(c, 0)][mul[v]]
            if w:
                x[c] = w
            else:
                del x[c]


def gf_reduce(F, x, basis):
    """x reduced by a reduced basis {pivot: row}.  A basis row is zero at
    every other pivot, so x's coefficients at the pivots are read once.
    x itself is returned when it holds no pivot, else one updated copy."""
    hits = [(c, f) for c, f in x.items() if c in basis]
    if hits:
        x = dict(x)
        for c, f in hits:
            _sub(F, x, f, basis[c])
    return x


def gf_rref(F, rows):
    """(rref, pivot columns) of sparse rows, the reduced rows in pivot
    order.  Each row is reduced by the basis built so far, normalised at
    its least column p, and p is cleared from the basis rows that hold
    it.  `holders` maps a column to the pivots of the rows that may hold
    it: an update records the columns it adds to a row, and an entry goes
    stale when its column cancels.  The basis rows are private copies, so
    input rows are not mutated and none is returned."""
    basis = {}
    holders = {}
    for row in rows:
        x = gf_reduce(F, row, basis)
        if not x:
            continue
        p = min(x)
        scale = F.mul_table[F.inv(x[p])]
        x = {c: scale[v] for c, v in x.items()}
        for q in holders.pop(p, ()):
            b = basis[q]
            if p in b:
                new = [c for c in x if c not in b]
                _sub(F, b, b[p], x)
                for c in new:
                    holders.setdefault(c, []).append(q)
        for c in x:
            holders.setdefault(c, []).append(p)
        del holders[p]
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
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    a = [{c: v for c, v in enumerate(r) if v} for r in rows]
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
                _sub(F, a[i], F.mul(a[i][c], s), a[c])
    return det
