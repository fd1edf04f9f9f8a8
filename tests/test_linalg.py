import random

import pytest

from twistconj.linalg import gf_det, gf_rref, gf_solve, row_sub
from twistconj.rings import field

QS = (2, 3, 4, 5, 8, 9)


# ---------------------------------------------------------------------------
# per-cell references: every step through F.sub and F.mul

def _ref_rref(F, rows):
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        s = F.inv(a[r][c])
        a[r] = [F.mul(s, x) for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], pivots


def _ref_solve(F, rows, rhs):
    ncols = len(rows[0]) if rows else 0
    red, pivots = _ref_rref(F, [list(r) + [v] for r, v in zip(rows, rhs)])
    x = [0] * ncols
    for row, c in zip(red, pivots):
        if c == ncols:
            return None
        x[c] = row[-1]
    return x


def _ref_det(F, rows):
    a = [list(r) for r in rows]
    n = len(a)
    det = F.one()
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return F.zero()
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = F.neg(det)
        det = F.mul(det, a[c][c])
        s = F.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = F.mul(a[i][c], s)
                a[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(a[i], a[c])]
    return det


# ---------------------------------------------------------------------------
# seeded matrices

def _random(F, rng, nrows, ncols):
    return [[rng.randrange(F.q) for _ in range(ncols)] for _ in range(nrows)]


def _product(F, a, b):
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            acc = [F.add(u, F.mul(x, v)) for u, v in zip(acc, brow)]
        out.append(acc)
    return out


def _matrices(F, rng):
    """Square, tall, wide, rank-deficient and all-zero cases."""
    yield _random(F, rng, 6, 6)
    yield _random(F, rng, 9, 4)
    yield _random(F, rng, 4, 11)
    yield _product(F, _random(F, rng, 7, 2), _random(F, rng, 2, 8))
    yield _product(F, _random(F, rng, 5, 3), _random(F, rng, 3, 5))
    yield [[0] * 5 for _ in range(5)]
    yield [[0] * 3 for _ in range(6)]
    # one nonzero column after zero ones: pivots that skip columns
    yield [[0, 0, rng.randrange(1, F.q), rng.randrange(F.q)] for _ in range(4)]


def _assert_reduced(F, red, pivots, ncols):
    assert pivots == sorted(set(pivots))
    assert all(0 <= c < ncols for c in pivots)
    for i, (row, c) in enumerate(zip(red, pivots)):
        assert len(row) == ncols
        assert row[c] == 1
        assert not any(row[:c])
        for k, other in enumerate(red):
            if k != i:
                assert other[c] == 0


@pytest.mark.parametrize("q", QS)
def test_elimination_matches_per_cell_reference(q):
    F = field(q)
    rng = random.Random(f"linalg-{q}")
    for _ in range(6):
        for a in _matrices(F, rng):
            ncols = len(a[0])
            before = [list(r) for r in a]
            red, pivots = gf_rref(F, a)
            assert a == before                     # the input is not mutated
            assert (red, pivots) == _ref_rref(F, a)
            _assert_reduced(F, red, pivots, ncols)
            # a right-hand side in the column space, and an arbitrary one
            x0 = [rng.randrange(q) for _ in range(ncols)]
            inside = [col[0] for col in _product(F, a, [[v] for v in x0])]
            for rhs in (inside, [rng.randrange(q) for _ in a]):
                x = gf_solve(F, a, rhs)
                assert x == _ref_solve(F, a, rhs)
                if x is not None:
                    assert [col[0] for col in _product(F, a, [[v] for v in x])] == rhs
            assert gf_solve(F, a, inside) is not None
            if len(a) == ncols:
                d = gf_det(F, a)
                assert d == _ref_det(F, a)
                assert (d != 0) == (len(pivots) == ncols)


def test_empty_matrix():
    F = field(5)
    assert gf_rref(F, []) == ([], [])
    assert gf_det(F, []) == 1


@pytest.mark.parametrize("q", QS)
def test_row_sub_matches_cells_and_skips_leading_zeros(q):
    F = field(q)
    rng = random.Random(f"row-sub-{q}")
    for _ in range(50):
        n = rng.randrange(1, 12)
        start = rng.randrange(n + 1)
        x = [rng.randrange(q) for _ in range(n)]
        y = [0] * start + [rng.randrange(q) for _ in range(n - start)]
        f = rng.randrange(q)
        full = row_sub(F, x, f, y)
        assert full == [F.sub(u, F.mul(f, v)) for u, v in zip(x, y)]
        assert row_sub(F, x, f, y, start) == full
