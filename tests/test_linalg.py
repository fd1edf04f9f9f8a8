import random

import pytest

from twistconj.linalg import _sub, gf_det, gf_reduce, gf_rref, gf_solve
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
# seeded matrices, given dense; the routines under test take sparse rows

def _sparse(row):
    return {c: v for c, v in enumerate(row) if v}


def _dense(row, ncols):
    return [row.get(c, 0) for c in range(ncols)]


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
    """Square, tall, wide, rank-deficient and all-zero cases, zero and
    duplicate rows, and rows whose pivots arrive out of order."""
    yield _random(F, rng, 6, 6)
    yield _random(F, rng, 9, 4)
    yield _random(F, rng, 4, 11)
    yield _product(F, _random(F, rng, 7, 2), _random(F, rng, 2, 8))
    yield _product(F, _random(F, rng, 5, 3), _random(F, rng, 3, 5))
    yield [[0] * 5 for _ in range(5)]
    yield [[0] * 3 for _ in range(6)]
    # one nonzero column after zero ones: pivots that skip columns
    yield [[0, 0, rng.randrange(1, F.q), rng.randrange(F.q)] for _ in range(4)]
    # zero rows between random ones
    yield [[0] * 7, *_random(F, rng, 2, 7), [0] * 7, *_random(F, rng, 2, 7), [0] * 7]
    # duplicate rows, and a multiple of one
    row, other = _random(F, rng, 2, 6)
    f = rng.randrange(1, F.q)
    yield [row, other, row, [F.mul(f, v) for v in row], other]
    # leading columns that fall: the last column first, the first last
    yield [[0] * k + [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(6 - k)]
           for k in range(6, -1, -1)]
    # a sparse band, one or two nonzeros a row, in shuffled order
    band = [[0] * 9 for _ in range(9)]
    for i in range(9):
        band[i][i] = rng.randrange(1, F.q)
        band[i][(3 * i + 1) % 9] = rng.randrange(F.q)
    rng.shuffle(band)
    yield band


def _assert_reduced(F, red, pivots, ncols):
    assert pivots == sorted(set(pivots))
    assert all(0 <= c < ncols for c in pivots)
    for i, (row, c) in enumerate(zip(red, pivots)):
        assert 0 not in row.values()
        assert min(row) == c and max(row) < ncols
        assert row[c] == 1
        for k, other in enumerate(red):
            if k != i:
                assert c not in other


@pytest.mark.parametrize("q", QS)
def test_elimination_matches_per_cell_reference(q):
    F = field(q)
    rng = random.Random(f"linalg-{q}")
    for _ in range(6):
        for a in _matrices(F, rng):
            ncols = len(a[0])
            rows = [_sparse(r) for r in a]
            before = [dict(r) for r in rows]
            red, pivots = gf_rref(F, rows)
            assert rows == before                  # the input is not mutated
            assert ([_dense(r, ncols) for r in red], pivots) == _ref_rref(F, a)
            _assert_reduced(F, red, pivots, ncols)
            basis = dict(zip(pivots, red))
            for row in rows:
                assert gf_reduce(F, row, basis) == {}
            assert rows == before
            # a right-hand side in the column space, and an arbitrary one
            x0 = [rng.randrange(q) for _ in range(ncols)]
            inside = [col[0] for col in _product(F, a, [[v] for v in x0])]
            for rhs in (inside, [rng.randrange(q) for _ in a]):
                aug = [_sparse(r + [v]) for r, v in zip(a, rhs)]
                before = [dict(r) for r in aug]
                x = gf_solve(F, aug, ncols)
                assert aug == before
                assert x == _ref_solve(F, a, rhs)
                if x is not None:
                    assert [col[0] for col in _product(F, a, [[v] for v in x])] == rhs
            assert gf_solve(F, [_sparse(r + [v]) for r, v in zip(a, inside)], ncols) is not None
            if len(a) == ncols:
                before = [list(r) for r in a]
                d = gf_det(F, a)
                assert a == before
                assert d == _ref_det(F, a)
                assert (d != 0) == (len(pivots) == ncols)


def test_empty_matrix():
    F = field(5)
    assert gf_rref(F, []) == ([], [])
    assert gf_rref(F, [{}, {}]) == ([], [])
    assert gf_solve(F, [], 0) == []
    assert gf_solve(F, [{}, {3: 2}], 3) is None
    assert gf_det(F, []) == 1


@pytest.mark.parametrize("q", QS)
def test_sub_matches_cells_over_the_union_of_supports(q):
    """_sub updates x in place to x - f*y and leaves y as it was."""
    F = field(q)
    rng = random.Random(f"sub-{q}")

    def cells(x, f, y, n):
        return _sparse([F.sub(u, F.mul(f, v)) for u, v in zip(_dense(x, n), _dense(y, n))])

    def updated(x, f, y):
        ys = dict(y)
        _sub(F, x, f, y)
        assert y == ys                             # y is not mutated
        return x

    for _ in range(50):
        n = rng.randrange(1, 12)
        x = _sparse([rng.randrange(q) if rng.random() < 0.5 else 0 for _ in range(n)])
        y = _sparse([rng.randrange(q) if rng.random() < 0.5 else 0 for _ in range(n)])
        f = rng.randrange(q)
        want = cells(x, f, y, n)
        assert updated(x, f, y) == want
        xs = dict(x)
        assert updated(x, 0, y) == xs
        # disjoint supports: x's entries kept, -f*y's added
        z = {c + n: v for c, v in y.items()}
        want = cells(x, f, z, 2 * n)
        assert updated(x, f, z) == want
        # full cancellation: x - f*(x/f) leaves nothing
        if f:
            fy = {c: F.mul(F.inv(f), v) for c, v in x.items()}
            assert updated(dict(x), f, fy) == {}
        assert updated(dict(x), 1, x) == {}


# ---------------------------------------------------------------------------
# row orders that stress the column index of gf_rref

def _upper(F, rng, n, width):
    """Dense upper-triangular rows: a unit at column i, nonzeros after it."""
    return [[0] * i + [rng.randrange(1, F.q) for _ in range(width - i)] for i in range(n)]


def _adversarial(F, rng):
    n = 7
    upper = _upper(F, rng, n, n + 3)
    # top-down, each new pivot sits in every earlier basis row; bottom-up
    # none does
    yield upper
    yield upper[::-1]
    # full-support rows, more than the columns: every pivot in every row
    yield [[rng.randrange(1, F.q) for _ in range(n)] for _ in range(n + 3)]
    # block-diagonal rows, the blocks interleaved
    blocks, width = [], 0
    for size in (3, 1, 4, 2):
        for row in _upper(F, rng, size, size)[::-1]:
            blocks.append((width, row))
        width += size
    rng.shuffle(blocks)
    yield [[0] * at + row + [0] * (width - at - len(row)) for at, row in blocks]
    # repeated and cancelling rows: rank two
    row, other = _upper(F, rng, 2, n)
    both = [F.add(u, v) for u, v in zip(row, other)]
    yield [row, row, [F.neg(v) for v in row], both, other,
           [F.neg(v) for v in both], [0] * n, row]
    # sparse rows that share the last column, then a dense row that
    # reduces to it: its pivot sits in every earlier basis row
    yield ([[0] * i + [1] + [0] * (n - 2 - i) + [rng.randrange(1, F.q)] for i in range(n - 1)]
           + [[rng.randrange(1, F.q) for _ in range(n)]])


@pytest.mark.parametrize("q", QS)
def test_adversarial_row_orders_match_the_reference(q):
    F = field(q)
    rng = random.Random(f"orders-{q}")
    for _ in range(4):
        for a in _adversarial(F, rng):
            ncols = len(a[0])
            rows = [_sparse(r) for r in a]
            before = [dict(r) for r in rows]
            red, pivots = gf_rref(F, rows)
            assert rows == before                  # no input row is mutated
            assert not {id(r) for r in red} & {id(r) for r in rows}
            assert ([_dense(r, ncols) for r in red], pivots) == _ref_rref(F, a)
            _assert_reduced(F, red, pivots, ncols)
            basis = dict(zip(pivots, red))
            kept = [dict(r) for r in red]
            space = [_dense(r, ncols) for r in red]
            # a vector that holds no pivot comes back as itself; any other
            # comes back as a new row, zero at every pivot and congruent to
            # the vector modulo the row space
            for v in [*rows, _sparse([rng.randrange(q) for _ in range(ncols)])]:
                vs = dict(v)
                r = gf_reduce(F, v, basis)
                assert v == vs
                if basis.keys().isdisjoint(v):
                    assert r is v
                else:
                    assert r is not v and basis.keys().isdisjoint(r)
                    diff = [F.sub(x, y) for x, y in zip(_dense(v, ncols), _dense(r, ncols))]
                    assert len(_ref_rref(F, space + [diff])[1]) == len(pivots)
            assert red == kept                     # nor is a basis row
            rhs = [rng.randrange(q) for _ in a]
            aug = [_sparse(r + [v]) for r, v in zip(a, rhs)]
            before = [dict(r) for r in aug]
            assert gf_solve(F, aug, ncols) == _ref_solve(F, a, rhs)
            assert aug == before
            if len(a) == ncols:
                assert gf_det(F, a) == _ref_det(F, a)


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 0, 1]], [[1, 2], [3]], [[1], [2], [3]],
                                  [[1, 2], [3, 4, 0]]],
                         ids=["2x3", "ragged", "3x1", "ragged-long"])
def test_gf_det_refuses_a_non_square_matrix(rows):
    with pytest.raises(ValueError, match="non-square"):
        gf_det(field(5), rows)
