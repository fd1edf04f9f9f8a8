"""Upper triangular matrix groups over a base ring: elements, normal
forms, the series machinery, affine and projective variants, finite
enumerations, and the one routine that reads a generating set off a
finite enumeration, shared by the centers here and the partition oracle
of the twisted module.

A TriMat keeps the diagonal as a tuple of units and the strictly upper
part as a sparse {(i,j): nonzero value} map (1-based, i < j).  Everything
is immutable and hashable, so elements can live in sets, union-find
tables and dict-keyed partitions.

Right division a * b^-1 is one operation, TriMat.div, computed by forward
substitution without forming b^-1.  Twists, conjugations and commutators
go through it; Group.div gives every group context the same operation: a
subtraction on the additive groups, and the product by the inverse on
the affine one; for n >= 3 its forward substitution, _forward, also
serves the flip.  TriMat.inv, the division identity / m for every n,
serves the partition oracle's per-twister inverses.

The two quotients of B_n on the way to the affine group are subgroups of
B_n, so their elements are TriMats too.  The matrices whose (1,1) entry
is 1 form a subgroup S, and projective(m) = m / m_11 maps B_n onto it
with the scalars as kernel: S is B_n/Z (ProjBorel).  The corner-diagonal
group w_n (CornerDiagGroup) is the part of S whose only off-diagonal
entry is the corner (1,n); to_affine maps it onto Aff(R), with its
center as kernel.

The paper reduces the Borel groups in type A to a metabelian subgroup of
GL_2, so most of the work here is on 2x2 matrices: the reflection
classifier, the B2 partitions and the b2plus Reidemeister counts.  For
n = 2, TriMat's product, right division and element word are closed forms,

    [[a,x],[0,d]] * [[b,y],[0,e]]    = [[ab, ay + xe], [0, de]]
    [[a,x],[0,d]] * [[b,y],[0,e]]^-1 = [[a/b, (x - (a/b)y)/e], [0, d/e]]
    element_word([[a,x],[0,d]])      = e(1,2;x/d) d(1;a) d(2;d)

with no row maps, accumulators or peel; n >= 3 takes the general
routines.

The normal form of a unitriangular matrix is its tuple of coefficients
in nf_positions(n) order, superdiagonal by superdiagonal: the matrix is
the ordered product of the elementaries e(i,j;r).  normal_form peels it
off by row operations and recompose rebuilds the matrix by column
operations; element_word prints the normal form of m / diag(m), then
the diagonal.

Element word form (printer/parser round-trip):

    e(1,2;t+1) e(2,3;2) d(1;t) d(3;w+1)       identity prints as "1"
"""

from __future__ import annotations

import re
from functools import cache
from itertools import product, repeat
from math import gcd

class GroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# triangular matrices

class TriMat:
    """An upper triangular matrix in canonical form: a unit diagonal and
    no stored zero, so equal matrices compare and hash equal.

    The constructor checks its arguments and drops zero entries.  The
    library's own arithmetic, whose results are canonical by
    construction, builds through _of, which checks and copies nothing."""

    __slots__ = ("ring", "n", "diag", "upper", "_h")

    def __init__(self, ring, n, diag, upper):
        diag = tuple(diag)
        if len(diag) != n:
            raise GroupError("diagonal length mismatch")
        for u in diag:
            if not ring.is_unit(u):
                raise GroupError(f"{ring.to_str(u)} is not a unit of {ring.tag}")
        kept = {}
        for (i, j), v in upper.items():
            if not 1 <= i < j <= n:
                raise GroupError(f"entry ({i},{j}) is off the strict upper triangle")
            if not ring.is_zero(v):
                kept[(i, j)] = v
        _fill(self, ring, n, diag, kept)

    @classmethod
    def _of(cls, ring, n, diag, upper):
        """The matrix with diagonal tuple `diag` and entry map `upper`,
        both taken over as they are: the caller guarantees the canonical
        form."""
        m = object.__new__(cls)
        _fill(m, ring, n, diag, upper)
        return m

    def __setattr__(self, *a):
        raise AttributeError("TriMat is immutable")

    # access -----------------------------------------------------------------
    def entry(self, i, j):
        if i == j:
            return self.diag[i - 1]
        if i > j:
            return self.ring.zero()
        return self.upper.get((i, j), self.ring.zero())

    def is_unitriangular(self):
        one = self.ring.one()
        return all(u is one or u == one for u in self.diag)

    def is_identity(self):
        return self.is_unitriangular() and not self.upper

    # arithmetic ---------------------------------------------------------------
    def __mul__(self, o):
        if not isinstance(o, TriMat) or o.ring is not self.ring or o.n != self.n:
            raise GroupError("incompatible matrices")
        ring = self.ring
        mul, add, is_zero, one = ring.mul, ring.add, ring.is_zero, ring.one()
        if self.n == 2:
            # [[a,x],[0,d]] * [[b,y],[0,e]] = [[ab, ay + xe],[0, de]]
            (a, d), (b, e) = self.diag, o.diag
            x, y = self.upper.get((1, 2)), o.upper.get((1, 2))
            c = None if x is None else x if e is one else mul(x, e)
            if y is not None:
                ay = y if a is one else mul(a, y)
                if c is None:
                    c = ay
                else:
                    # the entries are nonzero and the ring a domain: only
                    # this sum can be zero
                    c = add(ay, c)
                    if is_zero(c):
                        c = None
            upper = {} if c is None else {(1, 2): c}
            # a diagonal factor that is the shared one() multiplies nothing
            return TriMat._of(ring, 2, (b if a is one else a if b is one else mul(a, b),
                                        e if d is one else d if e is one else mul(d, e)),
                              upper)
        sd, od = self.diag, o.diag
        # the diagonal products go through mul, which returns at once for the
        # shared one()
        diag = tuple(map(mul, sd, od))
        upper = {}
        o_rows = {}  # row k of o as (j, w) pairs, diagonal first
        for (k, j), w in o.upper.items():
            d = sd[k - 1]
            upper[(k, j)] = w if d is one else mul(d, w)
            row = o_rows.get(k)
            if row is None:
                row = o_rows[k] = [(k, od[k - 1])]
            row.append((j, w))
        # entries are nonzero and the rings are integral domains, so only a
        # sum can be zero, and it leaves the map at once
        for (i, k), v in self.upper.items():
            for j, w in o_rows.get(k) or ((k, od[k - 1]),):
                key = (i, j)
                c = v if w is one else mul(v, w)
                prev = upper.get(key)
                if prev is None:
                    upper[key] = c
                else:
                    c = add(prev, c)
                    if is_zero(c):
                        del upper[key]
                    else:
                        upper[key] = c
        return TriMat._of(ring, self.n, diag, upper)

    def inv(self):
        """The inverse, as the right division identity / self."""
        return identity(self.ring, self.n).div(self)

    def div(self, o):
        """self * o^-1 without forming o^-1: the X with X * o = self, whose
        strictly upper part _forward solves for n >= 3."""
        if not isinstance(o, TriMat) or o.ring is not self.ring or o.n != self.n:
            raise GroupError("incompatible matrices")
        ring = self.ring
        mul, add, neg, is_zero = ring.mul, ring.add, ring.neg, ring.is_zero
        inv, one = ring.inv, ring.one()
        if self.n == 2:
            # [[a,x],[0,d]] * [[b,y],[0,e]]^-1 = [[a/b, (x - (a/b)y)/e],[0, d/e]]
            (a, d), (b, e) = self.diag, o.diag
            bi = b if b is one else inv(b)
            ei = e if e is one else inv(e)
            q = bi if a is one else a if bi is one else mul(a, bi)
            x, y = self.upper.get((1, 2)), o.upper.get((1, 2))
            if y is None:
                c = x
            else:
                c = neg(y) if q is one else mul(q, neg(y))
                if x is not None:
                    c = add(x, c)
                    if is_zero(c):
                        c = None
            upper = {} if c is None else {(1, 2): c if ei is one else mul(c, ei)}
            return TriMat._of(ring, 2, (q, ei if d is one else d if ei is one else mul(d, ei)),
                              upper)
        dinv = [d if d is one else inv(d) for d in o.diag]
        diag = tuple(map(mul, self.diag, dinv))
        o_rows = {}  # row k of o, negated, as (j, -w) pairs
        for (k, j), w in o.upper.items():
            o_rows.setdefault(k, []).append((j, neg(w)))
        rows = {}  # row i of self.upper, a private copy to accumulate in
        for (i, j), v in self.upper.items():
            rows.setdefault(i, {})[j] = v
        return TriMat._of(ring, self.n, diag, _forward(ring, self.n, diag, dinv, rows, o_rows))

    def commutator(self, o):
        """self o self^-1 o^-1 = (self o) (o self)^-1."""
        return (self * o).div(o * self)

    def scaled(self, u):
        """The product (u * identity) * self for a unit u."""
        ring = self.ring
        return TriMat._of(
            ring, self.n,
            tuple(ring.mul(u, d) for d in self.diag),
            {k: ring.mul(u, v) for k, v in self.upper.items()},
        )

    # identity / hashing ---------------------------------------------------------
    def __eq__(self, o):
        return (
            isinstance(o, TriMat)
            and o.ring is self.ring
            and o.n == self.n
            and o.diag == self.diag
            and o.upper == self.upper
        )

    def __hash__(self):
        if self._h is None:
            _set_h(self, hash((self.ring.tag, self.n, self.diag,
                               tuple(sorted(self.upper.items(), key=lambda kv: kv[0])))))
        return self._h

    def __repr__(self):
        return element_word(self)


def _forward(ring, n, diag, dinv, acc_rows, o_rows):
    """The strictly upper entries {(i,j): X(i,j)} of X * o = a by forward
    substitution, X(i,j) = (a(i,j) - sum over k < j of X(i,k) o(k,j)) o(j,j)^-1,
    given X's diagonal `diag`, o's inverted diagonal `dinv`, a's rows
    `acc_rows` {i: {j: a(i,j)}}, consumed as accumulators, and o's negated
    rows `o_rows` {k: [(j, -o(k,j))]}, over the stored entries of o only.
    The least column left in a row's accumulator is its next entry."""
    mul, add, is_zero, one = ring.mul, ring.add, ring.is_zero, ring.one()
    upper = {}
    for i in range(1, n):
        acc = acc_rows.get(i) or {}
        x, k = diag[i - 1], i
        while True:
            for j, w in o_rows.get(k, ()):
                c = w if x is one else mul(x, w)
                prev = acc.get(j)
                if prev is None:
                    acc[j] = c
                else:
                    # only a sum can be zero, and it leaves at once
                    c = add(prev, c)
                    if is_zero(c):
                        del acc[j]
                    else:
                        acc[j] = c
            if not acc:
                break
            k = min(acc)
            s = acc.pop(k)
            d = dinv[k - 1]
            x = upper[(i, k)] = s if d is one else mul(s, d)
    return upper


_set_ring, _set_n, _set_diag, _set_upper, _set_h = (
    TriMat.__dict__[slot].__set__ for slot in TriMat.__slots__)


def _fill(m, ring, n, diag, upper):
    # the slot descriptors themselves: TriMat.__setattr__ refuses writes
    _set_ring(m, ring)
    _set_n(m, n)
    _set_diag(m, diag)
    _set_upper(m, upper)
    _set_h(m, None)


def identity(ring, n) -> TriMat:
    return TriMat._of(ring, n, (ring.one(),) * n, {})


def elementary(ring, n, i, j, r) -> TriMat:
    """e_{i,j}(r); requires 1 <= i < j <= n."""
    if not 1 <= i < j <= n:
        raise GroupError(f"elementary position ({i},{j}) needs i < j <= n")
    upper = {} if ring.is_zero(r) else {(i, j): r}
    return TriMat._of(ring, n, (ring.one(),) * n, upper)


def diag_elem(ring, n, i, u) -> TriMat:
    """d_i(u) for a unit u."""
    if not 1 <= i <= n:
        raise GroupError(f"diagonal index {i} out of range")
    if not ring.is_unit(u):
        raise GroupError(f"{ring.to_str(u)} is not a unit of {ring.tag}")
    one = ring.one()
    return TriMat._of(ring, n, (one,) * (i - 1) + (u,) + (one,) * (n - i), {})


# ---------------------------------------------------------------------------
# normal form: superdiagonal-ordered product of elementaries

@cache
def nf_positions(n):
    """Positions (i, j) ordered by superdiagonal then by row."""
    return tuple((i, i + d) for d in range(1, n) for i in range(1, n - d + 1))


def normal_form(m: TriMat) -> tuple:
    """The unique coefficients, in nf_positions(n) order, with the
    unitriangular m equal to the ordered product of elementaries
    e(i,i+1)...e(1,n); recompose inverts it.

    They are peeled by row operations on a private {row: {col: value}}
    copy: for each superdiagonal d and i = 1..n-d, c = v(i,i+d) is the
    coefficient and row_i -= c * row_{i+d}.  Row i+d is untouched within
    its layer and holds only its diagonal 1 and entries at distance > d,
    so the operation clears (i,i+d) and adds entries only further out;
    each entry is read off exactly once."""
    if not m.is_unitriangular():
        raise GroupError("normal form needs a unitriangular matrix")
    ring, n = m.ring, m.n
    mul, add, neg, is_zero = ring.mul, ring.add, ring.neg, ring.is_zero
    rows = {}
    for (i, j), v in m.upper.items():
        rows.setdefault(i, {})[j] = v
    zero = ring.zero()
    coeffs = []
    for d in range(1, n):
        for i in range(1, n - d + 1):
            row = rows.get(i)
            c = row.pop(i + d, None) if row else None
            if c is None:
                coeffs.append(zero)
                continue
            coeffs.append(c)
            below = rows.get(i + d)
            if not below:
                continue
            nc = neg(c)
            for j, w in below.items():
                t = mul(nc, w)
                prev = row.get(j)
                if prev is None:
                    row[j] = t
                else:
                    t = add(prev, t)
                    if is_zero(t):
                        del row[j]
                    else:
                        row[j] = t
    if any(rows.values()):
        raise AssertionError("normal form peel did not terminate")
    return tuple(coeffs)


def recompose(ring, n, coeffs):
    """The product of e(i,j;r) for (i,j) in nf_positions(n) order and r from
    the iterable `coeffs`, by column operations: right multiplication by
    e(i,j;r) adds r times column i to column j.  Each column is a {row:
    nonzero entry} map with its diagonal 1, so a factor costs one pass over
    column i instead of a matrix product."""
    mul, add, is_zero, one = ring.mul, ring.add, ring.is_zero, ring.one()
    cols = [{j: one} for j in range(n + 1)]
    for (i, j), r in zip(nf_positions(n), coeffs):
        if is_zero(r):
            continue
        col_j = cols[j]
        for k, v in cols[i].items():  # the rings are domains: only a sum vanishes
            c = r if v is one else mul(v, r)
            prev = col_j.get(k)
            if prev is None:
                col_j[k] = c
            else:
                c = add(prev, c)
                if is_zero(c):
                    del col_j[k]
                else:
                    col_j[k] = c
    upper = {(k, j): v for j in range(2, n + 1) for k, v in cols[j].items() if k != j}
    return TriMat._of(ring, n, (one,) * n, upper)


def gamma_member(m: TriMat, k: int) -> bool:
    """Membership in the k-th term of the lower central series: all
    entries at distance 0 < j-i < k vanish."""
    if not 1 <= k <= m.n:
        raise GroupError("series index out of range")
    if not m.is_unitriangular():
        return False
    return all(j - i >= k for (i, j) in m.upper)


def superdiagonal(m: TriMat):
    """The images of a unitriangular matrix in the abelianization factors."""
    return tuple(m.entry(i, i + 1) for i in range(1, m.n))


# ---------------------------------------------------------------------------
# projective classes: matrices modulo scalars

def projective(m: TriMat) -> TriMat:
    """m scaled so that its (1,1) entry is 1: the representative of m's
    class modulo the scalar matrices."""
    u1 = m.diag[0]
    return m if u1 == m.ring.one() else m.scaled(m.ring.inv(u1))


# ---------------------------------------------------------------------------
# affine elements

class AffElem:
    """(u, r) acting as x -> u*x + r; the matrix ((u, r), (0, 1)).

    The constructor checks that u is a unit.  Products and inverses, whose
    u is a product or an inverse of units, build through _of, which
    checks nothing."""

    __slots__ = ("ring", "u", "r")

    def __init__(self, ring, u, r):
        if not ring.is_unit(u):
            raise GroupError(f"{ring.to_str(u)} is not a unit of {ring.tag}")
        _set_aff_ring(self, ring)
        _set_aff_u(self, u)
        _set_aff_r(self, r)

    @classmethod
    def _of(cls, ring, u, r):
        """(u, r) taken over as it is: the caller guarantees a unit u."""
        a = object.__new__(cls)
        _set_aff_ring(a, ring)
        _set_aff_u(a, u)
        _set_aff_r(a, r)
        return a

    def __setattr__(self, *a):
        raise AttributeError("AffElem is immutable")

    def __mul__(self, o):
        ring = self.ring
        return AffElem._of(ring, ring.mul(self.u, o.u),
                           ring.add(self.r, ring.mul(self.u, o.r)))

    def inv(self):
        ring = self.ring
        ui = ring.inv(self.u)
        return AffElem._of(ring, ui, ring.neg(ring.mul(ui, self.r)))

    def is_identity(self):
        u, one = self.u, self.ring.one()
        return (u is one or u == one) and self.ring.is_zero(self.r)

    def __eq__(self, o):
        return isinstance(o, AffElem) and self.ring is o.ring and \
            self.u == o.u and self.r == o.r

    def __hash__(self):
        return hash(("aff", self.ring.tag, self.u, self.r))

    def __repr__(self):
        return f"aff({self.ring.to_str(self.u)}; {self.ring.to_str(self.r)})"


_set_aff_ring, _set_aff_u, _set_aff_r = (
    AffElem.__dict__[slot].__set__ for slot in AffElem.__slots__)


def to_affine(w: TriMat) -> AffElem:
    """The epimorphism of w_n onto Aff(R): e_{1,n}(r) diag(1, u_2, ..., u_n),
    whose corner entry is r u_n, goes to (1/u_n, r); its kernel is exactly
    {r = 0, u_1 = u_n}, the center."""
    if not (isinstance(w, TriMat) and w.diag[0] == w.ring.one()
            and all(k == (1, w.n) for k in w.upper)):
        raise GroupError(f"{w!r} is not in a corner-diagonal group")
    ring = w.ring
    ui = ring.inv(w.diag[-1])
    return AffElem(ring, ui, ring.mul(w.entry(1, w.n), ui))


# ---------------------------------------------------------------------------
# group contexts

class Group:
    name = "?"

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inv()

    def div(self, a, b):
        """a * b^-1; the matrix groups divide without forming b^-1."""
        return self.mul(a, self.inv(b))

    def elements(self):
        raise NotImplementedError("not a finite enumeration")

    def __repr__(self):
        return self.name


def _random_unit(ring, plus, rng):
    """A random unit of the ring; with plus, a random product of powers
    of its torsion-free unit generators (the diagonal of a '+' group)."""
    if not plus:
        return ring.random_unit(rng)
    u = ring.one()
    for g in ring.torsion_free_units():
        u = ring.mul(u, ring.pow_unit(g, rng.randint(-3, 3)))
    return u


class Additive(Group):
    """The underlying additive group of a ring, written multiplicatively."""

    def __init__(self, ring):
        self.ring = ring
        self.name = f"addi({ring.tag})"

    def identity(self):
        return self.ring.zero()

    def mul(self, a, b):
        return self.ring.add(a, b)

    def inv(self, a):
        return self.ring.neg(a)

    def div(self, a, b):
        return self.ring.sub(a, b)

    def random(self, rng):
        return self.ring.random(rng)


class AdditivePairs(Group):
    """R x R as an additive group; elements are pairs."""

    def __init__(self, ring):
        self.ring = ring
        self.name = f"addi({ring.tag})^2"

    def identity(self):
        return (self.ring.zero(), self.ring.zero())

    def mul(self, a, b):
        return (self.ring.add(a[0], b[0]), self.ring.add(a[1], b[1]))

    def inv(self, a):
        return (self.ring.neg(a[0]), self.ring.neg(a[1]))

    def div(self, a, b):
        sub = self.ring.sub
        return (sub(a[0], b[0]), sub(a[1], b[1]))

    def random(self, rng):
        return (self.ring.random(rng), self.ring.random(rng))


class _Triangular(Group):
    """The context shared by the triangular matrix groups over `ring`, of
    dimension n >= 2: the identity matrix, right division without forming
    an inverse, and the finite enumeration of the products u * d."""

    def __init__(self, ring, n, name):
        if n < 2:
            raise GroupError("dimension must be >= 2")
        self.ring, self.n, self.name = ring, n, name

    div = staticmethod(TriMat.div)

    def identity(self):
        return identity(self.ring, self.n)

    def _products(self, diags):
        """u * d for u over the unitriangular matrices, lexicographic in
        their normal-form coefficients (code order), and, for each u, d
        over the diagonal matrices `diags`."""
        F, n = self.ring, self.n
        for cs in product(F.elements(), repeat=len(nf_positions(n))):
            u = recompose(F, n, cs)
            for d in diags:
                yield u * d


class Unitriangular(_Triangular):
    def __init__(self, ring, n):
        super().__init__(ring, n, f"u{n}({ring.tag})")

    def random(self, rng):
        F, n = self.ring, self.n
        return recompose(F, n, map(F.random, repeat(rng, len(nf_positions(n)))))

    def contains(self, x):
        return isinstance(x, TriMat) and x.n == self.n and \
            x.ring is self.ring and x.is_unitriangular()

    def elements(self):
        """Lexicographic in the normal-form coefficients (code order)."""
        return self._products([self.identity()])


class Borel(_Triangular):
    _prefix, _pinned = "b", 0

    def __init__(self, ring, n, plus=False):
        super().__init__(ring, n, f"{self._prefix}{n}{'plus' if plus else ''}({ring.tag})")
        self.plus = plus

    def random(self, rng):
        u = Unitriangular(self.ring, self.n).random(rng)
        d = TriMat(self.ring, self.n,
                   [_random_unit(self.ring, self.plus, rng) for _ in range(self.n)], {})
        return u * d

    def elements(self):
        """Lexicographic in (normal-form coefficients, diagonal exponents
        over the field's least generator), the first _pinned diagonal entries
        held at 1."""
        F, k = self.ring, self._pinned
        units = (F.one(),) if self.plus else F.unit_powers
        return self._products([TriMat(F, self.n, (F.one(),) * k + d, {})
                               for d in product(units, repeat=self.n - k)])


class ProjBorel(Borel):
    """B_n modulo the scalars, held as the subgroup S of the matrices whose
    (1,1) entry is 1: projective maps B_n onto S with the scalars as its
    kernel, so S is B_n/Z."""

    _prefix, _pinned = "pb", 1  # the (1,1) entry held at 1: classes modulo scalars

    def random(self, rng):
        return projective(super().random(rng))


class Affine(Group):
    def __init__(self, ring, plus=False):
        self.ring, self.plus = ring, plus
        self.name = f"aff{'plus' if plus else ''}({ring.tag})"

    def identity(self):
        return AffElem(self.ring, self.ring.one(), self.ring.zero())

    def random(self, rng):
        return AffElem(self.ring, _random_unit(self.ring, self.plus, rng),
                       self.ring.random(rng))

    def elements(self):
        F = self.ring
        units = (F.one(),) if self.plus else F.unit_powers
        for r in F.elements():
            for u in units:
                yield AffElem(F, u, r)


class CornerDiagGroup(_Triangular):
    """w_n: the products e_{1,n}(r) diag(1, u_2, ..., u_n), the center of
    U_n extended by the diagonal classes modulo scalars.  Each is a TriMat
    whose only off-diagonal entry is the corner r u_n."""

    def __init__(self, ring, n):
        super().__init__(ring, n, f"w{n}({ring.tag})")

    def _element(self, r, units):
        ring = self.ring
        upper = {} if ring.is_zero(r) else {(1, self.n): ring.mul(r, units[-1])}
        return TriMat._of(ring, self.n, units, upper)

    def random(self, rng):
        ring = self.ring
        units = (ring.one(),) + tuple(ring.random_unit(rng) for _ in range(self.n - 1))
        return self._element(ring.random(rng), units)

    def elements(self):
        """Corner coordinate first, then diagonal exponents."""
        F = self.ring
        for r in F.elements():
            for d in product(F.unit_powers, repeat=self.n - 1):
                yield self._element(r, (F.one(),) + d)


# ---------------------------------------------------------------------------
# generating sets and centers of finite enumerations

def generating_set(els, index, group):
    """Generators of the universe els, or None when it lacks the identity
    or a product leaves it; `index` holds the elements of els (a set, or a
    dict keyed by them).  While the subgroup H generated so far is not the
    universe, the next generator s is an element outside H whose powers
    take the longest to fall into H (the earliest in list order on a tie),
    and close_cosets adds the subgroup it generates with H.  A step costs
    about |H'| + [H':H] |S| products; the last, about |U| + [U:H] |S|,
    dominates.

    Taking the longest reach first keeps S small, and on the oracle's
    windows and on B2(gf(4)) makes |S|, hence the |U| |S| twists of the
    partition oracle, the same however the universe is ordered; taking each
    element not yet in H in list order gives B2(gf(4)) two or three
    generators depending on the shuffle."""
    e = group.identity()
    if e not in index:
        return None
    orders = _element_orders(els, index, group, e)
    if orders is None:
        return None
    members, parents, seen, gens = [e], [None], {e}, []
    while len(members) < len(index):
        gens.append(_longest_reach(els, seen, orders, group))
        if not close_cosets(members, parents, seen, gens, index, group):
            return None
    return gens


def close_cosets(members, parents, seen, gens, index, group):
    """Extend the subgroup H = members, closed under gens[:-1], to the
    subgroup H' generated with gens[-1], in place, one right coset at a
    time; False when a product leaves `index`.  Each new member records
    its parent (j, k) in `parents`: members[n] = members[j] * gens[k].
    `seen` holds the members.

    The members come in blocks of |H|: the block from b holds the coset
    H x of its representative x = members[b], members[b + i] = H[i] x.
    The representatives, starting from e, are walked under every
    generator, and each product y = x s not yet in H' adds the block
    (H x) s = H y.  A finite set holding the identity and closed under
    these products is the group they generate."""
    size = len(members)
    blocks = [0]
    for b in blocks:
        for k, s in enumerate(gens):
            y = group.mul(members[b], s)
            if y in seen:
                continue
            blocks.append(len(members))
            for i in range(size):
                p = group.mul(members[b + i], s) if i else y
                if p not in index:
                    return False
                seen.add(p)
                members.append(p)
                parents.append((b + i, k))
    return True


def _element_orders(els, index, group, e):
    """{x: order of x} over the universe, or None when a power leaves it.
    One walk x, x^2, ..., x^n = e gives every power its order n / gcd(k, n)."""
    orders = {e: 1}
    for x in els:
        if x in orders:
            continue
        powers = [x]
        while powers[-1] != e:
            p = group.mul(powers[-1], x)
            if p not in index:
                return None
            powers.append(p)
        n = len(powers)
        for k, p in enumerate(powers, start=1):
            orders.setdefault(p, n // gcd(k, n))
    return orders


def _longest_reach(els, seen, orders, group):
    """The element outside the subgroup `seen` whose reach, the least m
    with x^m in the subgroup, is largest; the earliest on a tie.  A reach
    is at most the order of x, so an element whose order is no more than
    the best reach so far is skipped."""
    best, reach = None, 1
    for x in els:
        if orders[x] <= reach or x in seen:
            continue
        m, p = 1, x
        while p not in seen:
            p = group.mul(p, x)
            m += 1
        if m > reach:
            best, reach = x, m
    return best


# the most elements center_bruteforce enumerates before it refuses the group
MAX_CENTER_ELEMENTS = 10 ** 6


def center_bruteforce(group: Group, full_pairs: bool = False):
    """The exact center of a finite enumeration, in enumeration order.

    Each element is commuted against the generating set that
    generating_set reads off the enumeration: the centralizer of a
    generating set is the centralizer of the group.  full_pairs commutes
    against every element instead, the quadratic reference.  An
    enumeration longer than MAX_CENTER_ELEMENTS is refused with a
    GroupError; one that lacks the identity or is not closed under
    products is a fault of the enumeration and raises AssertionError.
    """
    els = []
    for k, g in enumerate(group.elements()):
        if k >= MAX_CENTER_ELEMENTS:
            raise GroupError("enumeration budget exceeded")
        els.append(g)
    tests = els if full_pairs else generating_set(els, set(els), group)
    if tests is None:
        raise AssertionError(f"the enumeration of {group.name} is not a group")
    return [g for g in els if all(group.mul(g, h) == group.mul(h, g) for h in tests)]


# ---------------------------------------------------------------------------
# printing and parsing

def element_word(m: TriMat) -> str:
    """The ordered word e(i,j;r)... d(i;u)... of a triangular matrix: the
    normal form of m / diag(m), whose entry (i,j) is a(i,j) * d_j^-1.
    For n = 2 that is e(1,2; x/d_2) d(1;d_1) d(2;d_2), with no peel."""
    ring, n = m.ring, m.n
    one = ring.one()
    if n == 2:
        # a zero corner and a diagonal one, shared or not, print nothing
        d1, d2 = m.diag
        x = m.upper.get((1, 2))
        parts = []
        if x is not None:
            if d2 is not one:
                x = ring.mul(x, ring.inv(d2))
            parts.append(f"e(1,2;{ring.to_str(x)})")
        if d1 is not one and d1 != one:
            parts.append(f"d(1;{ring.to_str(d1)})")
        if d2 is not one and d2 != one:
            parts.append(f"d(2;{ring.to_str(d2)})")
        return " ".join(parts) if parts else "1"
    coeffs = normal_form(m.div(TriMat._of(ring, n, m.diag, {})))
    parts = [f"e({i},{j};{ring.to_str(r)})"
             for (i, j), r in zip(nf_positions(n), coeffs) if not ring.is_zero(r)]
    for i, u in enumerate(m.diag, start=1):
        if u is not one and u != one:
            parts.append(f"d({i};{ring.to_str(u)})")
    return " ".join(parts) if parts else "1"


# a factor's value may hold any number of parenthesised field coefficients
_FACTOR_RE = re.compile(r"([ed])\(((?:[^()]|\([^()]*\))*)\)")


def parse_element(s: str, ring, n: int) -> TriMat:
    """Parse an element word back into a matrix."""
    s = s.strip()
    if s == "1":
        return identity(ring, n)
    out = identity(ring, n)
    pos = 0
    for m in _FACTOR_RE.finditer(s):
        between = s[pos:m.start()].strip(" *")
        if between:
            raise GroupError(f"bad element word {s!r}")
        pos = m.end()
        kind, body = m.group(1), m.group(2)
        if kind == "e":
            head, val = body.split(";", 1)
            i, j = (int(x) for x in head.split(","))
            out = out * elementary(ring, n, i, j, ring.parse(val))
        else:
            head, val = body.split(";", 1)
            out = out * diag_elem(ring, n, int(head), ring.parse(val))
    if s[pos:].strip(" *"):
        raise GroupError(f"bad element word {s!r}")
    return out
