"""Twisted conjugacy: the twist action h g phi(h)^-1, constructive class
solvers for the reflection automorphisms, image/cokernel computations on
truncated coefficient windows, a partition oracle for finite groups that
phi preserves (cosets of the image of h -> h phi(h)^-1 when the group is
abelian; otherwise one union-find over the twists by the generating set
that groups.generating_set reads off it), and the bounded exponent-tuple
case search for diagonal substitutions.

The additive computations run over windows: a window fixes a finite range
of monomial exponents and treats the corresponding coefficient space as a
vector space over gf(q); a pair window does the same for R x R.  One
routine, _images, computes (id - phi)(S) for a source window S against a
target window W: the images of S's basis, each built once per call of
a solver, as sparse rows eliminated with the coordinates outside W
ordered first and W's last.  Deciding membership of r in the image grows
S round by round: r is a member when it reduces to zero against the
rows, and otherwise the reduced rows that start inside W are the
canonical basis of the image intersected with W.  The growth stops when
that basis stays the same twice in a row; "undecided" is an explicit
outcome, never silently converted into an answer.  A class count takes
S = W, which must be invariant, and reads the cokernel off the number of
pivots.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache
from itertools import product
from types import MappingProxyType, SimpleNamespace
from typing import NamedTuple

from . import linalg, rings
from .autos import Automorphism, PairSwap, tf_monomial_exponent
from .groups import (
    Additive, AdditivePairs, AffElem, GroupError, TriMat, close_cosets, generating_set,
)
from .linalg import det_one_minus
from .poly import Poly, PolyRing, is_irreducible, poly_ring
from .rings import RingError


# ---------------------------------------------------------------------------
# windows

class _Window:
    """A finite coordinate space of monomial positions over gf(q).

    Both kinds of window speak one protocol: `positions()` gives the
    coordinate keys in window order, `terms(x)` maps a vector to
    {key: coefficient}, `make(terms)` builds the vector back, `bounds` is
    the exponent range (lo, hi) and `span` its length.  The coordinate
    routines below are written once against that protocol."""

    def __init__(self, ring, positions, bounds):
        self.ring = ring
        self.bounds = bounds
        self.span = bounds[1] - bounds[0] + 1
        self._positions = tuple(positions)
        self._keys = frozenset(self._positions)
        self.dim = len(self._positions)

    @property
    def field(self):
        return self.ring.base

    def positions(self):
        return self._positions

    def contains(self, x) -> bool:
        return self._keys.issuperset(self.terms(x))

    def coords(self, x):
        if not self.contains(x):
            raise RingError("support leaves the window")
        terms, z = self.terms(x), self.field.zero()
        return [terms.get(k, z) for k in self._positions]

    def from_coords(self, cs):
        return self.make(dict(zip(self._positions, cs)))

    def elements(self):
        for cs in product(self.field.elements(), repeat=self.dim):
            yield self.from_coords(cs)

    def random(self, rng):
        return self.make({k: self.field.random(rng) for k in self._positions})


class LinearWindow(_Window):
    """The monomials t^lo .. t^hi of a gf(q)-coefficient polynomial ring,
    as a coordinate space of dimension hi - lo + 1; the keys are the
    exponents."""

    def __init__(self, ring: PolyRing, lo: int, hi: int):
        if not (isinstance(ring, PolyRing) and isinstance(ring.base, rings.GaloisField)):
            raise RingError(f"windows need gf(q)[t] or gf(q)[t,t^-1], not {ring.tag}")
        if lo > hi:
            raise RingError("empty window")
        if lo < 0 and not ring.laurent:
            raise RingError(f"negative exponents outside {ring.tag}")
        super().__init__(ring, range(lo, hi + 1), (lo, hi))
        self.lo, self.hi = lo, hi

    def terms(self, p: Poly):
        return p.terms

    def make(self, terms):
        return self.ring.make(terms)

    def grow(self, step: int) -> "LinearWindow":
        lo = self.lo - step if self.ring.laurent else max(0, self.lo - step)
        return LinearWindow(self.ring, lo, self.hi + step)

    def __repr__(self):
        return f"window({self.ring.tag}, [{self.lo}, {self.hi}])"


class PairWindow(_Window):
    """Two copies of a window; vectors are pairs of polynomials and the
    keys are (side, exponent), side 0 first."""

    def __init__(self, win: LinearWindow):
        super().__init__(win.ring, [(side, e) for side in (0, 1) for e in win.positions()],
                         win.bounds)
        self.win = win

    def terms(self, x):
        return {(side, e): c for side in (0, 1) for e, c in x[side].terms.items()}

    def make(self, terms):
        sides = ({}, {})
        for (side, e), c in terms.items():
            sides[side][e] = c
        return (self.ring.make(sides[0]), self.ring.make(sides[1]))

    def grow(self, step):
        return PairWindow(self.win.grow(step))

    def __repr__(self):
        return f"pair {self.win!r}"


# ---------------------------------------------------------------------------
# the twist action

def twist(phi: Automorphism, h, g, group=None):
    """h g phi(h)^-1 (written additively on additive domains), as the
    right division of h g by phi(h): the matrix groups solve for it by
    forward substitution without forming phi(h)^-1, and the additive
    groups subtract."""
    group = group or phi.domain
    return group.div(group.mul(h, g), phi.apply(h))


# ---------------------------------------------------------------------------
# additive membership with image stabilisation

class MembershipVerdict(NamedTuple):
    decided: bool
    member: bool
    witness: object          # h with r = h - phi(h), when member
    windows_tried: tuple     # (lo, hi) of each solving window


# growths of the solving window before a membership verdict is left undecided
MAX_ROUNDS = 8


def additive_membership(r, phi: Automorphism, window, growth=None) -> MembershipVerdict:
    """Decide r in Im(id - phi) against a target window W.

    Each round is one call of _images on the solving window: r is a
    member exactly when it reduces to zero against the reduced images;
    only then does gf_solve find the witness h, which is re-verified as
    r = h - phi(h).  Otherwise the reduced rows whose pivot falls in the
    W block, cut to W, are the canonical basis of the intersection of
    Im(id - phi) with W.  The solving window grows by `growth` (default
    twice the window span) until that basis is unchanged twice in a row,
    or MAX_ROUNDS growths leave the verdict undecided.  The rounds share
    one image cache, so each basis image is built once.
    """
    pairs = isinstance(window, PairWindow)
    dom = phi.domain
    if pairs and not isinstance(dom, AdditivePairs):
        raise GroupError("pair window needs an automorphism of R x R")
    if not pairs and not isinstance(dom, Additive):
        raise GroupError("additive membership needs an additive automorphism")
    if not window.contains(r):
        raise RingError("target vector leaves the window")
    F = window.field
    step = growth if growth is not None else 2 * window.span
    cache = {}
    tried = []
    prev_canon = None
    stable = 0
    source = window
    for _ in range(MAX_ROUNDS + 1):
        tried.append(source.bounds)
        rows, basis, cut, index = _images(phi, source, window, cache)
        rhs = {index[k]: c for k, c in window.terms(r).items()}
        if not linalg.gf_reduce(F, rhs, basis):
            # the witness system: the images as columns, r as the constants
            system = [{} for _ in index]
            for j, row in enumerate(rows + [rhs]):
                for c, v in row.items():
                    system[c][j] = v
            h = source.from_coords(linalg.gf_solve(F, system, len(rows)))
            if dom.div(h, phi.apply(h)) != r:
                raise AssertionError("membership witness failed re-verification")
            return MembershipVerdict(True, True, h, tuple(tried))
        canon = tuple({c - cut: v for c, v in row.items()}
                      for p, row in basis.items() if p >= cut)
        if canon == prev_canon:
            stable += 1
            if stable >= 2:
                return MembershipVerdict(True, False, None, tuple(tried))
        else:
            stable = 0
        prev_canon = canon
        source = source.grow(step)
    return MembershipVerdict(False, False, None, tuple(tried))


def _images(phi, source, window, cache):
    """(id - phi)(S) for S = `source`, eliminated in block order:
    (rows, basis, cut, index).

    The rows are the images b - phi(b) of S's basis, in S's order, as
    sparse rows over the ambient coordinates: the `cut` coordinates
    outside the target window W (sorted) first and W's positions last (in
    window order); `index` maps a coordinate key to its column.  `basis`
    maps each pivot of their reduced row echelon form to its row, in
    pivot order.  An image depends on phi and the basis position alone,
    so `cache` maps a position to its image terms and is shared by every
    window of one computation."""
    dom = phi.domain
    one = window.field.one()
    images = []
    for k in source.positions():
        img = cache.get(k)
        if img is None:
            b = source.make({k: one})
            img = cache[k] = window.terms(dom.div(b, phi.apply(b)))
        images.append(img)
    target = window.positions()
    outside = sorted({k for img in images for k in img} - set(target))
    index = {k: i for i, k in enumerate(outside + list(target))}
    rows = [{index[k]: c for k, c in img.items()} for img in images]
    red, pivots = linalg.gf_rref(window.field, rows)
    return rows, dict(zip(pivots, red)), len(outside), index


# ---------------------------------------------------------------------------
# class counts on invariant windows

class ClassCount(NamedTuple):
    count: int
    stabilized: bool
    dim: int
    rank: int
    counts_tried: tuple


def additive_class_count(phi: Automorphism, window, rounds=2) -> ClassCount:
    """q ** dim(coker(id - phi)) on a phi-invariant window: _images of the
    window onto itself, whose rank is its number of pivots.  The window
    is regrown `rounds` times, sharing one image cache; the count is
    flagged stable when it does not move, and a growing count is
    evidence of an infinite class set."""
    cache = {}
    tried = []
    src = window
    for _ in range(rounds + 1):
        _, basis, cut, _ = _images(phi, src, src, cache)
        if cut:
            raise GroupError(f"{src!r} is not invariant under {phi.word()}")
        tried.append((src.dim, len(basis)))
        src = src.grow(phi.block_size * max(1, src.span // 2))
    counts = tuple(window.field.q ** (dim - rank) for dim, rank in tried)
    dim, rank = tried[0]
    return ClassCount(count=counts[0], stabilized=all(c == counts[0] for c in counts),
                      dim=dim, rank=rank, counts_tried=counts)


# ---------------------------------------------------------------------------
# the partition oracle

class TwistedPartition(NamedTuple):
    auto_word: str
    universe: str
    classes: tuple          # ((representative, size), ...) in first-seen order
    count: int
    complete: bool          # always True (an escaping twist raises); perfbench reads it
    witnesses: tuple        # merge log: (h, g, twisted) with twisted = h g phi(h)^-1

    def verify(self, phi, group=None):
        """Every witness (h, g, t) has t = h g phi(h)^-1, each checked
        through twist; phi keeps its images, so it is applied once per
        distinct twister h."""
        group = group or phi.domain
        kept = SimpleNamespace(domain=phi.domain, apply=cache(phi.apply))
        return all(twist(kept, h, g, group) == t for h, g, t in self.witnesses)


def brute_force_partition(universe, phi: Automorphism, group=None,
                          universe_name="") -> TwistedPartition:
    """The classes of g ~ h g phi(h)^-1 over all h in the universe, a
    finite group that phi preserves.

    groups.generating_set reads a generating set S off the universe;
    _prepared does so once per universe.  If S commutes pairwise the
    classes are cosets (_coset_classes); otherwise _union_classes joins g
    to s g phi(s)^-1 for every g and every s in S.  That the orbits under
    S are the full classes relies on phi being a homomorphism, which is
    assumed here: the catalog's homomorphism checks do not sample the
    oracle's maps.  A universe that lacks the identity or is not closed
    under products is refused, and so is a phi that moves some s out of
    the universe (for a homomorphism, phi(U) is then not inside U).  Both
    paths give the same classes (min-index representatives, in min-index
    order) and |U| - count witnesses.
    """
    group = group or phi.domain
    els = tuple(universe)
    index, gens, commute = _prepared(els, group)
    if gens is None:
        raise GroupError("the universe is not a finite group")
    if commute:
        classes, witnesses = _coset_classes(els, index, gens, phi, group)
    else:
        classes, witnesses = _union_classes(els, index, gens, phi, group)
    return TwistedPartition(
        auto_word=phi.word(),
        universe=universe_name or f"{len(els)} elements",
        classes=tuple(classes),
        count=len(classes),
        complete=True,
        witnesses=tuple(witnesses),
    )


@lru_cache(maxsize=1)
def _prepared(els, group):
    """(index, gens, commute) of the universe els, a tuple, in group: the
    read-only map from element to list position, the generating set that
    groups.generating_set reads off it as a tuple (None when els is not a
    group), and whether those generators commute pairwise.  None of it
    depends on phi, so the partitions of one universe under many maps
    share one preparation.  The memo is keyed by the contents and the
    group and holds the last universe alone."""
    index = _index_of(els)
    gens = generating_set(els, index, group)
    if gens is not None:
        gens = tuple(gens)
    commute = gens is not None and all(group.mul(a, b) == group.mul(b, a)
                                       for i, a in enumerate(gens) for b in gens[:i])
    return MappingProxyType(index), gens, commute


def _index_of(els):
    index = {}
    for i, g in enumerate(els):
        if g in index:
            raise GroupError("universe contains duplicates")
        index[g] = i
    return index


def _union_classes(els, index, gens, phi, group):
    """(classes, witnesses): union-find joins g to t = s g phi(s)^-1 for
    every g in els and s in gens, in that order, logging (s, g, t) when t
    was in another class; phi(s)^-1 is computed once per generator.  A t
    outside the universe raises GroupError.  Each class is represented by
    its least index, and the classes come in that order."""
    parent = list(range(len(els)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    twisters = [(s, group.inv(phi.apply(s))) for s in gens]
    witnesses = []
    for gi, g in enumerate(els):
        root = find(gi)
        for s, u in twisters:
            t = group.mul(group.mul(s, g), u)
            ti = index.get(t)
            if ti is None:
                raise GroupError(f"{phi.word()} does not preserve the universe")
            other = find(ti)
            if other != root:
                root, other = min(root, other), max(root, other)
                parent[other] = root
                witnesses.append((s, g, t))
    sizes = Counter(find(i) for i in range(len(els)))
    return [(els[r], n) for r, n in sorted(sizes.items())], witnesses


def _coset_classes(els, index, gens, phi, group):
    """(classes, witnesses) when the generators commute pairwise, so the
    universe is abelian; a c_s outside it raises GroupError.  The twist
    by s is x -> x c_s with c_s = s phi(s)^-1, and the classes are the
    cosets g K of K = <c_s>: groups.close_cosets closes K one c_s at a
    time, each new k = k' c_s recording its parent (k', s), and the
    coset g K has the witnesses (s, g k', g k).  Closing K costs about
    |K| products plus |S| per coset representative, the cosets |U|."""
    cs = [group.div(s, phi.apply(s)) for s in gens]
    e = group.identity()
    K, parents, in_K = [e], [None], {e}     # parents[n] = (j, k): K[n] = K[j] cs[k]
    for k, c in enumerate(cs):
        if c not in in_K and not close_cosets(K, parents, in_K, cs[:k + 1], index, group):
            raise GroupError(f"{phi.word()} does not preserve the universe")
    seen = [False] * len(els)
    classes, witnesses = [], []
    for i, g in enumerate(els):
        if seen[i]:
            continue
        coset = [g] + [group.mul(g, k) for k in K[1:]]
        for x in coset:
            xi = index.get(x)
            if xi is None or seen[xi]:
                raise AssertionError("twisted classes are not cosets of the twist image")
            seen[xi] = True
        witnesses.extend((gens[k], coset[j], coset[n])
                         for n, (j, k) in enumerate(parents[1:], 1))
        classes.append((g, len(K)))
    return classes, witnesses


# ---------------------------------------------------------------------------
# constructive class solver for the reflection automorphisms

def is_reflection_unit(F, a) -> bool:
    """1 - a^2 is invertible, so the reflection by a has constructive
    class representatives (classify_reflection)."""
    return F.is_unit(F.sub(F.one(), F.mul(a, a)))


def reflection_unit(F) -> int | None:
    """The least field element a with 1 - a^2 invertible, if any.  Exists
    exactly when q >= 4."""
    for a in F.units():
        if is_reflection_unit(F, a):
            return a
    return None


def reflection_corner(f: Poly, a, lo: int, hi: int) -> Poly:
    """The corner map t^lo f(t) - a t^hi f(1/t) over gf(q)[t,t^-1], built
    as one dict of terms.  The reflection classifier re-verifies its
    corner solve with it (lo = l+y, hi = 2k+l+x), and criterion 1 checks
    the unipotent corner f - a f(1/t) (lo = hi = 0)."""
    ring = f.ring
    F = ring.base
    if not (ring.laurent and isinstance(F, rings.GaloisField)):
        raise RingError("the corner map lives over gf(q)[t,t^-1]")
    add, nrow = F.add_table, F.mul_table[F.neg(a)]
    out = {e + lo: c for e, c in f.terms.items()}
    for e, c in f.terms.items():
        m = hi - e
        v = add[out.get(m, 0)][nrow[c]]
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return ring._of(out)


def solve_reflection_corner(h: Poly, a, k: int, l: int, x: int, y: int) -> Poly:
    """The f with h(t) = t^(l+y) f(t) - a t^(2k+l+x) f(1/t).

    The coefficients of f at m-l-y and m'-l-y, for m' = 2k+2l+x+y-m,
    solve X - aY = h_m, -aX + Y = h_m': X = d(h_m + a h_m') and
    Y = d(a h_m + h_m') with d = (1-a^2)^-1, a unit when q >= 4, and
    X = h_m/(1-a) when m = m'.  One walk of h's terms solves each pair at
    its smaller exponent, reading gf(q) table rows; reflection_corner
    re-verifies f exactly against h."""
    ring = h.ring
    F = ring.base
    if not (ring.laurent and isinstance(F, rings.GaloisField)):
        raise RingError("the corner equation lives over gf(q)[t,t^-1]")
    one = F.one()
    disc = F.sub(one, F.mul(a, a))
    if not F.is_unit(disc):
        raise RingError(f"no unit with 1 - a^2 invertible for a={F.to_str(a)} in {F.tag}")
    add, mul = F.add_table, F.mul_table
    arow, drow = mul[a], mul[F.inv(disc)]
    srow = mul[F.inv(F.sub(one, a))]
    total, s = 2 * k + 2 * l + x + y, l + y
    terms = h.terms
    fterms = {}
    for m, hm in terms.items():
        mp = total - m
        hmp = terms.get(mp)
        if hmp is None:
            # a lone term: h_m' = 0
            fterms[m - s] = drow[hm]
            Y = drow[arow[hm]]
            if Y:
                fterms[mp - s] = Y
        elif m == mp:
            fterms[m - s] = srow[hm]
        elif m < mp:
            X, Y = drow[add[hm][arow[hmp]]], drow[add[arow[hm]][hmp]]
            if X:
                fterms[m - s] = X
            if Y:
                fterms[mp - s] = Y
    f = ring._of(fterms)
    if reflection_corner(f, a, s, 2 * k + l + x) != h:
        raise AssertionError("corner solve failed re-verification")
    return f


class ReflectionClass(NamedTuple):
    representative: object   # the diagonal matrix with exponents in {0,1}
    witness: object          # u with u * rep * phi(u)^-1 = g
    parity: tuple            # (x, y)


def classify_reflection(g, phi) -> ReflectionClass:
    """Send an element of the torsion-free triangular or affine group over
    gf(q)[t,t^-1] to its class representative under the reflection
    automorphism, with an exactly verified witness.  The representative
    is determined by the diagonal exponent parities alone.  A diagonal
    entry with a torsion factor puts g outside the torsion-free group and
    raises GroupError."""
    ring = phi.ring
    a = phi.a
    if isinstance(g, AffElem):
        i = tf_monomial_exponent(ring, g.u)
        j = 0
        h = g.r
    elif isinstance(g, TriMat) and g.n == 2:
        i = tf_monomial_exponent(ring, g.diag[0])
        j = tf_monomial_exponent(ring, g.diag[1])
        h = g.entry(1, 2)
    else:
        raise GroupError("classification needs a 2x2 triangular or affine element")
    x, y = i % 2, j % 2
    k, l = (i - x) // 2, (j - y) // 2
    f = solve_reflection_corner(h, a, k, l, x, y)
    one = ring.base.one()
    if isinstance(g, AffElem):
        rep = AffElem._of(ring, ring.monomial(one, x), ring.zero())
        wit = AffElem._of(ring, ring.monomial(one, k), f)
    else:
        rep = TriMat._of(ring, 2, (ring.monomial(one, x), ring.monomial(one, y)), {})
        wit = TriMat._of(ring, 2, (ring.monomial(one, k), ring.monomial(one, l)),
                         {} if f.is_zero() else {(1, 2): f})
    if twist(phi, wit, rep) != g:
        raise AssertionError("classification witness failed re-verification")
    return ReflectionClass(representative=rep, witness=wit, parity=(x, y))


# ---------------------------------------------------------------------------
# exponent-tuple case search for diagonal substitutions

class CaseSolution(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    det: int             # ad - bc
    det_one_minus: int   # det(I - [[a, c], [b, d]])


class CaseReport(NamedTuple):
    f: str
    q: int
    box: int
    solutions: tuple
    all_eigenvalue_one: bool
    exceptions: tuple

    def summary(self):
        if self.all_eigenvalue_one:
            return f"{len(self.solutions)} solution(s), all with eigenvalue 1"
        ex = ", ".join(f"({s.a},{s.b},{s.c},{s.d})" for s in self.exceptions)
        return f"{len(self.solutions)} solution(s); eigenvalue-1 fails at {ex}"


# the search walks (2 box + 1)^4 tuples: box 27, 9 150 625 tuples, took
# 1.85 s of CPU (2-vCPU x86_64 Xeon, Python 3.11), and box 28 is refused
MAX_CASE_TUPLES = 10 ** 7


def case_analysis(f: Poly, box: int) -> CaseReport:
    """Exhaust the tuples (a,b,c,d) with ad - bc = +-1 and |.| <= box that
    satisfy  t^c f^d = sum_k lambda_k t^(ak) f^(bk)  in the localisation,
    comparing exactly after clearing f-denominators into gf(q)[t,t^-1].

    f must be monic irreducible over gf(q), with prime-field coefficients
    and f != t, and the box may hold at most MAX_CASE_TUPLES tuples.
    Every solution is reported with det(I - M) for M = ((a, c), (b, d)),
    the matrix of the induced diagonal action.
    """
    if (2 * box + 1) ** 4 > MAX_CASE_TUPLES:
        raise RingError(f"box {box} holds {(2 * box + 1) ** 4} tuples, "
                        f"more than the {MAX_CASE_TUPLES} that are searched")
    ring = f.ring
    F = ring.base
    if ring.laurent or not isinstance(F, rings.GaloisField):
        raise RingError("the case search needs f in gf(q)[t]")
    m = f.degree
    if m < 1:  # covers the zero polynomial (degree -inf)
        raise RingError("f must be non-constant")
    if f.coeff(m) != F.one():
        raise RingError("f must be monic")
    if F.is_zero(f.coeff(0)):
        raise RingError("f = t (or a multiple of t) is excluded")
    if any(c >= F.p for c in f.terms.values()):
        raise RingError("f needs prime-field coefficients")
    if not is_irreducible(f):
        raise RingError("f must be irreducible")
    lam = [f.coeff(k) for k in range(m + 1)]
    L = poly_ring(F, laurent=True)
    fL = L.make(dict(f.terms))
    fpow = {0: L.one()}

    def f_to(e):
        if e not in fpow:
            top = max(fpow)
            while top < e:
                fpow[top + 1] = fpow[top] * fL
                top += 1
        return fpow[e]

    sols = []
    rng_box = range(-box, box + 1)
    for a in rng_box:
        for b in rng_box:
            for c in rng_box:
                for d in rng_box:
                    if a * d - b * c not in (1, -1):
                        continue
                    clear = max(0, -d, -b * m if b < 0 else 0)
                    lhs = f_to(d + clear).shift(c)
                    rhs = L.zero()
                    for k in range(m + 1):
                        if lam[k] == F.zero():
                            continue
                        rhs = rhs + f_to(b * k + clear).shift(a * k).scale(lam[k])
                    if lhs == rhs:
                        sols.append(CaseSolution(
                            a, b, c, d,
                            det=a * d - b * c,
                            det_one_minus=det_one_minus([[a, c], [b, d]]),
                        ))
    exceptions = tuple(s for s in sols if s.det_one_minus != 0)
    return CaseReport(
        f=str(f), q=F.q, box=box,
        solutions=tuple(sols),
        all_eigenvalue_one=not exceptions,
        exceptions=exceptions,
    )


# ---------------------------------------------------------------------------
# distinctness of pairs under the swap automorphism

def pair_distinctness(alpha, pairs, window: PairWindow):
    """Membership verdicts for (A - B) in Im(id - tau_alpha) for each
    (A, B) in pairs; 'not member, decided' certifies distinct classes."""
    phi = PairSwap(alpha, window.ring)
    dom = phi.domain
    out = []
    for A, B in pairs:
        diff = dom.div(A, B)
        out.append(additive_membership(diff, phi, window))
    return out

