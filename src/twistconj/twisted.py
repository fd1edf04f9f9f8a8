"""Twisted conjugacy: the twist action h g phi(h)^-1, constructive class
solvers for the reflection automorphisms, image/cokernel computations on
truncated coefficient windows, a partition oracle for finite universes
(orbit closure under the generating set that groups.generating_set reads
off a finite group, union-find over all pairs otherwise), and the
exponent-tuple case search for diagonal substitutions.

The additive computations run over windows: a window fixes a finite range
of monomial exponents and treats the corresponding coefficient space as a
vector space over gf(q); a pair window does the same for R x R.  One
routine, _images, computes (id - phi)(S) for a source window S against a
target window W: the images of S's basis, each built once per call of
a solver, eliminated with the coordinates outside W ordered first and
W's last.  Deciding membership of r in the image grows S round by round:
r is a member when it reduces to zero against the rows, and otherwise
the reduced rows that start inside W are the canonical basis of the
image intersected with W.  The growth stops when that basis stays the
same twice in a row; "undecided" is an explicit outcome, never silently
converted into an answer.  A class count takes S = W, which must be
invariant, and reads the cokernel off the number of pivots.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from . import linalg, rings
from .autos import Automorphism, PairSwap, tf_monomial_exponent
from .groups import Additive, AdditivePairs, AffElem, GroupError, TriMat, generating_set
from .linalg import det_one_minus
from .poly import Poly, PolyRing, poly_ring
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
    """h g phi(h)^-1 (written additively on additive domains)."""
    group = group or phi.domain
    return group.mul(group.mul(h, g), group.inv(phi.apply(h)))


# ---------------------------------------------------------------------------
# additive membership with image stabilisation

class MembershipVerdict(NamedTuple):
    decided: bool
    member: bool
    witness: object          # h with r = h - phi(h), when member
    windows_tried: tuple     # (lo, hi) of each solving window

    def __bool__(self):
        return self.decided and self.member


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
        rows, red, pivots, cut, index = _images(phi, source, window, cache)
        rhs = _dense(window.terms(r), index)
        rest = rhs
        for row, c in zip(red, pivots):
            if rest[c]:
                rest = linalg.row_sub(F, rest, rest[c], row, c)
        if not any(rest):
            h = source.from_coords(linalg.gf_solve(F, list(zip(*rows)), rhs))
            if _sub_vec(dom, h, phi.apply(h)) != r:
                raise AssertionError("membership witness failed re-verification")
            return MembershipVerdict(True, True, h, tuple(tried))
        canon = tuple(tuple(row[cut:]) for row, c in zip(red, pivots) if c >= cut)
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
    (rows, rref, pivots, cut, index).

    The rows are the images b - phi(b) of S's basis, in S's order, as
    dense vectors over the ambient coordinates: the `cut` coordinates
    outside the target window W (sorted) first and W's positions last (in
    window order); `index` maps a coordinate key to its column.  An image
    depends on phi and the basis position alone, so `cache` maps a
    position to its image terms and is shared by every window of one
    computation."""
    dom = phi.domain
    one = window.field.one()
    images = []
    for k in source.positions():
        img = cache.get(k)
        if img is None:
            b = source.make({k: one})
            img = cache[k] = window.terms(_sub_vec(dom, b, phi.apply(b)))
        images.append(img)
    target = window.positions()
    outside = sorted({k for img in images for k in img} - set(target))
    index = {k: i for i, k in enumerate(outside + list(target))}
    rows = [_dense(img, index) for img in images]
    red, pivots = linalg.gf_rref(window.field, rows)
    return rows, red, pivots, len(outside), index


def _dense(terms, index):
    """The coordinate vector, in the order of `index`, of {key: coefficient}."""
    out = [0] * len(index)
    for k, c in terms.items():
        out[index[k]] = c
    return out


def _sub_vec(dom, a, b):
    return dom.mul(a, dom.inv(b))


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
        _, _, pivots, cut, _ = _images(phi, src, src, cache)
        if cut:
            raise GroupError(f"{src!r} is not invariant under {phi.word()}")
        tried.append((src.dim, len(pivots)))
        src = src.grow(phi.block_size * max(1, src.span // 2))
    counts = tuple(window.field.q ** (dim - rank) for dim, rank in tried)
    dim, rank = tried[0]
    return ClassCount(count=counts[0], stabilized=all(c == counts[0] for c in counts),
                      dim=dim, rank=rank, counts_tried=counts)


# ---------------------------------------------------------------------------
# the partition oracle

class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


class TwistedPartition(NamedTuple):
    auto_word: str
    universe: str
    classes: tuple          # ((representative, size), ...) in first-seen order
    count: int
    complete: bool          # False when the twist action left the universe
    witnesses: tuple        # merge log: (h, g, twisted) with twisted = h g phi(h)^-1

    def verify(self, phi, group=None):
        group = group or phi.domain
        for h, g, t in self.witnesses:
            if twist(phi, h, g, group) != t:
                return False
        return True


def brute_force_partition(universe, phi: Automorphism, group=None,
                          universe_name="") -> TwistedPartition:
    """The classes of g ~ h g phi(h)^-1 over all h in the universe.

    When the universe is a finite group (it holds the identity and is
    closed under products) the classes are found by orbit closure:
    groups.generating_set reads a generating set S off the universe, and
    each class is closed under g -> s g phi(s)^-1 for s in S, |U| |S|
    twists in all.  That the
    orbits under S are the full classes relies on phi being a
    homomorphism, which the catalog checks verify.  Otherwise, or when a
    twist leaves the universe, every pair (h, g) is twisted and merged by
    union-find; a twist that leaves the universe then flags the partition
    incomplete.  Both paths give the same classes (min-index
    representatives, in min-index order) and |U| - count witnesses.
    """
    group = group or phi.domain
    els = list(universe)
    index = _index_of(els)
    gens = generating_set(els, index, group)
    orbits = None if gens is None else _orbit_closure(els, index, gens, phi, group)
    if orbits is None:
        return _all_pairs_partition(els, phi, group, universe_name)
    classes, witnesses = orbits
    return _partition(phi, els, universe_name, classes, True, witnesses)


def _index_of(els):
    index = {}
    for i, g in enumerate(els):
        if g in index:
            raise GroupError("universe contains duplicates")
        index[g] = i
    return index


def _partition(phi, els, universe_name, classes, complete, witnesses):
    return TwistedPartition(
        auto_word=phi.word(),
        universe=universe_name or f"{len(els)} elements",
        classes=tuple(classes),
        count=len(classes),
        complete=complete,
        witnesses=tuple(witnesses),
    )


def _orbit_closure(els, index, gens, phi, group):
    """(classes, witnesses) from a breadth-first closure of each class
    under the twists x -> s x phi(s)^-1 by the generators s, or None when
    a twist leaves the universe.  phi(s)^-1 is computed once per
    generator.  Classes start at the first element not yet seen, so each
    representative is its class's first element in list order."""
    twisters = [(s, group.inv(phi.apply(s))) for s in gens]
    seen = [False] * len(els)
    classes, witnesses = [], []
    for i, g in enumerate(els):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [g]
        for x in orbit:
            for s, u in twisters:
                t = group.mul(group.mul(s, x), u)
                ti = index.get(t)
                if ti is None:
                    return None
                if not seen[ti]:
                    seen[ti] = True
                    orbit.append(t)
                    witnesses.append((s, x, t))
        classes.append((g, len(orbit)))
    return classes, witnesses


def _all_pairs_partition(universe, phi, group=None, universe_name=""):
    """Union-find closure of g ~ h g phi(h)^-1 over all pairs (h, g) of the
    universe: the fallback of brute_force_partition, and its reference."""
    group = group or phi.domain
    els = list(universe)
    index = _index_of(els)
    uf = _UnionFind(len(els))
    complete = True
    witnesses = []
    for g in els:
        gi = index[g]
        for h in els:
            t = twist(phi, h, g, group)
            ti = index.get(t)
            if ti is None:
                complete = False
                continue
            if uf.union(gi, ti):
                witnesses.append((h, g, t))
    buckets = {}
    for i in range(len(els)):
        buckets.setdefault(uf.find(i), []).append(i)
    classes = [
        (els[min(members)], len(members))
        for _, members in sorted(buckets.items())
    ]
    return _partition(phi, els, universe_name, classes, complete, witnesses)


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


def solve_reflection_corner(h: Poly, a, k: int, l: int, x: int, y: int) -> Poly:
    """The f with h(t) = t^(l+y) f(t) - a t^(2k+l+x) f(1/t).

    Pairs the coefficient at m with the one at 2k+2l+x+y-m and solves the
    2x2 system X - aY = h_m, -aX + Y = h_{m'}; solvable because 1 - a^2
    is a unit (this needs q >= 4)."""
    ring = h.ring
    F = ring.base
    if not (ring.laurent and isinstance(F, rings.GaloisField)):
        raise RingError("the corner equation lives over gf(q)[t,t^-1]")
    one = F.one()
    disc = F.sub(one, F.mul(a, a))
    if not F.is_unit(disc):
        raise RingError(f"no unit with 1 - a^2 invertible for a={F.to_str(a)} in {F.tag}")
    total = 2 * k + 2 * l + x + y
    dinv = F.inv(disc)
    fterms = {}
    done = set()
    for m in sorted(set(h.terms) | {total - e for e in h.terms}):
        if m in done:
            continue
        mp = total - m
        done.add(m)
        done.add(mp)
        hm, hmp = h.coeff(m), h.coeff(mp)
        if m == mp:
            X = F.mul(hm, F.inv(F.sub(one, a)))
            if X:
                fterms[m - l - y] = X
            continue
        X = F.mul(dinv, F.add(hm, F.mul(a, hmp)))
        Y = F.mul(dinv, F.add(F.mul(a, hm), hmp))
        if X:
            fterms[m - l - y] = X
        if Y:
            fterms[mp - l - y] = Y
    f = ring.make(fterms)
    check = f.shift(l + y) - f.reversed_var().scale(a).shift(2 * k + l + x)
    if check != h:
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
        rep = AffElem(ring, ring.monomial(one, x), ring.zero())
        wit = AffElem(ring, ring.monomial(one, k), f)
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


def case_analysis(f: Poly, box: int) -> CaseReport:
    """Exhaust the tuples (a,b,c,d) with ad - bc = +-1 and |.| <= box that
    satisfy  t^c f^d = sum_k lambda_k t^(ak) f^(bk)  in the localisation,
    comparing exactly after clearing f-denominators into gf(q)[t,t^-1].

    f must be monic irreducible over gf(q), with prime-field coefficients
    and f != t.  Every solution is reported with det(I - M) for
    M = ((a, c), (b, d)), the matrix of the induced diagonal action.
    """
    from .poly import is_irreducible
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
        diff = _sub_vec(dom, A, B)
        out.append(additive_membership(diff, phi, window))
    return out


# ---------------------------------------------------------------------------
# report shape shared with the command line

def partition_report(experiment, ring_tag, auto_word, universe, count,
                     classes, stabilized, seed):
    return {
        "experiment": experiment,
        "ring": ring_tag,
        "auto": auto_word,
        "universe": universe,
        "count": count,
        "classes": classes,
        "stabilized": stabilized,
        "seed": seed,
    }
