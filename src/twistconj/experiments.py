"""Named experiments shared by the command line and the acceptance suite.

Each acceptance criterion returns (passed, detail): a pass flag and a
short human-readable detail line.  run_criterion names, times and budgets
it into an ExperimentResult; the heavy lifting lives in the other modules.
All randomness is drawn from seeded generators so reports reproduce bit
for bit.
"""

from __future__ import annotations

import random
import time
from itertools import product
from typing import NamedTuple

from . import groups, poly, twisted
from .autos import (
    AffineReflect, AugScale, AugShift, BlockCompanion, Central, CenterScale,
    Compose, Flip, HalfSquare, IdentityMap, Inner, MulBy, PairSwap, RingMap,
    Phi0, SigmaFirst, SigmaLast, TriangularReflect, WindowLinear, ZeroEndo,
    check_sigma_pair, verify_homomorphism,
)
from .groups import (
    Additive, Affine, AffElem, Borel, CornerDiagGroup, GroupError, ProjBorel,
    TriMat, Unitriangular, center_bruteforce, diag_elem, elementary, identity,
    normal_form, projective, recompose, to_affine,
)
from .linalg import gf_det
from .poly import (
    IdentityAuto, LaurentFlip, PolySub, first_irreducible, poly_ring,
    twist_split,
)
from .rings import ZZ, field, localized, solve_unit_equation
from .twisted import (
    LinearWindow, PairWindow, additive_class_count, additive_membership,
    brute_force_partition, case_analysis, classify_reflection,
    pair_distinctness, reflection_unit, twist,
)


class ExperimentResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail} ({self.elapsed:.2f}s)"


# ---------------------------------------------------------------------------
# elementary relation suite

def relations_suite(ring, n, samples, rng):
    """The defining relations among elementary and diagonal matrices,
    verified by exact matrix arithmetic on random data."""
    checked = 0

    def positions():
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        return i, j

    for _ in range(samples):
        i, j = positions()
        k, l = positions()
        r, s = ring.random(rng), ring.random(rng)
        eij = elementary(ring, n, i, j, r)
        ekl = elementary(ring, n, k, l, s)
        # additivity in the argument
        if eij * elementary(ring, n, i, j, s) != elementary(ring, n, i, j, ring.add(r, s)):
            return False, checked, ("add", i, j, r, s)
        # commutator shapes
        comm = eij.commutator(ekl)
        if j == k:
            if comm != elementary(ring, n, i, l, ring.mul(r, s)):
                return False, checked, ("chain", (i, j), (k, l), r, s)
        elif i != l and k != j:
            if not comm.is_identity():
                return False, checked, ("disjoint", (i, j), (k, l), r, s)
        if comm.inv() != eij.commutator(elementary(ring, n, k, l, ring.neg(s))):
            return False, checked, ("inverse", (i, j), (k, l), r, s)
        # diagonal relations
        u, v = ring.random_unit(rng), ring.random_unit(rng)
        di = rng.randint(1, n)
        dj = rng.randint(1, n)
        if diag_elem(ring, n, di, u) * diag_elem(ring, n, di, v) != \
                diag_elem(ring, n, di, ring.mul(u, v)):
            return False, checked, ("dmul", di, u, v)
        if diag_elem(ring, n, di, u) * diag_elem(ring, n, dj, v) != \
                diag_elem(ring, n, dj, v) * diag_elem(ring, n, di, u):
            return False, checked, ("dcomm", di, dj, u, v)
        units = [ring.random_unit(rng) for _ in range(n)]
        d = TriMat(ring, n, units, {})
        ratio = ring.mul(units[i - 1], ring.inv(units[j - 1]))
        if d * eij * d.inv() != elementary(ring, n, i, j, ring.mul(ratio, r)):
            return False, checked, ("conj", i, j, units, r)
        pd = projective(d)
        if (pd * eij).div(pd) != elementary(ring, n, i, j, ring.mul(ratio, r)):
            return False, checked, ("projconj", i, j, units, r)
        checked += 1
    return True, checked, None


RING_TAGS = ("gf(4)", "gf(5)[t]", "gf(5)[t,t^-1]", "z", "z[1/6]", "z[t]", "z[t,t^-1]")


# ---------------------------------------------------------------------------
# truncated universes for the reflection counts

def _truncation(ring, diag_bound, exp_bound, rng, dense, rank, make):
    """make(diag, h) for every diagonal of `rank` units t^i, |i| <=
    diag_bound, and every corner h: zero, then each c t^m with c a unit
    and |m| <= exp_bound.  Then make(diag, h) for `dense` sampled t^i and
    corners h of the same window, in draw order.  The window refuses any
    ring but gf(q)[t] and gf(q)[t,t^-1].

    Each element is listed once, and none is hashed against the grid.
    Grid elements are distinct: they differ in a t^i or in the corner.
    A sampled corner of at most one term is a grid corner, because its
    exponent lies in the window and every nonzero gf(q) coefficient is a
    unit; such samples are dropped.  A corner of two or more terms can
    only repeat an earlier sample, so only those go into a set."""
    win = LinearWindow(ring, -exp_bound, exp_bound)
    corners = [ring.zero()] + [ring.monomial(c, m) for m in range(-exp_bound, exp_bound + 1)
                               for c in ring.base.units()]
    one = ring.base.one()
    # the ring's shared unit objects
    units = {i: ring.monomial(one, i) for i in range(-diag_bound, diag_bound + 1)}
    out = [make(diag, h) for diag in product(units.values(), repeat=rank) for h in corners]
    seen = set()
    for _ in range(dense):
        key = (tuple(rng.randint(-diag_bound, diag_bound) for _ in range(rank)),
               win.random(rng))
        if len(key[1].terms) > 1 and key not in seen:
            seen.add(key)
            out.append(make(tuple(units[i] for i in key[0]), key[1]))
    return out


def truncated_b2plus(ring, diag_bound, exp_bound, rng, dense):
    """All (t^i, c t^m; t^j) with |i|,|j| <= diag_bound and monomial (or
    zero) corner with |m| <= exp_bound, then `dense` sampled dense corners
    inside the same exponent window, each once; built unchecked, as
    _truncation's elements are canonical and distinct by construction."""
    return _truncation(ring, diag_bound, exp_bound, rng, dense, 2, lambda diag, h:
                       TriMat._of(ring, 2, diag, {(1, 2): h} if h.terms else {}))


def truncated_affplus(ring, diag_bound, exp_bound, rng, dense):
    """The affine analogue: (t^i, h) with |i| <= diag_bound, the same
    corners and `dense` sampled ones."""
    return _truncation(ring, diag_bound, exp_bound, rng, dense, 1,
                       lambda diag, h: AffElem._of(ring, diag[0], h))


def classify_universe(universe, phi):
    """Classify every element under a reflection automorphism; returns
    {parity: (representative, members)} in first-seen order.  Witnesses
    are re-verified inside classify_reflection."""
    classes = {}
    for g in universe:
        res = classify_reflection(g, phi)
        rep, members = classes.get(res.parity, (res.representative, 0))
        classes[res.parity] = (rep, members + 1)
    return classes


# ---------------------------------------------------------------------------
# finite-group structure: centers and the affine epimorphism

class CenterCheck(NamedTuple):
    group: object
    center: list
    description: str   # the structure the center is compared with
    matches: bool


def center_check(F, tag, n) -> CenterCheck:
    """The brute-force center of b_n, u_n or w_n (tag b, u or w) over
    gf(q), compared with its structural description.  A group of more
    than groups.MAX_CENTER_ELEMENTS elements is refused before any is
    listed."""
    q, upper = F.q, F.q ** (n * (n - 1) // 2)
    if tag == "b":
        grp, size, desc = Borel(F, n), upper * (q - 1) ** n, "scalar matrices"
    elif tag == "u":
        grp, size, desc = Unitriangular(F, n), upper, "corner subgroup"
    elif tag == "w":
        grp, size = CornerDiagGroup(F, n), q * (q - 1) ** (n - 1)
        desc = "matching outer diagonal entries, zero corner"
    else:
        raise GroupError(f"unsupported group {tag!r}")
    if size > groups.MAX_CENTER_ELEMENTS:
        raise GroupError(f"{grp.name} has {size} elements, more than the "
                         f"{groups.MAX_CENTER_ELEMENTS} that are enumerated")
    if tag == "b":
        expect = {identity(F, n).scaled(u) for u in F.units()}
    elif tag == "u":
        expect = {elementary(F, n, 1, n, c) for c in F.elements()}
    else:
        expect = {w for w in grp.elements() if not w.upper and w.diag[0] == w.diag[-1]}
    Z = center_bruteforce(grp)
    return CenterCheck(grp, Z, desc, set(Z) == expect)


# the all-pairs check costs about 7 us a pair (w3(gf(8)), 2-vCPU x86_64,
# Python 3.11), so this keeps affine_epimorphism near a minute
MAX_EPI_PAIRS = 10 ** 7


class EpiCheck(NamedTuple):
    homomorphism: bool
    onto: bool
    kernel_is_center: bool


def affine_epimorphism(F, n) -> EpiCheck:
    """The map w_n(gf(q)) -> aff(gf(q)) of to_affine, checked on a full
    enumeration: multiplicative on all pairs, onto, kernel = center."""
    size = F.q * (F.q - 1) ** (n - 1)
    if size * size > MAX_EPI_PAIRS:
        raise GroupError(f"w{n}({F.tag}) has {size * size} element pairs, "
                         f"more than the {MAX_EPI_PAIRS} that are checked")
    W = CornerDiagGroup(F, n)
    els = list(W.elements())
    imgs = [to_affine(a) for a in els]
    hom = all(to_affine(W.mul(a, b)) == fa * fb
              for a, fa in zip(els, imgs) for b, fb in zip(els, imgs))
    onto = len(set(imgs)) == len(list(Affine(F).elements()))
    kernel = {a for a, fa in zip(els, imgs) if fa.is_identity()}
    return EpiCheck(hom, onto, kernel == set(center_bruteforce(W)))


# ---------------------------------------------------------------------------
# the monomial family of the distinctness criterion

def family_exponents(p, imax):
    """The exponents p(p-1)i + p - 1, i = 0..imax."""
    return [p * (p - 1) * i + (p - 1) for i in range(imax + 1)]


def family_verdicts(alpha, exps, hi=None):
    """Membership of t^e - t^f, f before e in exps, in the image of
    id - alpha on gf(p)[t]; yields (e, f, verdict).  The solving window
    is [0, hi], or [0, e] for each pair when hi is None."""
    ring = alpha.ring
    F = ring.base
    phi = RingMap(alpha, Additive(ring))
    for ii, e in enumerate(exps):
        for f in exps[:ii]:
            r = ring.monomial(F.one(), e) - ring.monomial(F.one(), f)
            window = LinearWindow(ring, 0, e if hi is None else hi)
            yield e, f, additive_membership(r, phi, window,
                                            growth=2 * F.p * (F.p - 1))


# ---------------------------------------------------------------------------
# acceptance criteria

def criterion_reflection_counts(seed=0):
    """Class counts 4 / 2 / 1 for the reflection automorphisms over
    gf(q)[t,t^-1], q in {4,5,8,9}, on exponent truncations, with verified
    witnesses and the parity invariant."""
    details = []
    for q in (4, 5, 8, 9):
        F = field(q)
        ring = poly_ring(F, laurent=True)
        a = reflection_unit(F)
        rng = random.Random(seed)
        phiB = TriangularReflect(ring, a)
        uni = truncated_b2plus(ring, 3, 6, rng, dense=40)
        reps = classify_universe(uni, phiB)
        if len(reps) != 4:
            return False, f"q={q}: expected 4 classes, saw {len(reps)}"
        # parity is a twist invariant: distinct representatives never merge
        for _ in range(250):
            g = uni[rng.randrange(len(uni))]
            h = uni[rng.randrange(len(uni))]
            tw = twist(phiB, h, g)
            pg = tuple(ring.unit_decompose(u)[1][0] % 2 for u in g.diag)
            pt = tuple(ring.unit_decompose(u)[1][0] % 2 for u in tw.diag)
            if pg != pt:
                return False, f"q={q}: parity broke"
        phiA = AffineReflect(ring, a)
        uniA = truncated_affplus(ring, 3, 6, rng, dense=40)
        repsA = classify_universe(uniA, phiA)
        if len(repsA) != 2:
            return False, f"q={q}: affine expected 2 classes, saw {len(repsA)}"
        # the unipotent restriction: every corner is twisted to zero
        win = LinearWindow(ring, -6, 6)
        for _ in range(120):
            h = win.random(rng)
            # re-verified through twisted.reflection_corner; raises if it broke
            twisted.solve_reflection_corner(h, a, 0, 0, 0, 0)
        details.append(f"q={q}: 4/2/1 ok ({len(uni)}+{len(uniA)} elements witnessed)")
    return True, "; ".join(details)


def criterion_companion(seed=0):
    """det(1 - a C_P) != 0 for all units a (P irreducible of degree 2, 3
    over gf(q), q in {2,3,4,5}) and class count 1 for the scaled block
    companion on a window of dimension 24."""
    checked = 0
    for q in (2, 3, 4, 5):
        F = field(q)
        ring = poly_ring(F, laurent=False)
        for deg in (2, 3):
            P = first_irreducible(F, deg)
            comp = BlockCompanion(P)
            C = comp.companion_matrix()
            for a in F.units():
                aC = [[F.mul(a, x) for x in row] for row in C]
                one_minus = [[F.sub(F.one() if i == j else F.zero(), aC[i][j])
                              for j in range(deg)] for i in range(deg)]
                if F.is_zero(gf_det(F, one_minus)):
                    return False, f"q={q} deg={deg} a={F.to_str(a)}: det vanished"
                phi = Compose([CenterScale(ring, ring.constant(a)), comp])
                cc = additive_class_count(phi, LinearWindow(ring, 0, 23))
                if cc.count != 1 or not cc.stabilized:
                    return False, f"q={q} deg={deg} a={F.to_str(a)}: count {cc.count}"
                checked += 1
    return True, f"{checked} (q, P, a) combinations exact"


def criterion_reflection_unit(seed=0):
    """A unit a with 1 - a^2 invertible exists for q >= 4 and for no
    smaller q (exhaustive)."""
    for q in (4, 5, 7, 8, 9):
        if reflection_unit(field(q)) is None:
            return False, f"q={q}: no unit found"
    for q in (2, 3):
        if reflection_unit(field(q)) is not None:
            return False, f"q={q}: spurious unit"
    return True, "exists for q in {4,5,7,8,9}, none for q in {2,3}"


def criterion_structure(seed=0):
    """Brute-force centers against their structural descriptions, plus the
    corner-diagonal to affine epimorphism on a full enumeration."""
    details = []
    # scalar centers of the full triangular groups, corner centers of the
    # unitriangular ones, and for the corner-diagonal groups the matching
    # outer diagonal entries
    label = {"b": "scalars", "u": "corner", "w": "(u1=un, r=0)"}
    for tag, q, n in (("b", 3, 2), ("b", 4, 3), ("u", 2, 3), ("u", 2, 4),
                      ("w", 4, 3), ("w", 4, 4)):
        c = center_check(field(q), tag, n)
        if not c.matches:
            return False, f"Z({c.group.name}) != {c.description}"
        details.append(f"Z({c.group.name})={label[tag]}")
    # cross-check the generator-based centralizer against all pairs
    for grp in (Borel(field(3), 2), Unitriangular(field(2), 3)):
        if center_bruteforce(grp) != center_bruteforce(grp, full_pairs=True):
            return False, f"centralizer mismatch on {grp.name}"
    # the epimorphism onto the affine group, full enumeration at n=3, q=4
    epi = affine_epimorphism(field(4), 3)
    if not all(epi):
        return False, f"w3(gf(4)) -> aff(gf(4)): {epi}"
    details.append("w3(gf(4)) -> aff(gf(4)) epi with kernel=center")
    return True, "; ".join(details)


def _oracle_cases():
    """(name, phi, window) combos whose windows are invariant, small
    enough to enumerate, and cover the additive catalog."""
    out = []
    F2t = poly_ring(field(2), laurent=False)
    F3t = poly_ring(field(3), laurent=False)
    F4t = poly_ring(field(4), laurent=False)
    F5t = poly_ring(field(5), laurent=False)
    F2l = poly_ring(field(2), laurent=True)
    F3l = poly_ring(field(3), laurent=True)
    F4l = poly_ring(field(4), laurent=True)
    F5l = poly_ring(field(5), laurent=True)

    def add(name, phi, window):
        out.append((name, phi, window))

    add("id/gf(2)", IdentityMap(Additive(F2t)), LinearWindow(F2t, 0, 5))
    add("mul(1)/gf(2)", CenterScale(F2t, F2t.one()), LinearWindow(F2t, 0, 6))
    add("mul(2)/gf(3)", CenterScale(F3t, F3t.from_int(2)), LinearWindow(F3t, 0, 4))
    add("mul(w)/gf(4)", CenterScale(F4t, F4t.constant(2)), LinearWindow(F4t, 0, 3))
    add("mul(2)/gf(5)", CenterScale(F5t, F5t.from_int(2)), LinearWindow(F5t, 0, 2))
    add("sub(t->t+1)/gf(2)", RingMap(PolySub(F2t, 1, 1), Additive(F2t)),
        LinearWindow(F2t, 0, 6))
    add("sub(t->2t)/gf(3)", RingMap(PolySub(F3t, 2, 0), Additive(F3t)),
        LinearWindow(F3t, 0, 4))
    add("sub(t->2t+1)/gf(5)", RingMap(PolySub(F5t, 2, 1), Additive(F5t)),
        LinearWindow(F5t, 0, 2))
    add("sub(t->(w)t)/gf(4)", RingMap(PolySub(F4t, 2, 0), Additive(F4t)),
        LinearWindow(F4t, 0, 3))
    add("flip/gf(2)", RingMap(LaurentFlip(F2l), Additive(F2l)), LinearWindow(F2l, -3, 3))
    add("flip/gf(3)", RingMap(LaurentFlip(F3l), Additive(F3l)), LinearWindow(F3l, -2, 2))
    add("flip/gf(5)", RingMap(LaurentFlip(F5l), Additive(F5l)), LinearWindow(F5l, -1, 1))
    add("companion2/gf(2)", BlockCompanion(first_irreducible(field(2), 2)),
        LinearWindow(F2t, 0, 5))
    add("companion3/gf(2)", BlockCompanion(first_irreducible(field(2), 3)),
        LinearWindow(F2t, 0, 5))
    add("companion2/gf(3)", BlockCompanion(first_irreducible(field(3), 2)),
        LinearWindow(F3t, 0, 3))
    add("mul*companion/gf(2)",
        Compose([CenterScale(F2t, F2t.one()), BlockCompanion(first_irreducible(field(2), 2))]),
        LinearWindow(F2t, 0, 5))
    add("mul*companion/gf(3)",
        Compose([CenterScale(F3t, F3t.from_int(2)),
                 BlockCompanion(first_irreducible(field(3), 2))]),
        LinearWindow(F3t, 0, 3))
    add("tau(id)/gf(2)", PairSwap(IdentityAuto(), F2l), PairWindow(LinearWindow(F2l, -1, 1)))
    add("tau(flip)/gf(2)", PairSwap(LaurentFlip(F2l), F2l),
        PairWindow(LinearWindow(F2l, -1, 1)))
    add("tau(flip)/gf(3)", PairSwap(LaurentFlip(F3l), F3l),
        PairWindow(LinearWindow(F3l, -1, 1)))
    return out


def criterion_oracle(seed=0):
    """The partition oracle agrees with the cokernel count on invariant
    windows, and inner twists do not change the class count."""
    cases = _oracle_cases()
    for name, phi, window in cases:
        cc = additive_class_count(phi, window, rounds=0)
        part = brute_force_partition(list(window.elements()), phi,
                                     phi.domain, universe_name=name)
        if not part.complete or part.count != cc.count:
            return False, f"{name}: partition {part.count} vs cokernel {cc.count}"
        if not part.verify(phi):
            return False, f"{name}: witness verification failed"
    # inner twists on the full 2x2 triangular group over gf(4)
    F = field(4)
    B = Borel(F, 2)
    els = list(B.elements())
    rng = random.Random(seed)
    phis = [IdentityMap(B)] + [Inner(els[rng.randrange(len(els))], B) for _ in range(10)]
    base = None
    for phi in phis:
        part = brute_force_partition(els, phi, B)
        if not part.verify(phi, B):
            return False, f"{phi.word()} on B2(gf(4)): witness verification failed"
        base = part.count if base is None else base
        if part.count != base:
            return False, "inner twist changed the count"
    return True, f"{len(cases)} windows agree; inner twists fixed at {base}"


def criterion_distinct_family(seed=0):
    """The monomials t^(p(p-1)i + p - 1), i = 0, 1, 2, fall in pairwise
    distinct twisted classes for three substitutions per prime, and the
    difference split recombines on 500 random polynomials each."""
    rng = random.Random(seed)
    total_pairs = 0
    for p, pairs_ab in ((2, [(1, 1)]), (3, [(2, 0), (1, 1), (2, 1)]),
                        (5, [(2, 0), (1, 1), (4, 3)])):
        ring = poly_ring(field(p), laurent=False)
        subs = [PolySub(ring, a, b) for a, b in pairs_ab]
        if p == 2:
            subs = [PolySub(ring, 1, 1)] * 3  # the only non-identity choice
        for alpha in subs:
            for e, f, v in family_verdicts(alpha, family_exponents(p, 2)):
                if not v.decided or v.member:
                    return False, (f"p={p} {alpha.word()}: t^{e} vs t^{f}"
                                   f" decided={v.decided} member={v.member}")
                total_pairs += 1
            for _ in range(500):
                h = ring.random(rng, max_terms=6, span=3 * p)
                principal, rem = twist_split(h, alpha)
                back = rem
                for o, c in principal:
                    back = back + ring.monomial(c, p * o + p - 1)
                if back != h - alpha.apply(h):
                    return False, f"p={p}: recombination failed"
                if any(e >= 2 * p - 1 and e % p == p - 1 for e in rem.terms):
                    return False, f"p={p}: remainder kept a principal exponent"
    return True, f"{total_pairs} pairs decided distinct; 4500 splits exact"


def criterion_laurent_distinct(seed=0):
    """t^i and t^j (i != j <= 4) are never twisted-conjugate under either
    Laurent ring automorphism, and (t^i, 0) vs (0, -t^j) stay distinct
    under the coordinate swap."""
    checked = 0
    for p in (2, 3):
        ring = poly_ring(field(p), laurent=True)
        F = ring.base
        autos_ = [IdentityAuto(), LaurentFlip(ring)]
        for alpha in autos_:
            phi = RingMap(alpha, Additive(ring))
            for i in range(5):
                for j in range(i):
                    r = ring.monomial(F.one(), i) - ring.monomial(F.one(), j)
                    v = additive_membership(r, phi, LinearWindow(ring, -5, 5))
                    if not v.decided or v.member:
                        return False, f"p={p} {alpha.word()}: t^{i} vs t^{j}"
                    checked += 1
            pairs = []
            for i in range(5):
                for j in range(i):
                    pairs.append((
                        (ring.monomial(F.one(), i), ring.zero()),
                        (ring.zero(), -ring.monomial(F.one(), j)),
                    ))
            verdicts = pair_distinctness(alpha, pairs, PairWindow(LinearWindow(ring, -5, 5)))
            for v in verdicts:
                if not v.decided or v.member:
                    return False, f"p={p} tau({alpha.word()}): merge"
                checked += 1
    return True, f"{checked} pairs decided distinct"


def criterion_certificates(seed=0):
    """The unit-equation forcing over z[1/w] and the exponent-tuple case
    search, with the excluded-case exception."""
    for w in (2, 6, 30):
        res = solve_unit_equation(localized(w))
        if not res.identity_forced or res.det_one_minus != 0:
            return False, f"w={w}: forcing failed"
    F5t = poly_ring(field(5), laurent=False)
    rep = case_analysis(F5t.parse("t+3"), 3)  # t - 2 over gf(5)
    if not rep.all_eigenvalue_one or not rep.solutions:
        return False, "t-2/gf(5): " + rep.summary()
    F3t = poly_ring(field(3), laurent=False)
    rep = case_analysis(F3t.parse("t^2+1"), 3)
    if not rep.all_eigenvalue_one or not rep.solutions:
        return False, "t^2+1/gf(3): " + rep.summary()
    F2t = poly_ring(field(2), laurent=False)
    rep = case_analysis(F2t.parse("t+1"), 3)
    bad = [s for s in rep.exceptions if (s.a, s.b, s.c, s.d) == (0, -1, 1, -1)]
    if rep.all_eigenvalue_one or not bad:
        return False, "t+1/gf(2): exception missing"
    return True, ("unit equation forced for w in {2,6,30}; case search "
                  f"clean for t-2/gf(5), t^2+1/gf(3); exception {bad[0][:4]} "
                  f"with det(1-M)={bad[0].det_one_minus}")


def _catalog_for_verification():
    """One instantiation of every catalog automorphism, across the rings."""
    F2t = poly_ring(field(2), laurent=False)
    F5t = poly_ring(field(5), laurent=False)
    F4l = poly_ring(field(4), laurent=True)
    F9l = poly_ring(field(9), laurent=True)
    Zt = poly_ring(ZZ, laurent=False)
    Zl = poly_ring(ZZ, laurent=True)
    Z6 = localized(6)
    rng = random.Random(7)
    out = []
    U5_z6 = Unitriangular(Z6, 5)
    U5_f5 = Unitriangular(F5t, 5)
    U5_f2 = Unitriangular(F2t, 5)
    B3 = Borel(F5t, 3)
    out.append(("inner", Inner(B3.random(rng), B3)))
    PB3 = ProjBorel(F4l, 3, plus=True)
    out.append(("inner-proj", Inner(PB3.random(rng), PB3)))
    out.append(("central-mulby", Central(U5_f2, 1, MulBy(F2t, F2t.gen()))))
    out.append(("central-zero", Central(U5_f5, 3, ZeroEndo(F5t))))
    win = LinearWindow(F2t, 0, 3)
    mat = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]
    out.append(("central-window", Central(U5_f2, 2, WindowLinear(win, mat))))
    out.append(("sigma-halfsquare-f5", SigmaFirst(U5_f5, HalfSquare(F5t, F5t.gen()), F5t.gen())))
    out.append(("sigma-halfsquare-z6",
                SigmaFirst(U5_z6, HalfSquare(Z6, Z6.from_int(3)), Z6.from_int(3))))
    out.append(("sigmap-halfsquare", SigmaLast(U5_f5, HalfSquare(F5t, F5t.gen()), F5t.gen())))
    out.append(("flip", Flip(U5_f2)))
    out.append(("flip-f5", Flip(U5_f5)))
    out.append(("ring-sub", RingMap(PolySub(F5t, 2, 1), U5_f5)))
    out.append(("ring-sub-matrix", RingMap(PolySub(F2t, 1, 1), Borel(F2t, 3))))
    out.append(("ring-flip", RingMap(LaurentFlip(F4l), Borel(F4l, 2, plus=True))))
    out.append(("companion", BlockCompanion(first_irreducible(field(2), 2))))
    out.append(("mul", CenterScale(F5t, F5t.from_int(2))))
    out.append(("phiA", AffineReflect(F4l, reflection_unit(field(4)))))
    out.append(("phiB", TriangularReflect(F9l, reflection_unit(field(9)))))
    out.append(("augB2", AugScale(Zt)))
    out.append(("augB2plus", AugShift(Zl)))
    out.append(("tauAlpha", PairSwap(LaurentFlip(F4l), F4l)))
    out.append(("compose", Compose([Flip(U5_f5),
                                    RingMap(PolySub(F5t, 2, 0), U5_f5)])))
    # the ring-generic members, swept over every implemented ring
    for tag in RING_TAGS:
        ring = poly.parse_ring(tag)
        U5 = Unitriangular(ring, 5)
        B3r = Borel(ring, 3)
        out.append((f"inner/{tag}", Inner(B3r.random(rng), B3r)))
        out.append((f"central/{tag}", Central(U5, 2, MulBy(ring, ring.random(rng)))))
        out.append((f"flip/{tag}", Flip(U5)))
    return out


PROPERTY_SAMPLES = 1000


def criterion_properties(seed=0):
    """Relation suite, normal-form round trips, series inclusions,
    homomorphism checks for the catalog, the flip involution, the
    half-square identity and the factor-preserving normalisation, at 1000
    samples each."""
    rng = random.Random(seed)
    rings_pool = [poly.parse_ring(tag) for tag in RING_TAGS]
    # relations at full strength: PROPERTY_SAMPLES draws per ring per size
    for ring in rings_pool:
        for n in range(2, 7):
            ok, _, bad = relations_suite(ring, n, PROPERTY_SAMPLES, rng)
            if not ok:
                return False, f"relations broke on {ring.tag} n={n}: {bad}"
    # normal-form round trips
    for _ in range(PROPERTY_SAMPLES):
        ring = rings_pool[rng.randrange(len(rings_pool))]
        n = rng.randint(2, 6)
        u = Unitriangular(ring, n).random(rng)
        if recompose(ring, n, normal_form(u)) != u:
            return False, "normal form round trip failed"
    # series inclusions and the corner center
    for _ in range(PROPERTY_SAMPLES):
        ring = rings_pool[rng.randrange(len(rings_pool))]
        n = rng.randint(3, 6)
        U = Unitriangular(ring, n)
        k = rng.randint(1, n - 1)
        g = U.random(rng)
        h = U.random(rng)
        # force h into the k-th series term by clearing low layers
        coeffs = (r if j - i >= k else ring.zero()
                  for (i, j), r in zip(groups.nf_positions(n), normal_form(h)))
        hk = recompose(ring, n, coeffs)
        if not groups.gamma_member(hk, k):
            return False, "series membership broke"
        if not groups.gamma_member(g.commutator(hk), min(k + 1, n)):
            return False, "series inclusion broke"
        # abelianization is the superdiagonal, additively
        su = groups.superdiagonal(g * hk)
        sv = tuple(ring.add(a, b) for a, b in
                   zip(groups.superdiagonal(g), groups.superdiagonal(hk)))
        if su != sv:
            return False, "superdiagonal additivity broke"
    # catalog homomorphism checks
    for name, phi in _catalog_for_verification():
        rep = verify_homomorphism(phi, samples=PROPERTY_SAMPLES, rng=random.Random(seed + 1))
        if not rep.passed:
            return False, f"{name} failed homomorphism"
    # flip is an involution
    F2t = poly_ring(field(2), laurent=False)
    U5 = Unitriangular(F2t, 5)
    fl = Flip(U5)
    for _ in range(PROPERTY_SAMPLES):
        u = U5.random(rng)
        if fl.apply(fl.apply(u)) != u:
            return False, "flip is not an involution"
    # half-square identity over z[1/2] and gf(5)[t]
    for ring in (localized(2), poly_ring(field(5), laurent=False)):
        a = ring.from_int(3)
        lam = HalfSquare(ring, a)
        if check_sigma_pair(ring, lam, a, rng, PROPERTY_SAMPLES) is not None:
            return False, "half-square identity broke"
    # factor-preserving normalisation contract
    F5 = field(5)
    aff = Affine(F5)
    phi = Inner(AffElem(F5, 2, 3), aff)
    phi0 = Phi0(phi)
    for _ in range(PROPERTY_SAMPLES):
        g = aff.random(rng)
        n_part = AffElem(F5, F5.one(), g.r)
        if phi0.apply(n_part) != phi.apply(n_part):
            return False, "phi0 changed the kernel action"
        if phi0.apply(g).u != phi.apply(g).u:
            return False, "phi0 changed the induced quotient map"
    if not verify_homomorphism(phi0, samples=PROPERTY_SAMPLES, rng=rng).passed:
        return False, "phi0 is not a homomorphism"
    return True, ("relations, round trips, series, catalog,"
                  " involution, half-square, phi0: all clean")


def run_criterion(name, fn, budget, seed=0) -> ExperimentResult:
    """Run one entry of ALL_CRITERIA: fn(seed) returns (passed, detail),
    and this is the one place that names, times and budgets a criterion.
    The wall clock runs around fn(seed); a run that reaches the budget
    fails, and its detail says so."""
    t0 = time.time()
    passed, detail = fn(seed)
    elapsed = time.time() - t0
    if elapsed >= budget:
        passed, detail = False, f"{detail} [over budget {budget:.0f}s]"
    return ExperimentResult(name, passed, detail, elapsed)


ALL_CRITERIA = (
    ("1 reflection counts", criterion_reflection_counts, 60.0),
    ("2 companion blocks", criterion_companion, 10.0),
    ("3 reflection unit boundary", criterion_reflection_unit, 1.0),
    ("4 structure suite", criterion_structure, 120.0),
    ("5 oracle equivalence", criterion_oracle, 60.0),
    ("6 distinct family", criterion_distinct_family, 60.0),
    ("7 laurent distinctness", criterion_laurent_distinct, 30.0),
    ("8 certificates", criterion_certificates, 60.0),
    ("9 property suites", criterion_properties, 120.0),
)
