import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from twistconj import experiments, linalg, twisted
from twistconj.autos import (
    AffineReflect, Automorphism, BlockCompanion, CenterScale, Compose,
    IdentityMap, Inner, PairSwap, RingMap, TriangularReflect,
)
from twistconj.groups import (
    Additive, AffElem, Borel, GroupError, ProjBorel, TriMat, Unitriangular,
    diag_elem, elementary, generating_set, identity,
)
from twistconj.linalg import bareiss_det, det_one_minus
from twistconj.poly import IdentityAuto, LaurentFlip, PolySub, parse_ring
from twistconj.rings import ZZ, RingError, field
from test_linalg import _ref_rref
from twistconj.twisted import (
    LinearWindow, PairWindow, TwistedPartition, _ImageSpan, _index_of, _prepared,
    additive_class_count,
    additive_membership, brute_force_partition, case_analysis, classify_reflection,
    pair_distinctness, reflection_corner, reflection_unit,
    solve_reflection_corner, twist,
)

F2 = field(2)
F3 = field(3)
F4 = field(4)
F2T = parse_ring("gf(2)[t]")
F3T = parse_ring("gf(3)[t]")
F5T = parse_ring("gf(5)[t]")
F2L = parse_ring("gf(2)[t,t^-1]")
F3L = parse_ring("gf(3)[t,t^-1]")
F4L = parse_ring("gf(4)[t,t^-1]")
F5L = parse_ring("gf(5)[t,t^-1]")


def test_twist_examples():
    B = Borel(F3, 2)
    rng = random.Random(1)
    phi = IdentityMap(B)
    for _ in range(100):
        g, h = B.random(rng), B.random(rng)
        assert twist(phi, h, g) == h * g * h.inv()

    phi = TriangularReflect(F5L, 2)
    h = elementary(F5L, 2, 1, 2, F5L.one())
    g = identity(F5L, 2)
    assert twist(phi, h, g) == elementary(F5L, 2, 1, 2, F5L.from_int(4))


def test_twist_preserves_diag_parity():
    phi = TriangularReflect(F4L, reflection_unit(F4))
    B = Borel(F4L, 2, plus=True)
    rng = random.Random(2)
    for _ in range(1000):
        g, h = B.random(rng), B.random(rng)
        tw = twist(phi, h, g)
        pg = tuple(F4L.unit_decompose(u)[1][0] % 2 for u in g.diag)
        pt = tuple(F4L.unit_decompose(u)[1][0] % 2 for u in tw.diag)
        assert pg == pt


def test_additive_membership_examples():
    phi = IdentityMap(Additive(F2T))
    v = additive_membership(F2T.gen(), phi, LinearWindow(F2T, 0, 4))
    assert v.decided and not v.member

    shift = RingMap(PolySub(F2T, 1, 1), Additive(F2T))
    v = additive_membership(F2T.one(), shift, LinearWindow(F2T, 0, 4))
    assert v.decided and v.member
    assert v.witness == F2T.gen()                   # t - (t+1) = 1

    v = additive_membership(F2T.parse("t^3+t"), shift, LinearWindow(F2T, 0, 4))
    assert v.decided and not v.member


def test_membership_rounds_are_pinned():
    """Windows tried, verdicts and witnesses of fixed inputs, as computed
    before membership became one block-ordered elimination per round."""
    got = list(experiments.family_verdicts(PolySub(F3T, 1, 1),
                                           experiments.family_exponents(3, 2)))
    assert got == [                                 # criterion 6, p = 3
        (8, 2, (True, False, None, ((0, 8), (0, 20), (0, 32)))),
        (14, 2, (True, False, None, ((0, 14), (0, 26), (0, 38)))),
        (14, 8, (True, False, None, ((0, 14), (0, 26), (0, 38)))),
    ]

    shift = RingMap(PolySub(F2T, 1, 1), Additive(F2T))
    win = LinearWindow(F2T, 0, 4)
    assert additive_membership(F2T.gen(), shift, win) == \
        (True, False, None, ((0, 4), (0, 14), (0, 24), (0, 34)))
    for r, h in (("t^2+t^4", "t^3+t^5"), ("1+t+t^4", "t^5")):
        assert additive_membership(F2T.parse(r), shift, win) == \
            (True, True, F2T.parse(h), ((0, 4), (0, 14)))

    flip = RingMap(LaurentFlip(F2L), Additive(F2L))
    win = LinearWindow(F2L, -5, 5)
    assert additive_membership(F2L.parse("t^3+t^-3"), flip, win) == \
        (True, True, F2L.parse("t^-3"), ((-5, 5),))
    assert additive_membership(F2L.parse("t^3+t"), flip, win) == \
        (True, False, None, ((-5, 5), (-27, 27), (-49, 49)))

    t2, zero = F3L.parse("t^2"), F3L.zero()
    verdicts = pair_distinctness(
        LaurentFlip(F3L),
        [((t2, zero), (zero, -F3L.gen())), ((t2, zero), (zero, F3L.parse("t^-2")))],
        PairWindow(LinearWindow(F3L, -5, 5)))
    assert verdicts == [
        (True, False, None, ((-5, 5), (-27, 27), (-49, 49))),
        (True, True, (t2, zero), ((-5, 5),)),
    ]


def test_additive_membership_guards():
    phi = IdentityMap(Additive(F2T))
    with pytest.raises(RingError):
        additive_membership(F2T.parse("t^9"), phi, LinearWindow(F2T, 0, 4))
    with pytest.raises(GroupError):
        additive_membership((F2L.one(), F2L.zero()), phi,
                            PairWindow(LinearWindow(F2L, -1, 1)))


def test_linear_window_guards():
    for ring in (ZZ, F4, parse_ring("z[t]")):
        with pytest.raises(RingError):
            LinearWindow(ring, 0, 3)
    with pytest.raises(RingError):
        LinearWindow(F2T, 3, 2)                     # empty
    with pytest.raises(RingError):
        LinearWindow(F2T, -1, 2)                    # t^-1 is not in gf(2)[t]


def test_additive_class_count_examples():
    P = F2T.parse("t^2+t+1")
    phi = Compose([CenterScale(F2T, F2T.one()), BlockCompanion(P)])
    cc = additive_class_count(phi, LinearWindow(F2T, 0, 23))
    assert cc.count == 1 and cc.stabilized and cc.dim == 24

    cc = additive_class_count(IdentityMap(Additive(F2T)), LinearWindow(F2T, 0, 2))
    assert cc.count == 8                            # the cokernel is everything
    assert not cc.stabilized                        # and keeps growing

    flip = RingMap(LaurentFlip(F5L), Additive(F5L))
    cc = additive_class_count(flip, LinearWindow(F5L, -3, 3))
    assert cc.counts_tried[0] == 5 ** 4             # q^(N+1) on [-N, N]
    assert not cc.stabilized
    assert list(cc.counts_tried) == sorted(cc.counts_tried)

    with pytest.raises(GroupError):
        additive_class_count(BlockCompanion(P), LinearWindow(F2T, 0, 2))


class _CountingAuto(Automorphism):
    """phi, counting the calls of its apply."""

    def __init__(self, phi):
        self.phi, self.calls = phi, 0
        self.domain, self.block_size = phi.domain, phi.block_size

    def apply(self, x):
        self.calls += 1
        return self.phi.apply(x)

    def word(self):
        return self.phi.word()


def test_window_solvers_build_each_image_once():
    # criterion 6's t^8 vs t^2: windows [0, 8], [0, 20], [0, 32] share
    # their images, so 33 applies where a rebuild per round makes 9 + 21 + 33
    phi = _CountingAuto(RingMap(PolySub(F3T, 1, 1), Additive(F3T)))
    v = additive_membership(F3T.parse("t^8-t^2"), phi, LinearWindow(F3T, 0, 8),
                            growth=12)
    assert v == (True, False, None, ((0, 8), (0, 20), (0, 32)))
    assert phi.calls == 33
    # the regrowths [0, 23], [0, 47], [0, 95] of a class count: 96, not 168
    P = F2T.parse("t^2+t+1")
    phi = _CountingAuto(Compose([CenterScale(F2T, F2T.one()), BlockCompanion(P)]))
    cc = additive_class_count(phi, LinearWindow(F2T, 0, 23))
    assert cc == (1, True, 24, 24, (1, 1, 1))
    assert phi.calls == 96


def _dense_reference(phi, source, window):
    """(canonical W-basis, rank, outside count) of (id - phi)(source) from
    the per-cell reference RREF of the dense block-ordered image matrix:
    the coordinates outside W sorted first, W's own last.  The canonical
    basis is the reduced rows with their pivot in the W block, cut to W."""
    dom, F = phi.domain, window.field
    images = []
    for k in source.positions():
        b = source.make({k: F.one()})
        images.append(window.terms(dom.mul(b, dom.inv(phi.apply(b)))))
    target = list(window.positions())
    outside = sorted({k for img in images for k in img} - set(target))
    dense = [[img.get(k, 0) for k in outside + target] for img in images]
    red, pivots = _ref_rref(F, dense)
    cut = len(outside)
    canon = [row[cut:] for row, c in zip(red, pivots) if c >= cut]
    return canon, len(pivots), cut


def _dense_canonical(span):
    return [[row.get(c, 0) for c in range(span.window.dim)]
            for row in span.canonical().values()]


def test_images_basis_matches_the_dense_reference():
    """_ImageSpan's canonical W-basis and rank equal those of the dense
    block-ordered reference, and it numbers as many outside coordinates.
    The span orders the outside columns by first appearance, not sorted,
    so its rows with an outside pivot are its own and are not compared:
    the canonical basis, the rank and membership do not depend on them."""
    cases = (
        (RingMap(PolySub(F5T, 2, 1), Additive(F5T)), LinearWindow(F5T, 0, 6)),
        (RingMap(LaurentFlip(F3L), Additive(F3L)), LinearWindow(F3L, -2, 5)),
        (PairSwap(LaurentFlip(F3L), F3L), PairWindow(LinearWindow(F3L, -2, 3))),
    )
    for phi, window in cases:
        for source in (window, window.grow(3)):
            canon, rank, cut = _dense_reference(phi, source, window)
            assert canon

            span = _ImageSpan(phi, window)
            span.grow(source)
            assert len(span.col) - window.dim == cut
            assert span.rank == rank
            assert _dense_canonical(span) == canon
            assert all(min(row) == c for c, row in span.canonical().items())


P_COMPANION = F2T.parse("t^2+t+1")
# (phi, target window, growth step) for the per-round checks
_ROUND_CASES = {
    "sub": (RingMap(PolySub(F5T, 2, 1), Additive(F5T)), LinearWindow(F5T, 0, 6), 3),
    "flip": (RingMap(LaurentFlip(F3L), Additive(F3L)), LinearWindow(F3L, -2, 5), 2),
    "id": (IdentityMap(Additive(F3T)), LinearWindow(F3T, 0, 3), 2),
    "swap": (PairSwap(LaurentFlip(F3L), F3L), PairWindow(LinearWindow(F3L, -2, 3)), 2),
    "companion": (Compose([CenterScale(F2T, F2T.one()), BlockCompanion(P_COMPANION)]),
                  LinearWindow(F2T, 0, 5), 6),
}


@pytest.mark.parametrize("name", _ROUND_CASES)
def test_image_span_rounds_match_a_from_scratch_elimination(name, monkeypatch):
    # every round of a growing span has the canonical W-basis and rank of
    # a from-scratch elimination, and passes gf_rref only its reduced rows
    # and its new images
    phi, window, step = _ROUND_CASES[name]
    passed = []
    gf_rref = linalg.gf_rref

    def counting(F, rows):
        passed.append(len(rows))
        return gf_rref(F, rows)

    monkeypatch.setattr("twistconj.linalg.gf_rref", counting)
    span = _ImageSpan(phi, window)
    source = window
    for _ in range(4):
        new = len(set(source.positions()) - set(span.images))
        bound = span.rank + new
        passed.clear()
        span.grow(source)
        assert len(passed) == 1 and passed[0] <= bound
        canon, rank, _ = _dense_reference(phi, source, window)
        assert span.rank == rank
        assert _dense_canonical(span) == canon
        source = source.grow(step)


@pytest.mark.parametrize("phi, window", [
    (RingMap(PolySub(F5T, 2, 1), Additive(F5T)), LinearWindow(F5T, 0, 6)),
    (RingMap(LaurentFlip(F5L), Additive(F5L)), LinearWindow(F5L, -3, 3)),
    (IdentityMap(Additive(F3T)), LinearWindow(F3T, 0, 3)),
    (_ROUND_CASES["companion"][0], LinearWindow(F2T, 0, 5)),
], ids=["sub", "flip", "id", "companion"])
def test_class_count_regrowths_match_a_from_scratch_rank(phi, window):
    cc = additive_class_count(phi, window, rounds=3)
    src, counts = window, []
    for _ in range(4):
        _, rank, cut = _dense_reference(phi, src, src)
        assert cut == 0
        counts.append(window.field.q ** (src.dim - rank))
        src = src.grow(phi.block_size * max(1, src.span // 2))
    assert cc.counts_tried == tuple(counts)


def _value(ring, x):
    return tuple(ring.parse(s) for s in x) if isinstance(x, tuple) else ring.parse(x)


# (case, r, witness or None, windows tried) as returned before the span
# replaced the per-round elimination; growth is the case's step
_PINNED_VERDICTS = [
    ("sub", "3 + t + t^3 + 2*t^5 + t^6", "3*t + 2*t^2 + 2*t^3 + 2*t^5 + 3*t^6", ((0, 6),)),
    ("sub", "1 + 3*t + 2*t^2 + 4*t^5 + 4*t^6", "4*t + t^2 + 2*t^5 + 2*t^6", ((0, 6),)),
    ("sub", "4 + 2*t^3 + 2*t^5", "4*t^2 + 4*t^3 + 3*t^5", ((0, 6),)),
    ("sub", "1 + 2*t^2 + 3*t^4 + 4*t^6", None, ((0, 6), (0, 9), (0, 12))),
    ("flip", "t^2 + t - t^-1 - t^-2", "2*t^-2 + 2*t^-1", ((-2, 5),)),
    ("flip", "2*t^2 - 2*t^-2", "t^-2", ((-2, 5),)),
    ("flip", "1 + t + t^3 + 2*t^4", None, ((-2, 5), (-4, 7), (-6, 9))),
    ("id", "0", "0", ((0, 3),)),
    ("id", "2*t^2 + t^3", None, ((0, 3), (0, 5), (0, 7))),
    ("swap", ("t^-1 + 1 + 2*t^2", "t^-2 + 2 + 2*t"), ("t^-1 + 1 + 2*t^2", "0"), ((-2, 3),)),
    ("swap", ("2*t^-2 + t^-1 + 2", "1 + 2*t + t^2"), ("2*t^-2 + t^-1 + 2", "0"), ((-2, 3),)),
    ("swap", ("2 + t^2 + 2*t^3", "2*t^-2 + 2 + t^3"), None, ((-2, 3), (-4, 5), (-6, 7))),
    ("companion", "1 + t + t^2 + t^4", "1 + t^3 + t^5", ((0, 5),)),
    ("companion", "1 + t^2 + t^3 + t^4", "t + t^2 + t^5", ((0, 5),)),
]


@pytest.mark.parametrize("name, r, witness, tried", _PINNED_VERDICTS)
def test_membership_witnesses_match_the_pinned_ones(name, r, witness, tried):
    phi, window, step = _ROUND_CASES[name]
    ring = window.ring
    v = additive_membership(_value(ring, r), phi, window, growth=step)
    assert v.decided and v.member == (witness is not None)
    assert v.witness == (None if witness is None else _value(ring, witness))
    assert v.windows_tried == tried


def test_window_solvers_refuse_a_growth_or_round_count_that_checks_nothing(monkeypatch):
    # r = (id - phi)(t^2) is found by the default growth; growth 0 kept the
    # window [0, 1] and called r "decided, not a member"
    phi = RingMap(PolySub(F5T, 1, 1), Additive(F5T))
    window = LinearWindow(F5T, 0, 1)
    r = F5T.parse("4 + 3*t")
    assert additive_membership(r, phi, window) == (True, True, F5T.parse("t^2"),
                                                   ((0, 1), (0, 5)))
    assert additive_class_count(phi, window, rounds=0).counts_tried == (5,)

    def ran(*args, **kwargs):
        raise AssertionError("a refused call did work")

    for target in ("twistconj.linalg.gf_rref", "twistconj.linalg.gf_reduce"):
        monkeypatch.setattr(target, ran)
    monkeypatch.setattr(phi, "apply", ran)
    for growth in (0, -1):
        with pytest.raises(RingError, match="growth"):
            additive_membership(r, phi, window, growth=growth)
    with pytest.raises(RingError, match="rounds"):
        additive_class_count(phi, window, rounds=-1)


def _corner_by_polys(f, a, k, l, x, y):
    # the definition, through Poly operations only
    return f.shift(l + y) - f.reversed_var().scale(a).shift(2 * k + l + x)


def test_solve_reflection_corner():
    f = solve_reflection_corner(F5L.one(), 2, 0, 0, 0, 0)
    assert f == F5L.from_int(4)                     # 4 - 2*4 = 1 mod 5
    assert solve_reflection_corner(F5L.zero(), 2, 0, 0, 0, 0).is_zero()
    rng = random.Random(3)
    for q in (4, 5, 8, 9):
        ring = parse_ring(f"gf({q})[t,t^-1]")
        F = ring.base
        a = reflection_unit(F)
        for _ in range(200):
            h = ring.random(rng)
            k, l = rng.randint(-3, 3), rng.randint(-3, 3)
            x, y = rng.randint(0, 1), rng.randint(0, 1)
            f = solve_reflection_corner(h, a, k, l, x, y)
            assert _corner_by_polys(f, a, k, l, x, y) == h
        # every k, l in [-3, 3] and parity (x, y), on a dense h over [-6, 6]
        # and on h = 0
        for k in range(-3, 4):
            for l in range(-3, 4):
                for x in (0, 1):
                    for y in (0, 1):
                        h = ring.make({e: rng.randrange(1, q) for e in range(-6, 7)})
                        f = solve_reflection_corner(h, a, k, l, x, y)
                        assert _corner_by_polys(f, a, k, l, x, y) == h
                        assert solve_reflection_corner(ring.zero(), a, k, l, x, y).is_zero()
        # m = m' pairs with itself: h_m = (1 - a) f_(m-l-y)
        k, l, x, y = 1, -2, 1, 1
        m = k + l + (x + y) // 2
        f = solve_reflection_corner(ring.monomial(F.one(), m), a, k, l, x, y)
        assert f == ring.monomial(F.inv(F.sub(F.one(), a)), m - l - y)
        # h_m = -a h_m' makes X = 0: the pair leaves one term, Y = 1 at m'-l-y
        k, l, x, y, m = 0, 1, 0, 1, -2
        mp = 2 * k + 2 * l + x + y - m
        h = ring.make({m: F.neg(a), mp: F.one()})
        f = solve_reflection_corner(h, a, k, l, x, y)
        assert f == ring.monomial(F.one(), mp - l - y)
        assert _corner_by_polys(f, a, k, l, x, y) == h
    for a in (1, 2):
        with pytest.raises(RingError):
            solve_reflection_corner(F3L.one(), a, 0, 0, 0, 0)


def test_reflection_corner_tells_a_tampered_solution():
    # the shared check is the corner map itself: it equals the Poly-level
    # definition, and changing any one coefficient of a solution changes it
    rng = random.Random(7)
    for q in (4, 5, 8, 9):
        ring = parse_ring(f"gf({q})[t,t^-1]")
        F = ring.base
        a = reflection_unit(F)
        for _ in range(50):
            h = ring.random(rng, max_terms=6, span=6)
            k, l = rng.randint(-3, 3), rng.randint(-3, 3)
            x, y = rng.randint(0, 1), rng.randint(0, 1)
            lo, hi = l + y, 2 * k + l + x
            f = solve_reflection_corner(h, a, k, l, x, y)
            assert reflection_corner(f, a, lo, hi) == _corner_by_polys(f, a, k, l, x, y) == h
            e = rng.choice(sorted(f.terms) + [rng.randint(-9, 9)])
            bad = dict(f.terms)
            bad[e] = F.add(f.coeff(e), rng.randrange(1, q))
            assert reflection_corner(ring.make(bad), a, lo, hi) != h
    assert reflection_corner(F4L.zero(), 2, 0, 0) is F4L.zero()
    with pytest.raises(RingError):
        reflection_corner(F5T.one(), 2, 0, 0)


def test_classify_examples():
    a4 = reflection_unit(F4)
    phi = TriangularReflect(F4L, a4)
    one = F4L.one()

    g = TriMat(F4L, 2, (F4L.parse("t^2"), F4L.parse("t")), {(1, 2): F4L.parse("t+1")})
    res = classify_reflection(g, phi)
    assert res.parity == (0, 1)
    assert res.representative == TriMat(F4L, 2, (one, F4L.gen()), {})

    res = classify_reflection(identity(F4L, 2), phi)
    assert res.parity == (0, 0) and res.witness == identity(F4L, 2)

    g = TriMat(F4L, 2, (F4L.parse("t^3"), F4L.parse("t^5")), {(1, 2): F4L.parse("t^-2+1")})
    res = classify_reflection(g, phi)
    assert res.parity == (1, 1)
    assert twist(phi, res.witness, res.representative) == g

    phiA = AffineReflect(F4L, a4)
    g = AffElem(F4L, F4L.parse("t^2"), F4L.parse("t^-1"))
    res = classify_reflection(g, phiA)
    assert res.parity == (0, 0)
    assert twist(phiA, res.witness, res.representative) == g


def test_classify_reflection_keeps_its_witness_words():
    # the parity:witness-word lines of seeded b2plus and aff-plus universes
    # over gf(4)[t,t^-1], pinned by their SHA-256
    a = reflection_unit(F4)
    lines = []
    for phi, make in ((TriangularReflect(F4L, a), experiments.truncated_b2plus),
                      (AffineReflect(F4L, a), experiments.truncated_affplus)):
        for g in make(F4L, 3, 5, random.Random(20), dense=100):
            res = classify_reflection(g, phi)
            lines.append(f"{res.parity}:{res.witness!r}")
    assert len(lines) == 2104
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "ff9e3874013daa3d5ac9e3dec152856e3725cff7c758e051ed4a9562b4e1b6a6"


def _truncation_by_checks(ring, diag_bound, exp_bound, rng, dense, rank):
    """The truncated universe built through the checking constructors,
    with a hash dedupe, and the number of samples dropped as repeats of a
    grid element (a corner of at most one term)."""
    one = ring.base.one()
    corners = [ring.zero()] + [ring.monomial(c, m)
                               for m in range(-exp_bound, exp_bound + 1)
                               for c in ring.base.units()]
    exps = range(-diag_bound, diag_bound + 1)

    def make(ks, h):
        diag = [ring.monomial(one, k) for k in ks]
        if rank == 1:
            return AffElem(ring, diag[0], h)
        return TriMat(ring, 2, diag, {(1, 2): h})

    grid = [make((i,), h) for i in exps for h in corners] if rank == 1 else \
        [make((i, j), h) for i in exps for j in exps for h in corners]
    win = LinearWindow(ring, -exp_bound, exp_bound)
    samples = []
    for _ in range(dense):
        ks = tuple(rng.randint(-diag_bound, diag_bound) for _ in range(rank))
        samples.append(make(ks, win.random(rng)))
    seen, out = set(grid), list(grid)
    dropped_as_grid = 0
    for g in samples:
        if g in seen:
            h = g.r if rank == 1 else g.entry(1, 2)
            dropped_as_grid += len(h.terms) <= 1
        else:
            seen.add(g)
            out.append(g)
    return out, dropped_as_grid


def test_truncated_universes_match_the_checked_and_deduplicated_build():
    # the unchecked builders list the same elements, in the same order, as
    # the checking constructors plus a hash dedupe; the small windows over
    # gf(4) draw many corners of at most one term, which must be dropped
    dropped = 0
    cases = [(q, 3, 6, 40) for q in (4, 5, 8, 9)] + \
        [(4, 0, 0, 30), (4, 0, 1, 30), (4, 1, 1, 30), (5, 2, 2, 60)]
    for q, d, e, dense in cases:
        ring = parse_ring(f"gf({q})[t,t^-1]")
        one = ring.base.one()
        for seed in range(4):
            for rank, make in ((2, experiments.truncated_b2plus),
                               (1, experiments.truncated_affplus)):
                want, n = _truncation_by_checks(ring, d, e, random.Random(seed), dense, rank)
                got = make(ring, d, e, random.Random(seed), dense=dense)
                dropped += n
                assert got == want, (q, d, e, seed, rank)
                assert len(set(got)) == len(got)
                for g in got:
                    diag = (g.u,) if rank == 1 else g.diag
                    # the diagonal entries are the ring's shared units
                    assert all(u is ring.monomial(one, ring.unit_decompose(u)[1][0])
                               for u in diag)
                    if rank == 2:
                        assert all(v.terms for v in g.upper.values())
    assert dropped > 50


def test_classify_refuses_an_element_with_a_torsion_factor():
    # a diagonal entry c*t^k with c != 1 lies outside the torsion-free group:
    # bad input (GroupError), not a failed witness (AssertionError)
    a4 = reflection_unit(F4)
    P = F4L.parse
    g = TriMat(F4L, 2, (P("w*t"), F4L.one()), {(1, 2): P("t+1")})
    with pytest.raises(GroupError, match="torsion"):
        classify_reflection(g, TriangularReflect(F4L, a4))
    g = AffElem(F4L, P("(w+1)*t^2"), P("t^-1"))
    with pytest.raises(GroupError, match="torsion"):
        classify_reflection(g, AffineReflect(F4L, a4))


def test_brute_force_examples():
    # u2(gf(2)) is abelian: twisting by the identity fixes everything
    phi = IdentityMap(Additive(F2))
    part = brute_force_partition(list(F2.elements()), phi)
    assert part.count == 2

    U3 = Unitriangular(F2, 3)
    part = brute_force_partition(list(U3.elements()), IdentityMap(U3), U3)
    assert part.count == 5 and part.complete
    assert part.verify(IdentityMap(U3))

    phi = CenterScale(F4, F4.parse("w"))
    part = brute_force_partition(list(F4.elements()), phi)
    assert part.count == 1                          # 1 - w is invertible


def test_twisted_conjugacy_is_an_equivalence():
    B = Borel(F3, 2)
    els = list(B.elements())
    g0 = els[7]
    phi = Inner(g0, B)
    rng = random.Random(4)
    for _ in range(200):
        g, h, k = (els[rng.randrange(len(els))] for _ in range(3))
        assert twist(phi, B.identity(), g) == g                      # reflexive
        g1 = twist(phi, h, g)
        assert twist(phi, h.inv(), g1) == g                          # symmetric
        assert twist(phi, k, g1) == twist(phi, k * h, g)             # transitive


def test_count_bounds_through_quotients():
    # full group vs diagonal quotient: the count upstairs dominates
    B = Borel(F3, 2)
    els = list(B.elements())
    part = brute_force_partition(els, IdentityMap(B), B)
    diag_quotient_count = (3 - 1) ** 2        # identity on units^2
    assert part.count >= diag_quotient_count
    # central extension: count <= (count on scalars) * (count on classes)
    P = ProjBorel(F3, 2)
    proj = brute_force_partition(list(P.elements()), IdentityMap(P), P)
    scalar_count = 2                          # identity on the 2 scalars
    assert part.count <= scalar_count * proj.count


def test_inner_twist_keeps_count():
    B = Borel(F4, 2)
    els = list(B.elements())
    base = brute_force_partition(els, IdentityMap(B), B).count
    rng = random.Random(5)
    for _ in range(10):
        g = els[rng.randrange(len(els))]
        assert brute_force_partition(els, Inner(g, B), B).count == base


def test_partition_flags_escape():
    # a truncation that is not closed under products: refused, not partitioned
    ring = F4L
    B = Borel(ring, 2, plus=True)
    phi = TriangularReflect(ring, reflection_unit(F4))
    one = ring.base.one()
    universe = [TriMat(ring, 2, (ring.monomial(one, i), ring.monomial(one, j)), {})
                for i in (-1, 0, 1) for j in (-1, 0, 1)]
    with pytest.raises(GroupError, match="the universe is not a finite group"):
        brute_force_partition(universe, phi, B)


def test_oracle_equivalence_sample():
    phi = RingMap(PolySub(F3T, 2, 1), Additive(F3T))
    win = LinearWindow(F3T, 0, 3)
    cc = additive_class_count(phi, win, rounds=0)
    part = brute_force_partition(list(win.elements()), phi, phi.domain)
    assert part.complete and part.count == cc.count


def _all_pairs_partition(universe, phi, group=None):
    # the reference partition: every pair (h, g) twisted by right division,
    # t = h g / phi(h), with phi(h) applied once per h; each class is
    # labelled by its least index, a merge relabels the later class, and a
    # t outside the universe is skipped
    group = group or phi.domain
    els = list(universe)
    index = {g: i for i, g in enumerate(els)}
    label = list(range(len(els)))
    complete, witnesses = True, []
    images = [phi.apply(h) for h in els]
    for gi, g in enumerate(els):
        for h, ph in zip(els, images):
            t = group.div(group.mul(h, g), ph)
            ti = index.get(t)
            if ti is None:
                complete = False
                continue
            a, b = label[gi], label[ti]
            if a != b:
                a, b = min(a, b), max(a, b)
                label = [a if x == b else x for x in label]
                witnesses.append((h, g, t))
    sizes = Counter(label)
    classes = tuple((els[i], sizes[i]) for i in sorted(sizes))
    return TwistedPartition(phi.word(), f"{len(els)} elements", classes, len(classes),
                            complete, tuple(witnesses))


def _assert_orbits_match_all_pairs(universe, phi, group=None):
    orbit = brute_force_partition(universe, phi, group)
    ref = _all_pairs_partition(universe, phi, group)
    assert (orbit.count, orbit.classes, orbit.complete, len(orbit.witnesses)) == \
        (ref.count, ref.classes, ref.complete, len(ref.witnesses))
    assert orbit.complete and len(orbit.witnesses) == len(universe) - orbit.count
    assert orbit.verify(phi, group) and ref.verify(phi, group)


def test_partition_matches_all_pairs_on_oracle_windows():
    rng = random.Random(11)
    for _, phi, window in experiments._oracle_cases():
        universe = list(window.elements())
        rng.shuffle(universe)
        _assert_orbits_match_all_pairs(universe, phi)


def test_partition_matches_all_pairs_on_finite_groups():
    B = Borel(F4, 2)
    els = list(B.elements())
    random.Random(12).shuffle(els)
    _assert_orbits_match_all_pairs(els, IdentityMap(B), B)
    for g in els:
        _assert_orbits_match_all_pairs(els, Inner(g, B), B)
    # u2 over gf(4) and gf(5) are abelian: their classes are cosets
    for G in (Unitriangular(F2, 3), ProjBorel(F3, 2), Unitriangular(F4, 2),
              Unitriangular(field(5), 2)):
        els = list(G.elements())
        _assert_orbits_match_all_pairs(els, IdentityMap(G), G)
        _assert_orbits_match_all_pairs(els, Inner(els[-1], G), G)


def test_prepared_universe_changes_no_partition():
    # each partition is the same from the memo as after clearing it
    B = Borel(F4, 2)
    els = list(B.elements())
    random.Random(14).shuffle(els)
    cases = [(list(window.elements()), phi, phi.domain)
             for _, phi, window in experiments._oracle_cases()]
    cases += [(els, Inner(g, B), B) for g in els]
    for universe, phi, group in cases:
        first = brute_force_partition(universe, phi, group)
        assert brute_force_partition(universe, phi, group) == first
        _prepared.cache_clear()
        assert brute_force_partition(universe, phi, group) == first
    # the memo is keyed by contents and group, not by the list object
    brute_force_partition(els, IdentityMap(B), B)
    els.reverse()
    _assert_orbits_match_all_pairs(els, Inner(els[5], B), B)
    _assert_orbits_match_all_pairs(els[3:] + els[:3], Inner(els[5], B), B)
    B_again = Borel(F4, 2)
    _assert_orbits_match_all_pairs(els, Inner(els[7], B_again), B_again)


class _CountingMap:
    # phi with every apply counted, by argument
    def __init__(self, phi):
        self.phi, self.domain, self.calls = phi, phi.domain, Counter()

    def apply(self, h):
        self.calls[h] += 1
        return self.phi.apply(h)


def test_verify_checks_every_witness_and_applies_phi_once_per_twister():
    B = Borel(F4, 2)
    els = list(B.elements())
    phi = Inner(els[9], B)
    part = brute_force_partition(els, phi, B)
    counting = _CountingMap(phi)
    assert part.verify(counting, B)
    twisters = {h for h, _, _ in part.witnesses}
    assert len(twisters) < len(part.witnesses)
    assert counting.calls == Counter(twisters)
    # a later witness of an already applied twister is still checked
    k = next(k for k, (h, _, _) in enumerate(part.witnesses)
             if any(h == w[0] for w in part.witnesses[:k]))
    h, g, t = part.witnesses[k]
    assert t != g
    bad = list(part.witnesses)
    bad[k] = (h, g, g)
    assert not part._replace(witnesses=tuple(bad)).verify(phi, B)


def _closure(gens, group):
    # the subgroup gens generate, breadth first from the identity
    seen = {group.identity()}
    todo = list(seen)
    for x in todo:
        for s in gens:
            y = group.mul(x, s)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _assert_generates_irredundantly(gens, els, group):
    # each generator lies outside what the earlier ones generate, and all
    # of them generate the universe
    for k, s in enumerate(gens):
        assert s not in _closure(gens[:k], group)
    assert _closure(gens, group) == set(els)


def test_generating_set_size_does_not_depend_on_list_order():
    # a list-order walk of B2(gf(4)) took two or three generators by shuffle
    B = Borel(F4, 2)
    els = list(B.elements())
    rng = random.Random(13)
    for _ in range(40):
        rng.shuffle(els)
        gens = generating_set(els, _index_of(els), B)
        assert len(gens) == 2
        _assert_generates_irredundantly(gens, els, B)
    # an elementary abelian window needs exactly its dimension
    window = LinearWindow(F3T, 0, 4)
    els = list(window.elements())
    for _ in range(5):
        rng.shuffle(els)
        gens = generating_set(els, _index_of(els), Additive(F3T))
        assert len(gens) == 5
        _assert_generates_irredundantly(gens, els, Additive(F3T))


def test_partition_falls_back_without_identity():
    # a universe without the identity is no group: refused
    phi = CenterScale(F4, F4.parse("w"))
    universe = [x for x in F4.elements() if x != F4.zero()]
    with pytest.raises(GroupError, match="the universe is not a finite group"):
        brute_force_partition(universe, phi)


def test_partition_falls_back_when_phi_leaves_the_subgroup():
    # the window t^0..t^3 is an additive subgroup; t -> 1/t does not keep
    # it, and the coset path refuses it
    phi = RingMap(LaurentFlip(F2L), Additive(F2L))
    universe = list(LinearWindow(F2L, 0, 3).elements())
    with pytest.raises(GroupError, match=r"^ring\(t->t\^-1\) does not preserve the universe$"):
        brute_force_partition(universe, phi)


def test_partition_falls_back_when_phi_leaves_a_nonabelian_subgroup():
    # H = e(1,2;x) d(1;u) in B3(gf(3)) is a group whose generators do not
    # commute; conjugation by e(2,3;1) moves e(1,2;1) out of H
    B = Borel(F3, 3)
    universe = [elementary(F3, 3, 1, 2, x) * diag_elem(F3, 3, 1, u)
                for x in F3.elements() for u in (1, 2)]
    gens = generating_set(universe, _index_of(universe), B)
    assert gens == [elementary(F3, 3, 1, 2, 1), diag_elem(F3, 3, 1, 2)]
    assert gens[0] * gens[1] != gens[1] * gens[0]
    # the union-find over the generators refuses it
    phi = Inner(elementary(F3, 3, 2, 3, 1), B)
    with pytest.raises(GroupError, match=r"^inner\(.*\) does not preserve the universe$"):
        brute_force_partition(universe, phi, B)


def _det_fraction(rows):
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] * inv
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def test_eigenvalue_one():
    assert det_one_minus([[1, 0], [0, 1]]) == 0
    assert det_one_minus([[0, 1], [1, 0]]) == 0
    assert det_one_minus([[0, -1], [1, 0]]) == 2    # rotation: no eigenvalue 1
    assert bareiss_det([[1, 1], [1, 1]]) == 0
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(rows) == _det_fraction(rows)
        one_minus = [[(1 if i == j else 0) - rows[i][j] for j in range(n)]
                     for i in range(n)]
        assert det_one_minus(rows) == _det_fraction(one_minus)


def test_case_analysis_examples():
    rep = case_analysis(F5T.parse("t+3"), 3)        # t - 2 over gf(5)
    assert rep.all_eigenvalue_one
    assert {(s.a, s.b, s.c, s.d) for s in rep.solutions} == {(1, 0, 0, 1)}

    rep = case_analysis(F3T.parse("t^2+1"), 3)
    assert rep.all_eigenvalue_one
    assert {(s.a, s.b, s.c, s.d) for s in rep.solutions} == \
        {(1, 0, 0, 1), (-1, 0, -2, 1)}

    rep = case_analysis(F2T.parse("t+1"), 3)        # the excluded shape
    assert not rep.all_eigenvalue_one
    bad = {(s.a, s.b, s.c, s.d): s.det_one_minus for s in rep.exceptions}
    assert bad[(0, -1, 1, -1)] == 3

    with pytest.raises(RingError):
        case_analysis(F2T.gen(), 3)                 # f = t
    with pytest.raises(RingError):
        case_analysis(F2T.parse("t^2+1"), 3)        # reducible
    with pytest.raises(RingError):
        case_analysis(parse_ring("gf(4)[t]").parse("t+w"), 2)   # not prime-field


def test_case_analysis_refuses_a_box_over_the_bound(monkeypatch):
    def searched(*args):
        raise AssertionError("the refused box was searched")

    monkeypatch.setattr(twisted, "is_irreducible", searched)
    monkeypatch.setattr(twisted, "poly_ring", searched)
    assert (2 * 27 + 1) ** 4 <= twisted.MAX_CASE_TUPLES < (2 * 28 + 1) ** 4
    with pytest.raises(RingError, match="box 28 holds 10556001 tuples"):
        case_analysis(F3T.parse("t^2+1"), 28)


def test_case_solutions_verify_in_localization():
    # re-verify each reported tuple by clearing denominators independently
    for ring, fs in ((F5T, "t+3"), (F3T, "t^2+1"), (F2T, "t+1")):
        f = ring.parse(fs)
        L = parse_ring(ring.base.tag + "[t,t^-1]")
        fL = L.make(dict(f.terms))
        m = f.degree
        lam = [f.coeff(k) for k in range(m + 1)]
        for s in case_analysis(f, 3).solutions:
            clear = max(0, -s.d, -s.b * m if s.b < 0 else 0)
            lhs = (fL ** (s.d + clear)).shift(s.c)
            rhs = L.zero()
            for k in range(m + 1):
                if lam[k]:
                    rhs = rhs + (fL ** (s.b * k + clear)).shift(s.a * k).scale(lam[k])
            assert lhs == rhs
            assert abs(s.det) == 1


def test_pair_distinctness_examples():
    win = PairWindow(LinearWindow(F2L, -4, 4))
    flip = LaurentFlip(F2L)
    verdicts = pair_distinctness(
        flip,
        [((F2L.gen(), F2L.zero()), (F2L.zero(), -F2L.one()))],
        win)
    assert verdicts[0].decided and not verdicts[0].member

    verdicts = pair_distinctness(
        flip, [((F2L.zero(), F2L.zero()), (F2L.zero(), F2L.zero()))], win)
    assert verdicts[0].decided and verdicts[0].member   # same class

    win3 = PairWindow(LinearWindow(F3L, -4, 4))
    verdicts = pair_distinctness(
        IdentityAuto(),
        [((F3L.parse("t^2"), F3L.zero()), (F3L.zero(), -F3L.gen()))],
        win3)
    assert verdicts[0].decided and not verdicts[0].member
