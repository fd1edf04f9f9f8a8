import random

import pytest

from twistconj.autos import (
    AffineReflect, AugScale, AugShift, BlockCompanion, Central, CenterScale,
    Compose, Flip, HalfSquare, IdentityMap, Inner, MulBy, PairSwap, Phi0,
    RingMap, SigmaFirst, SigmaLast, TriangularReflect, WindowLinear,
    parse_auto, verify_homomorphism,
)
from twistconj.experiments import RING_TAGS
from twistconj.groups import (
    Additive, AffElem, Affine, Borel, GroupError, ProjElem, TriMat,
    Unitriangular, elementary, diag_elem, identity, nf_positions, normal_form,
    superdiagonal,
)
from twistconj.poly import PolySub, parse_ring
from twistconj.rings import RingError, field, localized
from twistconj.twisted import LinearWindow

F2T = parse_ring("gf(2)[t]")
F5T = parse_ring("gf(5)[t]")
F4L = parse_ring("gf(4)[t,t^-1]")
F5L = parse_ring("gf(5)[t,t^-1]")
ZT = parse_ring("z[t]")
ZL = parse_ring("z[t,t^-1]")


def _random_nonzero(ring, rng):
    a = ring.random(rng)
    while ring.is_zero(a):
        a = ring.random(rng)
    return a


def test_flip_examples():
    U3 = Unitriangular(F5T, 3)
    fl = Flip(U3)
    r = F5T.parse("t+1")
    assert fl.apply(elementary(F5T, 3, 1, 2, r)) == elementary(F5T, 3, 2, 3, r)
    assert fl.apply(elementary(F5T, 3, 1, 3, r)) == \
        elementary(F5T, 3, 1, 3, F5T.neg(r))
    rng = random.Random(91)
    U5 = Unitriangular(F5T, 5)
    fl5 = Flip(U5)
    for _ in range(300):
        u = U5.random(rng)
        assert fl5.apply(fl5.apply(u)) == u
    with pytest.raises(GroupError):
        fl.apply(diag_elem(F5T, 3, 1, F5T.from_int(2)))
    with pytest.raises(GroupError):
        fl5.apply(elementary(F5T, 3, 1, 2, r))            # not in U5
    with pytest.raises(GroupError):
        fl.apply(elementary(F5L, 3, 1, 2, F5L.one()))     # another ring


def _flip_by_normal_form(m):
    # the definition: flip each normal-form factor, multiply them in order
    ring, n = m.ring, m.n
    out = identity(ring, n)
    for (i, j), r in normal_form(m).factors():
        if (j - i - 1) % 2:
            r = ring.neg(r)
        out = out * elementary(ring, n, n - j + 1, n - i + 1, r)
    return out


@pytest.mark.parametrize("tag", RING_TAGS + ("gf(2)[t]",))
def test_flip_closed_form_matches_normal_form_product(tag):
    ring = parse_ring(tag)
    rng = random.Random(tag)
    for n in range(2, 7):
        U = Unitriangular(ring, n)
        fl = Flip(U)
        for _ in range(15):
            u = U.random(rng)
            assert fl.apply(u) == _flip_by_normal_form(u)
        for i, j in nf_positions(n):
            r = _random_nonzero(ring, rng)
            image = r if (j - i - 1) % 2 == 0 else ring.neg(r)
            assert fl.apply(elementary(ring, n, i, j, r)) == \
                elementary(ring, n, n + 1 - j, n + 1 - i, image)


def test_companion_examples():
    P = F2T.parse("t^2+t+1")
    phi = BlockCompanion(P)
    assert phi.companion_matrix() == [[0, 1], [1, 1]]
    assert phi.apply(F2T.one()) == F2T.gen()
    assert phi.apply(F2T.gen()) == F2T.parse("1+t")
    assert phi.apply(F2T.parse("t^2")) == F2T.parse("t^3")
    with pytest.raises(GroupError):
        BlockCompanion(F2T.parse("t^2+1"))        # (t+1)^2 is reducible


def test_reflection_examples():
    phiB = TriangularReflect = None
    from twistconj.autos import TriangularReflect
    phi = TriangularReflect(F5L, 2)
    m = TriMat(F5L, 2, (F5L.gen(), F5L.one()), {(1, 2): F5L.parse("t^2")})
    img = phi.apply(m)
    assert img.diag == (F5L.parse("t^-1"), F5L.one())
    assert img.entry(1, 2) == F5L.parse("2*t^-2")
    bad = TriMat(F5L, 2, (F5L.parse("2*t"), F5L.one()), {})
    with pytest.raises(GroupError):
        phi.apply(bad)                             # torsion factor on the diagonal
    with pytest.raises(GroupError):
        phi.apply(F5L.one())                       # not a matrix


def test_reflections_refuse_a_torsion_diagonal():
    P = F4L.parse
    phiB, phiA = TriangularReflect(F4L, 1), AffineReflect(F4L, 1)
    corner = {(1, 2): P("t+w")}
    img = phiB.apply(TriMat(F4L, 2, (P("t^-1"), P("t^2")), corner))
    assert img.diag == (P("t"), P("t^-2"))
    assert phiA.apply(AffElem(F4L, P("t^3"), P("w"))).u == P("t^-3")
    for diag in ((P("w*t"), P("t")), (P("t"), P("(w+1)*t^-2")), (P("w"), F4L.one())):
        with pytest.raises(GroupError, match="torsion"):
            phiB.apply(TriMat(F4L, 2, diag, corner))
    with pytest.raises(GroupError, match="torsion"):
        phiA.apply(AffElem(F4L, P("w*t^3"), P("w")))


def test_catalog_homomorphisms_quick():
    from twistconj.experiments import _catalog_for_verification
    for name, phi in _catalog_for_verification():
        rep = verify_homomorphism(phi, samples=120, rng=random.Random(5))
        assert rep.passed, name


def test_corrupted_sigma_fails_with_witness():
    U5 = Unitriangular(F5T, 5)
    lam = MulBy(F5T, F5T.from_int(2))              # additive, so it violates
    with pytest.raises(GroupError):
        SigmaFirst(U5, lam, F5T.from_int(2))       # the pair condition
    bad = object.__new__(SigmaFirst)               # skips that check
    bad.domain, bad.lam, bad.a = U5, lam, F5T.from_int(2)
    rep = verify_homomorphism(bad, samples=400, rng=random.Random(6))
    assert not rep.passed
    assert rep.counterexample is not None
    g, h, lhs, rhs = rep.counterexample
    assert lhs != rhs


def test_half_square():
    for ring in (localized(2), F5T):
        a = ring.from_int(3)
        lam = HalfSquare(ring, a)
        rng = random.Random(7)
        for _ in range(1000):
            r, s = ring.random(rng), ring.random(rng)
            assert lam.apply(ring.add(r, s)) == ring.add(
                ring.mul(a, ring.mul(r, s)),
                ring.add(lam.apply(r), lam.apply(s)))
    with pytest.raises(RingError):
        HalfSquare(F2T, F2T.one())                 # 2 not invertible
    U5 = Unitriangular(F5T, 5)
    with pytest.raises(GroupError):
        Central(U5, 1, HalfSquare(F5T, F5T.one()))  # not additive


def test_central_touches_only_corner():
    U5 = Unitriangular(F5T, 5)
    z = Central(U5, 2, MulBy(F5T, F5T.gen()))
    rng = random.Random(8)
    for _ in range(200):
        u = U5.random(rng)
        img = z.apply(u)
        assert superdiagonal(img) == superdiagonal(u)
        diff = img * u.inv()
        assert set(diff.upper) <= {(1, 5)}
    assert verify_homomorphism(z, samples=300, rng=rng).passed
    with pytest.raises(GroupError):
        Central(U5, 5, MulBy(F5T, F5T.one()))      # index out of range


def test_sigma_trivial_on_abelianization():
    U5 = Unitriangular(F5T, 5)
    sig = SigmaFirst(U5, HalfSquare(F5T, F5T.gen()), F5T.gen())
    sigp = SigmaLast(U5, HalfSquare(F5T, F5T.gen()), F5T.gen())
    rng = random.Random(9)
    for phi in (sig, sigp):
        for _ in range(200):
            u = U5.random(rng)
            assert superdiagonal(phi.apply(u)) == superdiagonal(u)
        assert verify_homomorphism(phi, samples=300, rng=rng).passed


def test_aug_scale_moves_unitriangular():
    aug = AugScale(ZT)
    rng = random.Random(10)
    from twistconj.poly import sign_augmentation
    for _ in range(400):
        r = ZT.random(rng)
        img = aug.apply(elementary(ZT, 2, 1, 2, r))
        assert img.is_unitriangular() == (sign_augmentation(r) == 1)
    assert verify_homomorphism(aug, samples=500, rng=rng).passed
    plus = AugShift(ZL)
    assert verify_homomorphism(plus, samples=500, rng=rng).passed
    r = ZL.gen()
    img = plus.apply(elementary(ZL, 2, 1, 2, r))
    assert img.diag == (ZL.gen(), ZL.gen())        # shifted by t^1


def test_make_phi0_examples():
    F5 = field(5)
    aff = Affine(F5)
    phi = Inner(AffElem(F5, F5.one(), F5.one()), aff)
    phi0 = Phi0(phi)
    rng = random.Random(12)
    for _ in range(300):
        g = aff.random(rng)
        assert phi0.apply(g) == g                  # collapses to the identity

    # an already factor-preserving map is unchanged pointwise
    alpha = PolySub(F5T, 2, 0)
    aff_t = Affine(F5T)
    rm = RingMap(alpha, aff_t)
    rm0 = Phi0(rm)
    for _ in range(300):
        g = aff_t.random(rng)
        assert rm0.apply(g) == rm.apply(g)

    with pytest.raises(GroupError, match="kernel is not invariant"):
        Phi0(AugScale(ZT))
    with pytest.raises(GroupError, match="non-abelian"):
        Phi0(IdentityMap(Borel(F5T, 3)))
    with pytest.raises(GroupError, match="no split decomposition"):
        Phi0(IdentityMap(Unitriangular(F5T, 3)))


def test_make_phi0_contract():
    F5 = field(5)
    aff = Affine(F5)
    phi = Inner(AffElem(F5, 2, 3), aff)
    phi0 = Phi0(phi)
    rng = random.Random(14)
    for _ in range(1000):
        g = aff.random(rng)
        n_part = AffElem(F5, F5.one(), g.r)
        assert phi0.apply(n_part) == phi.apply(n_part)
        assert phi0.apply(g).u == phi.apply(g).u
    assert verify_homomorphism(phi0, samples=500, rng=rng).passed


def test_induced_abelianization_actions():
    # the action on the abelianization, read off the superdiagonal
    U5 = Unitriangular(F5T, 5)
    z = Central(U5, 1, MulBy(F5T, F5T.gen()))
    fl = Flip(U5)
    alpha = PolySub(F5T, 2, 0)
    comp = Compose([fl, RingMap(alpha, U5)])
    # inner conjugation by a diagonal scales the factors
    inner = Inner(ProjElem(diag_elem(F5T, 5, 1, F5T.from_int(2))), U5)
    two = F5T.from_int(2)
    rng = random.Random(11)
    for _ in range(100):
        u = U5.random(rng)
        s = superdiagonal(u)
        assert superdiagonal(z.apply(u)) == s
        assert superdiagonal(fl.apply(u)) == s[::-1]
        assert superdiagonal(comp.apply(u)) == tuple(alpha.apply(r) for r in s[::-1])
        assert superdiagonal(inner.apply(u)) == (two * s[0],) + s[1:]


def test_window_linear_endo():
    win = LinearWindow(F2T, 0, 3)
    mat = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]
    lam = WindowLinear(win, mat)
    # kills monomials outside the window, additive by construction
    p = F2T.parse("1 + t^5")
    assert lam.apply(p) == F2T.parse("1 + t^3")
    rng = random.Random(15)
    for _ in range(300):
        a, b = F2T.random(rng), F2T.random(rng)
        assert lam.apply(a + b) == lam.apply(a) + lam.apply(b)


def test_word_grammar():
    U5 = Unitriangular(F5T, 5)
    for word in ("flip", "central(1,mulby(t))", "sigma(halfsquare(2),2)",
                 "sigmap(halfsquare(2),2)", "ring(t->2*t+1)",
                 "inner(e(1,2;t) e(2,3;1))", "id",
                 "flip*ring(t->2*t)"):
        phi = parse_auto(word, group=U5)
        assert verify_homomorphism(phi, samples=60, rng=random.Random(16)).passed
    phi = parse_auto("mul(1)*phiP(t^2+t+1)", ring=F2T)
    assert phi.word() == "mul(1)*phiP(1 + t + t^2)"
    phi = parse_auto("phiB(w)", ring=F4L)
    assert phi.a == 2
    phi = parse_auto("tauAlpha(t->t^-1)", ring=F4L)
    assert isinstance(phi, PairSwap)
    phi = parse_auto("augB2", ring=ZT)
    assert isinstance(phi, AugScale)
    phi = parse_auto("augB2plus", ring=ZL)
    assert isinstance(phi, AugShift)
    with pytest.raises(GroupError):
        parse_auto("bogus(1)", ring=F2T)
    with pytest.raises(GroupError):
        parse_auto("flip", ring=F2T)               # needs a group
    with pytest.raises(GroupError):
        parse_auto("flip*phiB(w)", ring=F4L, group=Unitriangular(F4L, 5))
    with pytest.raises(RingError):
        parse_auto("ring(t->t+1)", ring=F5L)       # t^-1 would have no image


def test_compose_order_is_right_to_left():
    ring = F5T
    add = Additive(ring)
    double = CenterScale(ring, ring.from_int(2))
    alpha = RingMap(PolySub(ring, 1, 1), add)
    comp = Compose([double, alpha])                # first t->t+1, then *2
    t = ring.gen()
    assert comp.apply(t) == ring.parse("2*t+2")


def test_central_trivial_on_series_factors():
    from twistconj.groups import gamma_member, nf_positions, NormalForm, recompose
    U5 = Unitriangular(F5T, 5)
    z = Central(U5, 1, MulBy(F5T, F5T.gen()))
    rng = random.Random(21)
    for _ in range(200):
        k = rng.randint(1, 3)          # factors below the center layer
        nf = [F5T.random(rng) if j - i >= k else F5T.zero()
              for (i, j) in nf_positions(5)]
        g = recompose(NormalForm(F5T, 5, tuple(nf)))
        assert gamma_member(z.apply(g) * g.inv(), k + 1)
