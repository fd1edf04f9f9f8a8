import random

import pytest

from twistconj.autos import (
    AffineReflect, AugScale, AugShift, BlockCompanion, Central, CenterScale,
    Compose, Flip, HalfSquare, IdentityMap, Inner, MulBy, PairSwap, Phi0,
    RingMap, SigmaFirst, SigmaLast, TriangularReflect, WindowLinear, ZeroEndo,
    parse_auto, verify_homomorphism,
)
from twistconj.experiments import RING_TAGS
from twistconj.groups import (
    Additive, AffElem, Affine, Borel, GroupError, ProjBorel, TriMat,
    Unitriangular, elementary, diag_elem, identity, nf_positions, normal_form,
    projective, recompose, superdiagonal,
)
from twistconj.poly import IdentityAuto, LaurentFlip, PolySub, is_irreducible, parse_ring
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
    for (i, j), r in zip(nf_positions(n), normal_form(m)):
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


def _flip_by_inverse(m):
    # the definition D J m^-T J D, D = diag((-1)^i) and J the anti-diagonal
    # permutation: entry (a,b) is (-1)^(a+b) m^-1(n+1-b, n+1-a), rebuilt
    # through the checking constructor
    ring, n = m.ring, m.n
    inv = m.inv()
    upper = {}
    for a, b in nf_positions(n):
        r = inv.entry(n + 1 - b, n + 1 - a)
        upper[(a, b)] = r if (a + b) % 2 == 0 else ring.neg(r)
    return TriMat(ring, n, (ring.one(),) * n, upper)


@pytest.mark.parametrize("tag", RING_TAGS + ("gf(2)[t]",))
def test_flip_matches_the_inverse_transpose_form(tag):
    ring = parse_ring(tag)
    rng = random.Random(tag)
    for n in range(2, 7):
        U = Unitriangular(ring, n)
        fl = Flip(U)
        mats = [U.random(rng) for _ in range(10)]
        # products of elementaries in normal-form order, about half of them
        # the identity: the sums of their inverses cancel, so the flip's
        # forward substitution must drop them
        mats += [recompose(ring, n, (
            ring.zero() if rng.random() < 0.5 else _random_nonzero(ring, rng)
            for _ in nf_positions(n))) for _ in range(10)]
        # every entry 1: the inverse is I - E12 - ... - E(n-1,n), every
        # other entry a cancelled sum
        chain = identity(ring, n)
        for i in range(1, n):
            chain = chain * elementary(ring, n, i, i + 1, ring.one())
        mats.append(chain)
        for m in mats:
            f, ref = fl.apply(m), _flip_by_inverse(m)
            assert f == ref and hash(f) == hash(ref)
            assert fl.apply(f) == m
        assert set(fl.apply(chain).upper) == {(i, i + 1) for i in range(1, n)}


def test_companion_examples():
    P = F2T.parse("t^2+t+1")
    phi = BlockCompanion(P)
    assert phi.companion_matrix() == [[0, 1], [1, 1]]
    assert phi.apply(F2T.one()) == F2T.gen()
    assert phi.apply(F2T.gen()) == F2T.parse("1+t")
    assert phi.apply(F2T.parse("t^2")) == F2T.parse("t^3")
    with pytest.raises(GroupError):
        BlockCompanion(F2T.parse("t^2+1"))        # (t+1)^2 is reducible


def test_companion_of_t_is_refused():
    # t is monic and irreducible, but its companion [0] is the zero map
    for ring in (F2T, F5T):
        t = ring.gen()
        assert is_irreducible(t)
        with pytest.raises(GroupError, match="zero map"):
            BlockCompanion(t)
        # a nonzero constant term keeps the companion invertible
        assert BlockCompanion(ring.parse("t+1")).apply(ring.one()) != ring.zero()


def test_pair_swap_refuses_an_alpha_over_another_ring():
    with pytest.raises(GroupError, match=r"over gf\(4\)\[t,t\^-1\], not gf\(5\)"):
        PairSwap(LaurentFlip(F4L), F5L)
    with pytest.raises(GroupError):
        PairSwap(PolySub(F2T, 1, 1), F5T)
    # the identity has no ring and acts on any
    phi = PairSwap(IdentityAuto(), F5L)
    x = (F5L.gen(), F5L.one())
    assert phi.apply(x) == (F5L.one(), F5L.gen())
    assert PairSwap(LaurentFlip(F5L), F5L).apply(x) == (F5L.one(), F5L.parse("t^-1"))


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
    with pytest.raises(GroupError, match="violates the Sigma condition"):
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


def test_sigma_condition_is_checked_structurally():
    # lambda(r+s) = a*r*s + lambda(r) + lambda(s) holds exactly when a is
    # lambda's Sigma scalar: 0 for an additive lambda, a' for halfsquare(a')
    U5 = Unitriangular(F5T, 5)
    t, two = F5T.gen(), F5T.from_int(2)
    win = LinearWindow(F5T, 0, 2)
    additive = (ZeroEndo(F5T), MulBy(F5T, t), WindowLinear(win, [[1, 0, 0]] * 3))
    for lam in additive:
        assert lam.sigma_scalar() == F5T.zero()
        for cls in (SigmaFirst, SigmaLast):
            cls(U5, lam, F5T.zero())
            with pytest.raises(GroupError, match="violates the Sigma condition"):
                cls(U5, lam, two)
    assert HalfSquare(F5T, t).sigma_scalar() == t
    for cls in (SigmaFirst, SigmaLast):
        cls(U5, HalfSquare(F5T, t), t)
        for a in (two, t + F5T.one(), F5T.zero()):
            with pytest.raises(GroupError, match="violates the Sigma condition"):
                cls(U5, HalfSquare(F5T, t), a)
    # a lambda over another ring is refused, by Central too
    F3T = parse_ring("gf(3)[t]")
    for lam in (ZeroEndo(F3T), HalfSquare(F5L, F5L.gen())):
        with pytest.raises(GroupError, match="is over"):
            SigmaFirst(U5, lam, lam.sigma_scalar())
        with pytest.raises(GroupError, match="is over"):
            Central(U5, 1, lam)


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


@pytest.mark.parametrize("tag", RING_TAGS)
def test_central_matches_the_product_by_the_corner_elementary(tag):
    # apply adds lambda(a_{i,i+1}) to the corner; its definition is the
    # product m * e_{1,n}(lambda(a_{i,i+1})), here with a zero lambda value
    # and with a corner that cancels as well
    ring = parse_ring(tag)
    rng = random.Random(tag)
    for n in (3, 4, 5):
        U = Unitriangular(ring, n)
        for i in range(1, n):
            for lam in (MulBy(ring, _random_nonzero(ring, rng)), MulBy(ring, ring.one()),
                        ZeroEndo(ring)):
                z = Central(U, i, lam)
                mats = [U.random(rng) for _ in range(6)]
                u = U.random(rng)
                r = u.entry(i, i + 1)
                if not ring.is_zero(lam.apply(r)):
                    # the corner -lambda(r) cancels
                    upper = dict(u.upper)
                    upper[(1, n)] = ring.neg(lam.apply(r))
                    mats.append(TriMat(ring, n, u.diag, upper))
                for m in mats:
                    before = (m.diag, dict(m.upper))
                    img = z.apply(m)
                    ref = m * elementary(ring, n, 1, n, lam.apply(m.entry(i, i + 1)))
                    rebuilt = TriMat(ring, n, img.diag, img.upper)
                    assert img == ref and hash(img) == hash(ref)
                    assert img == rebuilt and hash(img) == hash(rebuilt)
                    assert not any(ring.is_zero(v) for v in img.upper.values())
                    assert (m.diag, dict(m.upper)) == before
                if len(mats) > 6:
                    assert (1, n) not in z.apply(mats[-1]).upper
    U3 = Unitriangular(ring, 3)
    with pytest.raises(GroupError, match=r"unitriangular matrices of u3"):
        Central(U3, 1, ZeroEndo(ring)).apply(identity(ring, 4))


def test_central_refuses_a_two_by_two_domain():
    # for n = 2 the entry (1, 2) is the corner itself: with lambda = mul by
    # 4 over gf(5)[t] the map r -> r + 4r = 5r sends e12(t) to the identity
    U2 = Unitriangular(F5T, 2)
    t = F5T.gen()
    assert F5T.add(t, MulBy(F5T, F5T.from_int(4)).apply(t)) == F5T.zero()
    with pytest.raises(GroupError, match="need n >= 3"):
        Central(U2, 1, MulBy(F5T, F5T.from_int(4)))
    with pytest.raises(GroupError, match="need n >= 3"):
        parse_auto("central(1,mulby(4))", group=U2)
    assert Central(Unitriangular(F5T, 3), 1, MulBy(F5T, F5T.from_int(4))).word() \
        == "central(1,mulby(4))"


def test_ring_map_images_keep_the_shared_one():
    # t -> 2t fixes the constants: the image of the identity keeps the
    # shared one() on its diagonal, so products by it stay free
    U5 = Unitriangular(F5T, 5)
    img = RingMap(PolySub(F5T, 2, 0), U5).apply(identity(F5T, 5))
    assert img == identity(F5T, 5)
    assert all(u is F5T.one() for u in img.diag)
    m = RingMap(PolySub(F5T, 2, 1), U5).apply(elementary(F5T, 5, 1, 2, F5T.gen()))
    assert all(u is F5T.one() for u in m.diag)


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
    # S = B_2/Z is a subgroup of B_2: it splits as its corner by its diagonal
    S = ProjBorel(F5T, 2)
    s0 = Phi0(IdentityMap(S))
    for _ in range(50):
        g = S.random(rng)
        assert s0.apply(g) == g
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
    inner = Inner(projective(diag_elem(F5T, 5, 1, F5T.from_int(2))), U5)
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
    from twistconj.groups import gamma_member, nf_positions, recompose
    U5 = Unitriangular(F5T, 5)
    z = Central(U5, 1, MulBy(F5T, F5T.gen()))
    rng = random.Random(21)
    for _ in range(200):
        k = rng.randint(1, 3)          # factors below the center layer
        nf = [F5T.random(rng) if j - i >= k else F5T.zero()
              for (i, j) in nf_positions(5)]
        g = recompose(F5T, 5, nf)
        assert gamma_member(z.apply(g) * g.inv(), k + 1)
