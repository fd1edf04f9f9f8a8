import random

import pytest

from twistconj.poly import (
    IdentityAuto, LaurentFlip, PolySub, augmentation,
    divmod_poly, first_irreducible, is_irreducible, parse_ring,
    parse_ring_auto, poly_ring, sign_augmentation, twist_split,
)
from twistconj.rings import IntegerRing, RingError, field

F2T = parse_ring("gf(2)[t]")
F3T = parse_ring("gf(3)[t]")
F5L = parse_ring("gf(5)[t,t^-1]")
ZT = parse_ring("z[t]")


def test_arithmetic_examples():
    t1 = F2T.parse("t+1")
    assert t1 * t1 == F2T.parse("t^2+1")                      # Frobenius
    s = F3T.parse("t^2+1")
    assert s * s == F3T.parse("t^4 + 2*t^2 + 1")
    assert F5L.parse("t^-1") * F5L.parse("t") == F5L.one()
    with pytest.raises(RingError):
        F2T.one() + F3T.one()


def _schoolbook(a, b):
    base = a.ring.base
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out[e1 + e2] = base.add(out.get(e1 + e2, base.zero()), base.mul(c1, c2))
    return a.ring.make(out)      # make drops the zero coefficients


@pytest.mark.parametrize("tag", ["gf(2)", "gf(4)", "gf(5)", "z"])
def test_mul_matches_schoolbook(tag):
    # zero, one, monomials (Laurent ones too) and multi-term factors
    rng = random.Random(tag)
    for R in (parse_ring(tag + "[t]"), parse_ring(tag + "[t,t^-1]")):
        base = R.base
        lo = -3 if R.laurent else 0
        values = [R.zero(), R.one(), R.neg(R.one()), R.gen()]
        values += [R.monomial(base.random_unit(rng), rng.randint(lo, 3)) for _ in range(4)]
        values += [R.random(rng, max_terms=5, span=3) for _ in range(12)]
        for a in values:
            for b in values:
                prod, ref = a * b, _schoolbook(a, b)
                assert prod == ref and hash(prod) == hash(ref)


def test_pow_and_units():
    t = F5L.gen()
    assert t ** -3 == F5L.parse("t^-3")
    assert F5L.is_unit(F5L.parse("2*t^-4"))
    assert not F5L.is_unit(F5L.parse("t+1"))
    assert F2T.is_unit(F2T.one()) and not F2T.is_unit(F2T.gen())
    with pytest.raises(RingError):
        F2T.inv(F2T.gen())


@pytest.mark.parametrize("tag", ["gf(2)[t]", "gf(4)[t]", "gf(9)[t,t^-1]",
                                 "z[t]", "z[t,t^-1]", "gf(5)[t,t^-1]"])
def test_text_round_trip(tag):
    ring = parse_ring(tag)
    rng = random.Random(23)
    assert ring.parse("0") == ring.zero()
    for _ in range(500):
        p = ring.random(rng)
        assert ring.parse(str(p)) == p
    s = "3*t^-2 + 1 + 2*t^5"
    if ring.laurent and isinstance(ring.base, IntegerRing):
        assert str(ring.parse(s)) == s


def test_extension_coefficient_round_trip():
    ring = parse_ring("gf(4)[t]")
    p = ring.parse("(w+1)*t^2 + w")
    assert p.coeff(2) == 3 and p.coeff(0) == 2
    assert ring.parse(str(p)) == p


def test_ring_auto_examples():
    alpha = PolySub(F2T, 1, 1)                     # t -> t + 1
    assert alpha.apply(F2T.parse("t^2")) == F2T.parse("t^2+1")
    flip = LaurentFlip(F5L)
    assert flip.apply(F5L.parse("t^3 + 2*t^-1")) == F5L.parse("t^-3 + 2*t")
    ident = IdentityAuto()
    p = F5L.parse("1 + 3*t^2")
    assert ident.apply(p) == p


def test_ring_auto_is_homomorphism():
    rng = random.Random(29)
    cases = [
        (F2T, PolySub(F2T, 1, 1)),
        (F3T, PolySub(F3T, 2, 1)),
        (F5L, PolySub(F5L, 3, 0)),
        (F5L, LaurentFlip(F5L)),
        (ZT, PolySub(ZT, -1, 2)),
    ]
    for ring, alpha in cases:
        for _ in range(1000):
            p, q = ring.random(rng), ring.random(rng)
            if isinstance(alpha, PolySub) and not ring.base.is_zero(alpha.b):
                p = ring.make({abs(e): c for e, c in p.terms.items()})
                q = ring.make({abs(e): c for e, c in q.terms.items()})
            assert alpha.apply(p * q) == alpha.apply(p) * alpha.apply(q)
            assert alpha.apply(p + q) == alpha.apply(p) + alpha.apply(q)


def test_polysub_preserves_degree():
    rng = random.Random(31)
    alpha = PolySub(F3T, 2, 1)
    for _ in range(300):
        p = F3T.random(rng)
        if not p.is_zero():
            assert alpha.apply(p).degree == p.degree


def test_polysub_guards():
    with pytest.raises(RingError):
        PolySub(F2T, 0, 1)                        # leading coefficient not a unit
    with pytest.raises(RingError):
        PolySub(F5L, 2, 1)                        # b != 0: t^-1 has no image
    assert PolySub(F5L, 2, 0).apply(F5L.parse("t^-1")) == F5L.parse("3*t^-1")


def _horner(alpha, p):
    """p(a t + b) by Horner's rule, one coefficient per degree."""
    ring = alpha.ring
    image = ring.monomial(alpha.a, 1) + ring.constant(alpha.b)
    out = ring.zero()
    for e in range(p.degree, -1, -1):
        out = out * image + ring.constant(p.coeff(e))
    return out


def _random_of_degree(ring, rng, d):
    q = ring.base.q
    terms = {e: rng.randrange(q) for e in range(d) if rng.random() < 0.3}
    terms[d] = rng.randrange(1, q)
    return ring.make(terms)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_polysub_kept_powers_match_fresh_and_horner(q):
    ring = poly_ring(field(q), laurent=False)
    rng = random.Random(f"polysub-{q}")
    for a in range(1, q):
        for b in range(q):
            high, low, mid = (_random_of_degree(ring, rng, d) for d in (130, 4, 61))
            # high then low, and low then high, on one object each
            for order in ((high, low, mid, high), (low, mid, high, low)):
                alpha = PolySub(ring, a, b)
                for p in order:
                    got = alpha.apply(p)
                    assert got == PolySub(ring, a, b).apply(p)
                    assert got == _horner(alpha, p)


def test_polysub_objects_keep_their_own_powers():
    ring = poly_ring(field(5), laurent=False)
    rng = random.Random(37)
    subs = [PolySub(ring, 2, 1), PolySub(ring, 3, 4), PolySub(ring, 2, 1)]
    for _ in range(20):
        alpha = rng.choice(subs)
        p = _random_of_degree(ring, rng, rng.randrange(130))
        assert alpha.apply(p) == _horner(alpha, p)
    for alpha in subs:                        # none was corrupted by the others
        p = _random_of_degree(ring, rng, 120)
        assert alpha.apply(p) == _horner(alpha, p)


def test_laurent_auto_group_is_c2():
    flip = LaurentFlip(F5L)
    sub = PolySub(F3T, 2, 1)
    assert not flip.is_identity() and not sub.is_identity()
    rng = random.Random(29)
    for _ in range(200):
        p = F5L.random(rng)
        assert flip.apply(flip.apply(p)) == p
        assert IdentityAuto().apply(flip.apply(p)) == flip.apply(p)
        # applied twice: t -> 2(2t+1)+1 = 4t+3 = t over gf(3)
        q = F3T.random(rng)
        assert sub.apply(sub.apply(q)) == q


def test_parse_ring_auto():
    assert parse_ring_auto("t->t", F2T).is_identity()
    assert isinstance(parse_ring_auto("t->t^-1", F5L), LaurentFlip)
    a = parse_ring_auto("t->2*t+1", F3T)
    assert isinstance(a, PolySub) and a.a == 2 and a.b == 1
    a = parse_ring_auto("t -> t + 1", F2T)
    assert a.a == 1 and a.b == 1
    with pytest.raises(RingError):
        parse_ring_auto("t->t^-1", F2T)           # not a Laurent ring
    with pytest.raises(RingError):
        parse_ring_auto("u->u", F2T)


def test_augmentation():
    p = ZT.parse("t^2 + 3*t")
    assert augmentation(p) == 4 and sign_augmentation(p) == 1
    assert sign_augmentation(ZT.gen()) == -1
    assert augmentation(ZT.zero()) == 0 and sign_augmentation(ZT.zero()) == 1
    rng = random.Random(37)
    for _ in range(500):
        r = ZT.random(rng)
        s = ZT.random(rng)
        assert augmentation(r + s) == augmentation(r) + augmentation(s)
        assert sign_augmentation(-r) == sign_augmentation(r)
    with pytest.raises(RingError):
        augmentation(F2T.one())


def test_irreducibility_and_division():
    assert first_irreducible(field(2), 2) == F2T.parse("t^2+t+1")
    assert is_irreducible(F3T.parse("t^2+1"))
    assert not is_irreducible(F3T.parse("t^2+2"))
    assert is_irreducible(F2T.parse("t^4+t+1"))
    assert not is_irreducible(F2T.parse("t^4+t^2+1"))
    rng = random.Random(43)
    for _ in range(200):
        a = F3T.random(rng)
        b = F3T.random(rng)
        if b.is_zero():
            continue
        q, r = divmod_poly(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_twist_split_examples():
    alpha = PolySub(F2T, 1, 1)
    principal, rem = twist_split(F2T.parse("t^3"), alpha)
    assert principal == []                        # coefficient 1*(1-a^2) = 0
    assert rem == F2T.parse("t^2+t+1")

    alpha3 = PolySub(F3T, 2, 0)
    principal, rem = twist_split(F3T.parse("t^5"), alpha3)
    assert principal == [(1, 2)]                  # 1 - 2^3 = 2 mod 3
    assert rem.is_zero()

    principal, rem = twist_split(F3T.parse("2"), alpha3)
    assert principal == [] and rem.is_zero()


def test_twist_split_recombination():
    rng = random.Random(47)
    for p, a, b in ((2, 1, 1), (3, 2, 1), (5, 3, 2)):
        ring = poly_ring(field(p), laurent=False)
        alpha = PolySub(ring, a, b)
        for _ in range(500):
            h = ring.random(rng, max_terms=6, span=3 * p)
            principal, rem = twist_split(h, alpha)
            back = rem
            for o, c in principal:
                back = back + ring.monomial(c, p * o + p - 1)
            assert back == h - alpha.apply(h)
            assert all(not (e >= 2 * p - 1 and e % p == p - 1) for e in rem.terms)
            assert all(o >= 1 and c != 0 for o, c in principal)


def test_twist_split_guards():
    with pytest.raises(RingError):
        twist_split(F2T.gen(), PolySub(F2T, 1, 0))           # identity excluded
    ring4 = poly_ring(field(4), laurent=False)
    with pytest.raises(RingError):
        twist_split(ring4.gen(), PolySub(ring4, 2, 0))       # not a prime field
