import random
import re

import pytest

from twistconj.experiments import RING_TAGS
from twistconj.poly import (
    IdentityAuto, LaurentFlip, Poly, PolyRing, PolySub, augmentation,
    divmod_poly, first_irreducible, is_irreducible, parse_ring,
    parse_ring_auto, poly_ring, sign_augmentation, twist_split,
)
from twistconj.rings import GaloisField, IntegerRing, RingError, field

F2T = parse_ring("gf(2)[t]")
F3T = parse_ring("gf(3)[t]")
F5T = parse_ring("gf(5)[t]")
F5L = parse_ring("gf(5)[t,t^-1]")
ZT = parse_ring("z[t]")
ZL = parse_ring("z[t,t^-1]")
POLY_TAGS = tuple(tag for tag in RING_TAGS + ("gf(2)[t]",)
                  if isinstance(parse_ring(tag), PolyRing))


def test_arithmetic_examples():
    t1 = F2T.parse("t+1")
    assert t1 * t1 == F2T.parse("t^2+1")                      # Frobenius
    s = F3T.parse("t^2+1")
    assert s * s == F3T.parse("t^4 + 2*t^2 + 1")
    assert F5L.parse("t^-1") * F5L.parse("t") == F5L.one()
    with pytest.raises(RingError):
        F2T.one() + F3T.one()


def test_poly_refuses_attribute_writes():
    p = F5T.parse("t+1")
    for attr in ("ring", "terms", "_h", "other"):
        with pytest.raises(AttributeError):
            setattr(p, attr, None)
    assert p == F5T.parse("t+1")


@pytest.mark.parametrize("tag", ["gf(5)[t]", "gf(4)[t,t^-1]", "z[t]", "z[t,t^-1]"])
def test_zero_monomials_are_the_zero_polynomial(tag):
    ring = parse_ring(tag)
    zero = ring.base.zero()
    built = [ring.monomial(zero, 2), ring.constant(zero), ring.from_int(0)]
    if ring.laurent:
        built.append(ring.monomial(zero, -3))
    for p in built:
        assert p == ring.zero() and hash(p) == hash(ring.zero()) and p.terms == {}
    one = ring.base.one()
    assert ring.constant(one) == ring.one() and hash(ring.constant(one)) == hash(ring.one())
    assert ring.monomial(one, 2) == ring.make({2: one, 0: zero})


def test_monomial_keeps_the_exponent_check():
    for c in (1, 0):
        with pytest.raises(RingError, match="negative exponent"):
            F5T.monomial(c, -1)
    assert F5L.monomial(1, -1) == F5L.parse("t^-1")


def test_ring_operators_refuse_mixed_rings():
    for ring, other in ((F5T, F5L), (F5T, F3T), (ZT, parse_ring("z[t,t^-1]"))):
        for op in (ring.add, ring.mul, ring.sub):
            with pytest.raises(RingError, match="mixed rings"):
                op(ring.one(), other.one())
            with pytest.raises(RingError, match="mixed rings"):
                op(other.gen(), ring.gen())


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
        # the shared one, a one that is not the shared object, and t^k
        values = [R.zero(), R.one(), Poly(R, {0: base.one()}), R.neg(R.one()), R.gen()]
        values += [R.monomial(base.one(), rng.randint(lo, 3)) for _ in range(2)]
        values += [R.monomial(base.random_unit(rng), rng.randint(lo, 3)) for _ in range(4)]
        values += [R.random(rng, max_terms=5, span=3) for _ in range(12)]
        for a in values:
            for b in values:
                prod, ref = a * b, _schoolbook(a, b)
                assert prod == ref and hash(prod) == hash(ref)
                if a is R.zero() or b is R.zero():
                    assert prod is R.zero()


@pytest.mark.parametrize("tag", POLY_TAGS)
def test_a_zero_factor_gives_the_shared_zero(tag):
    # in either order, against a monomial, a unit and a multi-term factor,
    # and for a zero that is another object as well, except that a product
    # by the shared one() hands back the other operand
    ring = parse_ring(tag)
    zero, one, other_zero = ring.zero(), ring.one(), Poly(ring, {})
    assert other_zero == zero and other_zero is not zero
    others = [ring.gen(), Poly(ring, {0: ring.base.one()}),
              ring.monomial(ring.base.from_int(2), 3), ring.parse("t^2+t+1"),
              zero, other_zero]
    for z in (zero, other_zero):
        for x in others:
            assert z * x is zero and x * z is zero
            assert ring.mul(z, x) is zero and ring.mul(x, z) is zero
        assert z * one is z and one * z is z
    assert F5T.zero() * F5T.gen() is F5T.zero()
    assert zero.terms == {} and other_zero.terms == {}


@pytest.mark.parametrize("ring", (F5L, ZT), ids=lambda r: r.tag)
def test_a_vanishing_result_is_the_shared_zero(ring):
    # sums, differences, negations and scalings that cancel every term
    zero, base = ring.zero(), ring.base
    t, p, c = ring.gen(), ring.parse("t^2+t+1"), ring.from_int(3)
    for x in (t, p, c):
        assert x - x is zero and x + -x is zero and -x + x is zero
        assert x.scale(base.zero()) is zero
    assert -zero is zero and -Poly(ring, {}) is zero
    assert Poly(ring, {}).scale(base.one()) is zero
    assert c.reversed_scaled(base.zero()) is zero
    if ring is F5L:
        assert t + ring.parse("4*t") is zero
        assert t.reversed_scaled(base.zero()) is zero
        assert (t + p).reversed_scaled(base.zero()) is zero


def _add_by_exponents(a, b):
    # the definition: base.add at every exponent of either support, zero
    # sums dropped
    base = a.ring.base
    out = {}
    for e in set(a.terms) | set(b.terms):
        s = base.add(a.terms.get(e, base.zero()), b.terms.get(e, base.zero()))
        if not base.is_zero(s):
            out[e] = s
    return out


@pytest.mark.parametrize("tag", ["gf(2)[t]", "gf(4)[t,t^-1]", "gf(5)[t]", "z[t]",
                                 "z[t,t^-1]"])
def test_add_matches_per_exponent_reference(tag):
    ring = parse_ring(tag)
    rng = random.Random(tag)
    zero = ring.zero()
    for _ in range(150):
        a = ring.random(rng, max_terms=5, span=3)
        b = ring.random(rng, max_terms=5, span=3)
        disjoint = ring.make({e: c for e, c in b.terms.items() if e not in a.terms})
        pairs = [(a, b), (b, a), (a, disjoint), (disjoint, a), (a, a),
                 (a, -a), (a, b - a), (a, zero), (zero, a), (zero, zero)]
        before = [(dict(x.terms), dict(y.terms)) for x, y in pairs]
        for x, y in pairs:
            s = x + y
            assert s.terms == _add_by_exponents(x, y)
            assert s == ring.make(_add_by_exponents(x, y))
            assert not any(ring.base.is_zero(c) for c in s.terms.values())
        assert [(dict(x.terms), dict(y.terms)) for x, y in pairs] == before
        assert (a + (-a)).terms == {}
        assert a + zero is a
        if a.terms:
            assert zero + a is a
    assert zero.terms == {} and ring.one().terms == {0: ring.base.one()}


@pytest.mark.parametrize("tag", ["gf(2)[t]", "gf(4)[t,t^-1]", "gf(5)[t]", "z[t]",
                                 "z[t,t^-1]"])
def test_sub_matches_add_of_neg(tag):
    # the fused difference against the sum with the negation, and against
    # the per-exponent definition
    ring = parse_ring(tag)
    rng = random.Random(tag)
    zero = ring.zero()
    for _ in range(150):
        a = ring.random(rng, max_terms=5, span=3)
        b = ring.random(rng, max_terms=5, span=3)
        disjoint = ring.make({e: c for e, c in b.terms.items() if e not in a.terms})
        pairs = [(a, b), (b, a), (a, disjoint), (disjoint, a), (a, a), (a, -a),
                 (a, a + b), (a, zero), (zero, a), (zero, zero), (ring.one(), a)]
        before = [(dict(x.terms), dict(y.terms)) for x, y in pairs]
        for x, y in pairs:
            d, ref = x - y, x + (-y)
            assert d == ref and hash(d) == hash(ref)
            assert d.terms == _add_by_exponents(x, -y)
            assert not any(ring.base.is_zero(c) for c in d.terms.values())
            assert ring.sub(x, y) == ref
        assert [(dict(x.terms), dict(y.terms)) for x, y in pairs] == before
        assert a - a == zero and (a - a).terms == {}
        assert a - zero is a
    with pytest.raises(RingError, match="mixed rings"):
        ring.gen() - F3T.gen()
    assert zero.terms == {} and ring.one().terms == {0: ring.base.one()}


def test_substitutions_and_scaling_hand_out_the_shared_one():
    # an image equal to one is the shared one(), so the identity fast paths
    # of the matrix layers see it
    for ring, alpha in ((F5T, PolySub(F5T, 2, 0)), (F5L, PolySub(F5L, 3, 0)),
                        (F5T, PolySub(F5T, 2, 1)), (ZT, PolySub(ZT, -1, 0))):
        one, equal_one = ring.one(), Poly(ring, {0: ring.base.one()})
        assert equal_one == one and equal_one is not one
        assert alpha.apply(one) is one and alpha.apply(equal_one) is one
        assert one.scale(ring.base.one()) is one
        assert ring.constant(ring.base.from_int(-1)).scale(ring.base.from_int(-1)) is one
        t = ring.gen()
        assert alpha.apply(t) == ring.monomial(alpha.a, 1) + ring.constant(alpha.b)
        assert t.scale(ring.base.one()) == t


@pytest.mark.parametrize("tag", POLY_TAGS)
def test_scale_by_one_is_the_same_object(tag):
    # PolySub.apply scales every kept power by its coefficient: a scale by
    # one hands back a value of two or more terms itself (zero and the
    # monomials stay _of's shared objects), any other scalar scales each term
    ring = parse_ring(tag)
    base = ring.base
    rng = random.Random(tag)
    values = [ring.zero(), ring.one(), ring.gen()]
    values += [ring.random(rng, max_terms=5, span=4) for _ in range(20)]
    scalars = [base.from_int(k) for k in (0, -1, 2, 3)] + [base.random_unit(rng)]
    for f in values:
        before = dict(f.terms)
        if len(f.terms) > 1:
            assert f.scale(base.one()) is f
        assert f.scale(base.one()) == f
        for c in scalars:
            ref = ring.make({e: base.mul(c, v) for e, v in f.terms.items()})
            assert f.scale(c) == ref
        assert f.terms == before


def _units(ring):
    """The units c*t^e of ring, for |e| <= 3 in a Laurent ring."""
    base = ring.base
    cs = base.units() if isinstance(base, GaloisField) else (1, -1)
    es = range(-3, 4) if ring.laurent else (0,)
    return [ring.monomial(c, e) for e in es for c in cs]


def _table_state(ring):
    """Every entry of ring's unit table with the terms it stores."""
    return {key: (u, dict(u.terms)) for key, u in ring._units.items()}


def _assert_table_kept(ring, before):
    # entries are never replaced or mutated, and each one is the unit of its
    # key
    for key, (u, terms) in before.items():
        assert ring._units[key] is u and u.terms == terms
    for (e, c), u in ring._units.items():
        assert u.terms == {e: c} and ring.is_unit(u)


@pytest.mark.parametrize("tag", POLY_TAGS)
def test_unit_arithmetic_hands_out_the_table_objects(tag):
    ring = parse_ring(tag)
    base = ring.base
    units = _units(ring)
    assert len({id(u) for u in units}) == len(units)
    assert ring.monomial(base.one(), 0) is ring.one()
    for u in units:
        (e, c), = u.terms.items()
        assert ring.monomial(c, e) is u and ring._units[e, c] is u
        assert ring.constant(c) is ring.monomial(c, 0)
        assert ring.inv(ring.inv(u)) is u
        assert ring.mul(u, ring.inv(u)) is ring.one()
        assert ring.mul(ring.inv(u), u) is ring.one()
        for v in units:
            (e2, c2), = v.terms.items()
            assert u * v is ring.monomial(base.mul(c, c2), e + e2)
    # a non-Laurent ring holds only its constant units
    if not ring.laurent:
        assert all(e == 0 for e, _ in ring._units)
        assert len(ring._units) <= (base.q - 1 if isinstance(base, GaloisField) else 2)


def test_non_units_are_never_stored():
    for ring, c, e in ((F5T, 1, 3), (F5T, 2, 1), (ZT, 2, 1), (ZL, 2, 1),
                       (ZT, 2, 0), (ZL, 2, 0), (ZL, -3, -1)):
        p = ring.monomial(c, e)
        assert not ring.is_unit(p) and (e, c) not in ring._units
        assert ring.monomial(c, e) is not p and ring.monomial(c, e) == p
    t = F5T.gen()
    assert t * t * t == F5T.monomial(1, 3) and (3, 1) not in F5T._units
    two, two_t = ZT.constant(2), ZT.monomial(2, 1)
    assert two * ZT.gen() == two_t and (1, 2) not in ZT._units
    assert ZT.constant(-1) * ZT.constant(-1) is ZT.one()
    assert set(ZT._units) <= {(0, 1), (0, -1)}


@pytest.mark.parametrize("tag", [t for t in POLY_TAGS if not parse_ring(t).laurent])
def test_terms_off_the_constants_skip_the_unit_test(tag, monkeypatch):
    # c*t^e with e != 0 is never a unit of a polynomial ring: it is built
    # fresh and never stored, with no unit test of c
    ring = parse_ring(tag)
    base = ring.base
    cs = base.units() if isinstance(base, GaloisField) else (1, -1, 2, -3)
    before = _table_state(ring)
    probes = []
    monkeypatch.setattr(base, "is_unit", lambda c: probes.append(c) or True)
    for c in cs:
        for e in (1, 2, 5):
            p = ring.monomial(c, e)
            assert type(p) is Poly and p.terms == {e: c} and p == Poly(ring, {e: c})
            assert ring.monomial(c, e) is not p
            assert p * ring.gen() == Poly(ring, {e + 1: c})
    monkeypatch.undo()
    assert probes == [] and len(ring._units) == len(before)
    _assert_table_kept(ring, before)


@pytest.mark.parametrize("tag", POLY_TAGS)
def test_units_rebuilt_raw_give_the_same_values(tag):
    # identity is only a fast path: a unit built as another object takes
    # the general path to equal products, inverses and hashes
    ring = parse_ring(tag)
    rng = random.Random(tag)
    others = [ring.random(rng, max_terms=4, span=3) for _ in range(6)] + [ring.zero()]
    units = _units(ring)
    before = _table_state(ring)
    for u in units:
        (e, c), = u.terms.items()
        raw = Poly(ring, {e: c})
        assert raw is not u and raw == u and hash(raw) == hash(u)
        assert ring.inv(raw) is ring.inv(u)
        prod = raw * ring.inv(raw)
        assert prod == ring.one() and hash(prod) == hash(ring.one())
        if u is not ring.one():
            assert prod is ring.one()
        for v in units + others:
            for x, ref in ((raw * v, u * v), (v * raw, v * u)):
                assert x == ref and hash(x) == hash(ref)
    _assert_table_kept(ring, before)


def test_pow_and_units():
    t = F5L.gen()
    assert t ** -3 == F5L.parse("t^-3")
    assert F5L.is_unit(F5L.parse("2*t^-4"))
    assert not F5L.is_unit(F5L.parse("t+1"))
    assert F2T.is_unit(F2T.one()) and not F2T.is_unit(F2T.gen())
    with pytest.raises(RingError):
        F2T.inv(F2T.gen())


@pytest.mark.parametrize("tag, text", [
    ("gf(5)[t]", "t+1"), ("gf(5)[t]", "t"), ("gf(5)[t]", "3*t^4"), ("gf(5)[t]", "0"),
    ("gf(5)[t,t^-1]", "t^-1+1"), ("gf(5)[t,t^-1]", "0"),
    ("z[t]", "2"), ("z[t,t^-1]", "2*t"),
])
def test_non_units_are_refused(tag, text):
    ring = parse_ring(tag)
    a = ring.parse(text)
    assert not ring.is_unit(a)
    for routine in (ring.inv, ring.unit_decompose):
        with pytest.raises(RingError, match=f"^{re.escape(f'{a} is not a unit of {tag}')}$"):
            routine(a)


def test_unit_decompose_examples():
    u = F5L.parse("3*t^-4")
    assert F5L.unit_decompose(u) == (F5L.from_int(3), (-4,))
    assert F5L.inv(u) == F5L.parse("2*t^4")
    c = F5T.from_int(2)
    assert F5T.unit_decompose(c) == (c, ()) and F5T.inv(c) == F5T.from_int(3)


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


@pytest.mark.parametrize("tag", ["gf(4)[t,t^-1]", "gf(9)[t,t^-1]", "z[t,t^-1]",
                                 "gf(5)[t,t^-1]"])
def test_reversed_scaled_matches_reverse_then_scale(tag):
    ring = parse_ring(tag)
    base = ring.base
    rng = random.Random(tag)
    scalars = [base.zero(), base.one()] + [base.random_unit(rng) for _ in range(4)]
    values = [ring.zero(), ring.one(), ring.gen()]
    values += [ring.random(rng, max_terms=5, span=4) for _ in range(40)]
    for f in values:
        before = dict(f.terms)
        for a in scalars:
            x, ref = f.reversed_scaled(a), f.reversed_var().scale(a)
            assert x == ref and hash(x) == hash(ref)
            assert list(x.terms.items()) == list(ref.terms.items())
            assert not any(base.is_zero(c) for c in x.terms.values())
        assert f.terms == before
    # a product equal to one is the shared one(), as with scale
    c = base.random_unit(rng)
    while c == base.one():
        c = base.random_unit(rng)
    assert ring.constant(c).reversed_scaled(base.inv(c)) is ring.one()
    assert ring.monomial(base.one(), 0).reversed_scaled(base.one()) is ring.one()


def test_reversed_scaled_keeps_the_polynomial_ring_check():
    assert F5T.constant(3).reversed_scaled(2) == F5T.one()
    with pytest.raises(RingError, match="leaves the polynomial ring"):
        F5T.gen().reversed_scaled(2)


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
