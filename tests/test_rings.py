import random
from fractions import Fraction

import pytest

from twistconj.poly import is_irreducible, parse_ring, poly_ring
from twistconj.rings import (
    _MODULI, LocalizedInt, RingError, ZZ, field, localized, solve_unit_equation,
)

ALL_TAGS = ["gf(4)", "gf(5)[t]", "gf(5)[t,t^-1]", "z", "z[1/6]", "z[t]", "z[t,t^-1]"]


def _random_nonzero(ring, rng):
    a = ring.random(rng)
    while ring.is_zero(a):
        a = ring.random(rng)
    return a


def gf4_oracle_mul(a, b):
    """Independent product: polynomial multiplication mod x^2 + x + 1."""
    da = (a % 2, a // 2)
    db = (b % 2, b // 2)
    # (a0 + a1 x)(b0 + b1 x) = a0b0 + (a0b1 + a1b0) x + a1b1 x^2, x^2 = x + 1
    c0 = da[0] * db[0] + da[1] * db[1]
    c1 = da[0] * db[1] + da[1] * db[0] + da[1] * db[1]
    return (c0 % 2) + 2 * (c1 % 2)


def test_gf4_table_matches_modulus_oracle():
    F = field(4)
    for a in F.elements():
        for b in F.elements():
            assert F.mul(a, b) == gf4_oracle_mul(a, b)
    w = F.gen()
    w2 = F.mul(w, w)
    assert F.add(F.add(1, w), w2) == 0          # 1 + w + w^2 = 0
    assert F.mul(w, w2) == 1                     # w * w^2 = 1


def test_field_inverses():
    assert field(5).inv(2) == 3
    with pytest.raises(RingError):
        field(2).inv(0)


def test_unsupported_fields():
    with pytest.raises(RingError):
        field(6)
    with pytest.raises(RingError):
        field(32)  # no built-in modulus


def test_builtin_moduli_are_monic_irreducible():
    for q, modulus in _MODULI.items():
        F = field(q)
        ring = poly_ring(field(F.p), laurent=False)
        f = ring.make(dict(enumerate(modulus)))
        assert f.degree == F.k and f.coeff(F.k) == 1, q
        assert is_irreducible(f), q


def test_multiplicative_order_exhaustive():
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field(q)
        for x in F.units():
            acc = F.one()
            for _ in range(q - 1):
                acc = F.mul(acc, x)
            assert acc == F.one()


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_ring_axioms_sampled(tag):
    ring = parse_ring(tag)
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = ring.random(rng), ring.random(rng), ring.random(rng)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, ring.one()) == a
        assert ring.add(a, ring.neg(a)) == ring.zero()


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_no_zero_divisors_sampled(tag):
    ring = parse_ring(tag)
    rng = random.Random(13)
    for _ in range(1000):
        a = _random_nonzero(ring, rng)
        b = _random_nonzero(ring, rng)
        assert not ring.is_zero(ring.mul(a, b))


def test_localized_canonical_form():
    x = LocalizedInt(6, 4)
    assert (x.num, x.den) == (3, 2)
    assert LocalizedInt(x.num, x.den) == x          # normalisation is idempotent
    assert LocalizedInt(-3, -2) == LocalizedInt(3, 2)
    assert LocalizedInt(2, 4) == LocalizedInt(1, 2)
    with pytest.raises(RingError):
        LocalizedInt(1, 0)


def test_localized_matches_fraction_oracle():
    ring = localized(6)
    rng = random.Random(17)
    for _ in range(500):
        a, b = ring.random(rng), ring.random(rng)
        fa, fb = Fraction(a.num, a.den), Fraction(b.num, b.den)
        s = ring.add(a, b)
        p = ring.mul(a, b)
        assert Fraction(s.num, s.den) == fa + fb
        assert Fraction(p.num, p.den) == fa * fb


def test_localized_units():
    ring = localized(6)
    assert ring.is_unit(LocalizedInt(-12))          # -4*3
    assert not ring.is_unit(LocalizedInt(5))
    assert ring.inv(LocalizedInt(4)) == LocalizedInt(1, 4)
    sign, exps = ring.unit_decompose(LocalizedInt(-9, 2))
    assert sign == LocalizedInt(-1) and exps == (-1, 2)
    with pytest.raises(RingError):
        ring.inv(LocalizedInt(5))


def test_unit_groups():
    assert [u.num for u in localized(6).torsion_free_units()] == [2, 3]
    (t,) = parse_ring("gf(5)[t,t^-1]").torsion_free_units()
    assert t.terms == {1: 1}
    (t,) = parse_ring("z[t,t^-1]").torsion_free_units()
    assert t.terms == {1: 1}
    # every unit is torsion: no generators
    for tag in ("gf(4)", "z", "gf(2)[t]", "z[t]"):
        assert parse_ring(tag).torsion_free_units() == ()


def test_ring_tag_round_trip():
    for tag in ALL_TAGS + ["gf(2)", "gf(9)", "z[1/30]", "gf(8)[t,t^-1]"]:
        ring = parse_ring(tag)
        assert parse_ring(ring.tag) is ring
    assert parse_ring(" GF( 4 ) [ t ] ").tag == "gf(4)[t]"
    assert parse_ring("z[1/12]") is parse_ring("z[1/6]")   # same radical
    with pytest.raises(RingError):
        parse_ring("gf(6)")
    with pytest.raises(RingError):
        parse_ring("q[t]")


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_element_text_round_trip(tag):
    ring = parse_ring(tag)
    rng = random.Random(19)
    for _ in range(300):
        a = ring.random(rng)
        assert ring.parse(ring.to_str(a)) == a


def test_unit_equation_forced():
    for w, m in ((2, 1), (6, 2), (30, 3)):
        res = solve_unit_equation(localized(w))
        assert res.identity_forced
        assert res.det_one_minus == 0
        assert len(res.primes) == m
        assert all(res.matrix[i][j] == (1 if i == j else 0)
                   for i in range(m) for j in range(m))
        assert all(s == 1 for s in res.signs)


def test_unit_equation_inconsistent_input():
    ring = localized(6)
    with pytest.raises(RingError):
        solve_unit_equation(ring, [LocalizedInt(5), LocalizedInt(3)])
    # units that cannot be the images of the dilations: forcing reported
    res = solve_unit_equation(ring, [LocalizedInt(3), LocalizedInt(2)])
    assert res.violations == (0, 1)
    assert not res.identity_forced
    with pytest.raises(RingError):
        solve_unit_equation(ZZ)
