import random
from fractions import Fraction

import pytest

from twistconj.poly import is_irreducible, parse_ring, poly_ring
from twistconj.rings import (
    _MODULI, GaloisField, LocalizedInt, RingError, ZZ, field, localized,
    solve_unit_equation,
)

ALL_TAGS = ["gf(4)", "gf(5)[t]", "gf(5)[t,t^-1]", "z", "z[1/6]", "z[t]", "z[t,t^-1]"]


def _random_nonzero(ring, rng):
    a = ring.random(rng)
    while ring.is_zero(a):
        a = ring.random(rng)
    return a


def _digits(a, p, k):
    return [a // p ** i % p for i in range(k)]


def _schoolbook_mul(a, b, p, modulus):
    """Independent product: the digit vectors multiplied as polynomials in
    w and reduced from the top by the monic modulus (none for prime q)."""
    k = len(modulus) - 1 if modulus else 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(_digits(a, p, k)):
        for j, y in enumerate(_digits(b, p, k)):
            prod[i + j] += x * y
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for j, m in enumerate(modulus):
            prod[top - k + j] -= c * m
    return sum(c % p * p ** i for i, c in enumerate(prod[:k]))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, *sorted(_MODULI)])
def test_field_tables_match_schoolbook_product(q):
    F = field(q)
    p, k, modulus = F.p, F.k, _MODULI.get(q)

    def mul(a, b):
        return _schoolbook_mul(a, b, p, modulus)

    for a in range(q):
        da = _digits(a, p, k)
        assert _digits(F.neg(a), p, k) == [-x % p for x in da]
        for b in range(q):
            db = _digits(b, p, k)
            assert F.mul(a, b) == mul(a, b)
            assert _digits(F.add(a, b), p, k) == [(x + y) % p for x, y in zip(da, db)]
            if a:
                assert (F.inv(a) == b) == (mul(a, b) == 1)
    # the unit order: the powers of the least element of order q - 1
    for g in range(1, q):
        powers = [1]
        while mul(powers[-1], g) != 1:
            powers.append(mul(powers[-1], g))
        if len(powers) == q - 1:
            break
    assert F.unit_powers == tuple(powers)


def test_reducible_modulus_is_refused(monkeypatch):
    # w^2 + 2 = (w - 1)(w + 1) over gf(3): w - 1 is a zero divisor
    monkeypatch.setitem(_MODULI, 9, (2, 0, 1))
    with pytest.raises(RingError, match=r"^reducible modulus for gf\(9\)$"):
        GaloisField(9)


@pytest.mark.parametrize("q", sorted(_MODULI))
def test_parse_powers_of_w(q):
    F = field(q)
    w, power = F.parse("w"), F.one()
    for e in range(3 * (q - 1)):
        assert F.parse(f"w^{e}") == power
        assert F.parse(f"-2*w^{e}") == F.neg(F.mul(F.from_int(2), power))
        power = F.mul(power, w)


def test_parse_raises_w_by_squaring():
    F = GaloisField(4)  # a fresh instance: only its own products are counted
    calls = []
    mul = F.mul

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)

    F.mul = counted
    assert F.parse("w^1000") == F.parse("w")  # w has order 3, and 1000 = 1 mod 3
    calls.clear()
    F.parse("w^1000")
    assert len(calls) <= 2 * (1000).bit_length() + 1


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


def test_localized_refuses_attribute_writes():
    x = LocalizedInt(3, 2)
    for attr in ("num", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 1)
    assert (x.num, x.den) == (3, 2)


def test_localized_zero_and_one_are_shared():
    for ring in (localized(6), localized(10)):
        assert ring.zero() is localized(2).zero() and ring.one() is localized(2).one()
        assert ring.zero() == LocalizedInt(0) and ring.one() == LocalizedInt(1)
        assert (ring.zero().num, ring.zero().den) == (0, 1)
        assert (ring.one().num, ring.one().den) == (1, 1)


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


def test_localized_one_is_shared_for_a_unit_times_its_inverse():
    # u * u^-1, the inverse of one and a random unit of exponent zero all
    # hand out the shared one(); every other product keeps its value
    ring = localized(6)
    one = ring.one()
    rng = random.Random(49)
    for _ in range(300):
        u, b = ring.random_unit(rng), ring.random(rng)
        assert ring.mul(u, ring.inv(u)) is one and ring.mul(ring.inv(u), u) is one
        assert u.num != u.den or u is one
        p = ring.mul(u, b)
        assert Fraction(p.num, p.den) == Fraction(u.num, u.den) * Fraction(b.num, b.den)
        assert (p is one) == (p == one)
    assert ring.inv(LocalizedInt(1)) is one
    assert ring.mul(LocalizedInt(-3, 2), LocalizedInt(2, -3)) is one
    assert ring.mul(LocalizedInt(-3, 2), LocalizedInt(2, 3)) == LocalizedInt(-1)


def test_localized_zero_and_one_are_shared_however_built():
    # from_int, parse, sums, negations and unit_decompose's sign hand out the
    # shared zero and one, as every fraction equal to them does
    ring = localized(6)
    zero, one = ring.zero(), ring.one()
    half = ring.parse("1/2")
    assert ring.from_int(1) is one and ring.from_int(0) is zero
    assert ring.parse("1") is one and ring.parse("2/2") is one and ring.parse("0/3") is zero
    assert ring.add(half, half) is one and ring.add(half, ring.neg(half)) is zero
    assert ring.neg(ring.from_int(-1)) is one and ring.neg(zero) is zero
    for u in (one, ring.parse("3/2"), ring.from_int(12), ring.parse("1/6")):
        assert ring.unit_decompose(u)[0] is one
    assert ring.unit_decompose(ring.parse("-3/2"))[0] == LocalizedInt(-1)
    assert LocalizedInt(-4, -4) is one and LocalizedInt(0, -5) is zero
    with pytest.raises(RingError, match="zero denominator"):
        LocalizedInt(1, 0)


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


def _field_text_by_digits(F, code):
    # the rendering from the base-p digits: highest power of w first
    digits = [(code // F.p ** e) % F.p for e in range(F.k)]
    parts = []
    for e in range(F.k - 1, -1, -1):
        c = digits[e]
        if c:
            w = "w" if e == 1 else f"w^{e}"
            parts.append(str(c) if e == 0 else (w if c == 1 else f"{c}*{w}"))
    return "+".join(parts) if parts else "0"


def _term_text_by_digits(F, code, e):
    # a polynomial term: a compound coefficient in parentheses, a 1 left
    # out before a power of t
    s = _field_text_by_digits(F, code)
    cs = f"({s})" if "+" in s else s
    if e == 0:
        return cs
    t = "t" if e == 1 else f"t^{e}"
    return t if cs == "1" else f"{cs}*{t}"


@pytest.mark.parametrize("q", [4, 8, 9, 25, 49])
def test_field_text_of_every_code(q):
    F = field(q)
    for code in F.elements():
        s = F.to_str(code)
        assert s == _field_text_by_digits(F, code)
        assert F.parse(s) == code
    assert [F.to_str(c) for c in range(3)] == ["0", "1", "2" if F.p > 2 else "w"]
    # every code as a polynomial coefficient, alone and inside a sum
    ring = poly_ring(F, laurent=True)
    exps = (-1, 0, 1, 5)
    for code in F.units():
        for e in exps:
            p = ring.monomial(code, e)
            assert str(p) == _term_text_by_digits(F, code, e)
            assert ring.parse(str(p)) == p
        codes = [(code + k) % (q - 1) + 1 for k in range(len(exps))]
        p = ring.make(dict(zip(exps, codes)))
        assert str(p) == " + ".join(_term_text_by_digits(F, c, e)
                                    for e, c in zip(exps, codes))
    assert str(ring.zero()) == "0"


def test_polynomial_text_examples():
    F4L, F9L = poly_ring(field(4), laurent=True), poly_ring(field(9), laurent=True)
    assert str(F4L.make({-1: 3, 0: 2, 1: 1, 5: 3})) == "(w+1)*t^-1 + w + t + (w+1)*t^5"
    assert str(F9L.make({0: 5, 1: 6, 5: 8})) == "(w+2) + 2*w*t + (2*w+2)*t^5"
    assert str(parse_ring("z[t,t^-1]").make({-1: -1, 0: 3, 2: -2})) == "-t^-1 + 3 - 2*t^2"


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
