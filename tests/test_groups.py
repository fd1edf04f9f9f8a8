import random

import pytest

from twistconj import experiments, groups
from twistconj.groups import (
    AffElem, Affine, Borel, CornerDiagGroup, GroupError, ProjBorel, TriMat,
    Unitriangular, center_bruteforce, diag_elem, element_word, elementary,
    gamma_member, identity, normal_form, parse_element, projective, recompose,
    superdiagonal, to_affine,
)
from twistconj.autos import Flip, Inner
from twistconj.cli import main
from twistconj.experiments import RING_TAGS, relations_suite
from twistconj.poly import LaurentFlip, Poly, PolyRing, PolySub, parse_ring
from twistconj.rings import LocalizedInt, LocalizedIntegers, ZZ, field, localized
from twistconj.twisted import LinearWindow, PairWindow

F2 = field(2)
F3 = field(3)
F4 = field(4)
F2T = parse_ring("gf(2)[t]")
F5T = parse_ring("gf(5)[t]")
F5L = parse_ring("gf(5)[t,t^-1]")
F4L = parse_ring("gf(4)[t,t^-1]")


def _corner(ring, n, r, units):
    # e_{1,n}(r) diag(units) modulo scalars: an element of w_n
    return projective(elementary(ring, n, 1, n, r) * TriMat(ring, n, units, {}))


def _from_rows(ring, rows):
    # dense rows, read as the diagonal and the entries above it
    n = len(rows)
    return TriMat(ring, n, [rows[i][i] for i in range(n)],
                  {(i + 1, j + 1): rows[i][j] for i in range(n) for j in range(i + 1, n)})


def test_elementary_examples():
    e = elementary(ZZ, 2, 1, 2, 2)
    assert e == TriMat(ZZ, 2, (1, 1), {(1, 2): 2})
    d = diag_elem(ZZ, 2, 2, -1)
    assert d == TriMat(ZZ, 2, (1, -1), {})
    assert elementary(ZZ, 2, 1, 2, 0).is_identity()
    with pytest.raises(GroupError):
        elementary(ZZ, 3, 2, 2, 1)
    with pytest.raises(GroupError):
        elementary(ZZ, 3, 3, 1, 1)
    with pytest.raises(GroupError):
        diag_elem(ZZ, 2, 1, 2)           # 2 is not a unit of z


def test_diag_elem_checks_its_unit_once():
    # the one unit check on u refuses with the checking constructor's text,
    # and the other n - 1 diagonal entries are the shared one
    cases = ((ZZ, 2, "2 is not a unit of z"), (F4, 0, "0 is not a unit of gf(4)"),
             (F5L, F5L.parse("t + 1"), "1 + t is not a unit of gf(5)[t,t^-1]"),
             (F5T, F5T.gen(), "t is not a unit of gf(5)[t]"),
             (localized(6), LocalizedInt(5), "5 is not a unit of z[1/6]"))
    for ring, u, text in cases:
        for n, i in ((2, 1), (3, 2), (4, 4)):
            with pytest.raises(GroupError) as exc:
                diag_elem(ring, n, i, u)
            assert str(exc.value) == text
            with pytest.raises(GroupError) as exc:
                TriMat(ring, n, [u if k == i else ring.one() for k in range(1, n + 1)], {})
            assert str(exc.value) == text
    t = F5L.gen()
    d = diag_elem(F5L, 4, 3, t)
    assert d == TriMat(F5L, 4, (F5L.one(), F5L.one(), t, F5L.one()), {})
    assert d.diag[2] is t and all(d.diag[k] is F5L.one() for k in (0, 1, 3))
    assert not d.upper and hash(d) == hash(TriMat(F5L, 4, d.diag, {}))


def test_commutator_examples():
    t = F2T.gen()
    lhs = elementary(F2T, 3, 1, 2, t).commutator(
        elementary(F2T, 3, 2, 3, t + F2T.one()))
    assert lhs == elementary(F2T, 3, 1, 3, F2T.parse("t^2+t"))

    d = diag_elem(F5L, 2, 1, F5L.gen())
    f = F5L.parse("2*t+1")
    assert d * elementary(F5L, 2, 1, 2, f) * d.inv() == \
        elementary(F5L, 2, 1, 2, F5L.gen() * f)

    a = elementary(ZZ, 4, 1, 2, 5)
    b = elementary(ZZ, 4, 3, 4, 7)
    assert a.commutator(b).is_identity()


@pytest.mark.parametrize("tag", ["gf(4)", "gf(5)[t]", "gf(5)[t,t^-1]",
                                 "z", "z[1/6]", "z[t]", "z[t,t^-1]"])
def test_relations_sampled(tag):
    ring = parse_ring(tag)
    rng = random.Random(53)
    for n in range(2, 7):
        ok, checked, bad = relations_suite(ring, n, 60, rng)
        assert ok, bad
        assert checked == 60


def test_constructor_keeps_the_canonical_form():
    # a zero entry is dropped, so the value equals and hashes like the one
    # without it
    for tag in ("gf(4)", "z", "z[1/6]", "gf(5)[t,t^-1]"):
        ring = parse_ring(tag)
        one, zero = ring.one(), ring.zero()
        m = TriMat(ring, 2, (one, one), {(1, 2): zero})
        assert m == identity(ring, 2) and hash(m) == hash(identity(ring, 2))
        assert m.upper == {} and repr(m) == "1"
        m = TriMat(ring, 3, [one] * 3, {(1, 3): zero, (2, 3): one})
        e = elementary(ring, 3, 2, 3, one)
        assert m == e and hash(m) == hash(e)


def test_constructor_refuses_a_non_canonical_matrix():
    with pytest.raises(GroupError, match="2 is not a unit of z"):
        TriMat(ZZ, 2, (1, 2), {})
    with pytest.raises(GroupError, match="not a unit"):
        TriMat(F5T, 2, (F5T.one(), F5T.gen()), {})
    with pytest.raises(GroupError, match="not a unit"):
        TriMat(F3, 2, (1, 0), {})
    with pytest.raises(GroupError, match="length"):
        TriMat(ZZ, 2, (1, 1, 1), {})
    with pytest.raises(GroupError, match="length"):
        TriMat(ZZ, 3, (1, 1), {})
    for key in ((2, 1), (1, 1), (1, 3), (0, 2)):
        with pytest.raises(GroupError, match="off the strict upper triangle"):
            TriMat(ZZ, 2, (1, 1), {key: 1})
    # refused even with a zero value, which would otherwise be dropped
    with pytest.raises(GroupError, match="off the strict upper triangle"):
        TriMat(ZZ, 2, (1, 1), {(2, 1): 0})


def test_normal_form_example():
    m = TriMat(F2, 3, (1, 1, 1), {(1, 2): 1, (1, 3): 1, (2, 3): 1})
    assert normal_form(m) == (1, 1, 0)
    assert normal_form(identity(F2, 3)) == (0, 0, 0)
    r = F5T.parse("t+2")
    m = elementary(F5T, 3, 1, 3, r)
    assert normal_form(m) == (F5T.zero(), F5T.zero(), r)
    with pytest.raises(GroupError):
        normal_form(diag_elem(F3, 2, 1, 2))


def test_normal_form_round_trip():
    rng = random.Random(59)
    for tag in ("gf(4)", "z[1/6]", "gf(5)[t,t^-1]"):
        ring = parse_ring(tag)
        for n in range(2, 7):
            U = Unitriangular(ring, n)
            for _ in range(40):
                u = U.random(rng)
                assert recompose(ring, n, normal_form(u)) == u


def _recompose_by_products(ring, n, coeffs):
    # the definition: one matrix product per elementary factor
    out = identity(ring, n)
    for (i, j), r in zip(groups.nf_positions(n), coeffs):
        out = out * elementary(ring, n, i, j, r)
    return out


@pytest.mark.parametrize("tag", RING_TAGS + ("gf(2)[t]",))
def test_recompose_matches_product_of_elementaries(tag):
    ring = parse_ring(tag)
    rng = random.Random(tag)
    for n in range(2, 7):
        positions = groups.nf_positions(n)
        for _ in range(30):
            # about a third of the coefficients zero, as in sparse forms
            coeffs = tuple(ring.zero() if rng.random() < 0.3 else ring.random(rng)
                           for _ in positions)
            m, ref = recompose(ring, n, coeffs), _recompose_by_products(ring, n, coeffs)
            assert m == ref and hash(m) == hash(ref)
            assert normal_form(m) == coeffs


@pytest.mark.parametrize("tag", RING_TAGS + ("gf(2)[t]",))
def test_random_unitriangular_keeps_its_draw_stream(tag):
    # the draws are ring.random calls in normal-form order, one per
    # position, and the matrix is their ordered product of elementaries
    ring = parse_ring(tag)
    rng, twin = random.Random(tag), random.Random(tag)
    for n in range(2, 7):
        U = Unitriangular(ring, n)
        for _ in range(30):
            m = U.random(rng)
            ref = _recompose_by_products(ring, n, tuple(ring.random(twin)
                                                        for _ in groups.nf_positions(n)))
            assert m == ref and hash(m) == hash(ref)
            assert rng.getstate() == twin.getstate()


def _inv_by_columns(m):
    # the definition: entry (i,j) of the inverse from the column walk over
    # every k in i+1..j, an absent entry of the inverse read as zero
    ring, n = m.ring, m.n
    dinv = tuple(ring.inv(u) for u in m.diag)
    x = {}
    for j in range(1, n + 1):
        for i in range(j - 1, 0, -1):
            acc = ring.zero()
            for k in range(i + 1, j + 1):
                a = m.upper.get((i, k))
                if a is not None:
                    xkj = dinv[k - 1] if k == j else x.get((k, j), ring.zero())
                    acc = ring.add(acc, ring.mul(a, xkj))
            if not ring.is_zero(acc):
                x[(i, j)] = ring.neg(ring.mul(dinv[i - 1], acc))
    return TriMat(ring, n, dinv, x)


def _normal_form_by_products(m):
    # the definition: peel each superdiagonal with the inverse of its block,
    # the ordered product of that layer's elementaries
    ring, n = m.ring, m.n
    coeffs = []
    v = m
    for d in range(1, n):
        block = identity(ring, n)
        for i in range(1, n - d + 1):
            r = v.entry(i, i + d)
            coeffs.append(r)
            block = block * elementary(ring, n, i, i + d, r)
        v = _inv_by_columns(block) * v
    assert v.is_identity()
    return tuple(coeffs)


def _element_word_by_products(m):
    # the definition: the normal form of m * diag(m)^-1, then the diagonal
    ring, n = m.ring, m.n
    nf = _normal_form_by_products(m * _inv_by_columns(TriMat(ring, n, m.diag, {})))
    parts = [f"e({i},{j};{ring.to_str(r)})"
             for (i, j), r in zip(groups.nf_positions(n), nf) if not ring.is_zero(r)]
    parts += [f"d({i};{ring.to_str(u)})" for i, u in enumerate(m.diag, start=1)
              if u != ring.one()]
    return " ".join(parts) if parts else "1"


@pytest.mark.parametrize("tag", RING_TAGS + ("gf(2)[t]",))
def test_core_routines_match_product_definitions(tag):
    ring = parse_ring(tag)
    rng = random.Random(tag)
    for n in range(2, 7):
        positions = groups.nf_positions(n)
        for _ in range(20):
            # about a third of the entries zero, as in sparse elements
            upper = {}
            for pos in positions:
                r = ring.zero() if rng.random() < 0.3 else ring.random(rng)
                if not ring.is_zero(r):
                    upper[pos] = r
            nf = tuple(ring.zero() if rng.random() < 0.3 else ring.random(rng)
                       for _ in positions)
            d = TriMat(ring, n, [ring.random_unit(rng) for _ in range(n)], {})
            # a product of elementaries in normal-form order has an inverse
            # whose column walk cancels, so recompose covers that case
            u, c = TriMat(ring, n, (ring.one(),) * n, upper), recompose(ring, n, nf)
            for m in (u, c, u * d, c * d, d * u):
                inv, ref = m.inv(), _inv_by_columns(m)
                assert inv == ref and hash(inv) == hash(ref)
                assert _mat_is_canonical(inv)
                assert element_word(m) == _element_word_by_products(m)
            for m in (u, c):
                assert normal_form(m) == _normal_form_by_products(m)
    # (I + E12 + E23 + E13)^-1 = I - E12 - E23: the (1,3) sum cancels
    m = elementary(ring, 3, 1, 2, ring.one()) * elementary(ring, 3, 2, 3, ring.one())
    assert (1, 3) in m.upper and (1, 3) not in m.inv().upper
    assert m.inv() == _inv_by_columns(m)


def _mul_by_entries(a, b):
    # the definition: entry (i,j) of the product is the sum over k of
    # a(i,k) * b(k,j), rebuilt through the checking constructor
    ring, n = a.ring, a.n
    cells = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            acc = ring.zero()
            for k in range(i, j + 1):
                acc = ring.add(acc, ring.mul(a.entry(i, k), b.entry(k, j)))
            cells[(i, j)] = acc
    return TriMat(ring, n, [cells[(i, i)] for i in range(1, n + 1)],
                  {(i, j): v for (i, j), v in cells.items() if i < j})


def _equal_one(ring):
    """A value equal to ring.one() that is not the shared object, where the
    ring's values allow one: the raw builder Poly(ring, terms) makes one
    over a polynomial ring, while gf(q) and z codes are plain ints and
    every z[1/w] fraction equal to 1 is the shared one."""
    if isinstance(ring, PolyRing):
        return Poly(ring, {0: ring.base.one()})
    return ring.one()


def _two_by_two_cases(ring, rng):
    """Inputs for the closed-form 2x2 kernels: over gf(4), all 36 elements of
    B2(gf(4)) and all 1296 ordered pairs; over any other ring, seeded 2x2
    matrices (diagonal entries the shared one, an equal one that is another
    object, or a random unit), their consecutive pairs, and pairs built so
    that the corner sum of the product (ay + xe = 0) or of the quotient
    (x - (a/b)y = 0) cancels.  Returns (matrices, product pairs, quotient
    pairs)."""
    if ring is F4:
        mats = list(Borel(ring, 2).elements())
        pairs = [(a, b) for a in mats for b in mats]
        return mats, pairs, pairs
    one, other_one = ring.one(), _equal_one(ring)
    mul, neg, inv = ring.mul, ring.neg, ring.inv
    mats = []
    for _ in range(24):
        diag = [rng.choice((one, other_one, ring.random_unit(rng))) for _ in range(2)]
        corner = ring.zero() if rng.random() < 0.25 else ring.random(rng)
        mats.append(TriMat(ring, 2, diag, {(1, 2): corner}))
    pairs = list(zip(mats, mats[1:] + mats[:1]))
    mul_pairs, div_pairs = list(pairs), list(pairs)
    for a in mats:
        x = a.upper.get((1, 2))
        if x is None:
            continue
        a1 = a.diag[0]
        b1, e = ring.random_unit(rng), ring.random_unit(rng)
        # y = -xe/a cancels ay + xe; y = xb/a cancels x - (a/b)y
        mul_pairs.append((a, TriMat(ring, 2, (b1, e), {(1, 2): neg(mul(mul(x, e), inv(a1)))})))
        div_pairs.append((a, TriMat(ring, 2, (b1, e), {(1, 2): mul(mul(x, b1), inv(a1))})))
    # by the reference definitions, the built pairs do cancel
    assert len(mul_pairs) > len(pairs)
    assert not any(_mul_by_entries(a, b).upper for a, b in mul_pairs[len(pairs):])
    assert not any(_mul_by_entries(a, _inv_by_columns(b)).upper
                   for a, b in div_pairs[len(pairs):])
    return mats, mul_pairs, div_pairs


def _assert_kernel_result(x, ref, operands):
    """x equals ref and its rebuild through the checking constructor, with
    equal hashes, stores no zero, and a diagonal entry whose operand entries
    are all the shared one is the shared one; over a polynomial ring, an
    entry equal to one is the shared one unless an operand held an equal
    one that is another object."""
    ring = x.ring
    one = ring.one()
    rebuilt = TriMat(ring, x.n, x.diag, x.upper)
    assert x == ref and hash(x) == hash(ref)
    assert x == rebuilt and hash(x) == hash(rebuilt)
    assert _mat_is_canonical(x)
    for i, u in enumerate(x.diag):
        given = [m.diag[i] for m in operands]
        if all(v is one for v in given):
            assert u is one
        if isinstance(ring, PolyRing) and u == one and \
                not any(v == one and v is not one for v in given):
            assert u is one


@pytest.mark.parametrize("tag", RING_TAGS + ("gf(2)[t]",))
def test_unit_fast_paths_match_the_references(tag):
    # a factor or a diagonal entry that is the shared one() skips its
    # products and its inverse; an equal one that is another object takes
    # the general path; both must give the values of the reference
    # definitions
    ring = parse_ring(tag)
    one, other_one = ring.one(), _equal_one(ring)
    assert other_one == one and hash(other_one) == hash(one)
    if isinstance(ring, PolyRing):
        assert other_one is not one
    if isinstance(ring, (PolyRing, LocalizedIntegers)):
        # a product by the shared one hands back the other operand
        x = ring.random_unit(random.Random(1))
        assert ring.mul(one, x) is x and ring.mul(x, one) is x
        assert ring.mul(one, other_one) is other_one
    if isinstance(ring, PolyRing):
        base = ring.base
        assert ring.monomial(base.one(), 0) is one
        assert ring.constant(base.one()) is one
        assert ring.from_int(1) is one
        assert ring.inv(other_one) is one
    assert ring.inv(one) is one
    rng = random.Random(tag)
    for n in range(2, 7):
        positions = groups.nf_positions(n)
        mats = []
        for _ in range(12):
            diag = [rng.choice((one, one, other_one, ring.random_unit(rng)))
                    for _ in range(n)]
            upper = {pos: ring.random(rng) for pos in positions if rng.random() < 0.6}
            mats.append(TriMat(ring, n, diag, upper))
        mats.append(TriMat(ring, n, (other_one,) * n, {}))
        before = [_state(m) for m in mats]
        table = _table_state(ring)
        for a, b in zip(mats, mats[1:] + mats[:1]):
            for x, ref in ((a * b, _mul_by_entries(a, b)),
                           (a.inv(), _inv_by_columns(a)),
                           (a * a.inv(), identity(ring, n))):
                rebuilt = TriMat(ring, n, x.diag, x.upper)
                assert x == ref and hash(x) == hash(ref)
                assert x == rebuilt and hash(x) == hash(rebuilt)
                assert _mat_is_canonical(x)
            assert a.is_unitriangular() == all(u == one for u in a.diag)
        assert mats[-1].is_identity()
        assert [_state(m) for m in mats] == before
        assert _table_kept(ring, table)
    # the closed-form 2x2 product and inverse
    mats, mul_pairs, _ = _two_by_two_cases(ring, rng)
    operands = mats + [m for pair in mul_pairs for m in pair]
    before = [_state(m) for m in operands]
    table = _table_state(ring)
    for a, b in mul_pairs:
        _assert_kernel_result(a * b, _mul_by_entries(a, b), (a, b))
    for a in mats:
        _assert_kernel_result(a.inv(), _inv_by_columns(a), (a,))
    assert [_state(m) for m in operands] == before
    assert _table_kept(ring, table)
    assert AffElem(ring, other_one, ring.zero()).is_identity()
    assert ring.one() is one


@pytest.mark.parametrize("tag", RING_TAGS + ("gf(2)[t]",))
def test_division_matches_the_product_by_the_inverse(tag):
    # a.div(b) solves X * b = a by forward substitution; its reference is
    # a * b.inv(), and the conjugations and commutators built on it keep
    # their inverse forms
    ring = parse_ring(tag)
    rng = random.Random(tag)
    for n in range(2, 7):
        B, U, P = Borel(ring, n), Unitriangular(ring, n), ProjBorel(ring, n)
        ones = TriMat(ring, n, (_equal_one(ring),) * n, {})
        mats = [B.random(rng) for _ in range(5)] + [U.random(rng) for _ in range(5)]
        mats += [identity(ring, n), ones]
        before = [_state(m) for m in mats]
        table = _table_state(ring)
        for a, b in zip(mats, mats[5:] + mats[:5]):
            u = U.random(rng)
            checks = [
                (a.div(b), a * b.inv()),
                (B.div(a, b), a * b.inv()),
                (a.div(a), identity(ring, n)),
                (a.div(identity(ring, n)), a),
                (a.commutator(b), a * b * a.inv() * b.inv()),
                (Inner(a).apply(b), a * b * a.inv()),
                (Inner(projective(a)).apply(u), a * u * a.inv()),
            ]
            if a.is_unitriangular() and b.is_unitriangular():
                checks.append((U.div(a, b), a * b.inv()))
            for x, ref in checks:
                rebuilt = TriMat(ring, n, x.diag, x.upper)
                assert x == ref and hash(x) == hash(ref)
                assert x == rebuilt and hash(x) == hash(rebuilt)
                assert _mat_is_canonical(x)
            pa, pb = projective(a), projective(b)
            for x, ref in ((pa.div(pb), pa * pb.inv()), (P.div(pa, pb), pa * pb.inv()),
                           (Inner(pa).apply(pb), pa * pb * pa.inv()),
                           (Inner(a, P).apply(pb), pa * pb * pa.inv())):
                assert x == ref and hash(x) == hash(ref)
                assert x.diag[0] == ring.one()
        assert [_state(m) for m in mats] == before
        assert _table_kept(ring, table)
    # the closed-form 2x2 quotient, against the product by the reference
    # inverse
    _, _, div_pairs = _two_by_two_cases(ring, rng)
    operands = [m for pair in div_pairs for m in pair]
    before = [_state(m) for m in operands]
    table = _table_state(ring)
    for a, b in div_pairs:
        _assert_kernel_result(a.div(b), _mul_by_entries(a, _inv_by_columns(b)), (a, b))
    assert [_state(m) for m in operands] == before
    assert _table_kept(ring, table)
    # (I + E12 + E23 + E13) / (I + E23): the (1,3) sum cancels in the row
    e = elementary(ring, 3, 1, 2, ring.one()) * elementary(ring, 3, 2, 3, ring.one())
    d = elementary(ring, 3, 2, 3, ring.one())
    assert (1, 3) in e.upper and e.div(d) == elementary(ring, 3, 1, 2, ring.one())
    with pytest.raises(GroupError, match="incompatible"):
        e.div(identity(ring, 2))


def test_group_division_matches_mul_of_inv():
    # the matrix groups solve, the additive ones subtract, and the rest
    # multiply by the inverse; all agree with mul(a, inv(b))
    rng = random.Random(97)
    for ring in (F4, F5T, F4L, ZZ, localized(6)):
        domains = [Borel(ring, 3), Unitriangular(ring, 3), ProjBorel(ring, 3),
                   Affine(ring), CornerDiagGroup(ring, 3)]
        if isinstance(ring, PolyRing):
            domains += [groups.Additive(ring), groups.AdditivePairs(ring)]
        for G in domains:
            for _ in range(10):
                a, b = G.random(rng), G.random(rng)
                assert G.div(a, b) == G.mul(a, G.inv(b))
                assert G.div(a, a) == G.identity()


def _poly_is_canonical(p):
    return not any(p.ring.base.is_zero(c) for c in p.terms.values())


def _mat_is_canonical(m):
    return not any(m.ring.is_zero(v) for v in m.upper.values())


def test_arithmetic_keeps_no_zero_entries():
    # == and hash compare the stored maps, so a stored zero coefficient or
    # entry would split one value in two; small supports force cancellation
    rng = random.Random(71)
    for tag in ("gf(2)[t]", "gf(3)[t,t^-1]", "z[t]"):
        R = parse_ring(tag)
        for _ in range(300):
            a, b = R.random(rng, max_terms=3, span=2), R.random(rng, max_terms=3, span=2)
            for p in (a * b, a + b, a + (-a), (a + b) * (a - b), a * b - b * a):
                assert _poly_is_canonical(p)
    for tag in ("gf(2)", "gf(2)[t]", "z", "z[1/6]", "gf(3)[t,t^-1]"):
        ring = parse_ring(tag)
        for n in range(2, 6):
            U, B = Unitriangular(ring, n), Borel(ring, n)
            fl = Flip(U)
            for _ in range(20):
                u, v, g = U.random(rng), U.random(rng), B.random(rng)
                nf = tuple(ring.zero() if rng.random() < 0.5 else ring.random(rng)
                           for _ in groups.nf_positions(n))
                for m in (u * v, g * u, u * u.inv(), g.inv(), g * g.inv(),
                          g.scaled(ring.random_unit(rng)), recompose(ring, n, nf),
                          fl.apply(u), fl.apply(u * fl.apply(u))):
                    assert _mat_is_canonical(m)
                assert u * u.inv() == identity(ring, n)


def test_values_refuse_attribute_writes():
    m = Borel(F5L, 3).random(random.Random(5))
    values = {
        m: ("ring", "n", "diag", "upper", "_h"),
        AffElem(F5L, F5L.gen(), F5L.one()): ("ring", "u", "r"),
    }
    for x, slots in values.items():
        before = repr(x)
        for attr in slots + ("other",):
            with pytest.raises(AttributeError):
                setattr(x, attr, None)
        assert repr(x) == before


@pytest.mark.parametrize("tag", RING_TAGS)
def test_affine_products_match_the_checking_constructor(tag):
    ring = parse_ring(tag)
    rng = random.Random(tag)
    A = Affine(ring)
    for _ in range(40):
        a, b = A.random(rng), A.random(rng)
        for x in (a * b, a.inv(), b * a.inv()):
            rebuilt = AffElem(ring, x.u, x.r)
            assert x == rebuilt and hash(x) == hash(rebuilt)
        assert (a * a.inv()).is_identity()


def test_affine_constructor_refuses_a_non_unit():
    for ring, u in ((ZZ, 2), (F3, 0), (F5T, F5T.gen()), (F5L, F5L.parse("t+1")),
                    (localized(6), LocalizedInt(5))):
        with pytest.raises(GroupError, match="is not a unit of"):
            AffElem(ring, u, ring.one())


def _table_state(ring):
    """Every entry of a polynomial ring's unit table, by object, with what
    it stores; empty for other rings."""
    units = getattr(ring, "_units", {})
    return {key: (id(u), _state(u)) for key, u in units.items()}


def _table_kept(ring, before):
    # the table only grows: no entry replaced, none mutated
    after = _table_state(ring)
    return all(after.get(key) == entry for key, entry in before.items())


def _state(x):
    """Everything a value stores, down to the coefficients, as plain data."""
    if isinstance(x, Poly):
        return ("poly", tuple(sorted(x.terms.items())))
    if isinstance(x, LocalizedInt):
        return ("frac", x.num, x.den)
    if isinstance(x, TriMat):
        return ("mat", tuple(map(_state, x.diag)),
                tuple(sorted((k, _state(v)) for k, v in x.upper.items())))
    if isinstance(x, AffElem):
        return ("aff", _state(x.u), _state(x.r))
    return x


def _ring_autos(ring):
    if not isinstance(ring, PolyRing):
        return []
    a = ring.base.from_int(-1 if ring.base is ZZ else 2)
    if ring.laurent:
        return [LaurentFlip(ring), PolySub(ring, a, ring.base.zero())]
    return [PolySub(ring, a, ring.base.one())]


@pytest.mark.parametrize("tag", RING_TAGS)
def test_arithmetic_leaves_shared_values_and_operands_intact(tag):
    # zero() and one() are shared values, and the routines hand back
    # operands: a routine that wrote to a value it was given would change
    # every later zero, one or operand
    ring = parse_ring(tag)
    zero, one = ring.zero(), ring.one()
    rng = random.Random(tag)
    scalars = [zero, one, ring.neg(one)] + [ring.random(rng) for _ in range(16)]
    mats = [Borel(ring, n).random(rng) for n in (2, 3, 4) for _ in range(4)]
    unis = [Unitriangular(ring, n).random(rng) for n in (2, 3, 4) for _ in range(4)]
    affs = [Affine(ring).random(rng) for _ in range(8)]
    operands = scalars + mats + unis + affs
    before = [_state(x) for x in operands]
    for a, b in zip(scalars, scalars[1:] + scalars[:1]):
        assert ring.sub(ring.add(a, b), b) == a
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.add(a, ring.neg(a)) == zero
        if ring.is_unit(a):
            assert ring.mul(a, ring.inv(a)) == one
            assert ring.pow_unit(a, -2) == ring.inv(ring.mul(a, a))
        if isinstance(a, Poly):
            a.scale(ring.base.one())
            a.shift(1)
            if ring.laurent:
                a.reversed_var()
    for g, h in zip(mats, mats[1:] + mats[:1]):
        if g.n == h.n:
            assert (g * h) * h.inv() == g
        element_word(g)
        g.scaled(one)
    for u in unis:
        assert recompose(ring, u.n, normal_form(u)) == u
        assert parse_element(element_word(u), ring, u.n) == u
    for a, b in zip(affs, affs[1:] + affs[:1]):
        assert (a * b) * b.inv() == a
    for alpha in _ring_autos(ring):
        for p in scalars:
            alpha.apply(p)
        for g in mats:
            for u in g.diag:
                alpha.apply(u)
            for v in g.upper.values():
                alpha.apply(v)
    assert [_state(x) for x in operands] == before
    assert ring.zero() is zero and ring.one() is one
    if isinstance(ring, PolyRing):
        assert zero.terms == {} and one.terms == {0: ring.base.one()}
    else:
        assert ring.is_zero(zero) and _state(one) == _state(ring.from_int(1))


def test_series_membership():
    r = F5T.gen()
    assert gamma_member(elementary(F5T, 3, 1, 3, r), 2)
    assert not gamma_member(elementary(F5T, 3, 1, 2, F5T.one()), 2)
    assert gamma_member(identity(F5T, 3), 3)
    with pytest.raises(GroupError):
        gamma_member(identity(F5T, 3), 4)


def test_series_inclusion_and_center_layer():
    rng = random.Random(61)
    for n in (3, 4, 5):
        U = Unitriangular(F2T, n)
        for _ in range(100):
            g = U.random(rng)
            nf = normal_form(U.random(rng))
            k = rng.randint(1, n - 1)
            coeffs = [c if j - i >= k else F2T.zero()
                      for (i, j), c in zip(groups.nf_positions(n), nf)]
            hk = recompose(F2T, n, coeffs)
            assert gamma_member(hk, k)
            assert gamma_member(g.commutator(hk), min(k + 1, n))
        # the last proper series term is the corner subgroup
        for u in Unitriangular(F2, n).elements():
            assert gamma_member(u, n - 1) == (set(u.upper) <= {(1, n)})


def test_superdiagonal_additivity():
    rng = random.Random(67)
    U = Unitriangular(F5L, 4)
    for _ in range(300):
        u, v = U.random(rng), U.random(rng)
        s = superdiagonal(u * v)
        assert s == tuple(F5L.add(a, b) for a, b in
                          zip(superdiagonal(u), superdiagonal(v)))


def test_projective_scalar_invariance():
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field(q)
        for n in (2, 3):
            rng = random.Random(71)
            B = Borel(F, n)
            for _ in range(20):
                m = B.random(rng)
                for u in F.units():
                    assert projective(m) == projective(m.scaled(u))
                    assert projective(m.scaled(u)).diag[0] == F.one()


@pytest.mark.parametrize("tag", RING_TAGS)
def test_projective_subgroups_are_closed(tag):
    # S = {(1,1) entry 1} and w_n inside it are subgroups of B_n, and
    # projective is a homomorphism onto S
    ring = parse_ring(tag)
    rng = random.Random(tag)
    for n in (2, 3, 4):
        B = Borel(ring, n)
        for G in (ProjBorel(ring, n), CornerDiagGroup(ring, n)):
            assert G.identity() == identity(ring, n)
            for _ in range(10):
                a, b = G.random(rng), G.random(rng)
                for x in (a, G.mul(a, b), G.div(a, b), G.inv(a)):
                    assert x.diag[0] is ring.one()
                    if isinstance(G, CornerDiagGroup):
                        assert set(x.upper) <= {(1, n)}
        for _ in range(10):
            a, b = B.random(rng), B.random(rng)
            assert projective(a * b) == projective(a) * projective(b)
            assert projective(a.inv()) == projective(a).inv()


def test_projective_quotients_over_z_localized_share_the_one():
    # u * u^-1 over z[1/6] is the shared one(), so the (1,1) entries of
    # products, quotients, inverses and identities are that object, and the
    # values are those of the product and column-walk inverse definitions
    Z6 = localized(6)
    one = Z6.one()
    rng = random.Random(49)
    for n in (2, 3, 4):
        for G in (ProjBorel(Z6, n), CornerDiagGroup(Z6, n)):
            for _ in range(30):
                a, b = G.random(rng), G.random(rng)
                ref_inv = _inv_by_columns(b)
                for x, ref in ((G.mul(a, b), _mul_by_entries(a, b)),
                               (G.div(a, b), _mul_by_entries(a, ref_inv)),
                               (G.inv(b), ref_inv), (G.identity(), identity(Z6, n))):
                    assert x.diag[0] is one
                    assert x == ref and hash(x) == hash(ref)


def test_projective_keeps_a_from_int_one_shared():
    # a (1,1) entry read from from_int(1) is the shared one, so projective
    # hands the matrix back and its quotients keep the shared one
    Z6 = localized(6)
    one = Z6.one()
    m = TriMat(Z6, 3, (Z6.from_int(1), Z6.parse("3/2"), Z6.from_int(-1)),
               {(1, 2): Z6.parse("5"), (2, 3): Z6.parse("1/2")})
    assert m.diag[0] is one
    assert projective(m) is m
    assert (m * m).diag[0] is one and m.inv().diag[0] is one


def _assert_shared(ring, x):
    """x is the shared zero or one when it equals one of them; over a
    polynomial ring a unit is its unit-table object as well."""
    zero, one = ring.zero(), ring.one()
    assert x != zero or x is zero
    assert x != one or x is one
    if isinstance(ring, PolyRing) and ring.is_unit(x):
        (e, c), = x.terms.items()
        assert ring._units[e, c] is x


def _ring_values(ring, rng):
    """Values of every construction path: samples, units, from_int, parse,
    inverses, powers, unit_decompose and, over a polynomial ring, make,
    shift, reversed_var and scale."""
    zero, one = ring.zero(), ring.one()
    units = [ring.random_unit(rng) for _ in range(12)] + [one, ring.neg(one)]
    xs = [ring.random(rng) for _ in range(12)] + [zero, one] + units
    xs += [ring.from_int(k) for k in range(-3, 4)]
    xs += [ring.parse(ring.to_str(x)) for x in list(xs)]
    xs += [ring.parse(s) for s in ("0", "1", "-1")]
    for u in units:
        ui = ring.inv(u)
        xs += [ui, ring.mul(u, ui), ring.mul(ui, u), ring.unit_decompose(u)[0],
               ring.pow_unit(u, 0), ring.pow_unit(u, 2), ring.pow_unit(u, -1)]
    if isinstance(ring, PolyRing):
        b0, b1 = ring.base.zero(), ring.base.one()
        xs += [ring.parse("t - t"), ring.parse("1 + t - t"), ring.make({}),
               ring.make({0: b1}), ring.make({0: b1, 2: b0}), ring.make({3: b0})]
        xs += [ring.make(dict(x.terms)) for x in list(xs)]
        for x in list(xs):
            # t^-low x is a constant for a monomial x
            if x.terms:
                xs += [x.shift(2), x.shift(-x.low)]
            if ring.laurent or x.degree <= 0:
                xs.append(x.reversed_var())
            xs += [x.scale(b1), x.scale(b0)]
    return xs


@pytest.mark.parametrize("tag", RING_TAGS + ("gf(2)[t]",))
def test_values_equal_to_zero_or_one_are_the_shared_objects(tag):
    # every construction path, every ring operation on its values, and the
    # TriMat product, right division and inverse hand out the shared zero,
    # the shared one and (over a polynomial ring) the unit-table objects
    ring = parse_ring(tag)
    rng = random.Random(tag)
    one = ring.one()
    xs = _ring_values(ring, rng)
    for x in xs:
        _assert_shared(ring, x)
    for a in xs[:40]:
        for b in xs[:40]:
            for x in (ring.add(a, b), ring.sub(a, b), ring.mul(a, b), ring.neg(a),
                      ring.sub(a, a), ring.add(a, ring.neg(a)),
                      ring.add(a, ring.sub(one, a)), ring.sub(ring.add(a, one), a)):
                _assert_shared(ring, x)
    for n in (2, 3, 4):
        B, U = Borel(ring, n), Unitriangular(ring, n)
        mats = [B.random(rng) for _ in range(8)] + [U.random(rng) for _ in range(4)]
        mats += [identity(ring, n), diag_elem(ring, n, n, ring.random_unit(rng))]
        for a, b in zip(mats, mats[1:] + mats[:1]):
            for x in (a * b, a.div(b), a.inv(), a * a.inv(), a.inv() * a, a.div(a),
                      identity(ring, n).div(a), (a * b).div(b), b.inv().inv()):
                for v in x.diag + tuple(x.upper.values()):
                    _assert_shared(ring, v)
            assert all(u is one for u in a.div(a).diag) and not a.div(a).upper


def test_to_affine_examples():
    w = _corner(F4L, 3, F4L.zero(), (F4L.one(),) * 3)
    assert w.is_identity() and to_affine(w).is_identity()

    t = F4L.gen()
    w = _corner(F4L, 3, t, (t, F4L.one(), F4L.one()))
    assert w == TriMat(F4L, 3, (F4L.one(), t ** -1, t ** -1), {(1, 3): F4L.one()})
    img = to_affine(w)
    assert img.u == t and img.r == t

    Z2 = localized(2)
    two = Z2.from_int(2)
    w = _corner(Z2, 4, Z2.from_int(5), (two, Z2.one(), Z2.one(), two))
    img = to_affine(w)
    assert img.u == Z2.one() and img.r == Z2.from_int(5)
    assert not img.is_identity()


def test_to_affine_refuses_a_matrix_outside_w_n():
    one, t = F4L.one(), F4L.gen()
    outside = (
        TriMat(F4L, 3, (t, one, one), {}),                        # (1,1) entry not 1
        TriMat(F4L, 3, (one, one, one), {(1, 2): t}),             # entry off the corner
        TriMat(F4L, 3, (one, t, one), {(2, 3): one, (1, 3): t}),
        AffElem(F4L, t, one),
    )
    for x in outside:
        with pytest.raises(GroupError, match="not in a corner-diagonal group"):
            to_affine(x)


def test_to_affine_homomorphism_and_kernel():
    rng = random.Random(79)
    W = CornerDiagGroup(F5L, 4)
    for _ in range(1000):
        a, b = W.random(rng), W.random(rng)
        assert to_affine(W.mul(a, b)) == to_affine(a) * to_affine(b)
    for _ in range(300):
        w = W.random(rng)
        in_kernel = to_affine(w).is_identity()
        structural = not w.upper and w.diag[0] == w.diag[-1]
        assert in_kernel == structural


def test_center_examples():
    Z = center_bruteforce(Borel(F3, 2))
    assert set(Z) == {identity(F3, 2), identity(F3, 2).scaled(2)}
    Z = center_bruteforce(Unitriangular(F2, 3))
    assert set(Z) == {identity(F2, 3), elementary(F2, 3, 1, 3, 1)}
    Z = center_bruteforce(CornerDiagGroup(F4, 3))
    for w in Z:
        assert not w.upper and w.diag[0] == w.diag[-1]
    assert len(Z) == 3


def test_generating_set_center_equals_all_pairs_center(monkeypatch):
    # the groups of the structure criterion, and one of each other kind
    cases = (Borel(F3, 2), Borel(F4, 3), Unitriangular(F2, 3), Unitriangular(F2, 4),
             CornerDiagGroup(F4, 3), CornerDiagGroup(F4, 4), CornerDiagGroup(F3, 3),
             ProjBorel(F4, 2), Affine(field(5)), Borel(F4, 2, plus=True),
             CornerDiagGroup(field(8), 3))
    for grp in cases:
        assert center_bruteforce(grp) == center_bruteforce(grp, full_pairs=True), grp.name
    monkeypatch.setattr(groups, "MAX_CENTER_ELEMENTS", 3)
    with pytest.raises(GroupError, match="budget"):
        center_bruteforce(Borel(F3, 2))


def test_center_check_refuses_a_large_group_before_listing_it(monkeypatch, capsys):
    # the computed order is exact: a budget of |G| passes, |G| - 1 refuses
    for F, tag, n in ((F3, "b", 2), (F2, "u", 4), (F4, "w", 3), (F3, "b", 3)):
        monkeypatch.undo()
        size = len(list(experiments.center_check(F, tag, n).group.elements()))
        monkeypatch.setattr(groups, "MAX_CENTER_ELEMENTS", size)
        experiments.center_check(F, tag, n)
        monkeypatch.setattr(groups, "MAX_CENTER_ELEMENTS", size - 1)
        with pytest.raises(GroupError, match=f"has {size} elements"):
            experiments.center_check(F, tag, n)
    monkeypatch.undo()

    def listed(self):
        raise AssertionError("the group was listed")

    monkeypatch.setattr(Borel, "elements", listed)
    with pytest.raises(GroupError, match="more than"):
        experiments.center_check(F4, "b", 5)    # about 2.5e8 elements
    assert main(["center", "--ring", "gf(4)", "--group", "b", "--n", "5"]) == 2
    assert "more than" in capsys.readouterr().err


class _Punctured(Unitriangular):
    """u_n(R) with one element left out of its enumeration: not a group."""

    def __init__(self, ring, n, drop):
        super().__init__(ring, n)
        self.drop = drop

    def elements(self):
        els = list(super().elements())
        del els[self.drop]
        return iter(els)


def test_center_refuses_an_enumeration_that_is_not_a_group(monkeypatch):
    # the identity, the last element, and a middle one whose absence only
    # the second generator's cosets find: it is no power of another element
    for drop in (0, -1, 4):
        with pytest.raises(AssertionError, match="not a group"):
            center_bruteforce(_Punctured(F2, 3, drop))
    # the CLI reports it as an internal fault, not as a mismatch
    monkeypatch.setattr(experiments, "Unitriangular", lambda F, n: _Punctured(F, n, -1))
    assert main(["center", "--ring", "gf(2)", "--group", "u", "--n", "3"]) == 4


def test_two_by_two_words_match_the_product_definition():
    # the closed form e(1,2; x/d2) d(1;d1) d(2;d2) against the normal form of
    # m * diag(m)^-1: every element of B2(gf(4)) and seeded plus elements
    # over gf(q)[t,t^-1], each word parsing back to its matrix
    mats = list(Borel(F4, 2).elements())
    assert len(mats) == 36
    rng = random.Random(20)
    for q in (4, 5, 8, 9):
        mats += [Borel(parse_ring(f"gf({q})[t,t^-1]"), 2, plus=True).random(rng)
                 for _ in range(100)]
    for m in mats:
        word = element_word(m)
        assert word == _element_word_by_products(m)
        assert parse_element(word, m.ring, 2) == m
    # a diagonal entry equal to one that is not the shared one() prints
    # nothing (over z[1/w] every entry equal to one is the shared one)
    u, x = F4L.parse("w*t"), F4L.parse("t^2 + 1")
    fresh = _equal_one(F4L)
    assert fresh is not F4L.one()
    for m in (TriMat(F4L, 2, (fresh, u), {(1, 2): x}),
              TriMat(F4L, 2, (u, fresh), {(1, 2): x}),
              TriMat(F4L, 2, (fresh, fresh), {})):
        word = element_word(m)
        assert word == _element_word_by_products(m) and ";1)" not in word
        assert parse_element(word, F4L, 2) == m
    assert element_word(TriMat(F4L, 2, (fresh, fresh), {})) == "1"


def test_element_word_round_trip():
    rng = random.Random(83)
    for tag in ("gf(4)", "gf(5)[t,t^-1]", "z[1/6]"):
        ring = parse_ring(tag)
        B = Borel(ring, 3)
        for _ in range(200):
            m = B.random(rng)
            assert parse_element(element_word(m), ring, 3) == m
    assert parse_element("1", F4, 3).is_identity()
    assert parse_element("e(1,2;w) d(2;w+1)", F4, 2) == \
        elementary(F4, 2, 1, 2, 2) * diag_elem(F4, 2, 2, 3)
    with pytest.raises(GroupError):
        parse_element("nonsense", F4, 2)


def test_element_words_keep_their_bytes():
    # exact text, so a change in the printed words fails here and not only
    # in a benchmark digest
    P, O = F4L.parse, F4L.zero()
    m = _from_rows(F4L, [[P("w*t"), P("t^-1+w"), P("(w+1)*t^2")],
                         [O, P("t^-2"), P("w*t+1")],
                         [O, O, P("w+1")]])
    assert element_word(m) == ("e(1,2;t + w*t^2) e(2,3;w + (w+1)*t) "
                               "e(1,3;w*t + t^2 + t^3) d(1;w*t) d(2;t^-2) d(3;(w+1))")
    assert Inner(m).word() == f"inner({element_word(m)})"
    m4 = _from_rows(F4L, [[F4L.one(), P("t"), O, P("w")],
                          [O, P("w*t^-1"), P("t+1"), O],
                          [O, O, F4L.one(), P("t^2")],
                          [O, O, O, P("t^3")]])
    assert element_word(m4) == (
        "e(1,2;(w+1)*t^2) e(2,3;1 + t) e(3,4;t^-1) e(1,3;(w+1)*t^2 + (w+1)*t^3) "
        "e(2,4;t^-1 + 1) e(1,4;w*t^-3) d(2;w*t^-1) d(4;t^3)")
    Z6 = localized(6)
    Q = Z6.parse
    z = _from_rows(Z6, [[Q("-2"), Q("1/3"), Q("5")],
                        [Z6.zero(), Q("3"), Q("-7/2")],
                        [Z6.zero(), Z6.zero(), Q("1/6")]])
    assert element_word(z) == "e(1,2;1/9) e(2,3;-21) e(1,3;97/3) d(1;-2) d(2;3) d(3;1/6)"
    assert element_word(projective(z)) == \
        "e(1,2;1/9) e(2,3;-21) e(1,3;97/3) d(2;-3/2) d(3;-1/12)"


def test_element_word_refuses_a_non_unit_diagonal():
    # a GroupError naming the entry, not the ring's RingError from inverting
    # it; the constructor raises it, so no such matrix reaches element_word
    t = F5T.gen()
    with pytest.raises(GroupError, match="not a unit"):
        element_word(TriMat(F5T, 2, (t, F5T.one()), {(1, 2): t}))
    with pytest.raises(GroupError, match="not a unit"):
        element_word(TriMat(ZZ, 3, (1, 2, 1), {}))


def test_enumeration_sizes_and_order():
    assert len(list(Unitriangular(F2, 3).elements())) == 8
    assert len(list(Borel(F3, 2).elements())) == 12
    assert len(list(ProjBorel(F3, 2).elements())) == 6
    assert len(list(CornerDiagGroup(F4, 3).elements())) == 36
    assert len(list(Affine(F4).elements())) == 12
    first = next(iter(Unitriangular(F2, 3).elements()))
    assert first.is_identity()       # all-zero coefficients come first


def test_enumeration_order_matches_nested_loops():
    # the partition oracle picks min-index representatives, so the order
    # is part of every reported class: the last coordinate varies fastest,
    # units run through powers of the primitive element, and the first
    # diagonal entry of the projective and corner-diagonal groups is 1
    F5 = field(5)
    units = [1, 2, 4, 3]                 # powers of 2 in gf(5)
    win = LinearWindow(F2T, 0, 2)
    assert list(win.elements()) == [F2T.make({0: a, 1: b, 2: c})
                                     for a in range(2) for b in range(2)
                                     for c in range(2)]
    assert [normal_form(u) for u in Unitriangular(F3, 3).elements()] == \
        [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    U2 = list(Unitriangular(F5, 2).elements())
    assert list(Borel(F5, 2).elements()) == \
        [u * TriMat(F5, 2, (x, y), {}) for u in U2 for x in units for y in units]
    assert list(ProjBorel(F5, 2).elements()) == \
        [u * TriMat(F5, 2, (1, y), {}) for u in U2 for y in units]
    assert list(CornerDiagGroup(F5, 3).elements()) == \
        [_corner(F5, 3, r, (1, x, y)) for r in range(5) for x in units for y in units]
    W = list(win.elements())
    assert list(PairWindow(win).elements()) == [(a, b) for a in W for b in W]


def test_groups_refuse_dimension_below_two():
    for n in (0, 1):
        for make in (Unitriangular, Borel, ProjBorel, CornerDiagGroup):
            with pytest.raises(GroupError, match="dimension must be >= 2"):
                make(F3, n)
    # S = B_n/Z is held as a subgroup of B_n
    assert isinstance(ProjBorel(F3, 2), Borel)


def test_bs_and_lamplighter_presentations():
    # a |-> e(1), b |-> d(p) satisfies b a b^-1 = a^p in the positive
    # affine group over z[1/p]
    for p in (2, 3, 5):
        ring = localized(p)
        a = AffElem(ring, ring.one(), ring.one())
        b = AffElem(ring, ring.from_int(p), ring.zero())
        lhs = b * a * b.inv()
        rhs = a
        for _ in range(p - 1):
            rhs = rhs * a
        assert lhs == rhs

    # over gf(p)[t,t^-1]: a^p = 1 and shifted copies of a commute
    for p in (2, 3):
        ring = parse_ring(f"gf({p})[t,t^-1]")
        a = AffElem(ring, ring.one(), ring.one())
        b = AffElem(ring, ring.gen(), ring.zero())
        acc = a
        for _ in range(p - 1):
            acc = acc * a
        assert acc.is_identity()
        rng = random.Random(97)
        for _ in range(50):
            k, l = rng.randint(-4, 4), rng.randint(-4, 4)
            bk = AffElem(ring, ring.gen() ** k, ring.zero())
            bl = AffElem(ring, ring.gen() ** l, ring.zero())
            x = bk * a * bk.inv()
            y = bl * a * bl.inv()
            assert x * y == y * x
