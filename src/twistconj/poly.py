"""Sparse polynomials and Laurent polynomials over the base rings, the
ring substitutions t -> a*t+b and t -> 1/t, augmentation maps,
divisibility and irreducibility over gf(q)[t], and the difference split
behind the distinct-class families.

A polynomial is a map {exponent -> nonzero coefficient}; Laurent rings
allow negative exponents.  Values are immutable, hashable and carry their
ring, so they can sit inside matrix entries and set-based enumerations.

Text form (round-trip exact):  term (('+'|'-') term)*  with
term = coeff ['*' 't' ['^' int]], e.g.  3*t^-2 + 1 + 2*t^5.
Extension-field coefficients print with the generator w and are wrapped
in parentheses when compound:  (w+1)*t^2 + w.

Shared units: each PolyRing hands out one zero() object and keeps a table
of its units c*t^e (c a unit of the base, e = 0 unless the ring is
Laurent), one object per unit, seeded with one().  Every value is built
through PolyRing._of, which hands out zero() for no terms and the
table's object for a unit; a non-unit monomial is built fresh and never
stored.  So make, parse, sums, negations, shifts, substitutions and
products never hold a zero or a unit that is another object.  A product
with the shared one() returns the other operand before any other work,
so most of the products of the matrix layers cost nothing, and the
diagonal units of the Borel and affine groups are shared across all the
matrices that hold them.  Identity is only a fast path: equality and
hashing stay the truth.
"""

from __future__ import annotations

import math
import operator
import re

from . import rings
from .rings import Ring, RingError, ZZ, field, localized, _signed_terms

_POLY_CACHE: dict = {}


def poly_ring(base: Ring, laurent: bool = False) -> "PolyRing":
    key = (base.tag, laurent)
    if key not in _POLY_CACHE:
        _POLY_CACHE[key] = PolyRing(base, laurent)
    return _POLY_CACHE[key]


class PolyRing(Ring):
    def __init__(self, base, laurent):
        if not isinstance(base, (rings.GaloisField, rings.IntegerRing)):
            raise RingError(f"unsupported coefficient ring {base.tag}")
        self.base = base
        self.laurent = laurent
        self.tag = base.tag + ("[t,t^-1]" if laurent else "[t]")
        # values are immutable, so every zero() and one() can be the same
        self._base_one = base.one()
        self._zero = Poly(self, {})
        self._one = Poly(self, {0: self._base_one})
        # (exponent, coefficient) -> the one object of that unit
        self._units = {(0, self._base_one): self._one}

    # construction ----------------------------------------------------------
    def make(self, terms: dict) -> "Poly":
        clean = {}
        for e, c in terms.items():
            if e < 0 and not self.laurent:
                raise RingError(f"negative exponent in {self.tag}")
            if not self.base.is_zero(c):
                clean[e] = c
        return self._of(clean)

    def _of(self, terms):
        """The value with canonical terms `terms`, the one builder of the
        ring's arithmetic: the shared zero() for no terms, _unit's object
        for one term, else Poly(self, terms)."""
        if len(terms) > 1:
            return Poly(self, terms)
        if not terms:
            return self._zero
        (e, c), = terms.items()
        return self._unit(e, c)

    def _unit(self, e, c):
        """c*t^e for a nonzero c: the table's object when it is a unit,
        which a miss stores, and a fresh Poly when it is not."""
        u = self._units.get((e, c))
        if u is None:
            u = Poly(self, {e: c})
            # t^e, e != 0, is a unit only in a Laurent ring: test that first
            if (e == 0 or self.laurent) and self.base.is_unit(c):
                self._units[e, c] = u
        return u

    def monomial(self, c, e: int) -> "Poly":
        """c*t^e, with make's checks; a unit is the table's object."""
        if e < 0 and not self.laurent:
            raise RingError(f"negative exponent in {self.tag}")
        if self.base.is_zero(c):
            return self._zero
        return self._unit(e, c)

    def gen(self) -> "Poly":
        return self.monomial(self.base.one(), 1)

    def constant(self, c) -> "Poly":
        return self.monomial(c, 0)

    # protocol ----------------------------------------------------------------
    def zero(self):
        return self._zero

    def one(self):
        return self._one

    # the Poly operators themselves, with no frame of the ring's own; they
    # refuse operands of different rings
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    sub = staticmethod(operator.sub)

    def from_int(self, k):
        return self.constant(self.base.from_int(k))

    def is_zero(self, a):
        return not a.terms

    def is_unit(self, a):
        if len(a.terms) != 1:
            return False
        (e, c), = a.terms.items()
        if not self.base.is_unit(c):
            return False
        return e == 0 or self.laurent

    def inv(self, a):
        if a is self._one:
            return a
        e, c = self._unit_term(a)
        return self._unit(-e, self.base.inv(c))

    def _unit_term(self, a):
        """(exponent, coefficient) of the single term of the unit a."""
        if len(a.terms) == 1:
            (e, c), = a.terms.items()
            if self.base.is_unit(c) and (e == 0 or self.laurent):
                return e, c
        raise RingError(f"{self.to_str(a)} is not a unit of {self.tag}")

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        return parse_poly(s, self)

    def random(self, rng, max_terms=3, span=4):
        lo = -span if self.laurent else 0
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            terms[rng.randint(lo, span)] = self.base.random(rng)
        return self.make(terms)

    def random_unit(self, rng):
        c = self.base.random_unit(rng)
        e = rng.randint(-3, 3) if self.laurent else 0
        return self.monomial(c, e)

    def torsion_free_units(self):
        return (self.gen(),) if self.laurent else ()

    def unit_decompose(self, u):
        e, c = self._unit_term(u)
        return self.constant(c), ((e,) if self.laurent else ())


class Poly:
    """A polynomial of `ring`, stored as `terms`, a map {exponent ->
    nonzero coefficient} that no one mutates.

    Poly(ring, terms) takes `terms` over as it is; the library builds
    its values through PolyRing._of, which hands out the shared zero and
    units, and calls Poly itself only for products of two or more terms.
    PolyRing.make is the checking path: it drops zero coefficients and
    refuses a negative exponent outside a Laurent ring."""

    __slots__ = ("ring", "terms", "_h")

    def __init__(self, ring, terms):
        # the slot descriptors themselves: __setattr__ refuses writes
        _set_ring(self, ring)
        _set_terms(self, terms)
        _set_h(self, None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # ring data ---------------------------------------------------------------
    def coeff(self, e):
        return self.terms.get(e, self.ring.base.zero())

    @property
    def degree(self):
        return max(self.terms) if self.terms else -math.inf

    @property
    def low(self):
        return min(self.terms) if self.terms else math.inf

    def is_zero(self):
        return not self.terms

    # arithmetic ---------------------------------------------------------------
    def _check(self, o):
        if self.ring is not o.ring:
            raise RingError(f"mixed rings {self.ring.tag} / {o.ring.tag}")

    def __add__(self, o):
        ring = self.ring
        if o.ring is not ring:
            self._check(o)
        # values are immutable, so a zero summand hands back the other one
        if not o.terms:
            return self
        if not self.terms:
            return o
        base = ring.base
        add, is_zero = base.add, base.is_zero
        out = dict(self.terms)
        for e, c in o.terms.items():
            prev = out.get(e)
            if prev is None:
                # an exponent self lacks: the sum is c, which is not zero
                out[e] = c
            else:
                s = add(prev, c)
                if is_zero(s):
                    del out[e]
                else:
                    out[e] = s
        return ring._of(out)

    def __neg__(self):
        ring = self.ring
        neg = ring.base.neg
        return ring._of({e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, o):
        # one pass over o's terms, as in __add__, with no negated copy of o
        ring = self.ring
        if o.ring is not ring:
            self._check(o)
        if not o.terms:
            return self
        base = ring.base
        add, neg, is_zero = base.add, base.neg, base.is_zero
        out = dict(self.terms)
        for e, c in o.terms.items():
            prev = out.get(e)
            if prev is None:
                # an exponent self lacks: the difference is -c, not zero
                out[e] = neg(c)
            else:
                s = add(prev, neg(c))
                if is_zero(s):
                    del out[e]
                else:
                    out[e] = s
        return ring._of(out)

    def __mul__(self, o):
        # PolyRing admits only gf(q) and z coefficients, both integral
        # domains, so a product of nonzero coefficients is never zero: only
        # a sum of products needs a zero test
        ring = self.ring
        if o.ring is not ring:
            self._check(o)
        # the shared one() is the ring's unit, and values are immutable
        if o is ring._one:
            return self
        if self is ring._one:
            return o
        base = ring.base
        if len(o.terms) <= 1:
            short, other = o, self
        elif len(self.terms) <= 1:
            short, other = self, o
        else:
            add, mul, is_zero = base.add, base.mul, base.is_zero
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in o.terms.items():
                    e = e1 + e2
                    c = mul(c1, c2)
                    if e in out:
                        c = add(out[e], c)
                        if is_zero(c):
                            del out[e]
                            continue
                    out[e] = c
            # both factors have two or more terms, and in a domain so does
            # the product (its least and greatest exponents keep one term
            # each): it is neither zero nor a unit
            return Poly(ring, out)
        # a zero factor, in either order, gives the shared zero()
        if not short.terms or not other.terms:
            return ring._zero
        (e1, c1), = short.terms.items()
        base_one = ring._base_one
        if len(other.terms) == 1:
            # two monomials: the product may be a unit, which the table hands
            # out; a coefficient equal to the base one multiplies nothing
            (e2, c2), = other.terms.items()
            if c1 == base_one:
                c = c2
            elif c2 == base_one:
                c = c1
            else:
                c = base.mul(c1, c2)
            return ring._unit(e1 + e2, c)
        # one term c1*t^e1: distinct e2 give distinct e1+e2, so no collision,
        # and the product keeps other's two or more terms
        if c1 == base_one:
            # t^e1 shifts the exponents and multiplies no coefficient
            out = {e1 + e2: c2 for e2, c2 in other.terms.items()}
        else:
            mul = base.mul
            out = {e1 + e2: mul(c1, c2) for e2, c2 in other.terms.items()}
        return Poly(ring, out)

    def __pow__(self, k):
        return self.ring.pow_unit(self, k)

    def scale(self, c):
        # values are immutable, so a scale by one hands back self; zero and
        # monomials still go through _of, which hands out the shared ones
        if c == self.ring._base_one and len(self.terms) > 1:
            return self
        base = self.ring.base
        out = {}
        for e, v in self.terms.items():
            s = base.mul(c, v)
            if not base.is_zero(s):
                out[e] = s
        return self.ring._of(out)

    def shift(self, k):
        """Multiply by t^k (Laurent rings for k < 0)."""
        if k < 0 and not self.ring.laurent and self.terms and self.low + k < 0:
            raise RingError(f"negative exponent in {self.ring.tag}")
        return self.ring._of({e + k: c for e, c in self.terms.items()})

    def reversed_var(self):
        """Substitute t -> 1/t (Laurent rings only, or constants)."""
        if self.terms and not self.ring.laurent and max(self.terms) > 0:
            raise RingError("t -> 1/t leaves the polynomial ring")
        return self.ring._of({-e: c for e, c in self.terms.items()})

    def reversed_scaled(self, a):
        """a * f(1/t) for f = self and a base-ring value, in one pass:
        the value of reversed_var().scale(a), under scale's rules (zero
        products dropped, the shared one() for the unit)."""
        ring = self.ring
        if not ring.laurent and self.terms and max(self.terms) > 0:
            raise RingError("t -> 1/t leaves the polynomial ring")
        base = ring.base
        mul, is_zero = base.mul, base.is_zero
        out = {}
        for e, c in self.terms.items():
            s = mul(a, c)
            if not is_zero(s):
                out[-e] = s
        return ring._of(out)

    def __eq__(self, o):
        return isinstance(o, Poly) and self.ring is o.ring and self.terms == o.terms

    def __hash__(self):
        if self._h is None:
            _set_h(self, hash((self.ring.tag, frozenset(self.terms.items()))))
        return self._h

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"<{self.ring.tag}: {poly_to_str(self)}>"


_set_ring, _set_terms, _set_h = (Poly.__dict__[slot].__set__ for slot in Poly.__slots__)


# ---------------------------------------------------------------------------
# text form

def poly_to_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    base = p.ring.base
    # a field's coefficient texts, compound ones in parentheses, are built
    # once with its tables; an integer prints its sign as the term's
    texts = getattr(base, "coeff_texts", None)
    out = []
    for e in sorted(p.terms):
        c = p.terms[e]
        if texts is not None:
            neg = False
            cs = texts[c]
        else:
            neg = c < 0
            cs = str(-c if neg else c)
        if e == 0:
            body = cs
        else:
            tpart = "t" if e == 1 else f"t^{e}"
            body = tpart if cs == "1" else f"{cs}*{tpart}"
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


_TERM_RE = re.compile(
    r"(?:(?P<coeff>\((?P<par>[^()]*)\)|[0-9]+|[0-9]*\*?w(?:\^[0-9]+)?)\*?)?"
    r"(?P<t>t(?:\^(?P<exp>-?[0-9]+))?)?"
)


def parse_poly(s: str, ring: PolyRing) -> Poly:
    base = ring.base
    s = s.replace(" ", "")
    if not s:
        raise RingError("empty polynomial")
    if s == "0":
        return ring.zero()
    acc = ring.zero()
    for sign, term in _signed_terms(s):
        if not term:
            raise RingError(f"bad polynomial {s!r}")
        m = _TERM_RE.fullmatch(term)
        if not m or (m.group("coeff") is None and m.group("t") is None):
            raise RingError(f"bad term {term!r}")
        cs = m.group("coeff")
        if cs is None:
            c = base.one()
        elif m.group("par") is not None:
            c = base.parse(m.group("par"))
        else:
            c = base.parse(cs.rstrip("*"))
        if sign < 0:
            c = base.neg(c)
        if m.group("t"):
            e = int(m.group("exp")) if m.group("exp") else 1
        else:
            e = 0
        acc = acc + ring.monomial(c, e)
    return acc


# ---------------------------------------------------------------------------
# ring substitutions

class RingAutoDesc:
    """An automorphism of the coefficient ring R0[t] or R0[t,1/t]: apply
    maps a Poly, word prints it."""

    def is_identity(self):
        return False


class IdentityAuto(RingAutoDesc):
    def apply(self, p):
        return p

    def is_identity(self):
        return True

    def word(self):
        return "t->t"


class PolySub(RingAutoDesc):
    """t -> a*t + b with a a unit of the coefficient ring, and b = 0 over
    a Laurent ring.

    For b != 0 the object keeps the powers (a*t + b)^e it has built, and
    each apply extends that list only past the highest exponent seen so
    far.  After a degree-d apply it holds O(d^2) coefficients, the order
    of the elimination matrix a caller builds from d such images.
    """

    def __init__(self, ring: PolyRing, a, b):
        for x in (a, b):
            if isinstance(ring.base, rings.GaloisField):
                if not (isinstance(x, int) and 0 <= x < ring.base.q):
                    raise RingError("substitution coefficients are field codes")
            elif not isinstance(x, int):
                raise RingError("substitution coefficients are integers")
        if not ring.base.is_unit(a):
            raise RingError("substitution needs an invertible leading coefficient")
        if ring.laurent and not ring.base.is_zero(b):
            # t^-1 would need (a*t + b)^-1, which is no Laurent polynomial
            raise RingError("t -> a*t+b with b != 0 is no automorphism of a Laurent ring")
        self.ring = ring
        self.a = a
        self.b = b
        self._powers = [ring.one(), ring.monomial(a, 1) + ring.constant(b)]

    def is_identity(self):
        base = self.ring.base
        return self.a == base.one() and base.is_zero(self.b)

    def apply(self, p):
        ring = self.ring
        if p.ring is not ring:
            raise RingError(f"substitution defined over {ring.tag}, got {p.ring.tag}")
        base = ring.base
        if base.is_zero(self.b):
            # t^e -> a^e t^e, valid for negative e as well
            return ring._of({e: base.mul(base.pow_unit(self.a, e), c)
                             for e, c in p.terms.items()})
        powers = self._powers
        out = ring.zero()
        for e in sorted(p.terms):
            while len(powers) <= e:
                powers.append(powers[-1] * powers[1])
            out = out + powers[e].scale(p.terms[e])
        return out

    def word(self):
        base = self.ring.base
        a, b = base.to_str(self.a), base.to_str(self.b)
        return f"t->{a}*t+{b}" if b != "0" else f"t->{a}*t"


class LaurentFlip(RingAutoDesc):
    """t -> 1/t on a Laurent ring."""

    def __init__(self, ring: PolyRing):
        if not ring.laurent:
            raise RingError("t -> 1/t needs a Laurent ring")
        self.ring = ring

    def apply(self, p):
        if p.ring is not self.ring:
            raise RingError(f"flip defined over {self.ring.tag}, got {p.ring.tag}")
        return p.reversed_var()

    def word(self):
        return "t->t^-1"


def parse_ring_auto(word: str, ring: PolyRing) -> RingAutoDesc:
    """Parse 't->t', 't->t^-1', 't->a*t+b', 't->a*t', 't->t+b'."""
    s = word.replace(" ", "")
    if not s.startswith("t->"):
        raise RingError(f"bad substitution {word!r}")
    rhs = s[3:]
    if rhs == "t":
        return IdentityAuto()
    if rhs == "t^-1":
        return LaurentFlip(ring)
    m = re.fullmatch(r"(?:(\(([^()]*)\)|[^t]+)\*)?t(?:([+-])(.+))?", rhs)
    if not m:
        raise RingError(f"bad substitution {word!r}")
    base = ring.base
    a = base.one()
    if m.group(1):
        a = base.parse(m.group(2) if m.group(2) is not None else m.group(1))
    b = base.zero()
    if m.group(3):
        b = base.parse(m.group(4))
        if m.group(3) == "-":
            b = base.neg(b)
    sub = PolySub(ring, a, b)
    return IdentityAuto() if sub.is_identity() else sub


# ---------------------------------------------------------------------------
# augmentation

def augmentation(p: Poly) -> int:
    """Coefficient sum of an integer (Laurent) polynomial."""
    if not isinstance(p.ring.base, rings.IntegerRing):
        raise RingError("augmentation needs integer coefficients")
    return sum(p.terms.values())


def sign_augmentation(p: Poly) -> int:
    """(-1) ** augmentation(p); constant on unit multiples of p."""
    return -1 if augmentation(p) % 2 else 1


# ---------------------------------------------------------------------------
# divisibility and irreducibility over gf(q)[t]

def divmod_poly(a: Poly, b: Poly):
    """(q, r) with a = q*b + r, deg r < deg b; field coefficients only."""
    ring = a.ring
    base = ring.base
    if not isinstance(base, rings.GaloisField):
        raise RingError("division needs field coefficients")
    if b.is_zero():
        raise RingError("division by zero")
    if ring.laurent or b.ring.laurent:
        raise RingError("division lives in the plain polynomial ring")
    lead_inv = base.inv(b.terms[b.degree])
    q = ring.zero()
    r = a
    db = b.degree
    while not r.is_zero() and r.degree >= db:
        c = base.mul(r.terms[r.degree], lead_inv)
        mono = ring.monomial(c, r.degree - db)
        q = q + mono
        r = r - mono * b
    return q, r


# trial division tries sum_{d=2}^{deg/2} q^d monic divisors: an irreducible
# of degree 27 over gf(2), 16 380 of them, took 1.36 s of CPU (2-vCPU x86_64
# Xeon, Python 3.11), and degree 28 over gf(2) is refused
MAX_TRIAL_DIVISORS = 2 * 10 ** 4


def is_irreducible(f: Poly) -> bool:
    """Root check for degree <= 3, trial division by monic divisors after;
    an f with no root and more than MAX_TRIAL_DIVISORS candidate divisors
    is refused before any division."""
    ring = f.ring
    base = ring.base
    if not isinstance(base, rings.GaloisField) or ring.laurent:
        raise RingError("irreducibility is checked in gf(q)[t]")
    deg = f.degree
    if deg < 1:  # covers the zero polynomial (degree -inf)
        return False
    for x in base.elements():
        acc = base.zero()
        for e in range(deg, -1, -1):
            acc = base.add(base.mul(acc, x), f.coeff(e))
        if base.is_zero(acc):
            return deg == 1
    if deg <= 3:
        return True
    tries = sum(base.q ** d for d in range(2, deg // 2 + 1))
    if tries > MAX_TRIAL_DIVISORS:
        raise RingError(f"monic divisors of degree 2..{deg // 2} over {base.tag}: "
                        f"{tries} > MAX_TRIAL_DIVISORS = {MAX_TRIAL_DIVISORS}")
    for d in range(2, deg // 2 + 1):
        for cand in _monic_of_degree(ring, d):
            if divmod_poly(f, cand)[1].is_zero():
                return False
    return True


def _monic_of_degree(ring, d):
    base = ring.base
    q = base.q
    for code in range(q ** d):
        terms = {d: base.one()}
        c = code
        for e in range(d):
            terms[e] = c % q
            c //= q
        yield ring.make(terms)


def first_irreducible(F, degree: int) -> Poly:
    """The first monic irreducible of the given degree over gf(q), in code
    order of the lower coefficients."""
    ring = poly_ring(F, laurent=False)
    for cand in _monic_of_degree(ring, degree):
        if is_irreducible(cand):
            return cand
    raise RingError("no irreducible found")  # unreachable for degree >= 1


# ---------------------------------------------------------------------------
# the difference split behind the distinct-class families over gf(p)[t]

def twist_split(h: Poly, alpha: PolySub):
    """Split h - alpha(h) over a prime field gf(p) along the exponents
    p*o + p - 1 with o >= 1.

    Returns (principal, remainder): principal lists the (o, coefficient)
    pairs supported on those exponents, the remainder carries no exponent
    of that shape, and the parts add back to h - alpha(h) exactly.  At
    the largest such o in the support of h the coefficient is exactly
    h_{p*o+p-1} * (1 - a^{p*o}); in particular it vanishes on the family
    exponents p(p-1)i + p - 1, since a^(p-1) = 1.  (Lower principal
    coefficients pick up binomial cross-terms whenever the translation
    part b is nonzero, so no closed form is asserted for them.)
    """
    ring = h.ring
    base = ring.base
    if not isinstance(base, rings.GaloisField) or base.k != 1:
        raise RingError("the split needs a prime field")
    if alpha.is_identity():
        raise RingError("the split needs a non-identity substitution")
    p = base.p
    delta = h - alpha.apply(h)
    principal = []
    rem = dict(delta.terms)
    for e in sorted(delta.terms):
        if e >= 2 * p - 1 and e % p == p - 1:
            principal.append(((e - (p - 1)) // p, rem.pop(e)))
    top = [o for o in ((e - (p - 1)) // p for e in h.terms
                       if e >= 2 * p - 1 and e % p == p - 1)]
    if top:
        d = max(top)
        lead = dict(principal).get(d, base.zero())
        expected = base.mul(h.coeff(p * d + p - 1),
                            base.sub(base.one(), base.pow_unit(alpha.a, p * d)))
        if lead != expected:
            raise AssertionError("top principal coefficient disagrees with its closed form")
    return principal, ring.make(rem)


# ---------------------------------------------------------------------------
# ring tag grammar

_RING_RE = re.compile(
    r"^(?:gf\((\d+)\)|z(?:\[1/(\d+)\])?)(\[t(,t\^-1)?\])?$"
)


def parse_ring(tag: str) -> Ring:
    """Parse 'gf(4)', 'gf(5)[t]', 'gf(5)[t,t^-1]', 'z', 'z[1/6]', 'z[t]',
    'z[t,t^-1]' (case-insensitive, whitespace ignored)."""
    s = tag.replace(" ", "").lower()
    m = _RING_RE.match(s)
    if not m:
        raise RingError(f"bad ring tag {tag!r}")
    qs, ws, poly_part, laurent = m.groups()
    if qs is not None:
        base = field(int(qs))
    elif ws is not None:
        base = localized(int(ws))
    else:
        base = ZZ
    if poly_part is None:
        return base
    if isinstance(base, rings.LocalizedIntegers):
        raise RingError(f"bad ring tag {tag!r}")
    return poly_ring(base, laurent=laurent is not None)
