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
"""

from __future__ import annotations

import math
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

    # construction ----------------------------------------------------------
    def make(self, terms: dict) -> "Poly":
        clean = {}
        for e, c in terms.items():
            if e < 0 and not self.laurent:
                raise RingError(f"negative exponent in {self.tag}")
            if not self.base.is_zero(c):
                clean[e] = c
        return Poly(self, clean)

    def monomial(self, c, e: int) -> "Poly":
        return self.make({e: c})

    def gen(self) -> "Poly":
        return self.monomial(self.base.one(), 1)

    def constant(self, c) -> "Poly":
        return self.make({0: c})

    # protocol ----------------------------------------------------------------
    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.constant(self.base.one())

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

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
        if not self.is_unit(a):
            raise RingError(f"{self.to_str(a)} is not a unit of {self.tag}")
        (e, c), = a.terms.items()
        return self.monomial(self.base.inv(c), -e)

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
        if not self.is_unit(u):
            raise RingError(f"{self.to_str(u)} is not a unit of {self.tag}")
        (e, c), = u.terms.items()
        exps = (e,) if self.laurent else ()
        return self.constant(c), exps


class Poly:
    __slots__ = ("ring", "terms", "_h")

    def __init__(self, ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_h", None)

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
        self._check(o)
        base = self.ring.base
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = base.add(out.get(e, base.zero()), c)
            if base.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.ring, out)

    def __neg__(self):
        base = self.ring.base
        return Poly(self.ring, {e: base.neg(c) for e, c in self.terms.items()})

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        # PolyRing admits only gf(q) and z coefficients, both integral
        # domains, so a product of nonzero coefficients is never zero: only
        # a sum of products needs a zero test
        self._check(o)
        base = self.ring.base
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
            return Poly(self.ring, out)
        # values are immutable, so a zero or a one factor hands back an operand
        if not short.terms:
            return short
        (e1, c1), = short.terms.items()
        if e1 == 0 and c1 == base.one():
            return other
        # one term c1*t^e1: distinct e2 give distinct e1+e2, so no collision
        mul = base.mul
        return Poly(self.ring, {e1 + e2: mul(c1, c2) for e2, c2 in other.terms.items()})

    def __pow__(self, k):
        return self.ring.pow_unit(self, k)

    def scale(self, c):
        base = self.ring.base
        out = {}
        for e, v in self.terms.items():
            s = base.mul(c, v)
            if not base.is_zero(s):
                out[e] = s
        return Poly(self.ring, out)

    def shift(self, k):
        """Multiply by t^k (Laurent rings for k < 0)."""
        if k < 0 and not self.ring.laurent and self.terms and self.low + k < 0:
            raise RingError(f"negative exponent in {self.ring.tag}")
        return Poly(self.ring, {e + k: c for e, c in self.terms.items()})

    def reversed_var(self):
        """Substitute t -> 1/t (Laurent rings only, or constants)."""
        if self.terms and not self.ring.laurent and max(self.terms) > 0:
            raise RingError("t -> 1/t leaves the polynomial ring")
        return Poly(self.ring, {-e: c for e, c in self.terms.items()})

    def __eq__(self, o):
        return isinstance(o, Poly) and self.ring is o.ring and self.terms == o.terms

    def __hash__(self):
        if self._h is None:
            object.__setattr__(
                self, "_h", hash((self.ring.tag, frozenset(self.terms.items())))
            )
        return self._h

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"<{self.ring.tag}: {poly_to_str(self)}>"


# ---------------------------------------------------------------------------
# text form

def _coeff_str(base, c):
    s = base.to_str(c)
    if "+" in s[1:] or "-" in s[1:]:
        return f"({s})"
    return s


def poly_to_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    base = p.ring.base
    out = []
    for e in sorted(p.terms):
        c = p.terms[e]
        neg = isinstance(base, rings.IntegerRing) and c < 0
        if neg:
            c = -c
        cs = _coeff_str(base, c)
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
    """An automorphism of the coefficient ring R0[t] or R0[t,1/t]."""

    def apply(self, p: Poly) -> Poly:
        raise NotImplementedError

    def is_identity(self):
        return False

    def word(self):
        raise NotImplementedError


class IdentityAuto(RingAutoDesc):
    def apply(self, p):
        return p

    def is_identity(self):
        return True

    def word(self):
        return "t->t"

    def __eq__(self, o):
        return isinstance(o, IdentityAuto)


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
            return Poly(ring, {e: base.mul(base.pow_unit(self.a, e), c)
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

    def __eq__(self, o):
        return isinstance(o, PolySub) and self.ring is o.ring and \
            self.a == o.a and self.b == o.b


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

    def __eq__(self, o):
        return isinstance(o, LaurentFlip) and self.ring is o.ring


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


def is_irreducible(f: Poly) -> bool:
    """Root check for degree <= 3, trial division by monic divisors after."""
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
