"""Exact arithmetic contexts for the base coefficient rings.

Supported rings, with their canonical text tags:

    gf(q)           finite field with q elements (a prime q <= 251, the
                    MAX_FIELD_ORDER, or a prime power with a modulus below)
    z               the rational integers
    z[1/w]          integers with the prime divisors of w inverted
    gf(q)[t], gf(q)[t,t^-1], z[t], z[t,t^-1]   (see the poly module)

Every context exposes the same small protocol (zero/one/add/mul/neg/inv,
unit tests, printing, seeded sampling).  All values are immutable and all
operations are pure functions.

Finite fields are realised on integer codes 0..q-1.  For prime q the code
is the residue itself; for q = p^k the base-p digits of the code are the
coefficients of the representative polynomial in the generator w, reduced
modulo a fixed irreducible modulus:

    gf(4) = gf(2)[w]/(w^2+w+1)      gf(8)  = gf(2)[w]/(w^3+w+1)
    gf(9) = gf(3)[w]/(w^2+1)        gf(16) = gf(2)[w]/(w^4+w+1)
    gf(25) = gf(5)[w]/(w^2+2)       gf(27) = gf(3)[w]/(w^3+2w+1)
    gf(49) = gf(7)[w]/(w^2+1)

Fixing the moduli makes every printed value reproducible bit for bit.
The tables come from the digits alone: multiplying by w shifts them up one
place and folds w^k back in through the modulus, a b = sum_i b_i (w^i a),
and inv(a) is the column of the 1 in row a.  `unit_powers` lists the units
as the powers 1, g, g^2, ... of the least generator g.
Integer arithmetic is arbitrary precision throughout.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .linalg import det_one_minus


class RingError(ValueError):
    """Invalid ring construction or an operation outside its domain."""


# ---------------------------------------------------------------------------
# small integer helpers (trial division only; inputs are tiny by design)

def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n > 1, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# ring protocol

class Ring:
    """Shared protocol.  Concrete rings fill in the primitive operations:
    zero, one, add, neg, mul, is_unit, inv, from_int, to_str, parse,
    random, random_unit, and unit_decompose, which splits a unit as
    (torsion part, exponents over the torsion_free_units) and raises
    RingError on non-units."""

    tag = "?"

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def pow_unit(self, a, e: int):
        """a**e for any integer e; a must be a unit when e < 0."""
        if e < 0:
            a, e = self.inv(a), -e
        out = self.one()
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def torsion_free_units(self) -> tuple:
        """Generators of a torsion-free complement of the torsion units;
        empty when every unit is torsion."""
        return ()

    def __repr__(self):
        return self.tag


# ---------------------------------------------------------------------------
# finite fields

_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    49: (1, 0, 1),
}

# a field holds two q x q tables, so larger orders are refused before any
# is built: 0.10 s and 1.1 MB of tables to build gf(251) on a 2-vCPU x86_64
# Xeon with Python 3.11 (gf(1009) took 2.1 s and 77 MB)
MAX_FIELD_ORDER = 251

_FIELD_CACHE: dict = {}


def field(q: int) -> "GaloisField":
    """Arithmetic context for gf(q); contexts are cached and shared."""
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = GaloisField(q)
    return _FIELD_CACHE[q]


class GaloisField(Ring):
    def __init__(self, q):
        if q > MAX_FIELD_ORDER:
            raise RingError(f"order of gf({q}): {q} > MAX_FIELD_ORDER = {MAX_FIELD_ORDER}")
        ps = prime_factors(q) if q >= 2 else []
        if len(ps) != 1:
            raise RingError(f"unsupported field size {q}")
        p = ps[0]
        k = 0
        qq = q
        while qq > 1:
            qq //= p
            k += 1
        modulus = None
        if k > 1:
            modulus = _MODULI.get(q)
            if modulus is None:
                raise RingError(f"no built-in modulus for gf({q})")
        self.q, self.p, self.k = q, p, k
        self.modulus = modulus
        self.tag = f"gf({q})"
        self._build_tables()

    def _digits(self, code):
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return out

    def _code(self, digits):
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def _build_tables(self):
        q, p, k = self.q, self.p, self.k
        digits = [self._digits(a) for a in range(q)]
        # w^k = -(m_0 + m_1 w + ... + m_{k-1} w^{k-1}), by the monic modulus
        fold = [(-m) % p for m in (self.modulus or ())[:k]]
        add, mul = [], []
        for da in digits:
            add.append([self._code([(x + y) % p for x, y in zip(da, db)]) for db in digits])
            # the digits of w^i a for i < k: each shift folds its top digit back
            shifts = [da]
            for _ in range(1, k):
                top = shifts[-1][-1]
                shifted = [0] + shifts[-1][:-1]
                for j in range(k):
                    shifted[j] = (shifted[j] + top * fold[j]) % p
                shifts.append(shifted)
            # a b = sum_i b_i (w^i a)
            row = []
            for db in digits:
                prod = [0] * k
                for b_i, shifted in zip(db, shifts):
                    for j in range(k):
                        prod[j] += b_i * shifted[j]
                row.append(self._code([c % p for c in prod]))
            mul.append(row)
        # the tables, indexed by codes; linalg's row routines read them whole
        self.add_table = add
        self.mul_table = mul
        self.neg_table = [self._code([(-x) % p for x in da]) for da in digits]
        self._inv = [0]
        for row in mul[1:]:
            if 1 not in row:
                # a zero divisor, so no field: the power walk below would not end
                raise RingError(f"reducible modulus for gf({q})")
            self._inv.append(row.index(1))
        # the text of every code, built once: printing reads it per value
        self._strs = tuple(self._render(a) for a in range(q))
        # and as a polynomial coefficient: a compound text, a sum of powers
        # of w, in parentheses
        self.coeff_texts = tuple(f"({s})" if "+" in s else s for s in self._strs)
        # the units in the order 1, g, g^2, ... of the least generator g of
        # the unit group; the finite groups enumerate their diagonals so
        for g in range(1, q):
            x, powers = g, [1]
            while x != 1:
                powers.append(x)
                x = mul[x][g]
            if len(powers) == q - 1:
                self.unit_powers = tuple(powers)
                break

    # protocol -------------------------------------------------------------
    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return self.add_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise RingError(f"inv(0) in {self.tag}")
        return self._inv[a]

    def from_int(self, k):
        return k % self.p

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def random(self, rng):
        return rng.randrange(self.q)

    def random_unit(self, rng):
        return rng.randrange(1, self.q)

    def unit_decompose(self, u):
        if not self.is_unit(u):
            raise RingError(f"{self.to_str(u)} is not a unit of {self.tag}")
        return u, ()

    def to_str(self, a):
        return self._strs[a]

    def _render(self, a):
        if self.k == 1:
            return str(a)
        digits = self._digits(a)
        parts = []
        for e in range(self.k - 1, -1, -1):
            c = digits[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                wpow = "w" if e == 1 else f"w^{e}"
                parts.append(wpow if c == 1 else f"{c}*{wpow}")
        return "+".join(parts) if parts else "0"

    def parse(self, s):
        s = s.replace(" ", "")
        if not s:
            raise RingError("empty field element")
        if self.k == 1:
            try:
                return int(s) % self.p
            except ValueError as exc:
                raise RingError(f"bad element {s!r} of {self.tag}") from exc
        out = 0
        for sign, term in _signed_terms(s):
            m = re.fullmatch(r"(?:(\d+)\*?)?(w)?(?:\^(\d+))?", term)
            if not m or (m.group(3) and not m.group(2)) or not (m.group(1) or m.group(2)):
                raise RingError(f"bad element {s!r} of {self.tag}")
            c = int(m.group(1)) if m.group(1) else 1
            e = int(m.group(3)) if m.group(3) else (1 if m.group(2) else 0)
            # c w^e; the code of w is p
            out = self.add(out, self.mul((sign * c) % self.p, self.pow_unit(self.p, e)))
        return out


def _signed_terms(s):
    """Split 'a+b-c' into (sign, term) pairs at top-level +/-."""
    out, depth, start, sign = [], 0, 0, 1
    if s and s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = 1
    i = start
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and s[i - 1] not in "^+-*(":
            out.append((sign, s[start:i]))
            sign = -1 if ch == "-" else 1
            start = i + 1
        i += 1
    out.append((sign, s[start:]))
    return out


# ---------------------------------------------------------------------------
# the integers

class IntegerRing(Ring):
    tag = "z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise RingError(f"{a} is not a unit of z")
        return a

    def from_int(self, k):
        return k

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        try:
            return int(s.replace(" ", ""))
        except ValueError as exc:
            raise RingError(f"bad integer {s!r}") from exc

    def random(self, rng):
        return rng.randint(-9, 9)

    def random_unit(self, rng):
        return rng.choice((1, -1))

    def unit_decompose(self, u):
        if not self.is_unit(u):
            raise RingError(f"{u} is not a unit of z")
        return u, ()


ZZ = IntegerRing()


# ---------------------------------------------------------------------------
# w-local fractions

class LocalizedInt:
    """A fraction num/den in lowest terms with den > 0.

    The denominator stays supported on the inverted primes automatically:
    sums and products of such fractions reduce back into the ring.  The
    constructor is the one builder of the values: a fraction equal to 0 or
    1 is the shared zero or one, so every sum, product, negation, inverse,
    parse and sample that gives one of them hands out that object.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num, den=1):
        if den == 0:
            raise RingError("zero denominator")
        if den < 0:
            num, den = -num, -den
        # den > 0, so the fraction is 0 exactly when num is, and 1 exactly
        # when num == den
        if num == 0:
            return _ZERO
        if num == den:
            return _ONE
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        return _fraction(num, den)

    def __setattr__(self, *a):
        raise AttributeError("LocalizedInt is immutable")

    def __add__(self, o):
        return LocalizedInt(self.num * o.den + o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        # the shared _ONE is the unit, and values are immutable
        if o is _ONE:
            return self
        if self is _ONE:
            return o
        return LocalizedInt(self.num * o.num, self.den * o.den)

    def __neg__(self):
        return LocalizedInt(-self.num, self.den)

    def __eq__(self, o):
        return isinstance(o, LocalizedInt) and self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"{self.num}" if self.den == 1 else f"{self.num}/{self.den}"


_set_num, _set_den = (LocalizedInt.__dict__[slot].__set__ for slot in LocalizedInt.__slots__)


def _fraction(num, den):
    """The LocalizedInt num/den, taken over as it is: lowest terms, den > 0."""
    x = object.__new__(LocalizedInt)
    # the slot descriptors themselves: __setattr__ refuses writes
    _set_num(x, num)
    _set_den(x, den)
    return x


_ZERO, _ONE = _fraction(0, 1), _fraction(1, 1)

_LOCAL_CACHE: dict = {}


def localized(w: int) -> "LocalizedIntegers":
    """The ring z[1/w]; the context is determined by the radical of w."""
    if w < 2:
        raise RingError("localization parameter must be >= 2")
    key = tuple(prime_factors(w))
    if key not in _LOCAL_CACHE:
        _LOCAL_CACHE[key] = LocalizedIntegers(w)
    return _LOCAL_CACHE[key]


class LocalizedIntegers(Ring):
    def __init__(self, w):
        self.primes = tuple(prime_factors(w))
        self.w = math.prod(self.primes)
        self.tag = f"z[1/{self.w}]"

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, k):
        return LocalizedInt(k)

    def _smooth_part(self, n):
        """(exponents over self.primes, leftover) with n = leftover * prod p^e."""
        exps = []
        for p in self.primes:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            exps.append(e)
        return exps, n

    def is_unit(self, a):
        if a.num == 0:
            return False
        _, rest = self._smooth_part(abs(a.num))
        return rest == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise RingError(f"{a} is not a unit of {self.tag}")
        return LocalizedInt(a.den, a.num)

    def to_str(self, a):
        return repr(a)

    def parse(self, s):
        s = s.replace(" ", "")
        m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", s)
        if not m:
            raise RingError(f"bad element {s!r} of {self.tag}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        el = LocalizedInt(num, den)
        _, rest = self._smooth_part(el.den)
        if rest != 1:
            raise RingError(f"{s} does not lie in {self.tag}")
        return el

    def random(self, rng):
        den = 1
        for p in self.primes:
            den *= p ** rng.randint(0, 2)
        return LocalizedInt(rng.randint(-9, 9), den)

    def random_unit(self, rng):
        num, den = rng.choice((1, -1)), 1
        for p in self.primes:
            e = rng.randint(-2, 2)
            if e >= 0:
                num *= p ** e
            else:
                den *= p ** (-e)
        return LocalizedInt(num, den)

    def torsion_free_units(self):
        return tuple(LocalizedInt(p) for p in self.primes)

    def unit_decompose(self, u):
        if not self.is_unit(u):
            raise RingError(f"{u} is not a unit of {self.tag}")
        pos, _ = self._smooth_part(abs(u.num))
        negs, _ = self._smooth_part(u.den)
        sign = LocalizedInt(1 if u.num > 0 else -1)
        return sign, tuple(p - n for p, n in zip(pos, negs))


# ---------------------------------------------------------------------------
# the unit equation over z[1/w]

class UnitEquationResult(NamedTuple):
    primes: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]   # matrix[i][j] = exponent of p_i in image j
    signs: tuple[int, ...]
    identity_forced: bool
    det_one_minus: int
    violations: tuple[int, ...]           # indices j where image_j != p_j


def solve_unit_equation(ring: LocalizedIntegers, images=None) -> UnitEquationResult:
    """Solve the diagonal-image constraints over z[1/w].

    An automorphism sending the translation e(1) to e(r), r != 0, and each
    dilation d(p_j) to d(image_j) must satisfy r*p_j = image_j*r, hence
    image_j = p_j by cancellation.  Factoring over the inverted primes
    (unique factorization in z) then pins the exponent matrix.  With the
    canonical images this forces the identity matrix, i.e. the induced map
    on the torsion-free units has eigenvalue 1.
    """
    if not isinstance(ring, LocalizedIntegers):
        raise RingError("unit equation requires a ring z[1/w]")
    primes = ring.primes
    m = len(primes)
    if images is None:
        images = [LocalizedInt(p) for p in primes]
    if len(images) != m:
        raise RingError(f"expected {m} images, got {len(images)}")
    cols, signs, violations = [], [], []
    for j, img in enumerate(images):
        if isinstance(img, int):
            img = LocalizedInt(img)
        if not ring.is_unit(img):
            raise RingError(f"image {img} is not a signed product of {primes}")
        sign, exps = ring.unit_decompose(img)
        cols.append(exps)
        signs.append(sign.num)
        if img != LocalizedInt(primes[j]):
            violations.append(j)
    matrix = tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))
    ident = all(matrix[i][j] == (1 if i == j else 0) for i in range(m) for j in range(m))
    forced = ident and all(s == 1 for s in signs) and not violations
    return UnitEquationResult(
        primes=primes,
        matrix=matrix,
        signs=tuple(signs),
        identity_forced=forced,
        det_one_minus=det_one_minus(matrix),
        violations=tuple(violations),
    )
