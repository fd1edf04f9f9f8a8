"""Exact arithmetic contexts for the base coefficient rings.

Supported rings, with their canonical text tags:

    gf(q)           finite field with q elements (prime power q <= 49)
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
# dense little-endian polynomials over gf(p), used only to build field tables

def _trim(v):
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    return v


def _pmul(u, v, p):
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def _pmod(u, m, p):
    """u mod m with m monic."""
    u = list(u)
    dm = len(m) - 1
    while len(u) - 1 >= dm and u:
        lead = u[-1]
        shift = len(u) - 1 - dm
        if lead:
            for i, c in enumerate(m):
                u[shift + i] = (u[shift + i] - lead * c) % p
        u.pop()
    return _trim(u)


# ---------------------------------------------------------------------------
# ring protocol

class Ring:
    """Shared protocol; concrete rings fill in the primitive operations."""

    tag = "?"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

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

    def from_int(self, k: int):
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def random(self, rng):
        raise NotImplementedError

    def random_unit(self, rng):
        raise NotImplementedError

    def torsion_free_units(self) -> tuple:
        """Generators of a torsion-free complement of the torsion units;
        empty when every unit is torsion."""
        return ()

    def unit_decompose(self, u):
        """Split a unit as (torsion part, exponents over the
        torsion_free_units).  Raises RingError on non-units."""
        raise NotImplementedError

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

_FIELD_CACHE: dict = {}


def field(q: int) -> "GaloisField":
    """Arithmetic context for gf(q); contexts are cached and shared."""
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = GaloisField(q)
    return _FIELD_CACHE[q]


class GaloisField(Ring):
    def __init__(self, q):
        ps = prime_factors(q) if q >= 2 else []
        if len(ps) != 1:
            raise RingError(f"unsupported field size {q}")
        p = ps[0]
        k = 0
        qq = q
        while qq > 1:
            qq //= p
            k += 1
        if p ** k != q:
            raise RingError(f"unsupported field size {q}")
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
        q, p = self.q, self.p
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = self._digits(a)
            for b in range(q):
                db = self._digits(b)
                add[a][b] = self._code([(x + y) % p for x, y in zip(da, db)])
                prod = _pmul(da, db, p)
                if self.k > 1:
                    prod = _pmod(prod, list(self.modulus), p)
                prod = (prod + [0] * self.k)[: self.k]
                mul[a][b] = self._code(prod)
        # the tables, indexed by codes; linalg's row routines read them whole
        self.add_table = add
        self.mul_table = mul
        self.neg_table = [self._code([(-x) % p for x in self._digits(a)]) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                # a zero divisor: the quotient is no field, and the
                # primitive search below would never return to 1
                raise RingError(f"reducible modulus for gf({q})")
        self._inv = inv
        self._primitive = None
        for g in range(1, q):
            x, order = g, 1
            while x != 1:
                x = mul[x][g]
                order += 1
            if order == q - 1:
                self._primitive = g
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

    def primitive(self):
        """A fixed multiplicative generator (smallest element code)."""
        return self._primitive

    def gen(self):
        """The class of w (equals the modulus root; code p)."""
        if self.k == 1:
            raise RingError(f"{self.tag} has no extension generator")
        return self.p

    def random(self, rng):
        return rng.randrange(self.q)

    def random_unit(self, rng):
        return rng.randrange(1, self.q)

    def unit_decompose(self, u):
        if not self.is_unit(u):
            raise RingError(f"{self.to_str(u)} is not a unit of {self.tag}")
        return u, ()

    def to_str(self, a):
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
            c = (sign * c) % self.p
            val = self._code([c])
            for _ in range(e):
                val = self.mul(val, self.p)
            out = self.add(out, val)
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
    sums and products of such fractions reduce back into the ring.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if den == 0:
            raise RingError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("LocalizedInt is immutable")

    def __add__(self, o):
        return LocalizedInt(self.num * o.den + o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return LocalizedInt(self.num * o.num, self.den * o.den)

    def __neg__(self):
        return LocalizedInt(-self.num, self.den)

    def __eq__(self, o):
        return isinstance(o, LocalizedInt) and self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"{self.num}" if self.den == 1 else f"{self.num}/{self.den}"


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
        return LocalizedInt(0)

    def one(self):
        return LocalizedInt(1)

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
