"""The automorphism catalog: inner, central, type-Sigma, flip, ring-map,
corner-scaling, block-companion and reflection automorphisms, together
with homomorphism verification and the factor-preserving normalisation
of a semidirect-product automorphism.

Word grammar (composed with '*', applied right to left):

    inner(<elem>) ; central(i,<endo>) ; sigma(<endo>,<a>) ;
    sigmap(<endo>,<a>) ; flip ; ring(t->a*t+b) ; ring(t->t^-1) ;
    phiP(<poly>) ; mul(<a>) ; phiA(<a>) ; phiB(<a>) ; augB2 ;
    augB2plus ; tauAlpha(<ringauto>) ; id

    <endo> = zero | mulby(<r>) | halfsquare(<a>)
"""

from __future__ import annotations

import math
import random
import re
from typing import NamedTuple

from . import groups, rings
from .groups import (
    Additive, AdditivePairs, Affine, AffElem, Borel, CornerDiagGroup,
    GroupError, ProjBorel, TriMat, Unitriangular, elementary, projective,
)
from .poly import (
    Poly, PolyRing, RingAutoDesc, augmentation, is_irreducible,
    parse_ring_auto, sign_augmentation,
)
from .rings import RingError


# ---------------------------------------------------------------------------
# additive endomorphism descriptors

class EndoDesc:
    """An endomorphism lambda of (R,+) or a map of the Sigma condition:
    apply maps a ring element, word prints it."""

    def sigma_scalar(self):
        """The one scalar a with lambda(r+s) = a*r*s + lambda(r) + lambda(s)
        for all r, s: zero exactly when lambda is additive."""
        return self.ring.zero()


class ZeroEndo(EndoDesc):
    def __init__(self, ring):
        self.ring = ring

    def apply(self, r):
        return self.ring.zero()

    def word(self):
        return "zero"


class MulBy(EndoDesc):
    def __init__(self, ring, r):
        self.ring = ring
        self.r = r

    def apply(self, x):
        return self.ring.mul(self.r, x)

    def word(self):
        return f"mulby({self.ring.to_str(self.r)})"


class WindowLinear(EndoDesc):
    """Acts by a matrix on the coefficients inside a degree window and
    kills the monomials outside it; an additive endomorphism of (R,+)."""

    def __init__(self, window, matrix):
        self.window = window
        self.matrix = [list(r) for r in matrix]
        if len(self.matrix) != window.dim or any(len(r) != window.dim for r in self.matrix):
            raise RingError("window-linear matrix has the wrong shape")

    @property
    def ring(self):
        return self.window.ring

    def apply(self, x):
        w = self.window
        F = w.ring.base
        inside = {e: c for e, c in x.terms.items() if w.lo <= e <= w.hi}
        coords = w.coords(w.ring.make(inside))
        out = [F.zero()] * w.dim
        for i in range(w.dim):
            acc = F.zero()
            for j, c in enumerate(coords):
                if c:
                    acc = F.add(acc, F.mul(self.matrix[i][j], c))
            out[i] = acc
        return w.from_coords(out)

    def word(self):
        return "windowlinear(...)"


class HalfSquare(EndoDesc):
    """lambda(r) = a * r^2 / 2; satisfies the type-Sigma condition
    lambda(r+s) = a*r*s + lambda(r) + lambda(s) whenever 2 is a unit."""

    def __init__(self, ring, a):
        two = ring.from_int(2)
        if not ring.is_unit(two):
            raise RingError(f"halfsquare needs 2 invertible in {ring.tag}")
        self.ring = ring
        self.a = a
        self._half = ring.inv(two)

    def apply(self, r):
        ring = self.ring
        return ring.mul(self.a, ring.mul(ring.mul(r, r), self._half))

    def sigma_scalar(self):
        # a(r+s)^2/2 - a r^2/2 - a s^2/2 = a r s
        return self.a

    def word(self):
        return f"halfsquare({self.ring.to_str(self.a)})"


# ---------------------------------------------------------------------------
# automorphism descriptors

class Automorphism:
    """A map of `domain`: apply maps an element, word prints it."""

    domain = None
    block_size = 1    # windows are sized in multiples of this many coefficients

    def __repr__(self):
        return self.word()


class IdentityMap(Automorphism):
    def __init__(self, domain):
        self.domain = domain

    def apply(self, x):
        return x

    def word(self):
        return "id"


class Inner(Automorphism):
    """Conjugation h -> g h g^-1."""

    def __init__(self, g, domain=None):
        self.g = g
        if domain is None:
            if isinstance(g, TriMat):
                domain = Borel(g.ring, g.n)
            elif isinstance(g, AffElem):
                domain = Affine(g.ring)
        self.domain = domain

    def apply(self, x):
        g = self.g
        if type(g) is not type(x):
            raise GroupError("conjugation across incompatible element kinds")
        group = self.domain
        return group.div(group.mul(g, x), g)

    def word(self):
        return f"inner({self.g!r})"


class Central(Automorphism):
    """Multiplies by e_{1,n}(lambda(a_{i,i+1})), n >= 3; touches only the
    corner."""

    def __init__(self, group: Unitriangular, i: int, lam: EndoDesc):
        if group.n < 3:
            # for n = 2 the entry (1, 2) is the corner itself, so the map is
            # r -> r + lambda(r), which need not be a bijection
            raise GroupError("central automorphisms need n >= 3")
        if not 1 <= i <= group.n - 1:
            raise GroupError("central automorphism index out of range")
        if not group.ring.is_zero(_sigma_scalar(group, lam)):
            raise GroupError("central automorphisms need an additive map")
        self.domain = group
        self.i = i
        self.lam = lam

    def apply(self, m: TriMat):
        g = self.domain
        if not g.contains(m):
            raise GroupError(f"central automorphisms act on the unitriangular "
                             f"matrices of {g.name}")
        # the product m * e_{1,n}(val) by a unitriangular m adds val to the
        # corner (1,n) and changes nothing else
        ring, n = g.ring, g.n
        val = self.lam.apply(m.entry(self.i, self.i + 1))
        upper = dict(m.upper)
        old = upper.pop((1, n), None)
        if old is not None:
            val = ring.add(val, old)
        if not ring.is_zero(val):
            upper[(1, n)] = val
        return TriMat._of(ring, n, m.diag, upper)

    def word(self):
        return f"central({self.i},{self.lam.word()})"


def check_sigma_pair(ring, lam, a, rng, samples):
    """The first of `samples` random pairs (r, s) that breaks the Sigma
    condition lambda(r+s) = a*r*s + lambda(r) + lambda(s), or None."""
    for _ in range(samples):
        r, s = ring.random(rng), ring.random(rng)
        lhs = lam.apply(ring.add(r, s))
        rhs = ring.add(ring.mul(a, ring.mul(r, s)),
                       ring.add(lam.apply(r), lam.apply(s)))
        if lhs != rhs:
            return (r, s)
    return None


def _sigma_scalar(group, lam):
    """lambda's Sigma scalar; a lambda over a ring other than the group's
    is refused."""
    if lam.ring is not group.ring:
        raise GroupError(f"{lam.word()} is over {lam.ring.tag}, not {group.ring.tag}")
    return lam.sigma_scalar()


class _Sigma(Automorphism):
    """A type-Sigma automorphism of U_n, n >= 3, given by an endomorphism
    lambda and a scalar a that satisfy the Sigma condition
    lambda(r+s) = a*r*s + lambda(r) + lambda(s): a is lambda's Sigma
    scalar."""

    def __init__(self, group: Unitriangular, lam, a):
        if group.n < 3:
            raise GroupError("type-Sigma automorphisms need n >= 3")
        scalar = _sigma_scalar(group, lam)
        if scalar != a:
            ring = group.ring
            raise GroupError(f"(lambda, a) violates the Sigma condition: {lam.word()} "
                             f"has scalar {ring.to_str(scalar)}, not {ring.to_str(a)}")
        self.domain = group
        self.lam = lam
        self.a = a

    def _checked(self, m):
        """The domain, once it holds m."""
        g = self.domain
        if not g.contains(m):
            raise GroupError(f"type-Sigma automorphisms act on the unitriangular "
                             f"matrices of {g.name}")
        return g


class SigmaFirst(_Sigma):
    """u -> u * e_{2,n}(a*u_{1,2}) * e_{1,n}(lambda(u_{1,2}) - a*u_{1,2}^2)."""

    def apply(self, m: TriMat):
        g = self._checked(m)
        ring = g.ring
        r = m.entry(1, 2)
        corner = ring.sub(self.lam.apply(r), ring.mul(self.a, ring.mul(r, r)))
        return m * elementary(ring, g.n, 2, g.n, ring.mul(self.a, r)) \
                 * elementary(ring, g.n, 1, g.n, corner)

    def word(self):
        return f"sigma({self.lam.word()},{self.domain.ring.to_str(self.a)})"


class SigmaLast(_Sigma):
    """u -> u * e_{1,n-1}(a*u_{n-1,n}) * e_{1,n}(lambda(u_{n-1,n}))."""

    def apply(self, m: TriMat):
        g = self._checked(m)
        ring = g.ring
        r = m.entry(g.n - 1, g.n)
        return m * elementary(ring, g.n, 1, g.n - 1, ring.mul(self.a, r)) \
                 * elementary(ring, g.n, 1, g.n, self.lam.apply(r))

    def word(self):
        return f"sigmap({self.lam.word()},{self.domain.ring.to_str(self.a)})"


class Flip(Automorphism):
    """e_{i,j}(r) -> e_{n-j+1,n-i+1}((-1)^(j-i-1) r): the anti-diagonal
    reflection; an involution of the unitriangular group.

    Closed form: m -> D J m^-T J D, with J the anti-diagonal permutation
    matrix and D = diag((-1)^i).  Inverse and transpose are both
    anti-automorphisms, so m -> m^-T is an automorphism; conjugation by
    D J is one too, and it carries the lower triangular matrices back to
    the upper ones.  On e_{i,j}(r), whose inverse is e_{i,j}(-r), this is
    the map above, and a homomorphism is fixed by its values on the
    normal-form factors.  As D = D^-1, D m^-1 D = (D m D)^-1: entry (i,j)
    of that inverse goes to (n+1-j, n+1-i).  apply solves it by TriMat.div's
    forward substitution with a unit diagonal, on the rows of -(D m D),
    whose entries (-1)^(k+j+1) m(k,j) negate only the m(k,j) with k+j even."""

    def __init__(self, group: Unitriangular):
        self.domain = group

    def apply(self, m: TriMat):
        # the closed form reads n and the ring off m: refuse any m but the
        # unitriangular matrices of the domain
        if not self.domain.contains(m):
            raise GroupError(f"flip acts on the unitriangular matrices of {self.domain.name}")
        ring, n, rows = m.ring, m.n, {}  # rows of -(D m D), as (j, entry) pairs
        for (k, j), w in m.upper.items():
            rows.setdefault(k, []).append((j, w if (k + j) % 2 else ring.neg(w)))
        ones = (ring.one(),) * n
        upper = groups._forward(ring, n, ones, ones, {}, rows).items()
        return TriMat._of(ring, n, m.diag, {(n + 1 - j, n + 1 - i): v for (i, j), v in upper})

    def word(self):
        return "flip"


class RingMap(Automorphism):
    """Entrywise application of a coefficient-ring automorphism; on the
    additive group it is the same map viewed additively."""

    def __init__(self, alpha: RingAutoDesc, domain):
        self.alpha = alpha
        self.domain = domain

    def apply(self, x):
        a = self.alpha
        if isinstance(x, TriMat):
            return TriMat._of(x.ring, x.n, tuple(a.apply(u) for u in x.diag),
                              {k: a.apply(v) for k, v in x.upper.items()})
        if isinstance(x, AffElem):
            return AffElem(x.ring, a.apply(x.u), a.apply(x.r))
        if isinstance(x, Poly):
            return a.apply(x)
        raise GroupError("ring maps act on matrix or additive elements")

    def word(self):
        return f"ring({self.alpha.word()})"


class BlockCompanion(Automorphism):
    """The additive automorphism of gf(q)[t] acting as the companion
    matrix of a monic irreducible P on each consecutive block of deg(P)
    coefficients."""

    def __init__(self, P: Poly):
        ring = P.ring
        if ring.laurent or not isinstance(ring.base, rings.GaloisField):
            raise GroupError("block companion lives over gf(q)[t]")
        if not is_irreducible(P):
            raise GroupError("companion polynomial must be irreducible")
        d = P.degree
        if P.coeff(d) != ring.base.one():
            raise GroupError("companion polynomial must be monic")
        if ring.base.is_zero(P.coeff(0)):
            # the only monic irreducible with zero constant term is t, whose
            # companion [0] maps every polynomial to 0
            raise GroupError("companion polynomial t gives the zero map")
        self.P = P
        self.d = d
        self.ring = ring
        self.coeffs = [P.coeff(i) for i in range(d)]
        self.domain = Additive(ring)
        self.block_size = d

    def companion_matrix(self):
        F = self.ring.base
        d = self.d
        C = [[F.zero()] * d for _ in range(d)]
        for r in range(1, d):
            C[r][r - 1] = F.one()
        for r in range(d):
            C[r][d - 1] = F.sub(C[r][d - 1], self.coeffs[r])
        return C

    def apply(self, v: Poly):
        if not isinstance(v, Poly) or v.ring is not self.ring:
            raise GroupError(f"block companion acts on {self.ring.tag}")
        F = self.ring.base
        d = self.d
        blocks = {}
        for e, c in v.terms.items():
            blocks.setdefault(e // d, {})[e % d] = c
        out = {}
        for k, blk in blocks.items():
            last = blk.get(d - 1, F.zero())
            for r in range(d):
                val = blk.get(r - 1, F.zero()) if r >= 1 else F.zero()
                if last != F.zero():
                    val = F.sub(val, F.mul(self.coeffs[r], last))
                if val != F.zero():
                    out[k * d + r] = val
        return self.ring.make(out)

    def word(self):
        return f"phiP({self.P})"


class CenterScale(Automorphism):
    """Multiplication by a unit a on the additive group of the ring."""

    def __init__(self, ring, a):
        if not ring.is_unit(a):
            raise GroupError(f"{ring.to_str(a)} is not a unit of {ring.tag}")
        self.ring = ring
        self.a = a
        self.domain = Additive(ring)

    def apply(self, r):
        return self.ring.mul(self.a, r)

    def word(self):
        return f"mul({self.ring.to_str(self.a)})"


def tf_monomial_exponent(ring, u):
    """k for a diagonal entry u = t^k; a unit c*t^k with c != 1 has the
    torsion factor c and is refused."""
    if len(u.terms) == 1:
        (k, c), = u.terms.items()
        if c == ring.base.one():
            return k
    raise GroupError("diagonal entry has a torsion factor; not in the '+' group")


class _Reflect(Automorphism):
    """The reflection by a unit a over gf(q)[t,t^-1]; a subclass names
    its word `head`, sets its domain and applies it."""

    def __init__(self, ring: PolyRing, a):
        if not (ring.laurent and isinstance(ring.base, rings.GaloisField)):
            raise GroupError("reflection needs gf(q)[t,t^-1]")
        if not ring.base.is_unit(a):
            raise GroupError("the reflection scalar must be a nonzero field element")
        self.ring = ring
        self.a = a

    def word(self):
        return f"{self.head}({self.ring.base.to_str(self.a)})"


class AffineReflect(_Reflect):
    """(t^k, f) -> (t^-k, a*f(1/t)) on the torsion-free affine group over
    gf(q)[t,t^-1]."""

    head = "phiA"

    def __init__(self, ring: PolyRing, a):
        super().__init__(ring, a)
        self.domain = Affine(ring, plus=True)

    def apply(self, x: AffElem):
        if not isinstance(x, AffElem) or x.ring is not self.ring:
            raise GroupError("reflection acts on the affine group over its ring")
        ring = self.ring
        k = tf_monomial_exponent(ring, x.u)
        r = x.r.reversed_scaled(self.a)
        return AffElem._of(ring, ring.monomial(ring.base.one(), -k), r)


class TriangularReflect(_Reflect):
    """((t^k, f), (0, t^j)) -> ((t^-k, a*f(1/t)), (0, t^-j)) on the
    torsion-free 2x2 triangular group over gf(q)[t,t^-1]."""

    head = "phiB"

    def __init__(self, ring: PolyRing, a):
        super().__init__(ring, a)
        self.domain = Borel(ring, 2, plus=True)

    def apply(self, m: TriMat):
        if not (isinstance(m, TriMat) and m.n == 2 and m.ring is self.ring):
            raise GroupError("reflection acts on 2x2 triangular matrices over its ring")
        ring = self.ring
        one = ring.base.one()
        diag = tuple(ring.monomial(one, -tf_monomial_exponent(ring, u)) for u in m.diag)
        # reversal and scaling by the unit a keep a corner nonzero
        h = m.upper.get((1, 2))
        upper = {} if h is None else {(1, 2): h.reversed_scaled(self.a)}
        return TriMat._of(ring, 2, diag, upper)


class AugScale(Automorphism):
    """Scales a 2x2 integer-polynomial matrix by the sign augmentation of
    its corner; does not preserve the unitriangular subgroup."""

    def __init__(self, ring):
        if not isinstance(ring, PolyRing) or ring.laurent or \
                not isinstance(ring.base, rings.IntegerRing):
            raise GroupError("augmentation scaling lives over z[t]")
        self.ring = ring
        self.domain = Borel(ring, 2)

    def apply(self, m: TriMat):
        if not (isinstance(m, TriMat) and m.n == 2 and m.ring is self.ring):
            raise GroupError("augmentation scaling acts on 2x2 matrices over z[t]")
        s = sign_augmentation(m.entry(1, 2))
        return m if s == 1 else m.scaled(self.ring.from_int(-1))

    def word(self):
        return "augB2"


class AugShift(Automorphism):
    """Scales a 2x2 integer-Laurent matrix by t^(coefficient sum of its
    corner); an automorphism of the torsion-free group that moves
    unitriangular matrices off the unitriangular subgroup."""

    def __init__(self, ring):
        if not isinstance(ring, PolyRing) or not ring.laurent or \
                not isinstance(ring.base, rings.IntegerRing):
            raise GroupError("augmentation shifting lives over z[t,t^-1]")
        self.ring = ring
        self.domain = Borel(ring, 2, plus=True)

    def apply(self, m: TriMat):
        if not (isinstance(m, TriMat) and m.n == 2 and m.ring is self.ring):
            raise GroupError("augmentation shifting acts on 2x2 matrices over z[t,t^-1]")
        e = augmentation(m.entry(1, 2))
        return m.scaled(self.ring.monomial(1, e))

    def word(self):
        return "augB2plus"


class PairSwap(Automorphism):
    """(r, s) -> (alpha(s), alpha(r)) on R x R."""

    def __init__(self, alpha: RingAutoDesc, ring):
        # IdentityAuto has no ring and acts on any
        if getattr(alpha, "ring", ring) is not ring:
            raise GroupError(f"{alpha.word()} is over {alpha.ring.tag}, not {ring.tag}")
        self.alpha = alpha
        self.ring = ring
        self.domain = AdditivePairs(ring)

    def apply(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            raise GroupError("pair swap acts on pairs")
        return (self.alpha.apply(x[1]), self.alpha.apply(x[0]))

    def word(self):
        return f"tauAlpha({self.alpha.word()})"


class Compose(Automorphism):
    """Right-to-left composition."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise GroupError("empty composition")
        names = {p.domain.name for p in parts if p.domain is not None}
        if len(names) > 1:
            raise GroupError(f"composition across domains {sorted(names)}")
        self.parts = parts
        self.domain = parts[-1].domain

    def apply(self, x):
        for p in reversed(self.parts):
            x = p.apply(x)
        return x

    def word(self):
        return "*".join(p.word() for p in self.parts)

    @property
    def block_size(self):
        out = 1
        for p in self.parts:
            out = math.lcm(out, p.block_size)
        return out


# ---------------------------------------------------------------------------
# homomorphism verification

class HomReport(NamedTuple):
    passed: bool
    samples: int
    counterexample: object  # (g, h, phi(gh), phi(g)phi(h)) when failing


def verify_homomorphism(phi: Automorphism, samples, rng) -> HomReport:
    """phi(g h) == phi(g) phi(h) on random pairs from the domain."""
    group = phi.domain
    for k in range(samples):
        g, h = group.random(rng), group.random(rng)
        lhs = phi.apply(group.mul(g, h))
        rhs = group.mul(phi.apply(g), phi.apply(h))
        if lhs != rhs:
            return HomReport(False, k + 1, (g, h, lhs, rhs))
    return HomReport(True, samples, None)


# ---------------------------------------------------------------------------
# factor-preserving normalisation over a split extension N x| Q, N abelian

def _split_parts(group, g):
    ring = group.ring
    if isinstance(group, (Borel, CornerDiagGroup)):
        # the corner of w_n is abelian for every n
        if isinstance(group, Borel) and group.n != 2:
            raise GroupError("the unipotent kernel is non-abelian for n > 2")
        d = TriMat(ring, group.n, g.diag, {})
        return g.div(d), d
    if isinstance(group, Affine):
        return (AffElem(ring, ring.one(), g.r),
                AffElem(ring, g.u, ring.zero()))
    raise GroupError(f"no split decomposition registered for {group.name}")


class Phi0(Automorphism):
    """The factor-preserving automorphism with the same restriction to the
    abelian kernel and the same induced map on the complement; it has the
    same number of twisted conjugacy classes as the original."""

    def __init__(self, phi):
        group = phi.domain
        # _split_parts refuses a group without an abelian split kernel
        rng = random.Random(1)
        for _ in range(64):
            n_elt, _ = _split_parts(group, group.random(rng))
            if not _split_parts(group, phi.apply(n_elt))[1].is_identity():
                raise GroupError("the abelian kernel is not invariant")
        self.phi = phi
        self.domain = group

    def apply(self, g):
        group = self.domain
        n, q = _split_parts(group, g)
        fn = self.phi.apply(n)
        if not _split_parts(group, fn)[1].is_identity():
            raise GroupError("the abelian kernel is not invariant")
        _, qphi = _split_parts(group, self.phi.apply(q))
        return group.mul(fn, qphi)

    def word(self):
        return f"phi0[{self.phi.word()}]"


# ---------------------------------------------------------------------------
# word grammar

def _split_top(s, sep):
    out, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            out.append(s[start:i])
            start = i + 1
    out.append(s[start:])
    return out


def parse_endo(s: str, ring) -> EndoDesc:
    s = s.strip()
    if s == "zero":
        return ZeroEndo(ring)
    m = re.fullmatch(r"mulby\((.*)\)", s)
    if m:
        return MulBy(ring, ring.parse(m.group(1)))
    m = re.fullmatch(r"halfsquare\((.*)\)", s)
    if m:
        return HalfSquare(ring, ring.parse(m.group(1)))
    raise GroupError(f"bad endomorphism {s!r}")


def parse_auto(word: str, ring=None, group=None) -> Automorphism:
    """Parse an automorphism word.  `ring` supplies the coefficient ring
    for catalog entries that pin their own group; `group` is the domain
    for inner/central/sigma/flip words."""
    tokens = [t.strip() for t in _split_top(word.strip(), "*")]
    target = group.ring if group is not None else ring
    parts = []
    for tok in tokens:
        low = tok.lower()
        if low == "id":
            if group is None:
                raise GroupError("id needs a domain group")
            parts.append(IdentityMap(group))
            continue
        if low == "flip":
            if not isinstance(group, Unitriangular):
                raise GroupError("flip needs a unitriangular domain")
            parts.append(Flip(group))
            continue
        if low == "augb2":
            parts.append(AugScale(ring))
            continue
        if low == "augb2plus":
            parts.append(AugShift(ring))
            continue
        m = re.fullmatch(r"(\w+)\((.*)\)", tok, re.DOTALL)
        if not m:
            raise GroupError(f"bad automorphism token {tok!r}")
        head, body = m.group(1).lower(), m.group(2)
        if head == "inner":
            if not hasattr(group, "n"):
                raise GroupError("inner(...) needs a matrix domain group")
            g = groups.parse_element(body, group.ring, group.n)
            if isinstance(group, ProjBorel):
                g = projective(g)
            parts.append(Inner(g, group))
        elif head == "central":
            i, endo = _split_top(body, ",")
            if not isinstance(group, Unitriangular):
                raise GroupError("central(...) needs a unitriangular domain")
            parts.append(Central(group, int(i), parse_endo(endo, group.ring)))
        elif head in ("sigma", "sigmap"):
            endo, a = _split_top(body, ",")
            if not isinstance(group, Unitriangular):
                raise GroupError("sigma(...) needs a unitriangular domain")
            cls = SigmaFirst if head == "sigma" else SigmaLast
            parts.append(cls(group, parse_endo(endo, group.ring), group.ring.parse(a)))
        elif head == "ring":
            if not isinstance(target, PolyRing):
                raise GroupError("ring(...) needs a polynomial coefficient ring")
            alpha = parse_ring_auto(body, target)
            domain = group if group is not None else Additive(target)
            parts.append(RingMap(alpha, domain))
        elif head == "phip":
            if not isinstance(target, PolyRing) or target.laurent:
                raise GroupError("phiP(...) needs gf(q)[t]")
            parts.append(BlockCompanion(target.parse(body)))
        elif head == "mul":
            parts.append(CenterScale(target, target.parse(body)))
        elif head in ("phia", "phib"):
            if not isinstance(target, PolyRing):
                raise GroupError("the reflections need gf(q)[t,t^-1]")
            cls = AffineReflect if head == "phia" else TriangularReflect
            parts.append(cls(target, target.base.parse(body)))
        elif head == "taualpha":
            if not isinstance(target, PolyRing):
                raise GroupError("tauAlpha(...) needs a polynomial coefficient ring")
            parts.append(PairSwap(parse_ring_auto(body, target), target))
        else:
            raise GroupError(f"unknown automorphism {head!r}")
    return parts[0] if len(parts) == 1 else Compose(parts)
