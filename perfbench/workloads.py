"""The benchmark's four workloads.

`build(lib, seed)` makes every input from the seed and returns the pass:
a list of (label, task) pairs, where each task takes no arguments and
returns (ok, record).  `ok` is the correctness gate for that task, and
`record` is a deterministic string that goes into the workload's digest.
Running the same pass twice does the same work and gives the same records.

`lib` is a namespace holding the library's modules; nothing here imports
the library itself, so the benchmark can re-import it and install its
tracing wrappers on the modules the tasks actually call.
"""

from __future__ import annotations

import random

# per-entry sample counts and chunking of the catalog workload
CATALOG_SAMPLES = 80
CATALOG_CHUNK = 40
# oracle windows left out of a pass: tau(flip)/gf(3) alone runs 729^2 twists
ORACLE_SKIP = ("tau(flip)/gf(3)",)
# seeded dense corners per reflection universe
REFLECT_DENSE = 40
REFLECT_FIELDS = (4, 5, 8, 9)


def _key(seed, *parts):
    return "/".join(str(p) for p in (seed, *parts))


def _rng(seed, *parts):
    """An independent generator for one input, derived from the seed."""
    return random.Random(_key(seed, *parts))


# ---------------------------------------------------------------------------
# catalog: homomorphism checks and relation suites

def catalog_entries(lib, rng):
    """Every automorphism of the verification catalog, with the random
    parameters drawn from rng in place of the catalog's fixed seed."""
    poly, groups, autos, twisted = lib.poly, lib.groups, lib.autos, lib.twisted
    field, ZZ, localized = lib.rings.field, lib.rings.ZZ, lib.rings.localized
    LinearWindow = twisted.LinearWindow
    F2t = poly.poly_ring(field(2), laurent=False)
    F5t = poly.poly_ring(field(5), laurent=False)
    F4l = poly.poly_ring(field(4), laurent=True)
    F9l = poly.poly_ring(field(9), laurent=True)
    Zt = poly.poly_ring(ZZ, laurent=False)
    Zl = poly.poly_ring(ZZ, laurent=True)
    Z6 = localized(6)
    U5_z6 = groups.Unitriangular(Z6, 5)
    U5_f5 = groups.Unitriangular(F5t, 5)
    U5_f2 = groups.Unitriangular(F2t, 5)
    B3 = groups.Borel(F5t, 3)
    win = LinearWindow(F2t, 0, 3)
    mat = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]
    out = [
        ("inner", autos.Inner(B3.random(rng), B3)),
        ("inner-proj", autos.Inner(groups.ProjBorel(F4l, 3, plus=True).random(rng))),
        ("central-mulby", autos.Central(U5_f2, 1, autos.MulBy(F2t, F2t.gen()))),
        ("central-zero", autos.Central(U5_f5, 3, autos.ZeroEndo(F5t))),
        ("central-window", autos.Central(U5_f2, 2, autos.WindowLinear(win, mat))),
        ("sigma-halfsquare-f5",
         autos.SigmaFirst(U5_f5, autos.HalfSquare(F5t, F5t.gen()), F5t.gen())),
        ("sigma-halfsquare-z6",
         autos.SigmaFirst(U5_z6, autos.HalfSquare(Z6, Z6.from_int(3)), Z6.from_int(3))),
        ("sigmap-halfsquare",
         autos.SigmaLast(U5_f5, autos.HalfSquare(F5t, F5t.gen()), F5t.gen())),
        ("flip", autos.Flip(U5_f2)),
        ("flip-f5", autos.Flip(U5_f5)),
        ("ring-sub", autos.RingMap(poly.PolySub(F5t, 2, 1), U5_f5)),
        ("ring-sub-matrix", autos.RingMap(poly.PolySub(F2t, 1, 1), groups.Borel(F2t, 3))),
        ("ring-flip", autos.RingMap(poly.LaurentFlip(F4l), groups.Borel(F4l, 2, plus=True))),
        ("companion", autos.BlockCompanion(poly.first_irreducible(field(2), 2))),
        ("mul", autos.CenterScale(F5t, F5t.from_int(2))),
        ("phiA", autos.AffineReflect(F4l, twisted.reflection_unit(field(4)))),
        ("phiB", autos.TriangularReflect(F9l, twisted.reflection_unit(field(9)))),
        ("augB2", autos.AugScale(Zt)),
        ("augB2plus", autos.AugShift(Zl)),
        ("tauAlpha", autos.PairSwap(poly.LaurentFlip(F4l), F4l)),
        ("compose", autos.Compose([autos.Flip(U5_f5),
                                   autos.RingMap(poly.PolySub(F5t, 2, 0), U5_f5)])),
    ]
    for tag in lib.experiments.RING_TAGS:
        ring = poly.parse_ring(tag)
        U5 = groups.Unitriangular(ring, 5)
        B3r = groups.Borel(ring, 3)
        out.append((f"inner/{tag}", autos.Inner(B3r.random(rng), B3r)))
        out.append((f"central/{tag}", autos.Central(U5, 2, autos.MulBy(ring, ring.random(rng)))))
        out.append((f"flip/{tag}", autos.Flip(U5)))
    return out


def build_catalog(lib, seed):
    tasks = []
    entries = catalog_entries(lib, _rng(seed, "catalog"))
    chunks = range(CATALOG_SAMPLES // CATALOG_CHUNK)
    for name, phi in entries:
        for k in chunks:
            tasks.append((f"hom:{name}:{k}", _hom_task(lib, phi, _key(seed, "hom", name, k))))
    for tag in lib.experiments.RING_TAGS:
        ring = lib.poly.parse_ring(tag)
        for n in range(2, 7):
            for k in chunks:
                tasks.append((f"rel:{tag}:{n}:{k}",
                              _relations_task(lib, ring, n, _key(seed, "rel", tag, n, k))))
    return tasks


def _hom_task(lib, phi, key):
    def task():
        rng = random.Random(key)
        rep = lib.autos.verify_homomorphism(phi, samples=CATALOG_CHUNK, rng=rng)
        return rep.passed and rep.samples == CATALOG_CHUNK, f"{rep.passed}:{rep.samples}"
    return task


def _relations_task(lib, ring, n, key):
    def task():
        rng = random.Random(key)
        ok, checked, bad = lib.experiments.relations_suite(ring, n, CATALOG_CHUNK, rng)
        return ok and checked == CATALOG_CHUNK, f"{ok}:{checked}:{bad}"
    return task


# ---------------------------------------------------------------------------
# oracle: the union-find partition against the cokernel count

def build_oracle(lib, seed):
    twisted, autos = lib.twisted, lib.autos
    tasks = []
    for name, phi, window in lib.experiments._oracle_cases():
        if name in ORACLE_SKIP:
            continue
        universe = list(window.elements())
        _rng(seed, "oracle", name).shuffle(universe)
        tasks.append((f"window:{name}", _window_partition_task(lib, name, phi, window, universe)))
    F = lib.rings.field(4)
    B = lib.groups.Borel(F, 2)
    universe = list(B.elements())
    rng = _rng(seed, "oracle", "b2")
    rng.shuffle(universe)
    identity = autos.IdentityMap(B)
    expected = twisted.brute_force_partition(universe, identity, B).count
    tasks.append(("b2:id", _group_partition_task(lib, identity, B, universe, expected)))
    # the inner twist by every element, in a seeded order
    for k, g in enumerate(rng.sample(universe, len(universe))):
        tasks.append((f"b2:inner:{k}",
                       _group_partition_task(lib, autos.Inner(g, B), B, universe, expected)))
    return tasks


def _partition_record(part):
    sizes = sorted(size for _, size in part.classes)
    return f"{part.count}:{part.complete}:{len(part.witnesses)}:{sizes}"


def _window_partition_task(lib, name, phi, window, universe):
    def task():
        twisted = lib.twisted
        cc = twisted.additive_class_count(phi, window, rounds=0)
        part = twisted.brute_force_partition(universe, phi, phi.domain, universe_name=name)
        ok = part.complete and part.count == cc.count and part.verify(phi)
        return ok, f"{cc.count}:{_partition_record(part)}"
    return task


def _group_partition_task(lib, phi, group, universe, expected):
    def task():
        part = lib.twisted.brute_force_partition(universe, phi, group)
        ok = part.complete and part.count == expected and part.verify(phi, group)
        return ok, _partition_record(part)
    return task


# ---------------------------------------------------------------------------
# windows: membership verdicts and class counts on coefficient windows

def build_windows(lib, seed):
    tasks = []
    _distinct_family(lib, seed, tasks)
    _laurent_pairs(lib, seed, tasks)
    _companion_counts(lib, tasks)
    _rng(seed, "windows", "order").shuffle(tasks)
    return tasks


def _distinct_family(lib, seed, tasks):
    """The monomials t^(p(p-1)i + p - 1), i = 0, 1, 2, under t -> a t + b;
    each target is scaled by a seeded unit, which keeps the verdict since
    the image of id - phi is a gf(p)-subspace."""
    poly, twisted = lib.poly, lib.twisted
    for p, subs in ((2, [(1, 1)]), (3, [(2, 0), (1, 1), (2, 1)]),
                    (5, [(2, 0), (1, 1), (4, 3)])):
        F = lib.rings.field(p)
        ring = poly.poly_ring(F, laurent=False)
        exps = [p * (p - 1) * i + (p - 1) for i in range(3)]
        for a, b in subs:
            phi = lib.autos.RingMap(poly.PolySub(ring, a, b), lib.groups.Additive(ring))
            for ii in range(3):
                for jj in range(ii):
                    c = F.random_unit(_rng(seed, "family", p, a, b, ii, jj))
                    r = ring.make({exps[ii]: c, exps[jj]: F.neg(c)})
                    window = twisted.LinearWindow(ring, 0, exps[ii])
                    tasks.append((f"family:{p}:{a},{b}:{ii},{jj}",
                                  _distinct_task(lib, r, phi, window, 2 * p * (p - 1))))


def _distinct_task(lib, r, phi, window, growth):
    def task():
        v = lib.twisted.additive_membership(r, phi, window, growth=growth)
        return v.decided and not v.member, f"{v.decided}:{v.member}:{v.windows_tried}"
    return task


def _laurent_pairs(lib, seed, tasks):
    """t^i against t^j, and (t^i, 0) against (0, -t^j), for j < i <= 4 under
    the identity and t -> 1/t over gf(2), gf(3), with seeded unit scalings."""
    poly, twisted = lib.poly, lib.twisted
    for p in (2, 3):
        ring = poly.poly_ring(lib.rings.field(p), laurent=True)
        F = ring.base
        window = twisted.LinearWindow(ring, -5, 5)
        pair_window = twisted.PairWindow(window)
        for alpha in (poly.IdentityAuto(), poly.LaurentFlip(ring)):
            phi = lib.autos.RingMap(alpha, lib.groups.Additive(ring))
            for i in range(5):
                for j in range(i):
                    rng = _rng(seed, "laurent", p, alpha.word(), i, j)
                    c = F.random_unit(rng)
                    r = ring.make({i: c, j: F.neg(c)})
                    tasks.append((f"laurent:{p}:{alpha.word()}:{i},{j}",
                                  _distinct_task(lib, r, phi, window, None)))
                    d = F.random_unit(rng)
                    pair = ((ring.monomial(d, i), ring.zero()),
                            (ring.zero(), ring.monomial(F.neg(d), j)))
                    tasks.append((f"swap:{p}:{alpha.word()}:{i},{j}",
                                  _pair_task(lib, alpha, pair, pair_window)))


def _pair_task(lib, alpha, pair, window):
    def task():
        v, = lib.twisted.pair_distinctness(alpha, [pair], window)
        return v.decided and not v.member, f"{v.decided}:{v.member}:{v.windows_tried}"
    return task


def _companion_counts(lib, tasks):
    """det(1 - a C_P) != 0 and class count 1 for the scaled block companion
    of the first irreducible P of degree 2, 3 over gf(q), q in {2,3,4,5}."""
    poly, twisted, autos = lib.poly, lib.twisted, lib.autos
    for q in (2, 3, 4, 5):
        F = lib.rings.field(q)
        ring = poly.poly_ring(F, laurent=False)
        for deg in (2, 3):
            comp = autos.BlockCompanion(poly.first_irreducible(F, deg))
            for a in F.units():
                phi = autos.Compose([autos.CenterScale(ring, ring.constant(a)), comp])
                tasks.append((f"companion:{q}:{deg}:{a}",
                              _companion_task(lib, F, comp, a, phi,
                                              twisted.LinearWindow(ring, 0, 23))))


def _companion_task(lib, F, comp, a, phi, window):
    def task():
        C = comp.companion_matrix()
        n = len(C)
        one_minus = [[F.sub(F.one() if i == j else F.zero(), F.mul(a, C[i][j]))
                      for j in range(n)] for i in range(n)]
        det = lib.linalg.gf_det(F, one_minus)
        cc = lib.twisted.additive_class_count(phi, window)
        ok = not F.is_zero(det) and cc.count == 1 and cc.stabilized
        return ok, f"{det}:{cc.count}:{cc.stabilized}:{cc.rank}:{cc.counts_tried}"
    return task


# ---------------------------------------------------------------------------
# reflect: the 4 / 2 class counts of the reflection automorphisms

def build_reflect(lib, seed):
    experiments, twisted, autos = lib.experiments, lib.twisted, lib.autos
    tasks = []
    for q in REFLECT_FIELDS:
        F = lib.rings.field(q)
        ring = lib.poly.poly_ring(F, laurent=True)
        a = twisted.reflection_unit(F)
        for kind, phi, make, classes in (
                ("b2", autos.TriangularReflect(ring, a), experiments.truncated_b2plus, 4),
                ("aff", autos.AffineReflect(ring, a), experiments.truncated_affplus, 2)):
            universe = make(ring, 3, 6, _rng(seed, "reflect", q, kind), dense=REFLECT_DENSE)
            seen = set()
            for k, g in enumerate(universe):
                tasks.append((f"{kind}:{q}:{k}", _classify_task(lib, ring, g, phi, seen)))
            tasks.append((f"{kind}:{q}:count", _count_task(seen, classes)))
    return tasks


def _classify_task(lib, ring, g, phi, seen):
    def task():
        twisted = lib.twisted
        res = twisted.classify_reflection(g, phi)
        if isinstance(g, lib.groups.AffElem):
            parity = (ring.unit_decompose(g.u)[1][0] % 2, 0)
        else:
            parity = tuple(ring.unit_decompose(u)[1][0] % 2 for u in g.diag)
        ok = res.parity == parity and twisted.twist(phi, res.witness, res.representative) == g
        seen.add(res.parity)
        return ok, f"{res.parity}:{res.witness!r}"
    return task


def _count_task(seen, classes):
    """Closes a universe: its elements fell into exactly `classes` classes."""
    def task():
        count = len(seen)
        seen.clear()
        return count == classes, str(count)
    return task


WORKLOADS = {
    "catalog": build_catalog,
    "oracle": build_oracle,
    "windows": build_windows,
    "reflect": build_reflect,
}

# traced names each workload must reach; a zero count means a wrapper missed
EXPECTED_CALLS = {
    "catalog": ("rings.ops", "rings.is_zero", "poly.mul", "poly.add", "groups.mul",
                "groups.inv", "groups.random", "autos.apply.Flip", "autos.verify",
                "experiments.relations_suite"),
    "oracle": ("rings.ops", "poly.add", "poly.subst", "groups.mul", "groups.inv",
               "twisted.twist", "twisted.partition", "twisted.class_count", "linalg.elim"),
    "windows": ("rings.ops", "poly.mul", "poly.add", "poly.subst", "twisted.membership",
                "twisted.pair_distinctness", "twisted.class_count", "linalg.elim"),
    "reflect": ("rings.ops", "poly.add", "groups.mul", "groups.inv", "twisted.twist",
                "twisted.classify", "twisted.corner_solve"),
}
