"""Command-line front end.

Subcommands:  verify-relations | reidemeister | case-analysis |
distinct-family | center | iso-aff | unit-equation | all

Exit codes: 0 pass, 1 expectation mismatch, 2 usage error, 3 undecided,
4 internal failure (a computed witness or result did not survive its
exact re-check, or any other unexpected exception).
Every run whose arguments parse prints its sampling seed as its first
stdout line, refused runs included; TWISTCONJ_SEED overrides the default 0
and --seed overrides both.  --json writes the machine-readable report
atomically (temp file + rename; a failed write leaves no file behind).
Every report, and every file of `all --json-dir`, lists "experiment"
first and "seed" last.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile

from . import experiments, rings
from .autos import AffineReflect, TriangularReflect, parse_auto
from .groups import Additive, Affine, Borel, GroupError
from .poly import parse_ring, parse_ring_auto, poly_ring
from .rings import RingError, field, localized, solve_unit_equation
from .twisted import LinearWindow, additive_class_count, case_analysis, is_reflection_unit

EXIT_PASS, EXIT_MISMATCH, EXIT_USAGE, EXIT_UNDECIDED, EXIT_INTERNAL = 0, 1, 2, 3, 4

# Requested inputs over these bounds are refused before any work, as usage
# errors; the solvers still regrow their windows, so undecided stays
# undecided.  CPU at each bound, on a 2-vCPU x86_64 Xeon with Python 3.11:
# distinct-family decides imax(imax+1)/2 pairs on one span of the exponents
# [0, max(--window, p(p-1)imax + p - 1)]: 0.09 s (p 11, imax 2, t -> t+1),
# 0.28 s for the slowest t -> t+1 within both (p 13, imax 1, --window 256);
MAX_FAMILY_IMAX, MAX_FAMILY_WINDOW = 6, 257
# the exponents of a u2 window: 0.36 s (t -> 5t+1 over gf(97)[t]);
MAX_U2_WINDOW = 401
# a reflection truncation, whose size counts a sampled corner as its 2e+1
# monomials: 5.5 s and 75 MB to classify 194 481 b2plus elements over
# gf(9)[t,t^-1].
MAX_TRUNCATION_SIZE = 2 * 10 ** 5


class ExperimentSpec:
    """A named twisted-class experiment: ring, group tag, automorphism
    word, window bounds and an optional expected count.  Built from CLI
    flags or from a JSON config file; every field is validated before the
    run starts.  The name is the report's "experiment" field."""

    FIELDS = ("name", "ring", "group", "auto", "exp_window", "diag_window",
              "dense", "expect")

    def __init__(self, name="reidemeister", ring=None, group=None, auto=None,
                 exp_window=6, diag_window=3, dense=40, expect=None):
        if not ring or not group or not auto:
            raise RingError("experiment needs ring, group and auto")
        for label, value in (("name", name), ("ring", ring), ("group", group),
                             ("auto", auto)):
            if not isinstance(value, str):
                raise RingError(f"{label} must be a string")
        for label, value in (("exp_window", exp_window),
                             ("diag_window", diag_window), ("dense", dense),
                             ("expect", 0 if expect is None else expect)):
            # bool is an int subclass: refuse true/false in a config file
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise RingError(f"{label} must be a non-negative integer")
        self.name = name
        self.ring = ring
        self.group = group
        self.auto = auto
        self.exp_window = exp_window
        self.diag_window = diag_window
        self.dense = dense
        self.expect = expect

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise RingError("an experiment config must be a JSON object")
        unknown = set(data) - set(cls.FIELDS)
        if unknown:
            raise RingError(f"unknown experiment fields {sorted(unknown)}")
        return cls(**{k: data[k] for k in cls.FIELDS if k in data})


def _seed_of(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TWISTCONJ_SEED")
    return int(env) if env else 0


def _write_report(path, experiment, seed, **fields):
    """Write a JSON report atomically, "experiment" first and "seed"
    last; on any failure the temp file is removed and the error raised."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({"experiment": experiment, **fields, "seed": seed},
                      fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(args, experiment, **fields):
    if args.json:
        _write_report(args.json, experiment, args.seed, **fields)


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify_relations(args):
    ring = parse_ring(args.ring)
    if args.n < 2 or args.n > 8:
        raise RingError("--n must lie in 2..8")
    if args.samples < 1:
        raise RingError("--samples must be at least 1")
    rng = random.Random(args.seed)
    ok, checked, bad = experiments.relations_suite(ring, args.n, args.samples, rng)
    if ok:
        print(f"relations: {checked} samples on {ring.tag}, n={args.n}: pass")
    else:
        print(f"relations: FAILED at {bad}")
    _emit(args, "verify-relations", ring=ring.tag, n=args.n, samples=checked,
          passed=ok)
    return EXIT_PASS if ok else EXIT_MISMATCH


def _truncation_group(spec, ring):
    tag = spec.group.lower()
    if tag == "b2plus":
        return Borel(ring, 2, plus=True)
    if tag in ("aff-plus", "affplus"):
        return Affine(ring, plus=True)
    if tag == "u2":
        return Additive(ring)
    raise GroupError(f"unsupported group {spec.group!r}")


def _refuse_over(what, size, name, bound):
    if size > bound:
        raise RingError(f"{what}: {size} > {name} = {bound}")


def _truncation_size(ring, rank, dw, ew, dense):
    """(2dw+1)^rank grid diagonals times 1 + (q-1)(2ew+1) corners, plus
    `dense` sampled corners of 2ew+1 monomials, over gf(q)[t,t^-1]."""
    return (2 * dw + 1) ** rank * (1 + (ring.base.q - 1) * (2 * ew + 1)) + \
        dense * (2 * ew + 1)


def cmd_reidemeister(args):
    flags = {f: getattr(args, f) for f in ExperimentSpec.FIELDS[1:]
             if getattr(args, f) is not None}
    if args.config:
        # a flag beside the file would be dropped: an --expect would check nothing
        if flags:
            given = " ".join("--" + f.replace("_", "-") for f in flags)
            raise RingError(f"--config takes no other experiment flags: {given}")
        spec = ExperimentSpec.from_file(args.config)
    else:
        if not (args.ring and args.group and args.auto):
            raise RingError("--ring/--group/--auto or --config required")
        spec = ExperimentSpec(**flags)
    ring = parse_ring(spec.ring)
    rng = random.Random(args.seed)
    group = _truncation_group(spec, ring)
    ew, dw = spec.exp_window, spec.diag_window
    phi = parse_auto(spec.auto, ring=ring, group=group)

    if isinstance(group, Additive):
        if not isinstance(phi.domain, Additive):
            raise GroupError("group u2 needs an additive automorphism word")
        lo = -ew if getattr(ring, "laurent", False) else 0
        hi = ew + (-(ew - lo + 1)) % phi.block_size
        # LinearWindow refuses any ring but gf(q)[t] and gf(q)[t,t^-1] first
        if isinstance(getattr(ring, "base", None), rings.GaloisField):
            _refuse_over(f"exponents of the u2 window [{lo},{hi}]", hi - lo + 1,
                         "MAX_U2_WINDOW", MAX_U2_WINDOW)
        cc = additive_class_count(phi, LinearWindow(ring, lo, hi))
        count, stabilized, class_list = cc.count, cc.stabilized, []
        uname = f"u2 window [{lo},{hi}]"
        print(f"count={count} stabilized={stabilized} "
              f"(dim {cc.dim}, rank {cc.rank}, counts {list(cc.counts_tried)})")
    else:
        # a word of another group: mul(...), tauAlpha(...), or phiA on b2plus
        if phi.domain.name != group.name:
            raise GroupError(f"group {spec.group} needs a matrix or affine automorphism word")
        if not (isinstance(phi, (TriangularReflect, AffineReflect)) and
                is_reflection_unit(ring.base, phi.a)):
            # the truncation builder's refusals of the ring and the exponents
            LinearWindow(ring, -ew, ew)
            ring.monomial(ring.base.one(), -dw)
            print(f"undecided (no certified count for {phi.word()} on {group.name})")
            uname, count, class_list, stabilized = None, None, [], False
        else:
            rank = 2 if isinstance(group, Borel) else 1  # of the diagonal torus
            _refuse_over(f"size of the {group.name} truncation",
                         _truncation_size(ring, rank, dw, ew, spec.dense),
                         "MAX_TRUNCATION_SIZE", MAX_TRUNCATION_SIZE)
            build = experiments.truncated_b2plus if rank == 2 else experiments.truncated_affplus
            universe = build(ring, dw, ew, rng, dense=spec.dense)
            uname = (f"{'b2plus' if rank == 2 else 'aff-plus'} |k|<={dw} |m|<={ew} "
                     f"(+{spec.dense} sampled)")
            classes = experiments.classify_universe(universe, phi)
            count = len(classes)
            # decided once every diagonal parity class is met: 2^rank, 4 for
            # b2plus and 2 for aff-plus; a narrower truncation leaves it open
            stabilized = count == 2 ** rank
            class_list = [{"rep": repr(rep), "witnessed_members": m}
                          for rep, m in classes.values()]
            print(f"count={count} (constructive witnesses for {len(universe)} elements)")
    _emit(args, spec.name, ring=ring.tag, auto=phi.word(), universe=uname,
          count=count, classes=class_list, stabilized=stabilized)
    if spec.expect is not None:
        if not stabilized:
            return EXIT_UNDECIDED
        if count != spec.expect:
            return EXIT_MISMATCH
    return EXIT_PASS


def _finite_field(args):
    """The finite field --ring names; any other ring is refused."""
    F = parse_ring(args.ring)
    if not isinstance(F, rings.GaloisField):
        raise RingError("--ring must name a finite field gf(q)")
    return F


def cmd_case_analysis(args):
    F = _finite_field(args)
    if args.box < 1:
        raise RingError("--box must be at least 1")
    ring = poly_ring(F, laurent=False)
    f = ring.parse(args.f)
    rep = case_analysis(f, args.box)
    print(f"f = {rep.f} over gf({rep.q}), box {rep.box}:")
    for s in rep.solutions:
        print(f"  (a,b,c,d)=({s.a},{s.b},{s.c},{s.d})  det={s.det}  det(1-M)={s.det_one_minus}")
    print(rep.summary())
    _emit(args, "case-analysis", ring=ring.tag, f=rep.f, box=rep.box,
          solutions=[list(s[:6]) for s in rep.solutions],
          all_eigenvalue_one=rep.all_eigenvalue_one)
    if args.expect:
        want = args.expect == "all-eigenvalue-one"
        if rep.all_eigenvalue_one != want:
            return EXIT_MISMATCH
    return EXIT_PASS


def cmd_distinct_family(args):
    F = field(args.p)
    if F.k != 1:
        raise RingError("--p must be prime")
    ring = poly_ring(F, laurent=False)
    alpha = parse_ring_auto(args.alpha, ring)
    if alpha.is_identity():
        raise RingError("the identity substitution is excluded")
    if args.imax < 1:
        raise RingError("--imax must be at least 1")
    if args.window < 0:
        raise RingError("--window must be non-negative")
    _refuse_over("--imax", args.imax, "MAX_FAMILY_IMAX", MAX_FAMILY_IMAX)
    exps = experiments.family_exponents(args.p, args.imax)
    hi = max(max(exps), args.window)
    _refuse_over(f"exponents of the solving window [0,{hi}]", hi + 1,
                 "MAX_FAMILY_WINDOW", MAX_FAMILY_WINDOW)
    verdicts = []
    merged = undecided = 0
    for e, f, v in experiments.family_verdicts(alpha, exps, hi):
        verdicts.append({"pair": [e, f], "decided": v.decided, "member": v.member})
        status = "distinct" if v.decided and not v.member else \
            ("MERGED" if v.member else "undecided")
        merged += int(bool(v.member))
        undecided += int(not v.decided)
        print(f"  t^{e} vs t^{f}: {status}")
    _emit(args, "distinct-family", ring=ring.tag, auto=alpha.word(),
          imax=args.imax, verdicts=verdicts)
    if merged:
        return EXIT_MISMATCH
    if undecided:
        return EXIT_UNDECIDED
    print("all pairs distinct")
    return EXIT_PASS


def cmd_center(args):
    F = _finite_field(args)
    c = experiments.center_check(F, args.group.lower(), args.n)
    for z in c.center:
        print(f"  {z!r}")
    print(f"center of {c.group.name}: {len(c.center)} element(s); "
          f"matches {c.description}: {c.matches}")
    _emit(args, "center", ring=F.tag, group=c.group.name, size=len(c.center),
          matches_structure=c.matches)
    return EXIT_PASS if c.matches else EXIT_MISMATCH


def cmd_iso_aff(args):
    F = _finite_field(args)
    epi = experiments.affine_epimorphism(F, args.n)
    print(f"w{args.n}({F.tag}) -> aff({F.tag}): homomorphism={epi.homomorphism} "
          f"onto={epi.onto} kernel==center={epi.kernel_is_center}")
    _emit(args, "iso-aff", ring=F.tag, n=args.n, homomorphism=epi.homomorphism,
          onto=epi.onto, kernel_is_center=epi.kernel_is_center)
    return EXIT_PASS if all(epi) else EXIT_MISMATCH


def cmd_unit_equation(args):
    ring = localized(args.w)
    images = None
    if args.images:
        images = [ring.parse(s) for s in args.images.split(",")]
    res = solve_unit_equation(ring, images)
    print(f"ring {ring.tag}, primes {list(res.primes)}")
    print(f"exponent matrix {res.matrix} signs {list(res.signs)}")
    print(f"det(1 - M) = {res.det_one_minus}; identity forced: {res.identity_forced}")
    if res.violations:
        print(f"images at positions {list(res.violations)} are impossible: "
              f"the equation r*p_j = image_j*r forces image_j = p_j")
    _emit(args, "unit-equation", ring=ring.tag,
          matrix=[list(r) for r in res.matrix], signs=list(res.signs),
          det_one_minus=res.det_one_minus, identity_forced=res.identity_forced)
    return EXIT_PASS if res.identity_forced else EXIT_MISMATCH


def cmd_all(args):
    if not args.paper_suite:
        raise RingError("use --paper-suite")
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
    passed = 0
    for name, fn, budget in experiments.ALL_CRITERIA:
        res = experiments.run_criterion(name, fn, budget, args.seed)
        passed += res.passed
        print(res.line())
        if args.json_dir:
            slug = name.replace(" ", "-")
            _write_report(os.path.join(args.json_dir, f"{slug}.json"), name,
                          args.seed, passed=res.passed, detail=res.detail,
                          elapsed=res.elapsed)
    total = len(experiments.ALL_CRITERIA)
    print(f"{passed}/{total} criteria passed")
    return EXIT_PASS if passed == total else EXIT_MISMATCH


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="twistconj",
        description="exact twisted-conjugacy computations in triangular "
                    "matrix groups over small arithmetic rings")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--json", default=None, metavar="PATH")

    p = sub.add_parser("verify-relations", help="elementary relation suite")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    common(p)
    p.set_defaults(fn=cmd_verify_relations)

    p = sub.add_parser("reidemeister", help="twisted class counts on truncations")
    p.add_argument("--ring")
    p.add_argument("--group", help="b2plus | aff-plus | u2")
    p.add_argument("--auto")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="JSON experiment spec instead of flags")
    # None when not given: ExperimentSpec supplies the defaults 6, 3 and 40
    p.add_argument("--exp-window", type=int, default=None)
    p.add_argument("--diag-window", type=int, default=None)
    p.add_argument("--dense", type=int, default=None,
                   help="extra sampled dense corners")
    p.add_argument("--expect", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_reidemeister)

    p = sub.add_parser("case-analysis", help="exponent-tuple search for "
                                             "diagonal substitutions")
    p.add_argument("--ring", required=True, help="gf(q)")
    p.add_argument("--f", required=True)
    p.add_argument("--box", type=int, default=3)
    p.add_argument("--expect", choices=["all-eigenvalue-one", "exception"],
                   default=None)
    common(p)
    p.set_defaults(fn=cmd_case_analysis)

    p = sub.add_parser("distinct-family", help="pairwise distinctness of the "
                                               "monomial family")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", required=True, help="e.g. 't->t+1'")
    p.add_argument("--imax", type=int, default=2)
    p.add_argument("--window", type=int, default=16)
    common(p)
    p.set_defaults(fn=cmd_distinct_family)

    p = sub.add_parser("center", help="brute-force centers of finite groups")
    p.add_argument("--ring", required=True, help="gf(q)")
    p.add_argument("--group", required=True, help="b | u | w")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_center)

    p = sub.add_parser("iso-aff", help="corner-diagonal to affine epimorphism")
    p.add_argument("--ring", required=True, help="gf(q)")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_iso_aff)

    p = sub.add_parser("unit-equation", help="diagonal-image forcing over z[1/w]")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--images", default=None,
                   help="comma-separated claimed images, e.g. '2,3'")
    common(p)
    p.set_defaults(fn=cmd_unit_equation)

    p = sub.add_parser("all", help="run the full experiment suite")
    p.add_argument("--paper-suite", action="store_true")
    p.add_argument("--json-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_all)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.seed = _seed_of(args)
        print(f"seed={args.seed}")
        return args.fn(args)
    except (RingError, GroupError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal verification failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # a bug, not a mismatch: Python's own exit code would be 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
