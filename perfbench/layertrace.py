"""Span tracing for the benchmark's traced run.

The tracer wraps library functions and methods from outside the library:
it replaces class attributes and every module attribute that is bound to
the original function, and puts the originals back on `uninstall`.

Each timed wrapper opens a frame on a stack.  On exit the frame's self
time is its duration minus the time its direct child frames covered, and
that self time is added to the frame's name.  Calls that happen once per
element or per coefficient (the aggregated names) only update per-name
totals; the rest are also kept as spans (id, name, parent id, start, end)
and written out when the run ends.  Counted wrappers record a call count
and take no time stamps.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)     # per-name counts computed from arguments
        self.spans = []                   # (id, name, parent id, start, end)
        self._stack = []                  # open frames: [child seconds, span id]
        self._installed = []              # (owner, attribute, original)

    # wrappers -----------------------------------------------------------------
    def timed(self, name, fn, keep_spans=False, measure=None):
        """Wrap fn so that each call adds to name's call count and self time.

        `measure(args, result)` returns {key: amount}, added to extra[name.key].
        With keep_spans the call is also recorded as a span."""
        clock, stack = self.clock, self._stack
        calls, self_s, extra, spans = self.calls, self.self_s, self.extra, self.spans

        def wrapper(*args, **kwargs):
            span_id = len(spans) if keep_spans else None
            if keep_spans:
                spans.append(None)        # reserve the id; parents open first
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_spans:
                    spans[span_id] = (span_id, name, self._parent_id(), start, end)
            if measure is not None:
                for key, amount in measure(args, result).items():
                    extra[f"{name}.{key}"] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _parent_id(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    # installation ---------------------------------------------------------------
    def patch_method(self, cls, attr, wrapper):
        self._installed.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def patch_function(self, modules, fn, wrapper):
        """Rebind fn to wrapper in every module namespace that bound it;
        returns how many bindings were replaced."""
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._installed.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    hits += 1
        return hits

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # output -------------------------------------------------------------------------
    def write(self, path, header):
        names = sorted(set(self.calls) | set(self.self_s))
        payload = {
            "header": header,
            "totals": {n: {"calls": self.calls[n], "self_s": self.self_s[n]} for n in names},
            "extra": dict(self.extra),
            "span_fields": ["id", "name", "parent", "start", "end"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# the library's layers

def _poly_mul_measure(args, result):
    a, b = args
    na, nb = len(a.terms), len(b.terms)
    return {"coeff_products": na * nb, "monomial": 1 if na == 1 or nb == 1 else 0}


def _partition_measure(args, result):
    n = len(args[0])
    return {"twists": n * n, "merges": len(result.witnesses)}


def _membership_measure(args, result):
    return {"rounds": len(result.windows_tried)}


def _elim_measure(args, result):
    rows = args[1]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


def install(tracer, lib):
    """Wrap the public entry points of every layer of the library `lib`
    (a namespace holding its modules).  Returns {traced name: number of
    bindings replaced}."""
    rings, poly, groups = lib.rings, lib.poly, lib.groups
    autos, twisted, linalg = lib.autos, lib.twisted, lib.linalg
    modules = list(vars(lib).values())
    bound = defaultdict(int)

    def method(cls, attr, name, **kw):
        wrapper = tracer.timed(name, cls.__dict__[attr], **kw)
        tracer.patch_method(cls, attr, wrapper)
        bound[name] += 1

    def function(mod, attr, name, **kw):
        fn = getattr(mod, attr)
        bound[name] += tracer.patch_function(modules, fn, tracer.timed(name, fn, **kw))

    # rings: base-context primitives, counted only
    for cls in (rings.GaloisField, rings.IntegerRing, rings.LocalizedIntegers):
        for attr in ("add", "neg", "mul", "inv"):
            tracer.patch_method(cls, attr, tracer.counted("rings.ops", cls.__dict__[attr]))
            bound["rings.ops"] += 1
    tracer.patch_method(rings.Ring, "is_zero",
                        tracer.counted("rings.is_zero", rings.Ring.__dict__["is_zero"]))
    bound["rings.is_zero"] += 1

    # poly
    method(poly.Poly, "__mul__", "poly.mul", measure=_poly_mul_measure)
    method(poly.Poly, "__add__", "poly.add")
    method(poly.PolySub, "apply", "poly.subst")
    method(poly.LaurentFlip, "apply", "poly.subst")

    # groups
    for cls in (groups.TriMat, groups.AffElem):
        method(cls, "__mul__", "groups.mul")
        method(cls, "inv", "groups.inv")
    for cls in (groups.Unitriangular, groups.Borel, groups.ProjBorel, groups.Affine):
        method(cls, "random", "groups.random")

    # autos: every automorphism class that defines its own apply
    for value in list(vars(autos).values()):
        if isinstance(value, type) and issubclass(value, autos.Automorphism) \
                and "apply" in value.__dict__ and value is not autos.Automorphism:
            method(value, "apply", f"autos.apply.{value.__name__}")
    function(autos, "verify_homomorphism", "autos.verify", keep_spans=True)

    # twisted
    function(twisted, "twist", "twisted.twist")
    function(twisted, "brute_force_partition", "twisted.partition",
             keep_spans=True, measure=_partition_measure)
    function(twisted, "additive_membership", "twisted.membership",
             keep_spans=True, measure=_membership_measure)
    function(twisted, "pair_distinctness", "twisted.pair_distinctness", keep_spans=True)
    function(twisted, "additive_class_count", "twisted.class_count", keep_spans=True)
    function(twisted, "classify_reflection", "twisted.classify", keep_spans=True)
    function(twisted, "solve_reflection_corner", "twisted.corner_solve", keep_spans=True)

    # linalg: every gf elimination runs through gf_rref or gf_det
    for attr in ("gf_rref", "gf_det"):
        function(linalg, attr, "linalg.elim", keep_spans=True, measure=_elim_measure)

    # the experiment helpers the workloads call
    function(lib.experiments, "relations_suite", "experiments.relations_suite",
             keep_spans=True)
    return dict(bound)


def layer_metrics(tracer, wall):
    """The per-layer metrics of a traced pass that took `wall` seconds on
    the same clock, by name.  Self times are given as shares of `wall`."""
    calls, extra = tracer.calls, tracer.extra
    frac = {name: t / wall for name, t in tracer.self_s.items()}

    def total(prefix, table):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    def share(name):
        return (frac.get(name, 0.0), "ratio")

    def ratio(num, den):
        return num / den if den else 0.0

    mul_calls = calls["poly.mul"]
    twists = extra["twisted.partition.twists"]
    membership_calls = calls["twisted.membership"]
    return {
        "rings.ops": (calls["rings.ops"], "count"),
        "rings.is_zero.calls": (calls["rings.is_zero"], "count"),
        "poly.mul.calls": (mul_calls, "count"),
        "poly.mul.self_frac": share("poly.mul"),
        "poly.mul.monomial_frac": (ratio(extra["poly.mul.monomial"], mul_calls), "ratio"),
        "poly.mul.coeff_products": (extra["poly.mul.coeff_products"], "count"),
        "poly.add.self_frac": share("poly.add"),
        "poly.subst.calls": (calls["poly.subst"], "count"),
        "poly.subst.self_frac": share("poly.subst"),
        "groups.mul.calls": (calls["groups.mul"], "count"),
        "groups.mul.self_frac": share("groups.mul"),
        "groups.inv.self_frac": share("groups.inv"),
        "groups.random.self_frac": share("groups.random"),
        "autos.apply.calls": (total("autos.apply", calls), "count"),
        "autos.apply.self_frac": (total("autos.apply", frac), "ratio"),
        "autos.apply.Flip.self_frac": share("autos.apply.Flip"),
        "twisted.twist.calls": (calls["twisted.twist"], "count"),
        "twisted.twist.self_frac": share("twisted.twist"),
        "twisted.partition.twists": (twists, "count"),
        "twisted.partition.merge_frac": (ratio(extra["twisted.partition.merges"], twists),
                                         "ratio"),
        "twisted.membership.calls": (membership_calls, "count"),
        "twisted.membership.rounds": (ratio(extra["twisted.membership.rounds"],
                                            membership_calls), "rounds"),
        "twisted.membership.self_frac": share("twisted.membership"),
        "twisted.class_count.self_frac": share("twisted.class_count"),
        "twisted.classify.self_frac": share("twisted.classify"),
        "twisted.corner_solve.self_frac": share("twisted.corner_solve"),
        "linalg.elim.calls": (calls["linalg.elim"], "count"),
        "linalg.elim.self_frac": share("linalg.elim"),
        "linalg.elim.cells": (extra["linalg.elim.cells"], "count"),
    }
