"""Guards against dead library code.

A top-level function or class of src/twistconj is live when some src
module reads its name outside its own definition, or when the benchmark
in perfbench/ reads it (as an attribute, or as a string handed to
getattr).  A method of a src class (dunders aside) is live when its name
is read as an attribute, a name or an identifier string in src outside
its own definition, or anywhere in perfbench/; a method is matched by
name alone, so one read keeps every method of that name.  Names reached
only from tests/ do not count.  Every name a src module imports must be
used in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twistconj"
BENCH = ROOT / "perfbench"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(node, skip=None, strings=False):
    """Identifiers read as names or attributes under node, and with
    strings=True the identifier strings too, not descending into the
    subtree skip."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            out.add(n.value)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _src_trees():
    return {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}


def _bench_names():
    out = set()
    for path in BENCH.glob("*.py"):
        out |= _referenced(_parse(path), strings=True)
    return out


def test_every_top_level_definition_is_reached():
    trees = _src_trees()
    bench = _bench_names()
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            used = node.name in bench or any(
                node.name in _referenced(other, skip=node) for other in trees.values())
            if not used:
                dead.append(f"{name}:{node.name}")
    assert not dead, f"defined but reached by no src module or benchmark: {dead}"


def test_every_method_is_reached():
    trees = _src_trees()
    bench = _bench_names()
    dead = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or (node.name.startswith("__") and node.name.endswith("__")):
                    continue
                used = node.name in bench or any(
                    node.name in _referenced(other, skip=node, strings=True)
                    for other in trees.values())
                if not used:
                    dead.append(f"{name}:{cls.name}.{node.name}")
    assert not dead, f"methods reached by no src module or benchmark: {dead}"


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        # names a package __init__ re-exports through __all__ count as used
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}:{bound}")
    assert not unused, f"imported but unused: {unused}"


def test_values_fill_their_slots_through_the_descriptors():
    # the immutable values of the library fill their slots through the
    # slot descriptors in one idiom; no object.__setattr__ remains
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__" \
                    and isinstance(node.value, ast.Name) and node.value.id == "object":
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"object.__setattr__ in: {calls}"


def test_library_arithmetic_divides_instead_of_multiplying_by_an_inverse():
    # a * b.inv() builds b^-1 only to multiply it away: the group layers
    # divide (a.div(b), group.div(a, b)) instead
    found = []
    for name in ("groups.py", "autos.py", "twisted.py"):
        for node in ast.walk(_parse(SRC / name)):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
                    and isinstance(node.right, ast.Call) \
                    and isinstance(node.right.func, ast.Attribute) \
                    and node.right.func.attr == "inv":
                found.append(f"{name}:{node.lineno}")
    assert not found, f"products by an inverse in: {found}"


def test_polynomials_are_built_through_the_ring():
    # PolyRing._of is the one builder that hands out the shared zero and
    # the unit-table objects, so a raw Poly(...) is built only by the ring
    # itself and at Poly.__mul__'s two returns of products of two or more
    # terms, which in a domain keep two or more terms: never zero, never a
    # unit
    allowed = {("PolyRing", "__init__"), ("PolyRing", "_of"), ("PolyRing", "_unit")}
    found, mul_returns = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        scopes = {}
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        for node in ast.walk(fn):
                            scopes[node] = (cls.name, fn.name)
        returned = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Return)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "Poly"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "Poly")):
                continue
            scope = scopes.get(node)
            if scope in allowed:
                continue
            if scope == ("Poly", "__mul__") and id(node) in returned:
                mul_returns += 1
                continue
            found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raw Poly(...) builds outside PolyRing._of: {found}"
    assert mul_returns == 2


def test_only_run_criterion_names_and_times_a_criterion():
    # a criterion_* returns (passed, detail); run_criterion is the one
    # place that builds an ExperimentResult and reads the clock around it
    clocks = {"time", "perf_counter", "monotonic", "process_time"}
    builds, timed = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            name = getattr(node, "name", None)
            if name and name.startswith("criterion_") and clocks & _referenced(node):
                timed.append(f"{path.name}:{name}")
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and "ExperimentResult" in _referenced(call.func):
                    builds.append((path.name, name))
    assert not timed, f"criteria that read the clock: {timed}"
    assert builds and set(builds) == {("experiments.py", "run_criterion")}, \
        f"ExperimentResult built in: {builds}"


def test_only_main_resolves_prints_and_reports_the_seed():
    # main resolves the seed once, prints the seed= line and stores it on
    # args; the one report writer adds the "seed" key, so no subcommand
    # and no math module builds it by hand
    def prints_seed(call):
        return isinstance(call.func, ast.Name) and call.func.id == "print" \
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and c.value.startswith("seed=")
                    for arg in call.args for c in ast.walk(arg))

    def seed_dict(node):
        return isinstance(node, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value == "seed" for k in node.keys) \
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "dict" and any(k.arg == "seed" for k in node.keywords)

    resolves, prints, builds = set(), set(), []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "_seed_of" in _referenced(node.func):
                    resolves.add((path.name, fn.name))
                if isinstance(node, ast.Call) and prints_seed(node):
                    prints.add((path.name, fn.name))
                if seed_dict(node) and (fn.name.startswith("cmd_")
                                        or path.name == "twisted.py"):
                    builds.append(f"{path.name}:{fn.name}")
    assert resolves == {("cli.py", "main")}, f"_seed_of called in: {resolves}"
    assert prints == {("cli.py", "main")}, f"seed= printed in: {prints}"
    assert not builds, f"hand-built seed keys in: {builds}"


def test_no_method_is_a_bare_not_implemented_stub():
    # a base-class method whose whole body, a docstring aside, is a bare
    # raise NotImplementedError does nothing that a missing attribute does
    # not: the subclasses' own definitions are the protocol
    def bare(stmt):
        if not isinstance(stmt, ast.Raise):
            return False
        exc = stmt.exc
        if isinstance(exc, ast.Call) and not exc.args and not exc.keywords:
            exc = exc.func
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"

    stubs = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                body = fn.body
                if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                        and isinstance(body[0].value.value, str):
                    body = body[1:]
                if len(body) == 1 and bare(body[0]):
                    stubs.append(f"{path.name}:{cls.name}.{fn.name}")
    assert not stubs, f"methods that only raise NotImplementedError: {stubs}"
