"""Static checks on the engine's own source, using only the standard library."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "catend"
# Every engine def needs a caller in the engine itself, the CLI or the bench;
# a def only tests call is a fixture or an oracle and belongs in tests/.
CALLER_DIRS = ("src", "perfbench")
# Hooks an ambient may override; the base definition ignores its arguments.
UNUSED_PARAMETER_ALLOWED = {"core.Ambient.limit_data"}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced as a name."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detector_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from json import dumps, loads as parse\n"
              "print(os.sep, parse)\n")
    assert unused_imports(source) == ["dumps", "system"]


def _unused_imports_by_file(modules) -> dict[str, list[str]]:
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    return {name: names for name, names in found.items() if names}


def test_no_unused_imports_in_engine_modules():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    assert _unused_imports_by_file(modules) == {}


def test_no_unused_imports_in_tests():
    modules = sorted((ROOT / "tests").glob("*.py"))
    assert len(modules) >= 10
    assert _unused_imports_by_file(modules) == {}


def _functions(tree: ast.AST, prefix: str):
    """(qualified name, node, is a method) for every def in the tree, nested ones too."""
    def walk(node, qual, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qual}.{child.name}"
                yield name, child, in_class
                yield from walk(child, name, False)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{qual}.{child.name}", True)
            else:
                yield from walk(child, qual, in_class)
    yield from walk(tree, prefix, False)


def uncalled_functions(sources: dict[str, str], defining: list[str]) -> list[str]:
    """Functions defined in the files ``defining`` that no code in ``sources``
    (file name -> source) names outside their own body.  Dunder methods are
    called implicitly and skipped."""
    mentions = defaultdict(list)  # name -> [(file, line)]
    for f, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                mentions[node.id].append((f, node.lineno))
            elif isinstance(node, ast.Attribute):
                mentions[node.attr].append((f, node.lineno))
    out = []
    for f in defining:
        for qual, node, _ in _functions(ast.parse(sources[f]), Path(f).stem):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(g != f or line not in inside for g, line in mentions[node.name]):
                out.append(qual)
    return sorted(out)


def unused_parameters(source: str, module: str) -> list[str]:
    """'<function>(<parameter>)' for each parameter a non-abstract def never reads.

    The first parameter of a method (``self`` or ``cls``) is not counted.
    """
    out = []
    for qual, node, is_method in _functions(ast.parse(source), module):
        decorators = {d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")
                      for d in node.decorator_list}
        if "abstractmethod" in decorators:
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        if is_method and "staticmethod" not in decorators:
            params = params[1:]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend(f"{qual}({p})" for p in params if p not in read)
    return out


def _sources(*dirs: str) -> dict[str, str]:
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
            for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def test_detector_flags_an_uncalled_function():
    m = ("class C:\n"
         "    def __init__(self):\n"
         "        self.used()\n"
         "    def used(self):\n"
         "        pass\n"
         "    def dead(self):\n"
         "        pass\n"
         "def recurse(n):\n"
         "    return recurse(n - 1)\n"
         "def helper():\n"
         "    pass\n")
    assert uncalled_functions({"m.py": m}, ["m.py"]) == ["m.C.dead", "m.helper", "m.recurse"]
    sources = {"m.py": m, "t.py": "helper(); recurse(3)\n"}
    assert uncalled_functions(sources, ["m.py"]) == ["m.C.dead"]


def _callers_and_engine_files(sources: dict[str, str]) -> tuple[dict[str, str], list[str]]:
    """The sources under CALLER_DIRS, and which of them define the engine."""
    callers = {f: s for f, s in sources.items() if f.split("/")[0] in CALLER_DIRS}
    return callers, [f for f in callers if f.startswith("src/catend/")]


def engine_uncalled(sources: dict[str, str]) -> list[str]:
    """Engine defs that no file under CALLER_DIRS names."""
    return uncalled_functions(*_callers_and_engine_files(sources))


def test_detector_ignores_test_callers():
    engine = "def build():\n    pass\ndef fixture():\n    pass\n"
    sources = {"src/catend/quantale.py": engine, "perfbench/b.py": "build()\n",
               "tests/t.py": "fixture()\n"}
    assert uncalled_functions(sources, ["src/catend/quantale.py"]) == []
    assert engine_uncalled(sources) == ["quantale.fixture"]


def test_every_engine_function_has_a_caller():
    sources = _sources(*CALLER_DIRS)
    assert sum(f.startswith("src/catend/") for f in sources) >= 10
    assert engine_uncalled(sources) == []


HELPERS = "tests/helpers.py"


def unused_helpers(sources: dict[str, str]) -> list[str]:
    """Defs in HELPERS that neither a ``tests/test_*.py`` file nor another
    helper names."""
    tests = {f: s for f, s in sources.items()
             if f == HELPERS or Path(f).name.startswith("test_")}
    return uncalled_functions(tests, [HELPERS])


def test_detector_flags_an_unused_helper():
    helpers = ("def oracle():\n    return _scan()\n"
               "def _scan():\n    pass\n"
               "def fixture():\n    pass\n"
               "def stale():\n    pass\n")
    sources = {HELPERS: helpers, "tests/test_a.py": "oracle()\n",
               "tests/conftest.py": "fixture()\n", "src/catend/m.py": "stale()\n"}
    assert unused_helpers(sources) == ["helpers.fixture", "helpers.stale"]


def test_every_test_helper_is_used():
    sources = _sources("tests")
    assert HELPERS in sources
    assert unused_helpers(sources) == []


# Defaulted parameters that no caller under CALLER_DIRS sets, kept on purpose:
# synthesize_cocone(objects) is the explicit universe that colimits in finite
# sets need (ROADMAP item 6); quantales use their own element list.
UNSET_DEFAULT_ALLOWED = {"cocompletion.synthesize_cocone(objects)"}


def _passes(call: ast.Call, param: str, positional: list[str]) -> bool:
    """Whether ``call`` sets ``param`` by keyword, by position or by a starred argument."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(x, ast.Starred) for x in call.args):
        return True
    return param in positional and positional.index(param) < len(call.args)


def unset_defaults(sources: dict[str, str], defining: list[str]) -> list[str]:
    """'<def>(<parameter>)' for each defaulted parameter of a def in the files
    ``defining`` that no call in ``sources`` passes.

    Calls are matched by name, a class name standing for its ``__init__``.
    A call passes a parameter by keyword, by position, or through a starred
    argument.  The first parameter of a method is bound, not passed.
    """
    calls = defaultdict(list)  # callee name -> [ast.Call]
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls[name].append(node)
    out = []
    for f in defining:
        for qual, node, is_method in _functions(ast.parse(sources[f]), Path(f).stem):
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            if is_method and "staticmethod" not in {getattr(d, "id", "") for d in node.decorator_list}:
                positional = positional[1:]
            defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            callee = qual.split(".")[-2] if node.name == "__init__" else node.name
            out.extend(f"{qual}({p})" for p in defaulted
                       if not any(_passes(c, p, positional) for c in calls[callee]))
    return sorted(out)


def engine_unset_defaults(sources: dict[str, str]) -> list[str]:
    """Defaulted engine parameters that no file under CALLER_DIRS sets."""
    return unset_defaults(*_callers_and_engine_files(sources))


def test_detector_flags_a_default_no_caller_sets():
    m = ("class R:\n"
         "    def __init__(self, name='', size=1):\n"
         "        pass\n"
         "    def add(self, x, tag='', *, loud=False):\n"
         "        pass\n"
         "def f(a, b=0, c=1):\n"
         "    def inner(y, v=2):\n"
         "        return y\n"
         "    return inner(a)\n"
         "def g(a, b=0):\n"
         "    return f(a, *a)\n"
         "R(size=2).add(1, 'x')\n")
    assert unset_defaults({"m.py": m}, ["m.py"]) == [
        "m.R.__init__(name)", "m.R.add(loud)", "m.f.inner(v)", "m.g(b)"]
    sources = {"src/catend/m.py": m, "tests/t.py": "g(1, 2)\nR(name='r')\n",
               "perfbench/b.py": "x.add(1, loud=True)\n"}
    assert engine_unset_defaults(sources) == [
        "m.R.__init__(name)", "m.f.inner(v)", "m.g(b)"]


def test_every_engine_default_is_set_by_a_caller():
    found = engine_unset_defaults(_sources(*CALLER_DIRS))
    assert UNSET_DEFAULT_ALLOWED <= set(found)   # no stale allow-list entry
    assert sorted(set(found) - UNSET_DEFAULT_ALLOWED) == []


def test_detector_flags_an_unused_parameter():
    source = ("from abc import abstractmethod\n"
              "class C:\n"
              "    def m(self, a, b):\n"
              "        return a\n"
              "    @abstractmethod\n"
              "    def hook(self, x): ...\n"
              "def f(x, *args, y, **kw):\n"
              "    def inner(z):\n"
              "        return x + y\n"
              "    return inner, kw\n")
    assert unused_parameters(source, "m") == [
        "m.C.m(b)", "m.f(args)", "m.f.inner(z)"]


def test_no_unused_parameters_in_engine_functions():
    found = [u for p in sorted(SRC.glob("*.py"))
             for u in unused_parameters(p.read_text(encoding="utf-8"), p.stem)
             if u.split("(")[0] not in UNUSED_PARAMETER_ALLOWED]
    assert found == []


def calls_outside(source: str, module: str, callee: str, *allowed: str) -> list[str]:
    """'<enclosing def>:<line>' for each call of ``callee`` (a bare or dotted
    name) outside the defs ``allowed``; '<module>' when no def encloses it."""
    tree = ast.parse(source)
    defs = [(qual, node) for qual, node, _ in _functions(tree, module)]
    out = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name != callee:
            continue
        enclosing = [(node.lineno, qual) for qual, node in defs
                     if node.lineno <= call.lineno <= node.end_lineno]
        qual = max(enclosing)[1] if enclosing else module
        if qual not in allowed:
            out.append(f"{qual}:{call.lineno}")
    return sorted(out)


def test_detector_flags_a_call_outside_its_def():
    source = ("class Q:\n"
              "    def __init__(self, ks):\n"
              "        self.t = {k: Arrow(*k) for k in ks}\n"
              "    def hom(self, a, b):\n"
              "        return [Arrow(a, b)]\n"
              "def make():\n"
              "    return core.Arrow('x', 'y')\n"
              "TOP = Arrow('t', 't')\n")
    assert calls_outside(source, "m", "Arrow", "m.Q.__init__") == [
        "m.Q.hom:5", "m.make:7", "m:8"]


def test_quantale_arrows_are_built_only_in_the_constructor():
    source = (SRC / "quantale.py").read_text(encoding="utf-8")
    assert calls_outside(source, "quantale", "Arrow", "quantale.QuantaleInstance.__init__") == []


# The ambients build their own arrows; every other module reads them from an
# ambient's hom, identity or compose.
ARROW_BUILDERS = {"core", "quantale", "finset"}


def arrows_built_outside_ambients(sources: dict[str, str]) -> list[str]:
    """'<def>:<line>' for each ``Arrow`` call in a module (file name -> source)
    that is not one of ARROW_BUILDERS."""
    return sorted(c for f, source in sources.items() if Path(f).stem not in ARROW_BUILDERS
                  for c in calls_outside(source, Path(f).stem, "Arrow"))


def test_detector_flags_an_arrow_built_outside_the_ambients():
    sources = {"finset.py": "def hom(a, b):\n    return [Arrow(a, b, ())]\n",
               "limits.py": ("def refine(A, w):\n    return A.identity(w)\n"
                             "def fallback(w):\n    return core.Arrow(w, w)\n"),
               "cli.py": "ID = Arrow('x', 'x')\n"}
    assert arrows_built_outside_ambients(sources) == ["cli:1", "limits.fallback:4"]


def test_arrows_are_built_only_by_the_ambients():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert ARROW_BUILDERS <= {Path(f).stem for f in sources}
    assert arrows_built_outside_ambients(sources) == []


LEG_CALLEES = ("domain_arrows", "cov", "contra")


def leg_derivations_outside(source: str, module: str, allowed: tuple[str, ...]) -> list[str]:
    """Calls of ``domain_arrows``, ``cov`` or ``contra`` outside the defs ``allowed``."""
    return sorted(c for callee in LEG_CALLEES
                  for c in calls_outside(source, module, callee, *allowed))


def test_detector_flags_a_leg_derived_outside_the_table():
    source = ("class B:\n"
              "    @cached_property\n"
              "    def legs(self):\n"
              "        return [(f, self.cov(f), self.contra(f)) for f in domain_arrows(self)]\n"
              "def laws(B):\n"
              "    return [B.cov(f) for f in domain_arrows(B)]\n"
              "def scan(B):\n"
              "    return [B.contra(f) for f, _, _ in B.legs]\n"
              "def cone(B, fam):\n"
              "    return {f: B.cov(f) for f in domain_arrows(B)}\n")
    assert leg_derivations_outside(source, "m", ("m.B.legs", "m.laws")) == [
        "m.cone:10", "m.cone:10", "m.scan:8"]


def test_ends_derives_bifunctor_actions_only_in_the_leg_table():
    source = (SRC / "ends.py").read_text(encoding="utf-8")
    allowed = ("ends.Bifunctor.legs", "ends.bifunctor_violations")
    assert leg_derivations_outside(source, "ends", allowed) == []


def files_naming(sources: dict[str, str], name: str) -> list[str]:
    """The files (keys of ``sources``) that name ``name``: in a def, as a bare
    name, as an attribute, or in an import."""
    out = []
    for f, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.FunctionDef) and node.name == name
                    or isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and name in (node.name, node.asname)):
                out.append(f)
                break
    return sorted(out)


def test_detector_flags_every_way_of_naming():
    sources = {"a.py": "def enumerate_cones(A, d):\n    pass\n",
               "b.py": "from .limits import enumerate_cones as ec\n",
               "c.py": "from . import limits\nlimits.enumerate_cones(A, d)\n",
               "d.py": "cones = competing_cones(A, d)\nenumerate = 1\n"}
    assert files_naming(sources, "enumerate_cones") == ["a.py", "b.py", "c.py"]


def test_competing_cones_are_chosen_only_in_limits():
    # every universality replay takes its competitors from limits.competing_cones,
    # so an ambient that cannot enumerate its cones is handled in one place
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert files_naming(sources, "enumerate_cones") == ["limits.py"]
