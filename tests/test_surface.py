"""The package surface carries nothing unused.

Checks over ``src/stochorder`` with the standard-library ``ast`` only:

* every import binds a name the module uses (the package root's re-exports
  count through ``__all__``), and so does every import in ``tests/``;
* every public module-level name (function, class or assignment not
  starting with ``_``) is referred to by live code in ``src/`` or
  ``bench/``: a loaded name, an attribute or an import, or in ``bench/`` a
  string constant that is the name itself, because the benchmark tracer
  patches library names by string.  A definition only dead code refers to
  is dead too.  Words in docstrings, comments and README prose do not
  count, and neither do the tests: a reference only the tests use lives in
  ``tests/``.  ``ORACLES`` lists the exceptions;
* ``isinstance(..., np.ndarray)``, the test a float branch beside an array
  path starts with, occurs only in the definitions of ``ARRAY_TESTS``: a
  function of one point has one implementation, on arrays, and floats
  reach it through ``numerics.on_arrays``.  Compiled expressions are such
  functions: one evaluator, no float closures beside it;
* no function that takes arguments sits under an unbounded cache
  (``functools.cache``, ``lru_cache(maxsize=None)``), as a decorator or
  wrapped by a call: zero-argument builders may.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stochorder"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))

# pointwise references that only the tests call.  They stay in src/ because
# they are the only callers of edge_ladder_integral in orders and
# distributions, which bench/tracer.py patches by name in both modules
ORACLES = (
    "distributions.mean",
    "orders.ttt_transform",
    "orders.mit_transform",
    "orders.excess_wealth",
)

# the only definitions that may branch on floats; every other function of
# one point, compiled expressions included, runs arrays alone
ARRAY_TESTS = (
    "numerics.lift",           # an outside callable meets floats or arrays
    "numerics.each",           # math functions entry by entry
    "numerics.on_arrays",      # the one way in for a float
    "distributions.distort",   # the float memo, read by profilers
)

def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dunder_all(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(path: Path) -> list:
    tree = _tree(path)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    loaded |= _dunder_all(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loaded:
                    unused.append(f"{path.stem}: {bound} (line {node.lineno})")
    return unused


def _public_definitions(path: Path) -> list:
    names = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _refers_to(tree: ast.AST, strings: bool = False) -> set:
    """The identifiers tree refers to: loaded names, attributes, imported
    names and, with strings, string constants that are one identifier."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            refs.add(node.value)
    return refs


def _references() -> set:
    """The identifiers that live code refers to.

    Live code is all of bench/, the module-level statements of src/ (its
    imports only in the package root, whose imports are re-exports), and
    every top-level definition of src/ that live code refers to, so a
    function that only a dead function calls is dead too."""
    refs = set()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        refs |= _refers_to(_tree(path), strings=True)
    definitions = {}
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
            elif (path.name == "__init__.py"
                  or not isinstance(node, (ast.Import, ast.ImportFrom))):
                refs |= _refers_to(node)
    live = set(definitions) & refs
    while live:
        for name in live:
            for node in definitions.pop(name):
                refs |= _refers_to(node)
        live = set(definitions) & refs
    return refs


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=[p.stem for p in MODULES + TEST_MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_every_public_name_is_used():
    refs = _references()
    unused = [f"{path.stem}.{name}" for path in MODULES
              for name in _public_definitions(path)
              if name not in refs and f"{path.stem}.{name}" not in ORACLES]
    assert unused == []


def test_oracles_exist():
    # an oracle that was renamed or deleted must leave the exemption list too
    for qualified in ORACLES:
        module, name = qualified.split(".")
        assert name in _public_definitions(PACKAGE / f"{module}.py"), qualified


def _array_tests(path: Path) -> set:
    """Qualified names of the top-level definitions in path that test
    whether a value is an np.ndarray."""
    found = set()
    for top in _tree(path).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(n, ast.Attribute) and n.attr == "ndarray"
                            for n in ast.walk(node.args[1]))):
                found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_float_branches_only_where_allowed():
    found = set().union(*(_array_tests(path) for path in MODULES))
    # a definition that no longer tests must leave the list too
    assert found == set(ARRAY_TESTS)


def _unbounded(decorator: ast.expr) -> bool:
    """decorator is functools.cache or lru_cache(maxsize=None), however
    imported."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    if name(decorator) == "cache":
        return True
    if not (isinstance(decorator, ast.Call) and name(decorator.func) == "lru_cache"):
        return False
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def _takes_arguments(fn: ast.FunctionDef) -> bool:
    args = fn.args
    return bool(args.posonlyargs or args.args or args.vararg
                or args.kwonlyargs or args.kwarg)


def _unbounded_caches(path: Path) -> list:
    """Functions of path that take arguments under an unbounded cache, as a
    decorator or wrapped by a call cache(fn) / lru_cache(maxsize=None)(fn)."""
    tree = _tree(path)
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    cached = [fn for fn in functions.values() if any(map(_unbounded, fn.decorator_list))]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _unbounded(node.func) and node.args
                and isinstance(node.args[0], ast.Name) and node.args[0].id in functions):
            cached.append(functions[node.args[0].id])
    return [f"{path.stem}.{fn.name}" for fn in cached if _takes_arguments(fn)]


def test_no_unbounded_cache_on_a_function_of_arguments():
    # a cache keyed by its arguments grows with every distinct call: a
    # process asking for many large grids or tables would hold them all.
    # Zero-argument builders (one value per process) may keep it unbounded
    found = [name for path in MODULES for name in _unbounded_caches(path)]
    assert found == []


@pytest.mark.parametrize("source, found", [
    ("import functools\n@functools.cache\ndef f(n): pass", ["m.f"]),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(*a): pass", ["m.f"]),
    ("import functools\n@functools.lru_cache(None)\ndef f(*, k): pass", ["m.f"]),
    ("import functools\ndef f(n): pass\ng = functools.lru_cache(maxsize=None)(f)", ["m.f"]),
    ("import functools\ndef f(n): pass\ng = functools.cache(f)", ["m.f"]),
    ("import functools\n@functools.cache\ndef f(): pass", []),
    ("import functools\ndef f(): pass\ng = functools.lru_cache(maxsize=None)(f)", []),
    ("import functools\n@functools.lru_cache(maxsize=8)\ndef f(n): pass", []),
    ("import functools\n@functools.lru_cache\ndef f(n): pass", []),
], ids=["cache", "lru-none-keyword", "lru-none-positional", "wrapped-lru",
        "wrapped-cache", "zero-args", "wrapped-zero-args", "bounded", "bare-lru"])
def test_unbounded_cache_check_sees(tmp_path, source, found):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    assert _unbounded_caches(path) == found
