"""The package surface carries nothing unused.

Two checks over ``src/stochorder`` with the standard-library ``ast`` only:

* every import binds a name the module uses (the package root's re-exports
  count through ``__all__``);
* every public module-level name (function, class or assignment not
  starting with ``_``) is referenced somewhere besides its own definition,
  in ``src/``, ``bench/`` or ``README.md``.  Names appearing in string
  constants count, because the benchmark tracer patches library names by
  string.  The pointwise reference functions in ``ORACLES`` are exempt: the
  library computes the same quantities on grids, and the tests use these as
  independent references.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stochorder"
MODULES = sorted(PACKAGE.glob("*.py"))

ORACLES = (
    "orders.ttt_transform",
    "orders.mit_transform",
    "orders.excess_wealth",
    "orders.dmrl_integral",
    "orders.dmrl_two_point_table",
    "copulas.boundary_section",
)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def _references() -> set:
    """Every identifier used, outside a definition, in src/, bench/ or README."""
    refs = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.update(_IDENTIFIER.findall(node.value))
    refs.update(_IDENTIFIER.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    return refs


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
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
