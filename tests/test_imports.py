"""Every name a module of the package imports is used in that module, and
every private top-level name it defines is used somewhere.

No linter is a dependency, so these are the guards against dead imports
and dead private helpers. Each module under src/mdconst is parsed with
``ast``: every name an ``import`` binds must appear as a name in the
module (``from __future__`` imports are exempt), and every function,
class or constant it defines at top level under a name that starts with
``_`` must be read somewhere under src/, tests/ or mdbench/: as a name,
an attribute, an imported name or a string such as a ``getattr`` or
``monkeypatch.setattr`` target. A mention inside a docstring does not count.
"""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src" / "mdconst"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_only_unused_names():
    src = ("from __future__ import annotations\nimport os.path\nimport json\n"
           "from math import pi as PI, tau\nimport numpy as np\n"
           "np.sum(json.loads(PI))\n")
    assert unused_imports(src) == ["os", "tau"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def unused_private_names(source: str, refs_elsewhere: set[str]) -> list[str]:
    tree = ast.parse(source)
    return sorted(private_definitions(tree) - references(tree) - refs_elsewhere)


@functools.lru_cache(maxsize=None)
def file_references(path: pathlib.Path) -> frozenset[str]:
    return frozenset(references(ast.parse(path.read_text())))


def test_private_checker_flags_only_unreferenced_names():
    src = ("_A = 1\n_B: int = 2\nPUBLIC = _A\n\n"
           "def _f():\n    \"\"\"Not _g.\"\"\"\n\n"
           "def _g():\n    pass\n\nclass _C:\n    pass\n\ndef _h():\n    pass\n")
    other = ("import mod\nfrom mod import _f\nmod._C()\n"
             "getattr(mod, '_h')\nx = '_B is read here'\n")
    assert unused_private_names(src, references(ast.parse(other))) == ["_B", "_g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    files = [p for d in ("src", "tests", "mdbench") for p in (ROOT / d).rglob("*.py")]
    refs = set().union(*(file_references(p) for p in files if p != path))
    assert unused_private_names(path.read_text(), refs) == []
