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

The same walk guards against dead fields: every field of a ``@dataclass``
under src/mdconst must be read somewhere under src/ or mdbench/, outside
the tests, as an attribute or as a string such as a ``getattr`` key.

Every top-level function and class under src/mdconst must also be read
outside the tests, somewhere under src/ or mdbench/, except the exact set
``TEST_ONLY``, so a new test-only helper cannot join the package unnoticed.

Last, the command line must not import ``qforms``, the tests' oracle.
"""

import ast
import functools
import os
import pathlib
import subprocess
import sys

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


#: Top-level names that only the tests read. The detection oracles live in
#: tests/oracles.py; ``qf_matrix`` joins them when ``qforms`` moves there
#: (item 12 of ROADMAP.md), and this set empties.
TEST_ONLY = {"qforms.qf_matrix"}


def runtime_files() -> list[pathlib.Path]:
    """The .py files under src/ and mdbench/, less the tests."""
    return [p for d in ("src", "mdbench") for p in (ROOT / d).rglob("*.py")
            if not p.name.startswith("test_")]


def test_every_function_and_class_is_read_outside_the_tests():
    refs = set().union(*(file_references(p) for p in runtime_files()))
    unread = {f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in refs}
    assert unread == TEST_ONLY


def dataclass_fields(tree: ast.Module) -> list[str]:
    """"Class.field" for every annotated field of a top-level @dataclass."""
    fields = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                   for d in decorators):
            continue
        fields += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                   if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return fields


def field_reads(tree: ast.Module) -> set[str]:
    """Attribute names read, and every string constant."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def unread_fields(source: str, reads: set[str]) -> list[str]:
    return sorted(f for f in dataclass_fields(ast.parse(source))
                  if f.split(".")[1] not in reads)


def test_field_checker_flags_only_unread_fields():
    src = ("import dataclasses\nfrom dataclasses import dataclass, field\n\n"
           "@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int\n"
           "    c: list = field(default_factory=list)\n    K = 3\n\n"
           "@dataclasses.dataclass\nclass B:\n    d: int\n    e: int = 0\n\n"
           "class C:\n    f: int\n")
    other = ("def g(x, y):\n    x.c = y.a\n    return getattr(x, 'e'), A(b=1)\n"
             "\n\"\"\"Not x.d.\"\"\"\n")
    assert unread_fields(src, field_reads(ast.parse(other))) == ["A.b", "A.c", "B.d"]


@functools.lru_cache(maxsize=None)
def file_field_reads(path: pathlib.Path) -> frozenset[str]:
    return frozenset(field_reads(ast.parse(path.read_text())))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_dataclass_fields(path):
    reads = set().union(*(file_field_reads(p) for p in runtime_files()))
    assert unread_fields(path.read_text(), reads) == []


def test_cli_does_not_import_qforms():
    # a fresh interpreter: the tests themselves import qforms
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, mdconst.cli; print('mdconst.qforms' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
