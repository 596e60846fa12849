"""Every name a module of the package imports is used in that module.

No linter is a dependency, so this is the guard against dead imports:
each module under src/mdconst is parsed with ``ast`` and every name an
``import`` binds must appear as a name in the module. ``from __future__``
imports are exempt.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src" / "mdconst"


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
