"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this reads each module's syntax tree:
a name bound by an import must occur as a name somewhere in the module.
`__init__.py` is left out, since its imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mucut"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that source imports and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from m import a, b as c, d\n"
        "a(c.x)\n"
    )
    assert unused_imports(source) == ["d", "os", "regex"]


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert unused_imports(source) == []
