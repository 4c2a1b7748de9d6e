"""Every module-level import in the package, the tests and the demos is used.

The package ``__init__.py`` only re-exports, and ``from __future__ import
annotations`` binds no name, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "demos")
               for path in (ROOT / folder).rglob("*.py")
               if path != ROOT / "src" / "oam_eraser" / "__init__.py")


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name a module-level import binds and the
    module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys, pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "tau")]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
