"""Every name a package module imports is used in that module.

An unused-import check on the standard library's ast alone, so the suite
needs no linter.  __init__.py only re-exports, and `from __future__
import annotations` binds no name, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "detcircuits"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_flags_a_dead_name():
    source = "import os.path\nfrom math import lcm, prod as p\np([os])\n"
    assert unused_imports(source) == ["line 2: lcm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
