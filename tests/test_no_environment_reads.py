"""No package module reads the environment.

A run depends on its arguments and input files only: the oracle caps and
every other limit are module constants.  This scans each module's AST
for `os.environ`, `os.getenv`, and `environ` or `getenv` imported from
`os` by name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "detcircuits"
MODULES = sorted(SRC.glob("*.py"))
ENV_NAMES = {"environ", "getenv"}


def environment_reads(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {a.name}"
                      for a in node.names if a.name in ENV_NAMES]
    return sorted(found)


def test_environment_reads_flags_each_form():
    source = ("import os\nfrom os import getenv, path\nfrom os import environ as env\n"
              "a = os.environ.get('X')\nb = os.getenv('Y')\nc = os.path.sep\n")
    assert environment_reads(source) == [
        "line 2: from os import getenv", "line 3: from os import environ",
        "line 4: os.environ", "line 5: os.getenv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []
