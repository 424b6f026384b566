"""An int is an exact scalar, so the package never wraps an integer literal.

A seed for a sum or product, or a default, is `0` or `1`: the same exact
values as `Fraction(0)` or `Fraction(1)`, without the allocation.
An ast scan, like tests/test_single_check_site.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detcircuits"


def _is_int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def wrapped_int_literals(source: str) -> list[int]:
    """Line numbers of Fraction(<int literal>) calls, however Fraction is reached."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if (name == "Fraction" and len(node.args) == 1 and not node.keywords
                    and _is_int_literal(node.args[0])):
                found.append(node.lineno)
    return sorted(found)


def test_scan_flags_wrapped_int_literals():
    source = ("from fractions import Fraction\n"
              "import fractions\n"
              "a = Fraction(0)\n"
              "b = fractions.Fraction(-1)\n"
              "c = Fraction(1, 3)\n"
              "d = Fraction(x)\n"
              "e = Fraction('2')\n"
              "f = Fraction(True)\n"
              "g = [Fraction(+2) for _ in ()]\n")
    assert wrapped_int_literals(source) == [3, 4, 9]


def test_package_wraps_no_int_literal_in_fraction():
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := wrapped_int_literals(path.read_text(encoding="utf-8")))}
    assert found == {}
