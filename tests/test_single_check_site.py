"""A Circuit or PfaffianCircuit checks itself once, when built.

So `validate` and `validate_pfaffian` are each called from exactly one
place in the package, their type's __post_init__, and no consumer re-checks
a circuit it is handed.  An ast scan, like tests/test_imports_used.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detcircuits"
CHECKS = {"validate": "Circuit.__post_init__",
          "validate_pfaffian": "PfaffianCircuit.__post_init__"}


def check_calls(source: str) -> list[tuple[str, str]]:
    """(check name, enclosing class and function names) for each call of a check."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = where + (child.name,)
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in CHECKS:
                    found.append((name, ".".join(where)))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def test_check_calls_flags_a_stray_call():
    source = ("class Circuit:\n"
              "    def __post_init__(self):\n"
              "        validate(self)\n"
              "def collapse(c):\n"
              "    circuit.validate(c)\n"
              "    return [validate_pfaffian(p) for p in c]\n")
    assert check_calls(source) == [("validate", "Circuit.__post_init__"),
                                   ("validate", "collapse"),
                                   ("validate_pfaffian", "collapse")]


def test_each_check_runs_only_in_its_constructor():
    calls = [call for path in sorted(SRC.glob("*.py"))
             for call in check_calls(path.read_text(encoding="utf-8"))]
    assert sorted(calls) == sorted(CHECKS.items())
