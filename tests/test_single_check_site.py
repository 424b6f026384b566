"""A Circuit or PfaffianCircuit checks itself once, when built, and knows
its field.

So `validate` and `validate_pfaffian` are each called from exactly one
place in the package, their type's __post_init__, and no consumer re-checks
a circuit it is handed.  In circuit, tensor and pfaffian the entry type scan
`grid_is_exact` runs only in the two `exact` properties and in `pfaffian`
and `pfaffian_oracle`, which take bare grids; every other consumer reads
`exact`.  An ast scan, like tests/test_imports_used.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detcircuits"
CHECKS = {"validate": "Circuit.__post_init__",
          "validate_pfaffian": "PfaffianCircuit.__post_init__"}
FIELD_MODULES = ("circuit.py", "tensor.py", "pfaffian.py")
FIELD_SCANS = [("grid_is_exact", "Circuit.exact"), ("grid_is_exact", "PfaffianCircuit.exact"),
               ("grid_is_exact", "pfaffian"), ("grid_is_exact", "pfaffian_oracle")]


def check_calls(source: str, names=CHECKS) -> list[tuple[str, str]]:
    """(name, enclosing class and function names) for each call of one of names."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = where + (child.name,)
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in names:
                    found.append((name, ".".join(where)))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def defined(source: str) -> set[str]:
    """Every name the source defines: functions, classes and assigned names."""
    names = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            names.add(n.id)
    return names


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


def test_field_scan_flags_a_stray_scan_and_a_private_helper():
    source = ("class Circuit:\n"
              "    @property\n"
              "    def exact(self):\n"
              "        return grid_is_exact(self.rows)\n"
              "def _is_exact(c):\n"
              "    return c.exact\n"
              "def collapse(c):\n"
              "    return scalars.grid_is_exact(c.rows)\n")
    assert check_calls(source, {"grid_is_exact"}) == [("grid_is_exact", "Circuit.exact"),
                                                      ("grid_is_exact", "collapse")]
    assert "_is_exact" in defined(source)
    assert "_is_exact" in defined("_is_exact = lambda c: c.exact\n")


def test_the_field_is_scanned_only_in_exact_and_the_bare_grid_pfaffians():
    sources = [(SRC / name).read_text(encoding="utf-8") for name in FIELD_MODULES]
    calls = [call for source in sources for call in check_calls(source, {"grid_is_exact"})]
    assert sorted(calls) == FIELD_SCANS
    assert not any("_is_exact" in defined(source) for source in sources)
