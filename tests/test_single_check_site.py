"""A Circuit or PfaffianCircuit checks itself once, when built, and knows
its field.

So `validate` and `validate_pfaffian` are each called from exactly one
place in the package, their type's __post_init__, and no consumer re-checks
a circuit it is handed.  In circuit, tensor and pfaffian the entry type scan
`grid_is_exact` runs only in the two `exact` properties and in `pfaffian`
and `pfaffian_oracle`, which take bare grids; every other consumer reads
`exact`.

The trusted constructor `labeled._trusted`, which skips __post_init__, is
read only in compile_circuit, transfer_matrix and parse_graph, the code
that builds or has just checked what it holds; parse_circuit and
parse_pfaffian build each gate through its checked constructor.  Only the
two parsers record a circuit's field.

Each rule for building a gate has one home too: entry types are normalized
only in normalize_grid (the one reader of normalize_scalar), and label
lists are checked for repeats only by _check_labels, which only the
LabeledMatrix and SkewMatrix constructors read.  An ast scan, like
tests/test_imports_used.py.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "detcircuits"
CHECKS = {"validate": "Circuit.__post_init__",
          "validate_pfaffian": "PfaffianCircuit.__post_init__"}
FIELD_MODULES = ("circuit.py", "tensor.py", "pfaffian.py")
TRUSTED_READERS = ["compile_circuit", "parse_graph", "transfer_matrix"]
RULE_READERS = {"normalize_scalar": ["normalize_grid"],
                "_check_labels": ["LabeledMatrix.__post_init__", "SkewMatrix.__post_init__"]}
FIELD_SETTERS = ["parse_circuit", "parse_pfaffian"]
FIELD_SCANS = [("grid_is_exact", "Circuit.exact"), ("grid_is_exact", "PfaffianCircuit.exact"),
               ("grid_is_exact", "pfaffian"), ("grid_is_exact", "pfaffian_oracle")]


def sites(source: str, hit) -> list[tuple[str, str]]:
    """(hit(node), enclosing class and function names) for each node of the
    source, other than a class or function definition, that hit names."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = where + (child.name,)
            else:
                name = hit(child)
                if name:
                    found.append((name, ".".join(where)))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def check_calls(source: str, names=CHECKS) -> list[tuple[str, str]]:
    """(name, enclosing class and function names) for each call of one of names."""
    def call(node):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            return name if name in names else None
    return sites(source, call)


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


def reads(source: str, name: str) -> list[str]:
    """Enclosing class and function names of each read of name, as a bare
    name, an attribute or a string constant, so an alias is seen too.  A
    definition or an import is not a read."""
    def read(node):
        return name if (isinstance(node, ast.Name) and node.id == name
                        and isinstance(node.ctx, ast.Load)
                        or isinstance(node, ast.Attribute) and node.attr == name
                        or isinstance(node, ast.Constant) and node.value == name) else None
    return [where for _, where in sites(source, read)]


def test_reads_flag_a_stray_caller_and_an_alias():
    source = ("from .labeled import _trusted\n"
              "def compile_circuit(c):\n"
              "    return _trusted(SkewMatrix, labels=())\n"
              "def collapse(c):\n"
              "    return labeled._trusted(LabeledMatrix, rows=())\n"
              "build = _trusted\n"
              "class Circuit:\n"
              "    _exact = False\n"
              "def evaluate(c):\n"
              "    object.__setattr__(c, '_exact', True)\n")
    assert reads(source, "_trusted") == ["compile_circuit", "collapse", ""]
    assert reads(source, "_exact") == ["evaluate"]


def test_the_trusted_constructor_runs_only_where_the_values_are_known():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert sorted({where for source in sources
                   for where in reads(source, "_trusted")}) == TRUSTED_READERS
    setters = {where for source in sources for where in reads(source, "_exact")}
    assert sorted(setters - {"Circuit.exact", "PfaffianCircuit.exact"}) == FIELD_SETTERS


@pytest.mark.parametrize("name", sorted(RULE_READERS))
def test_each_build_rule_is_read_only_in_its_home(name):
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert sorted({where for source in sources for where in reads(source, name)}) == RULE_READERS[name]
