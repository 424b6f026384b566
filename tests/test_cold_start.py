"""A `detcirc` process imports only what its verb runs.

`import detcircuits.cli` loads neither `dataclasses` (with the `inspect`
it pulls in) nor the graph and oracle modules: `graphs` loads for the
graph verbs and `tensor` for the oracle verbs.  Nor does it load
`argparse` (with the `gettext` and `locale` it pulls in), which only help
and usage errors build.  A bare `import detcircuits` loads only
`labeled` and `pfaffian`, whose names it binds at once, and the `errors`
and `scalars` they import: every other exported name, and every submodule
asked for by name, loads through a module `__getattr__` on first use.
Module sets are read in a fresh interpreter, since this one has imported
everything the other tests use.
"""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import detcircuits

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
HEAVY = ("dataclasses", "inspect", "detcircuits.graphs", "detcircuits.tensor")
ARGPARSE = ("argparse", "gettext", "locale")

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "circuit": ["Circuit", "Stack", "collapse", "evaluate", "identity_wiring",
                "transfer_matrix", "validate", "wiring_matrix"],
    "compiler": ["CompiledCircuit", "compile_circuit"],
    "errors": ["DanglingWire", "DuplicateLabel", "LabelCollision", "LabelMismatch",
               "NotEndomorphism", "NotSkew", "ParseError", "SizeMismatch", "TooLarge",
               "ValidationError"],
    "formats": ["parse_circuit", "parse_graph", "parse_pfaffian", "write_circuit",
                "write_graph", "write_pfaffian"],
    "graphs": ["ForestPolynomial", "Graph", "count_rooted_forests", "count_spanning_trees",
               "enumerate_forests", "enumerate_trees", "forest_polynomial",
               "incidence_matrix", "laplacian", "laplacian_cofactor"],
    "labeled": ["LabeledMatrix", "compose", "direct_sum", "identity", "labeled",
                "permutation_matrix", "principal_minor_sum", "submatrix"],
    "pfaffian": ["PfaffianCircuit", "SkewMatrix", "eval_pfaffian_circuit", "pfaffian",
                 "pfaffian_oracle", "skew", "validate_pfaffian"],
    "scalars": ["Scalar", "format_scalar", "parse_scalar", "scalars_equal"],
    "tensor": ["Multicycle", "Tensor", "contract_circuit", "enumerate_multicycles",
               "eval_pfaffian_oracle", "multicycle_total", "sdet_expand", "spf", "spf_dual",
               "tensor_compose", "tensor_product", "tensor_trace"],
}


def fresh(script: str):
    """What script prints as JSON, run in a new interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


VERB_SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
loaded = {}
import detcircuits.cli as cli
loaded["import"] = sorted(set(sys.modules) - before)
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded[argv[0]] = sorted(set(sys.modules) - before)
print(json.dumps(loaded))
"""


def test_each_verb_loads_only_what_it_runs(tmp_path):
    ring, pf = str(DATA / "ring3.circuit"), str(tmp_path / "ring3.pf")
    argvs = [["eval", ring], ["compile", ring, "-o", pf, "--field", "rational"],
             ["pfeval", pf, "--field", "rational"],
             ["forests", str(DATA / "triangle.graph")],
             ["oracle", ring]]
    loaded = fresh(VERB_SCRIPT.replace("ARGVS", repr(argvs)))
    for stage in ("import", "eval", "compile", "pfeval"):
        assert not set(HEAVY) & set(loaded[stage]), stage
        assert "detcircuits.compiler" in loaded[stage]  # the tracer wraps it
    for stage in ("import", "eval", "compile", "pfeval", "forests", "oracle"):
        assert not set(ARGPARSE) & set(loaded[stage]), stage
    assert "detcircuits.graphs" in loaded["forests"]
    assert "detcircuits.tensor" not in loaded["forests"]
    assert "detcircuits.tensor" in loaded["oracle"]
    assert not {"dataclasses", "inspect"} & set(loaded["oracle"])


@pytest.mark.parametrize("argv, code", [
    (["-h"], 0), (["compile", "-h"], 0), (["eval"], 1),
    (["eval", str(DATA / "no_such.circuit"), "--fi", "complex"], 2)])
def test_help_and_usage_errors_load_argparse(argv, code):
    # --fi is argparse's abbreviation of --field; the run then finds no file.
    script = """
import contextlib, io, json, sys
import detcircuits.cli as cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(ARGV)
print(json.dumps([code, "argparse" in sys.modules]))
"""
    assert fresh(script.replace("ARGV", repr(argv))) == [code, True]


def test_every_export_is_the_defining_module_object():
    assert sorted(detcircuits.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        home = import_module(f"detcircuits.{module}")
        for name in names:
            assert getattr(detcircuits, name) is getattr(home, name), name
            assert name in dir(detcircuits)


def test_exports_resolve_in_a_fresh_process():
    # labeled and pfaffian name both a function and its module; importing
    # the modules by their dotted names must not rebind the package names.
    script = """
import json, sys
import detcircuits.labeled, detcircuits.pfaffian
from detcircuits import labeled, pfaffian
lazy = "detcircuits.graphs" in sys.modules or "detcircuits.tensor" in sys.modules
from detcircuits import Graph, Tensor, laplacian_cofactor
import detcircuits.graphs as graphs, detcircuits.tensor as tensor
print(json.dumps([labeled.__module__, pfaffian.__module__, lazy,
                  Graph is graphs.Graph and Tensor is tensor.Tensor
                  and laplacian_cofactor is graphs.laplacian_cofactor]))
"""
    assert fresh(script) == ["detcircuits.labeled", "detcircuits.pfaffian", False, True]


def test_a_bare_import_loads_only_the_eager_modules():
    script = """
import json, sys
before = set(sys.modules)
import detcircuits
loaded = sorted(m for m in set(sys.modules) - before if m.startswith("detcircuits"))
modules = [detcircuits.circuit, detcircuits.compiler, detcircuits.formats]
print(json.dumps([loaded, [m is sys.modules[m.__name__] for m in modules],
                  [m.__name__ for m in modules]]))
"""
    assert fresh(script) == [
        ["detcircuits", "detcircuits.errors", "detcircuits.labeled", "detcircuits.pfaffian",
         "detcircuits.scalars"],
        [True, True, True],
        ["detcircuits.circuit", "detcircuits.compiler", "detcircuits.formats"]]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        detcircuits.no_such_name
    with pytest.raises(ImportError):
        exec("from detcircuits import no_such_name", {})


def test_no_dataclass_in_the_package():
    for path in sorted((SRC / "detcircuits").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            elif isinstance(node, ast.Name):
                assert node.id != "dataclass", path.name
