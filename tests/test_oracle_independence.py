"""The brute-force oracles run no fast-path kernel.

An oracle that calls the kernel it is meant to check agrees with it by
construction.  So every determinant and Pfaffian kernel, and the kernel
names that circuit, tensor and graphs import, are made to raise, and the
oracles must still give the values the fast paths gave before.

enumerate_multicycles is left out: it still takes one det_grid per
tuple of boundary subsets.  A table of every minor would be far larger
than the tuples its cap admits (C(24, 12), about 2.7 million minors, for
a one-stack width-12 ring against 4096 tuples).

The oracles' tensor format and their size cap ORACLE_CAP are known by the
tensor module alone: an ast scan checks that no other module but the
command line and the package's re-exports imports from it, and that no
other module binds ORACLE_CAP: a second binding is one that a patch of
tensor.ORACLE_CAP does not reach.
"""

import ast
import importlib
import random
from pathlib import Path

import pytest

from detcircuits import (
    Graph,
    contract_circuit,
    count_rooted_forests,
    count_spanning_trees,
    enumerate_trees,
    eval_pfaffian_circuit,
    eval_pfaffian_oracle,
    evaluate,
    parse_circuit,
    parse_graph,
    parse_pfaffian,
    scalars_equal,
    spf,
)
from detcircuits.errors import TooLarge

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src" / "detcircuits"

KERNELS = {
    "scalars": ("det_grid", "_det_bareiss_int", "_det_complex"),
    "circuit": ("_det_bareiss_int", "_det_complex"),
    "pfaffian": ("pfaffian", "_pfaffian_exact", "_pfaffian_complex"),
    "tensor": ("det_grid",),
    "graphs": ("_det_bareiss_int",),
}


# 8 vertices and 17 of the 28 possible edges, the size of the benchmark's
# dense oracle graphs; 4442 spanning trees.
DENSE_EDGES = tuple(random.Random(8).sample(
    [(u, v) for u in range(1, 9) for v in range(u + 1, 9)], 17))


def _refuse(*args, **kwargs):
    raise AssertionError("an oracle called a fast-path kernel")


def test_oracles_run_without_the_kernels(monkeypatch):
    circuits = [parse_circuit((DATA / "ring3.circuit").read_text()),
                parse_circuit((DATA / "complex_pair.circuit").read_text(), "complex")]
    pfaffians = [parse_pfaffian((DATA / name).read_text())
                 for name in ("ring3.pf", "two_by_two.pf")]
    graph = parse_graph((DATA / "k4.graph").read_text())
    dense = Graph(8, DENSE_EDGES)
    circuit_values = [evaluate(c) for c in circuits]
    pfaffian_values = [eval_pfaffian_circuit(pc) for pc in pfaffians]
    tree_count = count_spanning_trees(graph)
    dense_tree_count = count_spanning_trees(dense)
    for module, names in KERNELS.items():
        mod = importlib.import_module(f"detcircuits.{module}")
        for name in names:
            monkeypatch.setattr(mod, name, _refuse)
    # The patch reached each kernel's callers: the fast paths now refuse.
    for fast_path, arg in ((evaluate, circuits[0]), (count_rooted_forests, graph),
                           (count_spanning_trees, graph)):
        with pytest.raises(AssertionError, match="fast-path kernel"):
            fast_path(arg)
    for c, want in zip(circuits, circuit_values):
        assert scalars_equal(contract_circuit(c), want)
    for pc, want in zip(pfaffians, pfaffian_values):
        assert eval_pfaffian_oracle(pc) == want
    assert len(enumerate_trees(graph)) == tree_count == 16
    assert len(enumerate_trees(dense)) == dense_tree_count == 4442


# The modules that may import from tensor: itself, the command line's
# oracle verbs, and the package's re-exports.
TENSOR_IMPORTERS = {"tensor", "cli", "__init__"}


def tensor_imports(source: str) -> list[int]:
    """Lines that import the tensor module or a name from it, relative or
    absolute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            names = [a.name for a in node.names]
            if module[-1] == "tensor" or "tensor" in names and module[-1] in ("", "detcircuits"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "tensor" for a in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def cap_bindings(source: str) -> list[int]:
    """Lines that bind the name ORACLE_CAP: an assignment, an import, or a
    definition."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == "ORACLE_CAP"
                and isinstance(node.ctx, ast.Store)
                or isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "ORACLE_CAP"
                or isinstance(node, (ast.Import, ast.ImportFrom))
                and any((a.asname or a.name) == "ORACLE_CAP" for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_flags_a_stray_tensor_import_and_a_second_cap():
    source = ("from .scalars import det_grid\n"
              "from .tensor import Tensor, _subset_bits\n"
              "from . import tensor as t\n"
              "import detcircuits.tensor\n"
              "from detcircuits.tensor import ORACLE_CAP\n"
              "CAP = ORACLE_CAP = 20\n"
              "from .scalars import det_grid as ORACLE_CAP\n"
              "tensor = None\n")
    assert tensor_imports(source) == [2, 3, 4, 5]
    assert cap_bindings(source) == [5, 6, 7]


def test_only_tensor_knows_the_tensor_format_and_its_cap(monkeypatch):
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert {name for name, source in sources.items()
            if tensor_imports(source)} <= TENSOR_IMPORTERS
    assert [name for name, source in sources.items() if cap_bindings(source)] == ["tensor"]
    # So one patch of the cap reaches every oracle.
    tensor = importlib.import_module("detcircuits.tensor")
    pc = parse_pfaffian((DATA / "ring3.pf").read_text())
    circuit = parse_circuit((DATA / "ring3.circuit").read_text())
    monkeypatch.setattr(tensor, "ORACLE_CAP", 1)
    for oracle, arg in ((eval_pfaffian_oracle, pc), (spf, pc.states[0]),
                        (contract_circuit, circuit)):
        with pytest.raises(TooLarge):
            oracle(arg)
