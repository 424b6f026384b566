"""The brute-force oracles run no fast-path kernel.

An oracle that calls the kernel it is meant to check agrees with it by
construction.  So every determinant and Pfaffian kernel, and the kernel
names that tensor and graphs import, are made to raise, and the oracles
must still give the values the fast paths gave before.

enumerate_multicycles is left out: it still takes one det_grid per
tuple of boundary subsets.  A table of every minor would be far larger
than the tuples its cap admits (C(24, 12), about 2.7 million minors, for
a one-stack width-12 ring against 4096 tuples).
"""

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
)

DATA = Path(__file__).resolve().parent.parent / "data"

KERNELS = {
    "scalars": ("det_grid", "_det_bareiss_int", "_det_complex"),
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
