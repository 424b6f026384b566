"""No tuple in the package is built from a generator.

CPython builds `tuple(<generator>)`, `tuple(zip(...))`, `tuple(map(...))`
and a call's `*<generator>` argument by growing a tuple of a guessed size
and shrinking it to fit.  The shrunk tuple was never taken from the free
list of its final size, but it goes back there when freed, so those free
lists only grow until a full garbage collection empties them.  With few
tracked objects allocated (integer tokens read as int) full collections are
rare and the lists grow to thousands of tuples per size.  A list-backed
form (`tuple([...])`, `f(*[...])`) allocates the tuple at its final size.
CPython 3.11 also frees 20-entry tuples onto a free list that it never takes
from, so `lcm(*row)` on 20-wide rows grew it by one tuple a row; the package
passes lcm a set of distinct denominators instead.

An ast scan, like tests/test_single_check_site.py, keeps the pattern out,
and a tracemalloc run with the collector off checks that a parse and an
evaluation, the graph counts on graphs read by parse_graph and the
spanning-tree walk leave no memory behind.  A walk written as a nested
function that calls itself would fail it: the function and its closure
cell form a cycle that holds the whole output until a full collection.
"""

import ast
import gc
import random
import tracemalloc
from pathlib import Path

import pytest

from detcircuits import (
    Graph,
    compile_circuit,
    count_rooted_forests,
    count_spanning_trees,
    enumerate_trees,
    eval_pfaffian_circuit,
    evaluate,
    forest_polynomial,
    parse_circuit,
    parse_graph,
    parse_pfaffian,
    write_circuit,
    write_graph,
    write_pfaffian,
)
from circgen import rand_ring

SRC = Path(__file__).resolve().parent.parent / "src" / "detcircuits"
MODULES = sorted(SRC.glob("*.py"))
ITERATOR_CALLS = {"zip", "map", "filter"}


def _is_generator(node) -> bool:
    return isinstance(node, ast.GeneratorExp) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ITERATOR_CALLS)


def generator_tuples(source: str) -> list[str]:
    """'line N: ...' for each tuple() of a generator and each starred generator argument."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name) and node.func.id == "tuple"
                and len(node.args) == 1 and _is_generator(node.args[0])):
            found.append(f"line {node.lineno}: tuple of a generator")
        found += [f"line {a.lineno}: starred generator argument"
                  for a in node.args
                  if isinstance(a, ast.Starred) and _is_generator(a.value)]
    return sorted(found)


def test_generator_tuples_flags_each_form():
    source = ("a = tuple(x for x in xs)\n"
              "b = tuple(zip(xs, ys))\n"
              "c = tuple(map(str, xs))\n"
              "d = lcm(*(x.denominator for x in xs))\n"
              "e = f(1, *filter(None, xs))\n"
              "ok = tuple([x for x in xs]), tuple(xs), tuple(range(3)), lcm(*[1, 2])\n"
              "ok = zip(*rows), tuple(list(zip(xs, ys))), sum(x for x in xs)\n")
    assert generator_tuples(source) == [
        "line 1: tuple of a generator", "line 2: tuple of a generator",
        "line 3: tuple of a generator", "line 4: starred generator argument",
        "line 5: starred generator argument"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_builds_a_tuple_from_a_generator(path):
    assert generator_tuples(path.read_text(encoding="utf-8")) == []


RING = write_circuit(rand_ring(random.Random(12), 12, 24))
SMALL = rand_ring(random.Random(6), 6, 6)
SMALL_PF = write_pfaffian(compile_circuit(SMALL).target)
_rng = random.Random(20)
DENSE = Graph(12, tuple([(u, v) for u in range(1, 13) for v in range(u + 1, 13)
                         if _rng.random() < 0.6]))
SPARSE = Graph(20, tuple([(v, _rng.randint(1, v - 1)) for v in range(2, 21)]
                         + [tuple(_rng.sample(range(1, 21), 2)) for _ in range(11)]))


DENSE_TEXT, SPARSE_TEXT = write_graph(DENSE), write_graph(SPARSE)

# K6: 15 edges, 1296 spanning trees.
K6 = Graph(6, tuple([(u, v) for u in range(1, 7) for v in range(u + 1, 7)]))


def _graph_counts():
    for text in (DENSE_TEXT, SPARSE_TEXT):
        g = parse_graph(text)
        forest_polynomial(g), count_rooted_forests(g), count_spanning_trees(g)


def _traced_growth_kb(step, warm=10, calls=50) -> float:
    """Traced memory gained over `calls` runs of step, after `warm` runs,
    with the garbage collector off so no full collection empties a free list."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(warm):
            step()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(calls):
                step()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    finally:
        if was_enabled:
            gc.enable()
    return (after - before) / 1024


@pytest.mark.parametrize("step", [
    lambda: evaluate(parse_circuit(RING)),
    lambda: (eval_pfaffian_circuit(parse_pfaffian(SMALL_PF)), compile_circuit(SMALL)),
    _graph_counts,
    lambda: enumerate_trees(K6),
], ids=["eval-w12-d24", "pfeval-and-compile-w6-d6", "graph-counts-n12-dense-n20-sparse",
        "enumerate-trees-k6"])
def test_repeated_runs_leave_no_memory_behind(step):
    assert _traced_growth_kb(step) < 32
