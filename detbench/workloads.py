"""The four benchmark workloads: generated inputs, the ops run on them,
and the reference each op's output is checked against.

Every reference comes from another route than the timed verb:

- circuits: `evaluate` of the same ring read from another stack (a
  rotation), plus the exponential `contract_circuit` oracle on rings
  narrow enough to afford it;
- `pfeval` of a compiled file: the source circuit's reference value;
- graphs: det(xI + L) at x = 0..n by `det_grid`, interpolated to the
  forest polynomial; then forests = sum of its coefficients and
  n * trees = its linear coefficient, with the spanning-tree enumeration
  oracle on graphs small enough to afford it.

Exact values compare by equality, complex ones within a relative 1e-9.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from detcircuits import (Graph, contract_circuit, enumerate_trees, evaluate,
                         parse_circuit)
from detcircuits.scalars import det_grid

import gen

# Oracle budgets, chosen so one set-up stays well under a second of oracle
# work: contract_circuit expands minors of every wire subset (4^width), and
# tree enumeration walks every edge subset of size < n.
ORACLE_MAX_WIDTH = 4
TREE_ENUM_MAX_SUBSETS = 50_000

# README promise on compiled size: size_ratio <= 24 x the emitted gate width.
SIZE_RATIO_PER_WIDTH_MAX = 24


@dataclass
class Op:
    verb: str
    argv: list[str]
    check: Callable[[str], bool]  # stdout -> output matches the reference
    sweep_depth: int = 0  # depth, when this eval is part of the fixed-width sweep


@dataclass
class Workload:
    ops: list[Op]  # the timed ops, run in this order, pass after pass
    warmup: list[Op]  # one op per verb on an extra input, run before timing


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def close(got, want) -> bool:
    """Exact equality for rationals; relative 1e-9 once either is complex."""
    if isinstance(got, Fraction) and isinstance(want, Fraction):
        return got == want
    want = complex(want)
    return abs(complex(got) - want) <= 1e-9 * max(1.0, abs(want))


def _parse_value(text: str, field_name: str):
    text = text.strip()
    if field_name == "rational":
        return Fraction(text)
    if not text.endswith("i"):
        raise ValueError(f"not a complex value: {text!r}")
    return complex(text[:-1] + "j")


def value_check(ref, field_name: str) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        if ref is None:  # the reference itself failed its oracle
            return False
        try:
            return close(_parse_value(out, field_name), ref)
        except ValueError:
            return False
    return check


def size_ratio_check(width: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        head, _, ratio = out.strip().partition(" ")
        try:
            r = Fraction(ratio)
        except ValueError:
            return False
        return head == "size_ratio" and 0 < r <= SIZE_RATIO_PER_WIDTH_MAX * width
    return check


def write_circuit(workdir: str, name: str, ring: gen.Ring, start: int, field_name: str):
    """Write the ring; return (path, reference value or None)."""
    path = os.path.join(workdir, name + ".circuit")
    text = gen.circuit_text(ring)
    _write(path, text)
    ref = evaluate(parse_circuit(gen.circuit_text(ring, start), field_name))
    if ring.width <= ORACLE_MAX_WIDTH:
        if not close(contract_circuit(parse_circuit(text, field_name)), ref):
            ref = None
    return path, ref


def write_graph(workdir: str, name: str, n: int, edges):
    """Write the graph; return (path, forest polynomial or None)."""
    path = os.path.join(workdir, name + ".graph")
    _write(path, gen.graph_text(n, edges))
    poly = forest_polynomial_by_interpolation(n, edges)
    if sum(comb(len(edges), k) for k in range(n)) <= TREE_ENUM_MAX_SUBSETS:
        trees = len(enumerate_trees(Graph(n, tuple(edges))))
        if n * trees != poly[1]:
            poly = None
    return path, poly


def forest_polynomial_by_interpolation(n: int, edges) -> list[int]:
    """Coefficients of det(xI + L), ascending, from its values at x = 0..n."""
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        lap[u - 1][u - 1] += 1
        lap[v - 1][v - 1] += 1
        lap[u - 1][v - 1] -= 1
        lap[v - 1][u - 1] -= 1
    ys = []
    for x in range(n + 1):
        grid = [[lap[i][j] + (x if i == j else 0) for j in range(n)] for i in range(n)]
        ys.append(det_grid(grid))
    # Newton divided differences on the nodes 0..n, then expand to monomials.
    coef = list(ys)
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / j
    poly = [Fraction(0)] * (n + 1)
    basis = [Fraction(1)]  # prod_{i < k} (x - i), ascending coefficients
    for k in range(n + 1):
        for t, b in enumerate(basis):
            poly[t] += coef[k] * b
        basis = [Fraction(0)] + basis
        for t in range(len(basis) - 1):
            basis[t] -= k * basis[t + 1]
    if any(c.denominator != 1 for c in poly):
        raise ArithmeticError("forest polynomial interpolation is not integral")
    return [int(c) for c in poly]


# Each workload has at least 100 distinct ops, so the p90 over ops has at
# least ten beyond it.  Shapes are fixed lists, so every seed gives the same
# mix of sizes; the seed picks entries, wirings, gate splits, waists and
# graph edges.

# ------------------------------------------------------------------ eval-exact

# Widths 6-12 and depths 8-24: four rings of every shape up to the cost of
# width 8 at depth 16 (w^3 d <= 8192), so op costs are spread finely around
# the median, then a tail of dearer shapes up to width 12 at depth 24.
# Every other ring has a waist of width 2-4.  The plain width-8 sweep rings
# show the cost per stack staying flat as depth grows at fixed width.
EVAL_EXACT_SHAPES = [(w, d) for w in range(6, 13) for d in range(8, 25, 2)
                     if w ** 3 * d <= 8192] * 4
EVAL_EXACT_SHAPES += [(10, 16), (10, 24), (12, 8), (12, 16), (12, 24)]
SWEEP_WIDTH = 8
SWEEP_DEPTHS = (8, 16, 24)


def _exact_ring(rng, w: int, d: int, waist: bool):
    widths = [w] * d
    start = rng.randrange(1, d)
    if waist:
        widths[start] = rng.randint(2, 4)  # read from the waist: smallest det
    return gen.ring(rng, widths, gen.gate_counts(rng, d, 3),
                    lambda r: gen.rational_entry(r, 0.1)), start


def eval_exact(rng, workdir: str, tick) -> Workload:
    ops = []
    rings = [(w, d, i % 2 == 1) for i, (w, d) in enumerate(EVAL_EXACT_SHAPES)]
    rings += [(SWEEP_WIDTH, d, False) for d in SWEEP_DEPTHS]
    for i, (w, d, waist) in enumerate(rings):
        tick()
        ring, start = _exact_ring(rng, w, d, waist)
        path, ref = write_circuit(workdir, f"e{i}", ring, start, "rational")
        sweep = d if i >= len(EVAL_EXACT_SHAPES) else 0
        ops.append(Op("eval", ["eval", path], value_check(ref, "rational"), sweep))
    ring, start = _exact_ring(rng, 4, 4, False)
    path, ref = write_circuit(workdir, "warm", ring, start, "rational")
    return Workload(ops, [Op("eval", ["eval", path], value_check(ref, "rational"))])


# -------------------------------------------------------------- pfaffian-exact

# Widths 3-6 and depths 3-6 (even depths get the compiler's extra identity
# stack); a third of the boundaries one wire narrower, so gates go
# rectangular and need padding gadgets, and up to two gates per stack.
PFAFFIAN_SHAPES = [(w, d) for w in (3, 4, 5, 6) for d in (3, 4, 5, 6)] * 3 + [(3, 3), (4, 3), (5, 3)]


def _compiled_ops(workdir: str, name: str, ring: gen.Ring, start: int,
                  field_name: str) -> list[Op]:
    path, ref = write_circuit(workdir, name, ring, start, field_name)
    pf = os.path.join(workdir, name + ".pf")
    flags = ["--field", field_name]
    return [Op("compile", ["compile", path, "-o", pf] + flags, size_ratio_check(ring.width)),
            Op("pfeval", ["pfeval", pf] + flags, value_check(ref, field_name))]


def _ragged_ring(rng, w: int, d: int, entry):
    narrow = d // 3
    widths = [w - 1] * narrow + [w] * (d - narrow)
    rng.shuffle(widths)
    return gen.ring(rng, widths, gen.gate_counts(rng, d, 2), entry), rng.randrange(1, d)


def pfaffian_exact(rng, workdir: str, tick) -> Workload:
    entry = lambda r: gen.rational_entry(r, 0.1)
    ops = []
    for i, (w, d) in enumerate(PFAFFIAN_SHAPES):
        tick()
        ring, start = _ragged_ring(rng, w, d, entry)
        ops += _compiled_ops(workdir, f"p{i}", ring, start, "rational")
    ring, start = _ragged_ring(rng, 3, 3, entry)
    return Workload(ops, _compiled_ops(workdir, "warm", ring, start, "rational"))


# ---------------------------------------------------------------- graph-counts

# Dense: n 8-12 with 60% of all pairs.  Sparse connected: n 12-20 with
# m = 1.5 n, mostly at the small end, because poly costs n^4 there.
DENSE_SIZES = (8,) * 5 + (9,) * 4 + (10,) * 4 + (11,) * 3 + (12,) * 3
SPARSE_SIZES = (12,) * 5 + (13,) * 3 + (14,) * 2 + (15,) * 2 + (16, 18, 20)


def _graph_ops(workdir: str, name: str, n: int, edges) -> list[Op]:
    path, poly = write_graph(workdir, name, n, edges)

    def check(verb: str) -> Callable[[str], bool]:
        def ok(out: str) -> bool:
            if poly is None:
                return False
            try:
                got = [int(t) for t in out.split()]
            except ValueError:
                return False
            if verb == "poly":
                return got == poly
            if len(got) != 1:
                return False
            return got[0] == sum(poly) if verb == "forests" else n * got[0] == poly[1]
        return ok

    return [Op(v, [v, path], check(v)) for v in ("forests", "trees", "poly")]


def graph_counts(rng, workdir: str, tick) -> Workload:
    ops = []
    for family, sizes in ((gen.dense_graph, DENSE_SIZES), (gen.sparse_graph, SPARSE_SIZES)):
        for n in sizes:
            tick()
            ops += _graph_ops(workdir, f"g{len(ops)}", *family(rng, n))
    return Workload(ops, _graph_ops(workdir, "warm", *gen.sparse_graph(rng, 6)))


# --------------------------------------------------------------- complex-field

# The eval-exact and pfaffian-exact shapes at smaller sizes, entries of
# modulus below 1; each ring is evaluated, compiled and Pfaffian-evaluated.
COMPLEX_SHAPES = [(w, d) for w in (3, 4, 5, 6) for d in (3, 5, 8)] * 3


def complex_field(rng, workdir: str, tick) -> Workload:
    flags = ["--field", "complex"]
    ops = []
    for i, (w, d) in enumerate(COMPLEX_SHAPES):
        tick()
        ring, start = _ragged_ring(rng, w, d, gen.complex_entry)
        compiled = _compiled_ops(workdir, f"c{i}", ring, start, "complex")
        ops.append(Op("eval", ["eval", compiled[0].argv[1]] + flags,
                      compiled[1].check))
        ops += compiled
    ring, start = _ragged_ring(rng, 3, 3, gen.complex_entry)
    warm = _compiled_ops(workdir, "warm", ring, start, "complex")
    warm.insert(0, Op("eval", ["eval", warm[0].argv[1]] + flags, warm[1].check))
    return Workload(ops, warm)


WORKLOADS = {
    "eval-exact": eval_exact,
    "pfaffian-exact": pfaffian_exact,
    "graph-counts": graph_counts,
    "complex-field": complex_field,
}


def build(name: str, seed: int, workdir: str, tick) -> Workload:
    """Generate the workload's inputs for this seed and their references.

    `tick` is called before each input; the runner times its calibration
    kernel there.
    """
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, workdir, tick)
