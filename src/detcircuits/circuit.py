"""Closed wire circuits of labeled-matrix gates.

A circuit is a cyclic sequence of stacks.  Each stack is a column of
gates acting in parallel (their direct sum); between stack k and stack
k+1 (indices mod the stack count, so the last stack feeds the first) a
wiring says which output wire continues as which input wire.  Closing
the loop makes the circuit a scalar, computed in evaluate() as the sum
of principal minors of the collapsed endomorphism.  evaluate() collapses
at the narrowest stack boundary (w_min wires), so on a ring of width w it
costs O(depth * w^2 * w_min) plus one w_min x w_min determinant.

Wire labels are local to a stack boundary: the same int may appear in
several stacks and means nothing across a wiring except what the wiring
itself says.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DanglingWire, DuplicateLabel, SizeMismatch
from .labeled import (
    LabeledMatrix,
    Scalar,
    labeled,
    permutation_matrix,
    principal_minor_sum,
)
from .scalars import grid_is_exact

Wiring = tuple[tuple[int, int], ...]  # (source output label, target input label)


@dataclass(frozen=True)
class Stack:
    gates: tuple[LabeledMatrix, ...]

    @property
    def in_labels(self) -> tuple[int, ...]:
        return tuple([lab for g in self.gates for lab in g.cols])

    @property
    def out_labels(self) -> tuple[int, ...]:
        return tuple([lab for g in self.gates for lab in g.rows])

@dataclass(frozen=True)
class Circuit:
    stacks: tuple[Stack, ...]
    wirings: tuple[Wiring, ...]  # wirings[k] crosses the gap after stack k

    def __post_init__(self):
        validate(self)


def validate(circuit: Circuit) -> None:
    """One wiring per stack, each a bijection between adjacent stack boundaries,
    and disjoint gate labels within a stack.  Runs once, in Circuit.__post_init__."""
    m = len(circuit.stacks)
    if len(circuit.wirings) != m:
        raise SizeMismatch(f"{m} stacks need {m} wirings, got {len(circuit.wirings)}")
    for k in range(m):
        src = circuit.stacks[k].out_labels
        dst = circuit.stacks[(k + 1) % m].in_labels
        wiring = circuit.wirings[k]
        seen_src: set[int] = set()
        seen_dst: set[int] = set()
        for a, b in wiring:
            if a in seen_src:
                raise DuplicateLabel(f"wiring {k} reuses output {a}")
            if b in seen_dst:
                raise DuplicateLabel(f"wiring {k} reuses input {b}")
            seen_src.add(a)
            seen_dst.add(b)
        if seen_src != set(src):
            missing = set(src) - seen_src
            extra = seen_src - set(src)
            raise DanglingWire(f"wiring {k}: unmatched outputs {missing or extra}")
        if seen_dst != set(dst):
            missing = set(dst) - seen_dst
            extra = seen_dst - set(dst)
            raise DanglingWire(f"wiring {k}: unmatched inputs {missing or extra}")
        # The sets match, so a shorter set means two gates share a label.
        if len(seen_src) != len(src):
            raise DuplicateLabel(f"stack {k} repeats an output label in {src}")
        if len(seen_dst) != len(dst):
            raise DuplicateLabel(f"stack {(k + 1) % m} repeats an input label in {dst}")


def wiring_matrix(circuit: Circuit, k: int) -> LabeledMatrix:
    """Permutation matrix of wiring k: columns stack k outputs, rows stack k+1 inputs."""
    m = len(circuit.stacks)
    src = circuit.stacks[k].out_labels
    dst = circuit.stacks[(k + 1) % m].in_labels
    return permutation_matrix(dict(circuit.wirings[k]), src, dst)


def _stack_rows(circuit: Circuit, k: int) -> list[tuple[int, list[tuple[int, Scalar]]]]:
    """Stack k followed by wiring k, as sparse rows.

    One (stack k+1 input label, [(stack k input label, entry), ...]) pair
    per gate row, zero entries dropped.  The wiring only renames rows, so
    no permutation matrix is ever built or multiplied.
    """
    wire = dict(circuit.wirings[k])
    return [(wire[r], [(c, x) for c, x in zip(g.cols, row) if x])
            for g in circuit.stacks[k].gates
            for r, row in zip(g.rows, g.entries)]


def transfer_matrix(circuit: Circuit, k: int) -> LabeledMatrix:
    """Stack k then wiring k as one matrix: columns stack k inputs, rows stack k+1 inputs."""
    cols = circuit.stacks[k].in_labels
    rows = circuit.stacks[(k + 1) % len(circuit.stacks)].in_labels
    pos = {lab: j for j, lab in enumerate(cols)}
    grid = {lab: [0] * len(cols) for lab in rows}
    for lab, terms in _stack_rows(circuit, k):
        for c, x in terms:
            grid[lab][pos[c]] = x
    return labeled(rows, cols, [grid[lab] for lab in rows])


def _is_exact(circuit: Circuit) -> bool:
    return all(grid_is_exact(g.entries) for s in circuit.stacks for g in s.gates)


def collapse(circuit: Circuit, start: int = 0) -> LabeledMatrix:
    """Multiply out one full turn of the loop, read at stack `start`.

    Returns the endomorphism P_{s-1} M_{s-1} ... P_{s+1} M_{s+1} P_s M_s
    (indices mod the stack count) on stack s's input wires, rows and
    columns both in that stack's input order.  The empty circuit
    collapses to the 0x0 matrix.

    Each wire at the current boundary is carried as a row over the w_s
    start wires.  A gate multiplies only the rows it reads, skipping zero
    entries, and a wiring renames rows, so one turn costs
    O(depth * w^2 * w_s).  Exact circuits run on Python ints: each stack's
    denominators are cleared once with their lcm, and one running scale
    divides out at the end.  Complex circuits run the same loop with
    scale 1.
    """
    m = len(circuit.stacks)
    if m == 0:
        return LabeledMatrix((), (), ())
    if not 0 <= start < m:
        raise IndexError(f"start {start} out of range for {m} stacks")
    labels = circuit.stacks[start].in_labels
    w = len(labels)
    exact = _is_exact(circuit)
    acc = {lab: [int(i == j) for j in range(w)] for i, lab in enumerate(labels)}
    scale = 1
    for k in range(start, start + m):
        rows = _stack_rows(circuit, k % m)
        if exact:
            d = lcm(*[x.denominator for _, terms in rows for _, x in terms])
            scale *= d
        nxt = {}
        for lab, terms in rows:
            out = None
            for c, x in terms:
                x = x.numerator * (d // x.denominator) if exact else complex(x)
                src = acc[c]
                out = ([x * b for b in src] if out is None
                       else [a + x * b for a, b in zip(out, src)])
            nxt[lab] = out or [0] * w
        acc = nxt
    if exact:
        entries = tuple([tuple([Fraction(v, scale) for v in acc[lab]]) for lab in labels])
    else:
        entries = tuple([tuple([complex(v) for v in acc[lab]]) for lab in labels])
    return LabeledMatrix(labels, labels, entries)


def evaluate(circuit: Circuit) -> Scalar:
    """Scalar value of the closed circuit: det(I + collapse).

    The collapse is read at the narrowest boundary (det(I + XY) =
    det(I + YX) makes every boundary give the same value), so the cost is
    O(depth * w^2 * w_min) plus one w_min x w_min determinant.  A complex
    circuit gives a complex value even when w_min is 0 and the determinant
    is the empty one.
    """
    widths = [len(s.in_labels) for s in circuit.stacks]
    start = widths.index(min(widths)) if widths else 0
    value = principal_minor_sum(collapse(circuit, start))
    if min(widths, default=0) == 0 and not _is_exact(circuit):
        value = complex(value)  # the 0x0 determinant is the exact 1 in any field
    return value


def identity_wiring(src: tuple[int, ...], dst: tuple[int, ...]) -> Wiring:
    """Pair off sorted source labels with sorted target labels."""
    if len(src) != len(dst):
        raise SizeMismatch(f"cannot wire {len(src)} outputs to {len(dst)} inputs")
    return tuple(list(zip(sorted(src), sorted(dst))))
