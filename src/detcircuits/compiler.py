"""Compile closed determinantal circuits to Pfaffian circuits.

Every ring gate, an r x c matrix g, becomes a state gadget on r + c edges
holding its skew embedding [[0, g̃], [-g̃ᵀ, 0]], g̃ = g with its columns
reversed.  Its sub-Pfaffian on rows I and reflected columns J̃ is the
minor det(g_{I,J}), and 0 when |I| != |J|, so a rectangular gate needs no
padding.  Every stack boundary becomes a pass-through costate gadget.
The states are the target's ket and the costates its bra.  Edge ids are
issued in one scan around the ring, so the global edge order is the
geometric one; the one remaining degree of freedom is an overall sign,
which is read off the costates' label lists and absorbed by an extra
constant gadget pair when negative.

The ring is first normalized to one gate per stack, its transfer matrix.
An odd number of stacks is required for a consistent edge order to exist
at all (an even ring forces the sign to alternate with the number of
active wires), so an identity stack is appended when the count is even.
"""

from __future__ import annotations

from fractions import Fraction

from .circuit import Circuit, transfer_matrix
from .labeled import LabeledMatrix, _trusted, _Value, identity, labeled
from .pfaffian import PfaffianCircuit, SkewMatrix, _perm_sign
from .scalars import Scalar


def _skew_grid(grid, c: int) -> tuple[tuple[Scalar, ...], ...]:
    """The block grid [[0, g̃], [-g̃ᵀ, 0]] of an r x c grid g, g̃ = g with
    its columns reversed."""
    r = len(grid)
    top = [[0] * r + list(reversed(row)) for row in grid]
    bottom = [[-grid[i][c - 1 - t] for i in range(r)] + [0] * c for t in range(c)]
    return tuple([tuple(row) for row in top + bottom])


class CompiledCircuit(_Value):
    target: PfaffianCircuit
    gadget_count: int
    size_ratio: Fraction


def _ring_gates(circuit: Circuit) -> list[LabeledMatrix]:
    """Collapse each stack-plus-wiring into one gate; force an odd ring."""
    m = len(circuit.stacks)
    if m == 0:
        gates = [labeled((), (), ())]
    else:
        gates = [transfer_matrix(circuit, k) for k in range(m)]
    if len(gates) % 2 == 0:
        gates.append(identity(circuit.stacks[0].in_labels))
    return gates


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Build a Pfaffian circuit with the same value as the source circuit.

    Every gadget is a skew embedding on edge ids issued here once each, on
    both sides, so the gadgets and the target skip their constructors'
    checks, and the target's edge_count is the last id issued."""
    gates = _ring_gates(circuit)

    nxt = 1
    row_ids: list[tuple[int, ...]] = []  # per gate, ids of its row slots
    col_ids: list[tuple[int, ...]] = []  # per gate, ids of its column slots, ascending
    states: list[SkewMatrix] = []
    costates: list[SkewMatrix] = []

    for g in gates:
        r, c = g.shape
        # Slot i holds row i and slot r + c - 1 - j holds column j.
        slots = tuple(range(nxt, nxt + r + c))
        nxt += r + c
        row_ids.append(slots[:r])
        col_ids.append(slots[r:])
        states.append(_trusted(SkewMatrix, labels=slots, entries=_skew_grid(g.entries, c)))

    # Pass-through gadget at each boundary: the embedded identity pairing
    # the previous gate's row edges with this gate's column edges.
    for k, this_cols in enumerate(col_ids):
        if this_cols:
            p = len(this_cols)
            eye = [[int(i == j) for j in range(p)] for i in range(p)]
            costates.append(_trusted(SkewMatrix, labels=row_ids[k - 1] + this_cols,
                                     entries=_skew_grid(eye, p)))

    # The emitted order fixes every term's sign up to one global constant;
    # read it off the all-edges-idle configuration, the costates' label
    # lists, and cancel a -1 with a constant gadget pair.  The costate is
    # listed (y, x), so its own Pfaffian is +1 while its edge-matrix entry
    # a_xy is -1: the oracle, which reads each gadget in its own order,
    # sees no extra sign.
    if _perm_sign([e for g in costates for e in g.labels]) < 0:
        x, y = nxt, nxt + 1
        nxt += 2
        states.append(_trusted(SkewMatrix, labels=(x, y), entries=_skew_grid([[0]], 1)))
        costates.append(_trusted(SkewMatrix, labels=(y, x), entries=_skew_grid([[1]], 1)))

    source_entries = sum(len(g.rows) * len(g.cols)
                         for s in circuit.stacks for g in s.gates)
    target_entries = sum(g.size ** 2 for g in states + costates)
    return CompiledCircuit(
        target=_trusted(PfaffianCircuit, states=tuple(states), costates=tuple(costates),
                        edge_count=nxt - 1),
        gadget_count=len(states) + len(costates),
        size_ratio=Fraction(target_entries, max(source_entries, 1)),
    )
