"""Compile closed determinantal circuits to Pfaffian circuits.

Every gate becomes a state gadget holding the skew embedding of the
(zero-padded) gate matrix, every stack boundary becomes a pass-through
costate gadget, and padded wires are closed off by two-edge zero
gadgets.  Edge ids are issued in one scan around the ring, so the
global edge order is the geometric one; the one remaining degree of
freedom is an overall sign, which is read off the emitted order and
absorbed by an extra constant gadget when negative.

The ring is first normalized to one square-ish gate per stack.  An odd
number of stacks is required for a consistent edge order to exist at
all (an even ring forces the sign to alternate with the number of
active wires), so an identity stack is appended when the count is even.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .circuit import Circuit, evaluate, transfer_matrix, validate
from .errors import LabelCollision, NotSquare
from .labeled import LabeledMatrix, identity, labeled
from .pfaffian import PfaffianCircuit, PfGate, SkewMatrix
from .scalars import Scalar


def reflect(m: LabeledMatrix) -> LabeledMatrix:
    """Reverse the column order, labels included."""
    ent = [list(reversed(row)) for row in m.entries]
    return labeled(m.rows, tuple(reversed(m.cols)), ent)


def pad_to_square(m: LabeledMatrix) -> LabeledMatrix:
    """Extend with zero rows (wide input) or zero columns (tall input).

    New labels start above every existing label so they cannot collide.
    """
    r, c = m.shape
    if r == c:
        return m
    fresh = max((*m.rows, *m.cols), default=0) + 1
    n = max(r, c)
    ent = [list(row) + [Fraction(0)] * (n - c) for row in m.entries]
    for _ in range(n - r):
        ent.append([Fraction(0)] * n)
    rows = m.rows + tuple(range(fresh, fresh + n - r))
    cols = m.cols + tuple(range(fresh, fresh + n - c))
    return labeled(rows, cols, ent)


def skew_embed(m: LabeledMatrix) -> SkewMatrix:
    """The block skew matrix [[0, m̃], [-m̃ᵀ, 0]] on labels rows ++ reversed cols.

    Its Pfaffian is det(m), and every principal sub-Pfaffian on a slot
    subset I ∪ J̃ is the minor det(m_{I,J}); the column reversal is what
    cancels the block form's intrinsic sign.
    """
    r, c = m.shape
    if r != c:
        raise NotSquare(f"skew embedding needs a square matrix, got {m.shape}")
    if set(m.rows) & set(m.cols):
        raise LabelCollision("skew embedding needs disjoint row and column labels")
    n = r
    labels = m.rows + tuple(reversed(m.cols))
    grid = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for t in range(n):
            v = m.entries[i][n - 1 - t]
            grid[i][n + t] = v
            grid[n + t][i] = -v
    return SkewMatrix(labels, tuple(tuple(row) for row in grid))


@dataclass(frozen=True)
class CompiledCircuit:
    source: Circuit
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


def _perm_sign(seq: list[int]) -> int:
    """Sign of the permutation sorting seq ascending (entries distinct)."""
    index = {v: i for i, v in enumerate(sorted(seq))}
    perm = [index[v] for v in seq]
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Build a Pfaffian circuit with the same value as the source circuit."""
    validate(circuit)
    gates = _ring_gates(circuit)
    m = len(gates)

    nxt = 1
    row_ids: list[list[int]] = []  # per gate, ids of its real row slots
    col_ids: list[list[int]] = []  # per gate, ids of real col slots (col order)
    grids: list[list[list[Scalar]]] = []  # padded square gate entries
    gate_slot_ids: list[list[int]] = []  # per gate, all slot ids in slot order
    k_pairs: list[tuple[int, int]] = []  # (padded slot id, closure id)

    for g in gates:
        r, c = g.shape
        n = max(r, c)
        grid = [list(row) + [Fraction(0)] * (n - c) for row in g.entries]
        for _ in range(n - r):
            grid.append([Fraction(0)] * n)
        grids.append(grid)

        slots: list[int] = []
        rids: list[int] = []
        for i in range(n):  # row slots, real rows first
            eid = nxt
            nxt += 1
            slots.append(eid)
            if i < r:
                rids.append(eid)
            else:
                k_pairs.append((eid, nxt))
                nxt += 1
        cids = [0] * c
        for t in range(n):  # column slots, reversed column order
            j = n - 1 - t
            eid = nxt
            nxt += 1
            slots.append(eid)
            if j < c:
                cids[j] = eid
            else:
                k_pairs.append((eid, nxt))
                nxt += 1
        row_ids.append(rids)
        col_ids.append(cids)
        gate_slot_ids.append(slots)

    states: list[PfGate] = []
    costates: list[PfGate] = []

    for k, g in enumerate(gates):
        n = len(grids[k])
        sk = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for t in range(n):
                v = grids[k][i][n - 1 - t]
                sk[i][n + t] = v
                sk[n + t][i] = -v
        states.append(PfGate("state", SkewMatrix(
            tuple(gate_slot_ids[k]), tuple(tuple(row) for row in sk))))

    # Pass-through gadget at each boundary: previous gate's row edges paired
    # one-to-one with this gate's column edges, anti-diagonal block form.
    costate_listing: list[int] = []
    for k in range(m):
        prev_rows = row_ids[(k - 1) % m]
        this_cols = col_ids[k]
        p = len(this_cols)
        if len(prev_rows) != p:
            raise NotSquare("ring boundary widths disagree after validation")
        if p == 0:
            continue
        labels = tuple(prev_rows) + tuple(reversed(this_cols))
        grid = [[Fraction(0)] * (2 * p) for _ in range(2 * p)]
        for i in range(p):
            grid[i][2 * p - 1 - i] = Fraction(1)
            grid[2 * p - 1 - i][i] = Fraction(-1)
        costates.append(PfGate("costate", SkewMatrix(
            labels, tuple(tuple(row) for row in grid))))
        costate_listing.extend(labels)

    for pad, aux in k_pairs:
        states.append(PfGate("state", SkewMatrix((aux,), ((Fraction(0),),))))
        costates.append(PfGate("costate", SkewMatrix(
            (pad, aux), ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))))))
        costate_listing.extend((pad, aux))

    # The emitted order fixes every term's sign up to one global constant;
    # read it off the all-edges-idle configuration and cancel a -1 with a
    # constant gadget pair.
    if costate_listing and _perm_sign(costate_listing) < 0:
        x, y = nxt, nxt + 1
        nxt += 2
        states.append(PfGate("state", SkewMatrix(
            (x, y), ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))))
        costates.append(PfGate("costate", SkewMatrix(
            (x, y), ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0))))))

    target = PfaffianCircuit(tuple(states + costates), nxt - 1)
    source_entries = sum(len(g.rows) * len(g.cols)
                         for s in circuit.stacks for g in s.gates)
    target_entries = sum(g.matrix.size ** 2 for g in target.gates)
    return CompiledCircuit(
        source=circuit,
        target=target,
        gadget_count=len(target.gates),
        size_ratio=Fraction(target_entries, max(source_entries, 1)),
    )


def compile_and_check(circuit: Circuit) -> CompiledCircuit:
    """Compile and assert value preservation (debug helper for scripts)."""
    from .pfaffian import eval_pfaffian_circuit
    from .scalars import scalars_equal

    out = compile_circuit(circuit)
    want = evaluate(circuit)
    got = eval_pfaffian_circuit(out.target)
    if not scalars_equal(want, got):
        raise AssertionError(f"compiled value {got} != source value {want}")
    return out
