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

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul

from .errors import DanglingWire, DuplicateLabel, SizeMismatch
from .labeled import LabeledMatrix, Scalar, _trusted, _Value, permutation_matrix
from .scalars import _det_bareiss_int, _det_complex, _name, grid_is_exact, normalize_grid

Wiring = tuple[tuple[int, int], ...]  # (source output label, target input label)

_INT = frozenset((int,))


class Stack(_Value):
    gates: tuple[LabeledMatrix, ...]

    @property
    def in_labels(self) -> tuple[int, ...]:
        return tuple([lab for g in self.gates for lab in g.cols])

    @property
    def out_labels(self) -> tuple[int, ...]:
        return tuple([lab for g in self.gates for lab in g.rows])

class Circuit(_Value):
    stacks: tuple[Stack, ...]
    wirings: tuple[Wiring, ...]  # wirings[k] crosses the gap after stack k

    # parse_circuit sets this on the circuits it reads in the rational field,
    # whose every entry it made an int or a Fraction.
    _exact = False

    def __post_init__(self):
        validate(self)

    @property
    def exact(self) -> bool:
        """True when every gate entry is an int or a Fraction, so the exact
        kernels run; a circuit with no entries is exact.  A circuit parsed in
        the rational field is exact by construction; any other is scanned on
        each read, lazily, so it always agrees with the gates and stops at
        the first complex gate."""
        return self._exact or grid_is_exact(
            chain.from_iterable(g.entries for s in self.stacks for g in s.gates))


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
                raise DuplicateLabel(f"wiring {k} reuses output {_name(a)}")
            if b in seen_dst:
                raise DuplicateLabel(f"wiring {k} reuses input {_name(b)}")
            seen_src.add(a)
            seen_dst.add(b)
        if seen_src != set(src):
            missing = set(src) - seen_src
            extra = seen_src - set(src)
            raise DanglingWire(f"wiring {k}: unmatched outputs {_name(missing or extra)}")
        if seen_dst != set(dst):
            missing = set(dst) - seen_dst
            extra = seen_dst - set(dst)
            raise DanglingWire(f"wiring {k}: unmatched inputs {_name(missing or extra)}")
        # The sets match, so a shorter set means two gates share a label.
        if len(seen_src) != len(src):
            raise DuplicateLabel(f"stack {k} repeats an output label in {_name(src)}")
        if len(seen_dst) != len(dst):
            raise DuplicateLabel(f"stack {(k + 1) % m} repeats an input label in {_name(dst)}")


def wiring_matrix(circuit: Circuit, k: int) -> LabeledMatrix:
    """Permutation matrix of wiring k: columns stack k outputs, rows stack k+1 inputs."""
    m = len(circuit.stacks)
    src = circuit.stacks[k].out_labels
    dst = circuit.stacks[(k + 1) % m].in_labels
    return permutation_matrix(dict(circuit.wirings[k]), src, dst)


def transfer_matrix(circuit: Circuit, k: int) -> LabeledMatrix:
    """Stack k then wiring k as one matrix: columns stack k inputs, rows stack k+1 inputs.

    Each gate row's nonzero entries go to the row its wiring names, in a grid
    of int zeros that normalize_grid types as labeled() would, so an all-0j
    complex stack gives an exact matrix.  The circuit has checked both label
    lists and the grid has their shape, so LabeledMatrix's checks are skipped."""
    stack = circuit.stacks[k]
    cols = stack.in_labels
    rows = circuit.stacks[(k + 1) % len(circuit.stacks)].in_labels
    pos = {lab: j for j, lab in enumerate(cols)}
    wire = dict(circuit.wirings[k])
    grid = {lab: [0] * len(cols) for lab in rows}
    for g in stack.gates:
        for r, row in zip(g.rows, g.entries):
            out = grid[wire[r]]
            for c, x in zip(g.cols, row):
                if x:
                    out[pos[c]] = x
    return _trusted(LabeledMatrix, rows=rows, cols=cols,
                    entries=normalize_grid([grid[lab] for lab in rows]))


def collapse(circuit: Circuit, start: int = 0) -> LabeledMatrix:
    """Multiply out one full turn of the loop, read at stack `start`.

    Returns the endomorphism P_{s-1} M_{s-1} ... P_{s+1} M_{s+1} P_s M_s
    (indices mod the stack count) on stack s's input wires, rows and
    columns both in that stack's input order.  The empty circuit
    collapses to the 0x0 matrix.

    Each wire at the current boundary is carried as a row over the w_s
    start wires.  Both fields walk each stack's gates in order: a gate row
    combines only the rows its gate reads and is stored under the label its
    wiring gives it, so one turn costs O(depth * w^2 * w_s).  Exact circuits
    run on Python ints: each stack's denominators are cleared once with
    their lcm, one running scale divides out at the end, and each row is
    one packed int whose slot width is fixed before the turn (see
    _collapse_exact).  Complex circuits carry each row as a list of
    complex values.
    """
    m = len(circuit.stacks)
    if m == 0:
        return LabeledMatrix((), (), ())
    if not 0 <= start < m:
        raise IndexError(f"start {start} out of range for {m} stacks")
    labels = circuit.stacks[start].in_labels
    exact = circuit.exact
    rows, scale = (_collapse_exact if exact else _collapse_complex)(circuit, start, labels)
    if exact:
        rows = [[Fraction(v, scale) for v in row] for row in rows]
    return LabeledMatrix(labels, labels, tuple([tuple(row) for row in rows]))


def _collapse_complex(circuit: Circuit, start: int,
                      labels: tuple[int, ...]) -> tuple[list[list[complex]], int]:
    """collapse() of a complex circuit as rows of complex values and the
    scale 1, the shape of _collapse_exact's result, from the same walk of
    the gates, each row summing its nonzero terms in column order."""
    m = len(circuit.stacks)
    w = len(labels)
    acc = {lab: [int(i == j) for j in range(w)] for i, lab in enumerate(labels)}
    for k in range(start, start + m):
        wire = dict(circuit.wirings[k % m])
        nxt = {}
        for g in circuit.stacks[k % m].gates:
            srcs = [acc[c] for c in g.cols]
            for r, row in zip(g.rows, g.entries):
                out = None
                for x, src in zip(map(complex, row), srcs):
                    if x:
                        out = ([x * b for b in src] if out is None
                               else [a + x * b for a, b in zip(out, src)])
                nxt[wire[r]] = out or [0j] * w
        acc = nxt
    return [acc[lab] for lab in labels], 1


def _collapse_exact(circuit: Circuit, start: int,
                    labels: tuple[int, ...]) -> tuple[list[list[int]], int]:
    """collapse() of an exact circuit as integer rows and one scale s > 0: the
    collapse is rows / s.  While it runs, each row is packed into one int.

    Row (v_0, ..., v_{w-1}) over the w start wires is the int
    sum(v_i << (i * bits)): a slot of `bits` bits per start wire, signed.
    Sums and integer multiples of packed rows are the packed sums and
    multiples, so a gate term is one bigint multiply-add, and every packed
    row is the exact integer of its true entries whatever its slots hold.
    Only the final rows are read, by _unpack, which reads a slot back while
    its |v_i| < 2**(bits - 1).  So a first pass turns each stack into
    integer rows and multiplies their largest absolute row sums into a
    bound on every final |v_i| (0 after a zero stack), `bits` is the
    smallest width whose slot holds that bound, and a second pass runs the
    turn with no further check.
    """
    m = len(circuit.stacks)
    turn = []
    bound = scale = 1
    for k in range(start, start + m):
        stack = circuit.stacks[k % m]
        ints = [g.entries for g in stack.gates]
        # A stack of ints is its own integer form; any other clears its
        # denominators.
        if not _INT.issuperset(map(type, chain.from_iterable(chain.from_iterable(ints)))):
            # A set, as in scalars.clear_denominators.
            d = lcm(*{x.denominator for rows in ints for row in rows for x in row})
            scale *= d
            ints = [[[x.numerator * (d // x.denominator) for x in row] for row in rows]
                    for rows in ints]
        bound *= max([sum(map(abs, row)) for rows in ints for row in rows], default=0)
        turn.append(ints)
    bits = bound.bit_length() + 1
    acc = {lab: 1 << (i * bits) for i, lab in enumerate(labels)}
    for k, ints in enumerate(turn, start):
        wire = dict(circuit.wirings[k % m])
        nxt = {}
        for g, rows in zip(circuit.stacks[k % m].gates, ints):
            srcs = [acc[c] for c in g.cols]
            for r, row in zip(g.rows, rows):
                nxt[wire[r]] = sum(map(mul, row, srcs))
        acc = nxt
    return [_unpack(acc[lab], len(labels), bits) for lab in labels], scale


def _unpack(p: int, w: int, bits: int) -> list[int]:
    """The w signed slots of a packed row, lowest first.  Half a slot added
    to every slot makes each one nonnegative, so no slot borrows from the
    next, and each reads as a shift and a mask less that half."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    shifts = range(0, w * bits, bits)
    p += sum([half << s for s in shifts])
    return [(p >> s & mask) - half for s in shifts]


def evaluate(circuit: Circuit) -> Scalar:
    """Scalar value of the closed circuit: det(I + collapse).

    The collapse is read at the narrowest boundary (det(I + XY) =
    det(I + YX) makes every boundary give the same value), so the cost is
    O(depth * w^2 * w_min) plus one w_min x w_min determinant.  Both fields
    collapse to rows A and a scale s, and det(I + A / s) = det(sI + A) / s^w:
    an exact collapse stays in ints, its rows go to the Bareiss kernel, and
    the value is the Fraction det / s^w; a complex one has s = 1 and goes to
    the complex kernel.  When w_min is 0 the determinant is the empty one: 1
    in the rational field and 1+0j in the complex one.
    """
    widths = [len(s.in_labels) for s in circuit.stacks]
    if not widths:
        return 1  # the empty circuit: the 0x0 determinant
    start = widths.index(min(widths))
    exact = circuit.exact
    rows, scale = (_collapse_exact if exact else _collapse_complex)(
        circuit, start, circuit.stacks[start].in_labels)
    for i, row in enumerate(rows):
        row[i] += scale
    if not exact:
        return _det_complex(rows)
    return Fraction(_det_bareiss_int(rows), scale ** len(rows)) if rows else 1


def identity_wiring(src: tuple[int, ...], dst: tuple[int, ...]) -> Wiring:
    """Pair off sorted source labels with sorted target labels."""
    if len(src) != len(dst):
        raise SizeMismatch(f"cannot wire {len(src)} outputs to {len(dst)} inputs")
    return tuple(list(zip(sorted(src), sorted(dst))))
