"""Minor-expansion tensors.

Every labeled matrix M expands into a tensor holding all of its minors:
the component at (row subset I, column subset J) is det(M_IJ), zero when
the subsets have different sizes, and 1 at the empty pair.  Tensor legs
follow the wire lists, one bit per wire, leftmost wire first.  Composing
and tracing these tensors is exponentially slow, which is the point:
contract_circuit() is the independent oracle the fast determinant path
is checked against, and spf, spf_dual and eval_pfaffian_oracle are the
Pfaffian side's.  ORACLE_CAP bounds them all: wires per minor or
sub-Pfaffian expansion, edges per Pfaffian contraction, and the base-2
logarithm of the subset tuples a multicycle enumeration may try.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from math import comb, prod
from typing import Iterable, Mapping

from .circuit import Circuit, transfer_matrix, wiring_matrix
from .errors import LabelCollision, LabelMismatch, TooLarge
from .labeled import LabeledMatrix, Scalar, _Value, submatrix
from .pfaffian import PfaffianCircuit, SkewMatrix
from .scalars import _name, det_grid

Bits = tuple[int, ...]

ORACLE_CAP = 20


class Tensor(_Value):
    out_wires: tuple[int, ...]
    in_wires: tuple[int, ...]
    data: Mapping[tuple[Bits, Bits], Scalar]

    # Compared and hashed by identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def component(self, ket: Bits, bra: Bits) -> Scalar:
        return self.data.get((ket, bra), 0)


def _subset_bits(n: int, positions: tuple[int, ...]) -> Bits:
    bits = [0] * n
    for p in positions:
        bits[p] = 1
    return tuple(bits)


def sdet_expand(m: LabeledMatrix) -> Tensor:
    """Tensor of all minors of m.  Cost grows as 4^wires; capped.

    Built one size at a time with no determinant kernel: the minor on rows
    i0 < rest and columns J is sum over t of (-1)^t m[i0][J[t]] times the
    minor on rest and J less J[t], read from the minors of the size below.
    Those are kept by row positions, then column positions, nonzero only.
    An int matrix gives int minors, a Fraction one rationals and a complex
    one complex values; the empty minor is 1."""
    r, c = m.shape
    if r + c > ORACLE_CAP:
        raise TooLarge(f"minor expansion of a {m.shape} matrix ({r + c} wires > {ORACLE_CAP})")
    rows = m.entries
    data: dict[tuple[Bits, Bits], Scalar] = {(_subset_bits(r, ()), _subset_bits(c, ())): 1}
    smaller: dict[tuple[int, ...], dict[tuple[int, ...], Scalar]] = {(): {(): 1}}
    for s in range(1, min(r, c) + 1):
        # Each column subset with its expansion terms: (t odd, J[t], J less J[t]).
        col_terms = [(jpos, _subset_bits(c, jpos),
                      [(t & 1, j, jpos[:t] + jpos[t + 1:]) for t, j in enumerate(jpos)])
                     for jpos in combinations(range(c), s)]
        minors: dict[tuple[int, ...], dict[tuple[int, ...], Scalar]] = {}
        for ipos in combinations(range(r), s):
            below = smaller.get(ipos[1:])
            if below is None:  # every minor on these rows is 0
                continue
            row, ibits, found = rows[ipos[0]], _subset_bits(r, ipos), {}
            for jpos, jbits, terms in col_terms:
                d = 0
                for odd, j, rest in terms:
                    x = row[j]
                    if x and rest in below:
                        d = d - x * below[rest] if odd else d + x * below[rest]
                if d != 0:
                    found[jpos] = data[(ibits, jbits)] = d
            if found:
                minors[ipos] = found
        smaller = minors
    return Tensor(m.rows, m.cols, data)


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Disjoint union of legs, products of components."""
    if set(a.out_wires) & set(b.out_wires) or set(a.in_wires) & set(b.in_wires):
        raise LabelCollision("tensor_product requires disjoint wires")
    data: dict[tuple[Bits, Bits], Scalar] = {}
    for (ka, ba), va in a.data.items():
        for (kb, bb), vb in b.data.items():
            data[(ka + kb, ba + bb)] = va * vb
    return Tensor(a.out_wires + b.out_wires, a.in_wires + b.in_wires, data)


def tensor_compose(a: Tensor, b: Tensor) -> Tensor:
    """Contract a's input legs with b's output legs, matching by label."""
    if set(a.in_wires) != set(b.out_wires):
        raise LabelMismatch(f"cannot contract {a.in_wires} with {b.out_wires}")
    b_pos = {lab: i for i, lab in enumerate(b.out_wires)}
    reorder = [b_pos[lab] for lab in a.in_wires]  # b-ket position for each a-input slot

    by_mid: dict[Bits, list[tuple[Bits, Scalar]]] = {}
    for (kb, bb), vb in b.data.items():
        mid = tuple([kb[p] for p in reorder])  # kb re-read in a.in_wires order
        by_mid.setdefault(mid, []).append((bb, vb))

    data: dict[tuple[Bits, Bits], Scalar] = {}
    for (ka, mid), va in a.data.items():
        for bb, vb in by_mid.get(mid, ()):
            key = (ka, bb)
            data[key] = data.get(key, 0) + va * vb
    data = {k: v for k, v in data.items() if v != 0}
    return Tensor(a.out_wires, b.in_wires, data)


def tensor_trace(t: Tensor) -> Scalar:
    """Close output legs onto input legs with the same label."""
    if set(t.out_wires) != set(t.in_wires):
        raise LabelMismatch(f"cannot trace {t.out_wires} against {t.in_wires}")
    in_pos = {lab: i for i, lab in enumerate(t.in_wires)}
    reorder = [in_pos[lab] for lab in t.out_wires]
    return sum(v for (ket, bra), v in t.data.items()
               if all(ket[i] == bra[reorder[i]] for i in range(len(ket))))


def tensor_product_all(tensors: Iterable[Tensor]) -> Tensor:
    """Product of the tensors in order, from the unit tensor (1 at the empty pair)."""
    return reduce(tensor_product, tensors, Tensor((), (), {((), ()): 1}))


def contract_circuit(circuit: Circuit) -> Scalar:
    """Oracle evaluation by brute tensor contraction.

    Expands every gate and every wiring into its minor tensor, chains
    them around the loop, and traces.  Agrees with circuit.evaluate()
    but takes time exponential in the boundary widths.  A complex circuit
    gives a complex value, even where only the empty minors contribute.
    """
    m = len(circuit.stacks)
    if m == 0:
        return 1
    acc: Tensor | None = None
    for k in range(m):
        stack = tensor_product_all(map(sdet_expand, circuit.stacks[k].gates))
        step = tensor_compose(sdet_expand(wiring_matrix(circuit, k)), stack)
        acc = step if acc is None else tensor_compose(step, acc)
    assert acc is not None
    value = tensor_trace(acc)
    return value if circuit.exact else complex(value)


class Multicycle(_Value):
    """One choice of wire subsets, keyed by (boundary index, label)."""
    support: frozenset[tuple[int, int]]
    weight: Scalar


def enumerate_multicycles(circuit: Circuit) -> tuple[Multicycle, ...]:
    """All nonzero multicycles with their weights.

    A multicycle picks a subset of wires at every stack boundary, all of
    the same size; its weight is the product around the loop of the
    corresponding minors of the boundary-to-boundary transfer matrices.
    The weights sum to the circuit value, and a complex circuit's weights
    are complex.  Refuses (TooLarge) when the number of subset tuples to
    try exceeds 2 ** ORACLE_CAP.
    """
    m = len(circuit.stacks)
    if m == 0:
        return (Multicycle(frozenset(), 1),)
    boundary = [circuit.stacks[k].in_labels for k in range(m)]
    max_size = min(len(b) for b in boundary)
    tuples = sum(prod(comb(len(b), s) for b in boundary) for s in range(max_size + 1))
    if (tuples - 1).bit_length() > ORACLE_CAP:  # tuples > 2**cap, without building 2**cap
        raise TooLarge(f"multicycle enumeration over {_name(tuples)} subset tuples "
                       f"> 2**{ORACLE_CAP}")
    # transfer[k] maps the wires entering stack k to the wires entering stack k+1
    transfer = [transfer_matrix(circuit, k) for k in range(m)]
    one = 1 if circuit.exact else 1 + 0j

    def weight_for(subsets: tuple[tuple[int, ...], ...]) -> Scalar:
        w = one
        for k in range(m):
            block = submatrix(transfer[k], subsets[(k + 1) % m], subsets[k])
            d = det_grid([list(row) for row in block.entries])
            if d == 0:
                return 0
            w = w * d
        return w

    found: list[Multicycle] = []
    for s in range(max_size + 1):
        per_gap = [combinations(boundary[k], s) for k in range(m)]
        for subsets in product(*per_gap):
            w = weight_for(subsets)
            if w != 0:
                sup = frozenset((k, lab) for k in range(m) for lab in subsets[k])
                found.append(Multicycle(sup, w))
    found.sort(key=lambda mc: (len(mc.support), sorted(mc.support)))
    return tuple(found)


def multicycle_total(circuit: Circuit) -> Scalar:
    return sum(mc.weight for mc in enumerate_multicycles(circuit))


def _sub_pfaffians(sk: SkewMatrix):
    """(bits, Pf) for every even subset of sk's indices whose Pfaffian is nonzero.

    Built two sizes at a time with no Pfaffian kernel: Pf on p0 < p1 < ...
    is the sum over t >= 1 of (-1)^(t+1) a[p0][pt] times Pf on the subset
    less p0 and pt, read from the nonzero sub-Pfaffians of the size below,
    kept by position tuple.  The empty subset gives 1."""
    n = sk.size
    if n > ORACLE_CAP:
        raise TooLarge(f"sub-pfaffian expansion over {n} wires")
    yield _subset_bits(n, ()), 1
    smaller: dict[tuple[int, ...], Scalar] = {(): 1}
    for s in range(2, n + 1, 2):
        found: dict[tuple[int, ...], Scalar] = {}
        for pos in combinations(range(n), s):
            row, v = sk.entries[pos[0]], 0
            for t in range(1, s):
                x = row[pos[t]]
                if x:
                    rest = pos[1:t] + pos[t + 1:]
                    if rest in smaller:
                        v = v + x * smaller[rest] if t & 1 else v - x * smaller[rest]
            if v != 0:
                found[pos] = v
                yield _subset_bits(n, pos), v
        smaller = found


def spf(sk: SkewMatrix) -> Tensor:
    """State tensor of all sub-Pfaffians: subset I carries Pf on I."""
    return Tensor(sk.labels, (), {(bits, ()): v for bits, v in _sub_pfaffians(sk)})


def spf_dual(sk: SkewMatrix) -> Tensor:
    """Costate tensor: subset I carries Pf on the complement of I."""
    return Tensor((), sk.labels, {((), tuple([1 - b for b in bits])): v
                                  for bits, v in _sub_pfaffians(sk)})


def eval_pfaffian_oracle(pc: PfaffianCircuit) -> Scalar:
    """Oracle evaluation: ⟨⊗ spf_dual(costates) | ⊗ spf(states)⟩, edge by edge.
    A complex circuit gives a complex value, a zero one too."""
    if pc.edge_count > ORACLE_CAP:
        raise TooLarge(f"oracle contraction over {pc.edge_count} edges")
    ket = tensor_product_all(map(spf, pc.states))
    bra = tensor_product_all(map(spf_dual, pc.costates))
    value = tensor_compose(bra, ket).component((), ())
    return value if pc.exact else complex(value)
