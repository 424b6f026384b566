"""Pfaffians, skew matrices, and Pfaffian circuits.

A Pfaffian circuit assigns each edge id to exactly one state gate and
exactly one costate gate; both carry skew matrices over their edge
lists.  Its value is the full contraction of the sub-Pfaffian tensors,
and the fast path computes it as a single Pfaffian of an edge-indexed
matrix: the state entries and the costate entries, the latter with a
checkerboard sign twist, add into one skew matrix, and the value is its
Pfaffian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Sequence

from .errors import DanglingWire, EdgeMultiplicity, NotSkew, TooLarge
from .scalars import Scalar, clear_denominators, grid_is_exact, normalize_grid, scalars_equal
from .tensor import Tensor, _subset_bits, oracle_cap, tensor_compose, tensor_product

PF_ORACLE_MAX = 12


def pfaffian(grid: Sequence[Sequence[Scalar]]) -> Scalar:
    """Pfaffian of a skew-symmetric matrix, read from its upper triangle only.

    Rational grids run a fraction-free O(n^3) elimination on ints
    (Galbiati-Maffioli) that swaps indices on a zero pivot; complex grids
    swap in the largest entry of each pivot row.
    """
    n = len(grid)
    if grid_is_exact(grid):
        return 0 if n % 2 else _pfaffian_exact(grid)
    if n % 2:
        return 0j
    a = [list(row) for row in grid]
    pf = complex(1)
    for k in range(0, n - 1, 2):
        rk, q = a[k], k + 1
        # The update divides by the pivot, so take row k's largest entry.
        p = max(range(q, n), key=lambda j: abs(rk[j]))
        if rk[p] == 0:
            return 0j
        if p != q:
            _swap(a, k, p)
            pf = -pf
        b, rq = rk[q], a[q]
        pf = pf * b
        # Schur complement of the pivot pair onto the rest.
        for i in range(q + 1, n):
            ci, di, ri = rk[i], rq[i], a[i]
            if ci or di:
                ri[i + 1:] = [x + (di * y - ci * z) / b
                              for x, y, z in zip(ri[i + 1:], rk[i + 1:], rq[i + 1:])]
    return pf


def _swap(a: list[list], k: int, p: int) -> None:
    """Swap indices k+1 < p in the upper triangle of rows k on; Pf changes sign."""
    q = k + 1
    rk, rq, rp = a[k], a[q], a[p]
    rk[q], rk[p], rq[p] = rk[p], rk[q], -rq[p]
    for r in range(q + 1, p):
        rq[r], a[r][p] = -a[r][p], -rq[r]
    rq[p + 1:], rp[p + 1:] = rp[p + 1:], rq[p + 1:]


def _pfaffian_exact(grid) -> Fraction:
    # Index i scaled by d_i, the lcm of the denominators right of the
    # diagonal in row i: d_i d_j a_ij is an integer for i < j, and Pf grows
    # by prod(d).  The elimination never reads the zeros padded on the left.
    upper, factors = clear_denominators([row[i + 1:] for i, row in enumerate(grid)])
    a = [[0] * (i + 1) + [x * d for x, d in zip(row, factors[i + 1:])]
         for i, row in enumerate(upper)]
    n, sign, prev = len(a), 1, 1
    for k in range(0, n - 1, 2):
        rk, q = a[k], k + 1
        if rk[q] == 0:  # swap index q with the first p that row k reaches
            p = next((j for j in range(q + 1, n) if rk[j]), None)
            if p is None:  # row k is zero, and so is Pf
                sign = 0
                break
            _swap(a, k, p)
            sign = -sign
        b, rq = rk[q], a[q]
        # Entry (i, j) becomes Pf on 0..q, i, j (Tanner's identity): // prev is exact.
        for i in range(q + 1, n):
            ci, di, ri = rk[i], rq[i], a[i]
            if ci or di:
                ri[i + 1:] = [(b * x + di * y - ci * z) // prev
                              for x, y, z in zip(ri[i + 1:], rk[i + 1:], rq[i + 1:])]
            elif b != prev:
                ri[i + 1:] = [b * x // prev for x in ri[i + 1:]]
        prev = b
    return Fraction(sign * prev, prod(factors))


def _matchings(points: tuple[int, ...]):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, p in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield ((first, p),) + tail


def pfaffian_oracle(grid: Sequence[Sequence[Scalar]]) -> Scalar:
    """Pfaffian as a signed sum over perfect matchings.

    The sign of a matching is (-1)**crossings when its chords are drawn
    over points 0..n-1 in a line.  Exponential; refuses n > 12.
    """
    n = len(grid)
    if n > PF_ORACLE_MAX:
        raise TooLarge(f"matching-sum pfaffian of size {n} > {PF_ORACLE_MAX}")
    if n == 0:
        return Fraction(1)
    if n % 2 == 1:
        return Fraction(0) if grid_is_exact(grid) else 0j
    total: Scalar = Fraction(0)
    for pairs in _matchings(tuple(range(n))):
        term: Scalar = Fraction(1)
        for i, j in pairs:
            term = term * grid[i][j]
        crossings = sum(1 for (a, b), (c, d) in combinations(pairs, 2)
                        if a < c < b < d or c < a < d < b)
        total = total + (term if crossings % 2 == 0 else -term)
    return total


@dataclass(frozen=True)
class SkewMatrix:
    labels: tuple[int, ...]
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise EdgeMultiplicity(f"repeated label in {self.labels}")
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("skew matrix grid is not square on its labels")
        # Checked once here: pfaffian() and the edge matrix read only i < j.
        for i, row in enumerate(self.entries):
            if not scalars_equal(row[i], 0):
                raise NotSkew(f"nonzero diagonal at {self.labels[i]}")
            for j in range(i + 1, n):
                x, y = row[j], self.entries[j][i]
                if (x or y) and not scalars_equal(x, -y):
                    raise NotSkew(
                        f"entry ({self.labels[i]},{self.labels[j]}) not "
                        "antisymmetric"
                    )

    @property
    def size(self) -> int:
        return len(self.labels)


def skew(labels: Sequence[int], entries: Sequence[Sequence]) -> SkewMatrix:
    return SkewMatrix(tuple(labels), normalize_grid(entries))


def zero_skew(labels: Sequence[int]) -> SkewMatrix:
    n = len(labels)
    return skew(labels, [[0] * n for _ in range(n)])


def skew_restrict(sk: SkewMatrix, keep: Sequence[int]) -> SkewMatrix:
    """Principal submatrix on a label subset, in sk's own order."""
    kset = set(keep)
    pos = [i for i, lab in enumerate(sk.labels) if lab in kset]
    ent = [[sk.entries[i][j] for j in pos] for i in pos]
    return SkewMatrix(tuple(sk.labels[i] for i in pos), tuple(tuple(r) for r in ent))


def anti_transpose(sk: SkewMatrix) -> SkewMatrix:
    """Flip across the anti-diagonal, keeping the label list."""
    n = sk.size
    ent = tuple(tuple(sk.entries[n - 1 - j][n - 1 - i] for j in range(n))
                for i in range(n))
    return SkewMatrix(sk.labels, ent)


def _sub_pfaffians(sk: SkewMatrix):
    """(bits, Pf) for every even subset of sk's indices whose Pfaffian is nonzero."""
    n = sk.size
    if n > oracle_cap():
        raise TooLarge(f"sub-pfaffian expansion over {n} wires")
    for s in range(0, n + 1, 2):
        for pos in combinations(range(n), s):
            v = pfaffian([[sk.entries[i][j] for j in pos] for i in pos])
            if v != 0:
                yield _subset_bits(n, pos), v


def spf(sk: SkewMatrix) -> Tensor:
    """State tensor of all sub-Pfaffians: subset I carries Pf on I."""
    return Tensor(sk.labels, (), {(bits, ()): v for bits, v in _sub_pfaffians(sk)})


def spf_dual(sk: SkewMatrix) -> Tensor:
    """Costate tensor: subset I carries Pf on the complement of I."""
    return Tensor((), sk.labels, {((), tuple(1 - b for b in bits)): v
                                  for bits, v in _sub_pfaffians(sk)})


@dataclass(frozen=True)
class PfGate:
    kind: str  # "state" or "costate"
    matrix: SkewMatrix

    def __post_init__(self):
        if self.kind not in ("state", "costate"):
            raise ValueError(f"unknown gate kind {self.kind!r}")

    @property
    def edges(self) -> tuple[int, ...]:
        return self.matrix.labels


@dataclass(frozen=True)
class PfaffianCircuit:
    """edge_count is the largest edge id (0 for no gates); checked when built."""
    gates: tuple[PfGate, ...]
    edge_count: int = field(init=False)

    def __post_init__(self):
        last = max((e for g in self.gates for e in g.edges), default=0)
        object.__setattr__(self, "edge_count", last)
        validate_pfaffian(self)


def validate_pfaffian(pc: PfaffianCircuit) -> None:
    """Every edge id 1..edge_count once in a state and once in a costate.
    Runs once, in PfaffianCircuit.__post_init__."""
    for side in ("state", "costate"):
        seen: set[int] = set()
        for g in pc.gates:
            if g.kind != side:
                continue
            for e in g.edges:
                if not 1 <= e <= pc.edge_count:
                    raise DanglingWire(f"edge id {e} outside 1..{pc.edge_count}")
                if e in seen:
                    raise EdgeMultiplicity(f"edge {e} used twice on the {side} side")
                seen.add(e)
        if len(seen) != pc.edge_count:
            first = next(e for e in range(1, pc.edge_count + 1) if e not in seen)
            raise DanglingWire(f"{pc.edge_count - len(seen)} edges have no {side} "
                               f"gate, the first is {first}")


def eval_pfaffian_circuit(pc: PfaffianCircuit) -> Scalar:
    """Fast evaluation: one Pfaffian of the assembled edge matrix.

    The costate block enters with the sign twist (-1)**(i+j+1) on entry
    (i, j) in 1-based edge ids; that twist is what turns the sum over
    edge subsets of products of sub-Pfaffians into a single Pfaffian.
    Both sides add into the upper triangle of one grid, the only part
    pfaffian() reads; its zeros take the gates' field.
    """
    zero = 0 if all(grid_is_exact(g.matrix.entries) for g in pc.gates) else 0j
    total = [[zero] * pc.edge_count for _ in range(pc.edge_count)]
    for g in pc.gates:
        for ea, row in zip(g.edges, g.matrix.entries):
            out = total[ea - 1]
            for eb, x in zip(g.edges, row):
                if x and ea < eb:
                    out[eb - 1] += -x if g.kind == "costate" and (ea + eb) % 2 == 0 else x
    return pfaffian(total)


def eval_pfaffian_oracle(pc: PfaffianCircuit) -> Scalar:
    """Oracle evaluation by contracting sub-Pfaffian tensors edge by edge."""
    if pc.edge_count > oracle_cap():
        raise TooLarge(f"oracle contraction over {pc.edge_count} edges")
    ket = Tensor((), (), {((), ()): Fraction(1)})
    bra = Tensor((), (), {((), ()): Fraction(1)})
    for g in pc.gates:
        if g.kind == "state":
            ket = tensor_product(ket, spf(g.matrix))
        else:
            bra = tensor_product(bra, spf_dual(g.matrix))
    return tensor_compose(bra, ket).component((), ())
