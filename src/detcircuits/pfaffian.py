"""Pfaffians, skew matrices, and Pfaffian circuits.

A Pfaffian circuit is a ket of states and a bra of costates, each a
skew matrix over its edge list, and each edge id lies on exactly one
state and exactly one costate.  Its value is the bra contracted with the
ket, the product of the states' sub-Pfaffian tensors against the product
of the costates' (tensor.eval_pfaffian_oracle).  The fast path computes
it as a single Pfaffian of an edge-indexed matrix: the state entries and
the costate entries, the latter twisted by a checkerboard sign as they
are read, add into one skew matrix, and the value is its Pfaffian.  That
Pfaffian equals the contraction only for suitable edge numberings, such
as the compiler's; for others, as in a hand-written .pf file, it can be
the contraction's negative or another value.  Of 1000 random circuits of
2-8 edges, with gates of at most 4 edges, shuffled label lists and a
nonzero contraction, 273 matched and 284 came out negated.

Both Pfaffian kernels store a skew matrix as its upper triangle in
sparse rows: rows[i] maps each j > i to a nonzero a_ij.  The rational
kernel is a fraction-free Galbiati-Maffioli elimination on ints.  A pivot
pair updates only the rows it reaches; every other row keeps a stamp, the
pivot at which it was last current, and catches up by one exact division
when it is next read.  A zero pivot swaps two indices q < p, and brings
only rows q..p up to date first.  The complex kernel pivots on the largest
entry of the pivot row and runs on the same rows with the same swap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, compress
from math import isinf, prod
from typing import Sequence

from .errors import DanglingWire, DuplicateLabel, NotSkew, TooLarge
from .labeled import _check_labels, _Value
from .scalars import (Scalar, _name, clear_denominators, grid_is_exact, normalize_grid,
                      scalars_equal)

PF_ORACLE_MAX = 12


def pfaffian(grid: Sequence[Sequence[Scalar]]) -> Scalar:
    """Pfaffian of a skew-symmetric matrix, read from its upper triangle only.

    The nonzero entries right of the diagonal become sparse rows once, and
    the kernel for the grid's field runs on them.
    """
    n = len(grid)
    rows = [{j: row[j] for j in range(i + 1, n) if row[j]} for i, row in enumerate(grid)]
    return _pfaffian_exact(rows) if grid_is_exact(grid) else _pfaffian_complex(rows)


def _swap(a: list[dict], k: int, p: int) -> None:
    """Swap indices k+1 < p in the rows k on, where a[k][p] is nonzero; Pf changes sign."""
    q = k + 1
    rk, rq = a[k], a[q]
    x = rk.pop(q, 0)
    rk[q] = rk.pop(p)
    if x:
        rk[p] = x
    # (r, p) becomes -(q, r) for q < r < p, (q, p) is negated, and the
    # parts right of p trade places.
    to_q = {r: -a[r].pop(p) for r in range(q + 1, p) if p in a[r]}
    to_p = {}
    for j, y in rq.items():
        if j < p:
            a[j][p] = -y
        elif j == p:
            to_q[p] = -y
        else:
            to_p[j] = y
    to_q.update(a[p])
    a[q], a[p] = to_q, to_p


def _pfaffian_complex(a: list[dict]) -> complex:
    n = len(a)
    if n % 2:
        return 0j
    pf = complex(1)
    for k in range(0, n, 2):
        rk, q = a[k], k + 1
        # The update divides by the pivot, so take row k's largest entry
        # (the lowest index on ties).
        try:
            p = min(rk, key=lambda j: (-abs(rk[j]), j), default=q)
            piv = rk.get(p, 0j)
            big = isinf(abs(piv.real) + abs(piv.imag))
        except OverflowError:  # a modulus past the largest float
            big = True
        if big:  # dividing by the pivot would overflow: index k / 4, Pf * 4
            rk = a[k] = {j: x * 0.25 for j, x in rk.items()}
            pf = pf * 4
            p = min(rk, key=lambda j: (-abs(rk[j]), j))
        if not rk.get(p):
            return 0j
        if p != q:
            _swap(a, k, p)
            pf = -pf
        b, rq = rk[q], a[q]
        pf = pf * b
        # Schur complement of the pivot pair onto the rows it reaches: each
        # column past q with its two pivot-row entries, read once, in order.
        reach = [(j, rk.get(j, 0), rq.get(j, 0)) for j in sorted(set(rk).union(rq)) if j > q]
        for t, (i, ci, di) in enumerate(reach):
            if ci or di:
                ri = a[i]
                for j, cj, dj in reach[t + 1:]:
                    ri[j] = ri.get(j, 0) + (di * cj - ci * dj) / b
    return pf


def _catch_up(a: list[dict], stamp: list, i: int, prev: int) -> dict:
    """Row i, rescaled from the pivot it was last current at to prev."""
    s = stamp[i]
    if s != prev:
        a[i] = {j: x * prev // s for j, x in a[i].items()}
        stamp[i] = prev
    return a[i]


def _pfaffian_exact(rows: list[dict]) -> Fraction | int:
    n = len(rows)
    if n % 2:
        return 0
    # Index i scaled by d_i, the lcm of the denominators in row i: d_i d_j a_ij
    # is an integer for i < j, and Pf grows by prod(d).
    cleared, factors = clear_denominators([r.values() for r in rows])
    a = [{j: x * factors[j] for j, x in zip(r, c) if x} for r, c in zip(rows, cleared)]
    # Entry (i, j) after the pivot pair ending at q is Pf on 0..q, i, j
    # (Tanner's identity), so the division by the last pivot prev is exact.
    # A row the pivot pair does not reach would only be scaled by b / prev;
    # it waits instead, and stamp[i] is the pivot it was last current at.
    stamp = [1] * n
    sign, prev = 1, 1
    for k in range(0, n, 2):
        rk, q = _catch_up(a, stamp, k, prev), k + 1
        if q not in rk:  # swap index q with the first p that row k reaches
            if not rk:  # row k is zero, and so is Pf
                return 0
            p = min(rk)
            for r in range(q, p + 1):
                _catch_up(a, stamp, r, prev)
            _swap(a, k, p)
            sign = -sign
        b, rq = rk[q], _catch_up(a, stamp, q, prev)
        for i in set(rk).union(rq):
            if i > q:
                ci, di = rk.get(i, 0), rq.get(i, 0)
                ri = {j: b * x for j, x in _catch_up(a, stamp, i, prev).items()}
                if di:
                    for j, y in rk.items():
                        if j > i:
                            ri[j] = ri.get(j, 0) + di * y
                if ci:
                    for j, z in rq.items():
                        if j > i:
                            ri[j] = ri.get(j, 0) - ci * z
                a[i] = {j: x // prev for j, x in ri.items() if x}
                stamp[i] = b
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
    if n % 2 == 1:
        return 0 if grid_is_exact(grid) else 0j
    total: Scalar = 0
    for pairs in _matchings(tuple(range(n))):
        term = prod(grid[i][j] for i, j in pairs)
        crossings = sum(1 for (a, b), (c, d) in combinations(pairs, 2)
                        if a < c < b < d or c < a < d < b)
        total = total + (term if crossings % 2 == 0 else -term)
    return total


class SkewMatrix(_Value):
    labels: tuple[int, ...]
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        _check_labels(self.labels, "label")
        n = len(self.labels)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("skew matrix grid is not square on its labels")
        # Checked once here: pfaffian() and the edge matrix read only i < j.
        # Zeros need no check.  A pair whose sum is exactly zero passes
        # before scalars_equal is called: that sum is the difference
        # scalars_equal measures, and it is nan, not zero, for infinite
        # entries, which scalars_equal rejects.
        for i, (row, col) in enumerate(zip(self.entries, zip(*self.entries))):
            if row[i] and not scalars_equal(row[i], 0):
                raise NotSkew(f"nonzero diagonal at {_name(self.labels[i])}")
            for j in range(i + 1, n):
                x, y = row[j], col[j]
                if (x or y) and x + y and not scalars_equal(x, -y):
                    raise NotSkew(
                        f"entry ({_name(self.labels[i])},{_name(self.labels[j])}) not "
                        "antisymmetric"
                    )

    @property
    def size(self) -> int:
        return len(self.labels)


def skew(labels: Sequence[int], entries: Sequence[Sequence]) -> SkewMatrix:
    return SkewMatrix(tuple(labels), normalize_grid(entries))


class PfaffianCircuit(_Value, computed=("edge_count",)):
    """States (the ket) and costates (the bra), each a tuple of gadgets;
    edge_count is the largest edge id (0 for none).  Checked when built,
    except by compile_circuit, which issues every edge id itself."""
    states: tuple[SkewMatrix, ...]
    costates: tuple[SkewMatrix, ...]
    edge_count: int

    # parse_pfaffian sets this on the circuits it reads in the rational
    # field, whose every entry it made an int or a Fraction.
    _exact = False

    def __post_init__(self):
        last = max((e for g in self.states + self.costates for e in g.labels), default=0)
        object.__setattr__(self, "edge_count", last)
        validate_pfaffian(self)

    @property
    def exact(self) -> bool:
        """True when every gadget entry is an int or a Fraction, so the exact
        kernel runs; a circuit with no entries is exact.  A circuit parsed in
        the rational field is exact by construction; any other is scanned on
        each read, lazily, so the scan stops at the first complex gadget, and
        an all-zero complex circuit is still complex."""
        return self._exact or grid_is_exact(
            chain.from_iterable(g.entries for g in self.states + self.costates))


def validate_pfaffian(pc: PfaffianCircuit) -> None:
    """Every edge id 1..edge_count once among the states and once among the
    costates.  Runs once, in PfaffianCircuit.__post_init__."""
    for side, gates in (("state", pc.states), ("costate", pc.costates)):
        seen: set[int] = set()
        for g in gates:
            for e in g.labels:
                if e < 1:  # edge_count is the largest id, so no id exceeds it
                    raise DanglingWire(f"edge id {_name(e)} outside 1..{_name(pc.edge_count)}")
                if e in seen:
                    raise DuplicateLabel(f"edge {_name(e)} used twice on the {side} side")
                seen.add(e)
        if len(seen) != pc.edge_count:
            first = next(e for e in range(1, pc.edge_count + 1) if e not in seen)
            raise DanglingWire(f"{_name(pc.edge_count - len(seen))} edges have no {side} "
                               f"gate, the first is {first}")


def _perm_sign(seq: list[int]) -> int:
    """Sign of seq, a permutation of 1..len(seq): -1 to the number of
    entries less the number of cycles."""
    seen = [False] * len(seq)
    odd = len(seq) % 2
    for start in range(len(seq)):
        if not seen[start]:
            odd ^= 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = seq[j] - 1
    return -1 if odd else 1


def _pair_order(costates: Sequence[SkewMatrix], n: int) -> list[int]:
    """The exact kernel's elimination order: the edges of the costates'
    unit pairs, two by two, then every other edge of 1..n in natural order.

    A unit pair is a row and a column of one costate whose only nonzero
    entries are +-1 at each other; the twist only flips signs, so the
    parsed entries are read.  The pairs come in costate order, each
    costate's in row order, and each pair lists its row first."""
    paired = []
    for g in costates:
        cols, lone = range(g.size), g.size - 1
        for p, row in enumerate(g.entries):
            if row.count(0) == lone:  # one nonzero, at q
                q = next(compress(cols, row))
                if p < q and g.entries[q].count(0) == lone and row[q] in (1, -1):
                    paired += (g.labels[p], g.labels[q])
    seen = set(paired)
    return paired + [e for e in range(1, n + 1) if e not in seen]


def eval_pfaffian_circuit(pc: PfaffianCircuit) -> Scalar:
    """Fast evaluation: one Pfaffian of the assembled edge matrix.

    The costates enter with the sign twist (-1)**(i+j+1) on entry (i, j)
    in 1-based edge ids; that twist is what turns the sum over edge
    subsets of products of sub-Pfaffians into a single Pfaffian.  One loop
    reads every gadget's parsed rows and adds their nonzeros above the
    diagonal into sparse upper-triangle rows, twisting a costate's as it
    reads them; an entry gets at most one term from each side, so the
    order of the gadgets does not change the sum.  The kernel is the one
    for pc.exact, so an all-zero complex circuit still evaluates to 0j.

    An exact circuit is eliminated in the order of _pair_order: the
    costates' unit pairs first, each pair one pivot pair, then the other
    edges in their natural order, and the Pfaffian is multiplied by the
    sign of that renumbering.  Every edge of a compiled circuit lies in a
    unit pair, so each pivot joins two neighbouring gadgets, the way a
    wiring relabels, and the entries stay minors of partial products
    around the ring.  The complex kernel keeps the natural order, and
    skips the pair search: on i-gauged rings the pair order loses every
    digit.
    """
    n = pc.edge_count
    exact = pc.exact
    order = _pair_order(pc.costates, n) if exact else range(1, n + 1)
    at = [0] * (n + 1)  # at[e]: the index edge e is eliminated at
    for k, e in enumerate(order):
        at[e] = k
    rows: list[dict] = [{} for _ in range(n)]
    for twist, side in ((False, pc.states), (True, pc.costates)):
        for g in side:
            labels, cols = g.labels, range(g.size)
            new = [at[e] for e in labels]
            for e, i, row in zip(labels, new, g.entries):
                out = rows[i]
                for p in compress(cols, row):
                    j = new[p]
                    if i < j:
                        x = -row[p] if twist and (e + labels[p]) % 2 == 0 else row[p]
                        out[j] = out[j] + x if j in out else x
    if exact:
        return _perm_sign(order) * _pfaffian_exact(rows)
    return _pfaffian_complex(rows)
