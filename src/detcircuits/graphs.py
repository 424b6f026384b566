"""Spanning-forest and spanning-tree counting.

With L = BᵀB the Laplacian of an oriented incidence matrix B, det(I+L)
counts rooted spanning forests (Sylvester: it equals det(I+BBᵀ)),
det(Ix+L) is their generating polynomial in the number of roots (integer
Faddeev-LeVerrier on packed rows), and any cofactor of L counts spanning
trees.  Brute-force enumerators double as oracles for all of it.  The
three-stack closed circuit that collapses to BBᵀ and ties the counts to
circuit evaluation (Chung-Langlands) is graph_to_circuit in
tests/paper.py, where the tests check it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Iterator

from .errors import TooLarge, ValidationError
from .labeled import LabeledMatrix, labeled
from .scalars import det_grid

ENUM_EDGE_CAP = 20


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # 1-based endpoints, (tail, head)

    def __post_init__(self):
        for u, v in self.edges:
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise ValidationError(f"edge ({u},{v}) endpoint out of range")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")


def reorient(g: Graph, seed: int) -> Graph:
    """Flip each edge direction with probability 1/2 (counts must not move)."""
    rng = random.Random(seed)
    flipped = tuple([(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges])
    return Graph(g.vertex_count, flipped)


def incidence_matrix(g: Graph) -> LabeledMatrix:
    """|E| x |V| signed incidence: +1 at the tail, -1 at the head.

    Vertex labels are 1..n; edge labels continue at n+1 so the two label
    spaces never collide.
    """
    n, m = g.vertex_count, len(g.edges)
    ent = [[0] * n for _ in range(m)]
    for i, (u, v) in enumerate(g.edges):
        ent[i][u - 1] = 1
        ent[i][v - 1] = -1
    return labeled(tuple(range(n + 1, n + m + 1)), tuple(range(1, n + 1)), ent)


def laplacian(g: Graph) -> list[list[int]]:
    """BᵀB as a plain grid: degrees on the diagonal, -multiplicity off it."""
    n = g.vertex_count
    grid = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        grid[u - 1][u - 1] += 1
        grid[v - 1][v - 1] += 1
        grid[u - 1][v - 1] -= 1
        grid[v - 1][u - 1] -= 1
    return grid


def _without_isolated(g: Graph) -> Graph:
    """g less its isolated vertices, the rest renumbered in order: at most 2|E| vertices."""
    at = {v: i for i, v in enumerate(sorted({v for e in g.edges for v in e}), 1)}
    return Graph(len(at), tuple([(at[u], at[v]) for u, v in g.edges]))


def count_rooted_forests(g: Graph) -> int:
    """det(I + L); an isolated vertex adds only a factor of 1, so it is dropped."""
    lap = laplacian(_without_isolated(g))
    return int(det_grid([[x + (r == s) for s, x in enumerate(row)] for r, row in enumerate(lap)]))


@dataclass(frozen=True)
class ForestPolynomial:
    coefficients: tuple[int, ...]  # index k = number of roots

    def __call__(self, x: int) -> int:
        return sum(c * x ** k for k, c in enumerate(self.coefficients))


def _slot_bits(degrees: list[int]) -> int:
    """Bits per column slot of a packed row in forest_polynomial.

    M_k's entries are coefficients of adj(xI + L), each a forest count
    (all-minors matrix-tree theorem), so |M_k| <= |adj(I + L)| <= prod(1 + d)
    (Hadamard; I + L is positive definite), and |A M_k| <= 2 max(d) times
    that.  Two more bits keep every entry under a quarter of its slot's range,
    so adding half the range to a slot never carries out of it."""
    return (prod([d + 1 for d in degrees]) * 2 * max(degrees, default=0)).bit_length() + 2


def forest_polynomial(g: Graph) -> ForestPolynomial:
    """det(Ix + L) by Faddeev-LeVerrier over ints; its coefficients are integers,
    so each division by k is exact.  An isolated vertex is a factor x.

    Each row of M_k and of A M_k (A = -L) is one int with a signed slot of
    `bits` bits per column, as in circuit._collapse_exact.  Row i of A M_k is
    the sum of M_k[t] over i's neighbours t (once per edge) less deg(i) M_k[i],
    and c I adds c to one slot of each row.  A diagonal slot is read after
    adding `half` to every slot, so no borrow crosses a slot.  That is
    O(n(n + 2m)) bigint adds of n-slot rows in all."""
    h = _without_isolated(g)
    n = h.vertex_count
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in h.edges:
        nbrs[u - 1].append(v - 1)
        nbrs[v - 1].append(u - 1)
    deg = [len(ts) for ts in nbrs]
    bits = _slot_bits(deg)
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    shifts = range(0, n * bits, bits)
    offset = sum([half << s for s in shifts])
    rows = list(zip(nbrs, deg, range(n)))
    coeffs = [0] * n + [1]
    am = [0] * n  # A M_{k-1}, with M_0 = 0
    c = 1
    for k in range(1, n + 1):
        mk = [r + (c << s) for r, s in zip(am, shifts)]  # M_k = A M_{k-1} + c I
        get = mk.__getitem__
        am = [sum(map(get, ts)) - d * mk[i] for ts, d, i in rows]
        c = (n * half - sum([(r + offset) >> s & mask for r, s in zip(am, shifts)])) // k
        coeffs[n - k] = c
    return ForestPolynomial((0,) * (g.vertex_count - n) + tuple(coeffs))


def laplacian_cofactor(g: Graph, i: int) -> int:
    """det of the Laplacian with row and column i removed (0-based); 0 when n > 1
    and a vertex is isolated (a zero row or a whole Laplacian is left)."""
    if g.vertex_count > 1 and len({v for e in g.edges for v in e}) < g.vertex_count:
        return 0
    lap = laplacian(g)
    keep = [j for j in range(g.vertex_count) if j != i]
    return int(det_grid([[lap[r][s] for s in keep] for r in keep]))


def count_spanning_trees(g: Graph) -> int:
    if g.vertex_count == 0:
        return 0
    return abs(laplacian_cofactor(g, 0))


def _root(parent: list[int], x: int) -> int:
    """The root of x's tree in a union-find forest kept as parent links."""
    while parent[x] != x:
        x = parent[x]
    return x


def _joins_all(parent: list[int], edges, subset) -> bool:
    """Join the ends of each edge in subset; False at the first that closes a cycle."""
    for i in subset:
        u, v = edges[i]
        u, v = _root(parent, u - 1), _root(parent, v - 1)
        if u == v:
            return False
        parent[u] = v
    return True


def _acyclic_subsets(g: Graph) -> Iterator[tuple[frozenset[int], list[list[int]]]]:
    m = len(g.edges)
    if m > ENUM_EDGE_CAP:
        raise TooLarge(f"{m} edges > enumeration cap {ENUM_EDGE_CAP}")
    for size in range(min(m, g.vertex_count - 1) + 1 if g.vertex_count else 1):
        for subset in combinations(range(m), size):
            parent = list(range(g.vertex_count))
            if not _joins_all(parent, g.edges, subset):
                continue
            comps: dict[int, list[int]] = {}
            for v in range(g.vertex_count):
                comps.setdefault(_root(parent, v), []).append(v + 1)
            yield frozenset(subset), list(comps.values())


def enumerate_forests(g: Graph) -> list[tuple[frozenset[int], frozenset[int]]]:
    """All (edge index set, root set) pairs: acyclic subgraph, one root per tree."""
    out: list[tuple[frozenset[int], frozenset[int]]] = []
    for subset, comps in _acyclic_subsets(g):
        for roots in product(*comps):
            out.append((subset, frozenset(roots)))
    out.sort(key=lambda fr: (sorted(fr[0]), sorted(fr[1])))
    return out


def _grow_trees(ends: list[tuple[int, int]], labels: list[int], start: int,
                chosen: tuple[int, ...], left: int, out: list[frozenset[int]]) -> None:
    """Append to out each spanning tree that adds `left` more edges, of index
    start or later, to `chosen`.  labels[v] names v's component so far; an
    edge joins two components, and their merged labels go to a copy, so no
    branch undoes another's work."""
    for i in range(start, len(ends) - left + 1):
        u, v = ends[i]
        a, b = labels[u], labels[v]
        if a == b:
            continue
        if left == 1:
            out.append(frozenset(chosen + (i,)))
        else:
            _grow_trees(ends, [a if c == b else c for c in labels], i + 1,
                        chosen + (i,), left - 1, out)


def enumerate_trees(g: Graph) -> list[frozenset[int]]:
    """All spanning trees as edge index sets, in the order of
    combinations(range(m), n - 1).

    A depth-first search adds edges in increasing index and only those that
    join two components, so n - 1 of them leave one component, a spanning
    tree; a branch stops once fewer edges remain than it still needs.  Its
    cost is close to proportional to the number of trees (Read and Tarjan,
    1975).  The helper is a module function, not a nested closure calling
    itself: such a closure is a reference cycle that keeps the output alive
    until a full garbage collection."""
    n, m = g.vertex_count, len(g.edges)
    if m > ENUM_EDGE_CAP:
        raise TooLarge(f"{m} edges > enumeration cap {ENUM_EDGE_CAP}")
    if n - 1 > m:  # too few edges to join n vertices
        return []
    if n <= 1:
        return [frozenset()] * n
    out: list[frozenset[int]] = []
    _grow_trees([(u - 1, v - 1) for u, v in g.edges], list(range(n)), 0, (), n - 1, out)
    return out
