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

from itertools import chain, combinations, product
from math import prod
from operator import eq
from typing import Iterator

from .errors import TooLarge, ValidationError
from .labeled import LabeledMatrix, _Value, labeled
from .scalars import _det_bareiss_int, _name

ENUM_EDGE_CAP = 20


class Graph(_Value):
    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # 1-based endpoints, (tail, head)

    def __post_init__(self):
        _check_edges(self.vertex_count, [u for u, _ in self.edges], [v for _, v in self.edges])


def _check_edges(n: int, tails: list[int], heads: list[int]) -> None:
    """n an int (not a bool) and nonnegative, and each edge's endpoints
    tails[i], heads[i] in 1..n and distinct.  min, max and one map(eq, ...)
    test the whole list; only when they fail does a walk name the first
    faulty edge.  A hand-built Graph checks itself with it, and parse_graph
    the edges it has read."""
    if type(n) is not int or n < 0:
        raise ValidationError(f"vertex count must be a nonnegative int, got {_name(n)}")
    if tails and (min(tails) < 1 or min(heads) < 1 or max(tails) > n or max(heads) > n
                  or any(map(eq, tails, heads))):
        for u, v in zip(tails, heads):
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"edge ({_name(u)},{_name(v)}) endpoint out of range")
            if u == v:
                raise ValidationError(f"self-loop at vertex {_name(u)}")


def incidence_matrix(g: Graph) -> LabeledMatrix:
    """|E| x |V| signed incidence: +1 at the tail, -1 at the head.  Vertex
    labels are 1..n; edge labels continue at n+1, so the two never collide."""
    n, m = g.vertex_count, len(g.edges)
    ent = [[0] * n for _ in range(m)]
    for i, (u, v) in enumerate(g.edges):
        ent[i][u - 1] = 1
        ent[i][v - 1] = -1
    return labeled(tuple(range(n + 1, n + m + 1)), tuple(range(1, n + 1)), ent)


def _touched(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """How many vertices an edge touches, and g's edges on them renumbered from 0 in order."""
    at = {v: i for i, v in enumerate(sorted(set(chain.from_iterable(g.edges))))}
    return len(at), [(at[u], at[v]) for u, v in g.edges]


def _shifted_laplacian(n: int, edges, shift: int) -> list[list[int]]:
    """shift·I + L as fresh int rows for n vertices and 0-based edges (L's rows sum to 0)."""
    grid = [[0] * n for _ in range(n)]
    for u, v in edges:
        grid[u][v] -= 1
        grid[v][u] -= 1
    for r, row in enumerate(grid):
        row[r] = shift - sum(row)
    return grid


def laplacian(g: Graph) -> list[list[int]]:
    """BᵀB as a plain grid: degrees on the diagonal, -multiplicity off it."""
    return _shifted_laplacian(g.vertex_count, [(u - 1, v - 1) for u, v in g.edges], 0)


def count_rooted_forests(g: Graph) -> int:
    """det(I + L) by the Bareiss kernel on the touched vertices: an isolated one is a factor 1."""
    n, edges = _touched(g)
    return _det_bareiss_int(_shifted_laplacian(n, edges, 1)) if n else 1


class ForestPolynomial(_Value):
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
    """det(Ix + L): x per isolated vertex times Faddeev-LeVerrier over ints on the
    touched ones; the coefficients are integers, so each division by k is exact.

    Each row of M_k and of A M_k (A = -L) is one int with a signed slot of
    `bits` bits per column, as in circuit._collapse_exact.  Row i of A M_k is
    the sum of M_k[t] over i's neighbours t (once per edge) less deg(i) M_k[i],
    and c I adds c to one slot of each row.  A diagonal slot is read after
    adding `half` to every slot, so no borrow crosses a slot.  The steps run
    for k = 1..n-1: the last one would only give the constant coefficient,
    det(L), which is 0 on the touched vertices (L's rows sum to 0).  That is
    O(n(n + 2m)) bigint adds of n-slot rows in all."""
    n, edges = _touched(g)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
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
    for k in range(1, n):  # coeffs[0] stays det(L) = 0, or 1 when n = 0
        mk = [r + (c << s) for r, s in zip(am, shifts)]  # M_k = A M_{k-1} + c I
        get = mk.__getitem__
        am = [sum(map(get, ts)) - d * mk[i] for ts, d, i in rows]
        c = (n * half - sum([(r + offset) >> s & mask for r, s in zip(am, shifts)])) // k
        coeffs[n - k] = c
    return ForestPolynomial((0,) * (g.vertex_count - n) + tuple(coeffs))


def laplacian_cofactor(g: Graph, i: int) -> int:
    """det of L less row and column i (0-based) by the Bareiss kernel; 0 when
    n > 1 and a vertex is isolated (a zero row or a whole Laplacian is left).
    Row and column i are deleted in place from L's fresh rows; an i outside
    0..n-1 deletes nothing, so the result is det(L), 0 for n > 0."""
    touched, edges = _touched(g)
    if g.vertex_count > 1 and touched < g.vertex_count:
        return 0
    lap = _shifted_laplacian(g.vertex_count, edges, 0)  # none dropped, or no edge
    if 0 <= i < len(lap):
        del lap[i]
        for row in lap:
            del row[i]
    return _det_bareiss_int(lap) if lap else 1


def count_spanning_trees(g: Graph) -> int:
    """|cofactor 0 of L| by laplacian_cofactor; 0 for the empty graph."""
    return abs(laplacian_cofactor(g, 0)) if g.vertex_count else 0


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
