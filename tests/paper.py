"""Objects of the paper that the program itself never builds.

Each is an oracle a fast path is checked against, or the object a claim
of the paper is stated about: the Chung-Langlands circuit behind the
forest count, the skew embedding whose sub-Pfaffians are minors, the
dense edge matrix of a Pfaffian circuit, and the Faddeev-LeVerrier loop
on lists of ints that graphs.forest_polynomial packs.
They take well-formed arguments and do not check them.
"""

from detcircuits import (
    Circuit,
    Graph,
    LabeledMatrix,
    PfaffianCircuit,
    SkewMatrix,
    Stack,
    Tensor,
    direct_sum,
    enumerate_forests,
    labeled,
)
from detcircuits.compiler import _skew_grid
from detcircuits.scalars import det_grid, scalars_equal


def dagger(m: LabeledMatrix) -> LabeledMatrix:
    """Transpose with the label lists swapped."""
    ent = [[m.entries[i][j] for i in range(len(m.rows))] for j in range(len(m.cols))]
    return labeled(m.cols, m.rows, ent)


def determinant(m: LabeledMatrix):
    return det_grid(m.entries)


def stack_matrix(stack: Stack) -> LabeledMatrix:
    """The direct sum of a stack's gates."""
    m = labeled((), (), ())
    for g in stack.gates:
        m = direct_sum(m, g)
    return m


def det_cofactor(grid):
    """Cofactor-expansion determinant; the slow cross-check for det_grid."""
    if not grid:
        return 1
    return sum((-x if j % 2 else x) * det_cofactor([r[:j] + r[j + 1:] for r in grid[1:]])
               for j, x in enumerate(grid[0]))


def tensors_equal(a: Tensor, b: Tensor) -> bool:
    if a.out_wires != b.out_wires or a.in_wires != b.in_wires:
        return False
    return all(scalars_equal(a.component(*key), b.component(*key))
               for key in set(a.data) | set(b.data))


def skew_restrict(sk: SkewMatrix, keep) -> SkewMatrix:
    """Principal submatrix on a label subset, in sk's own order."""
    kset = set(keep)
    pos = [i for i, lab in enumerate(sk.labels) if lab in kset]
    return SkewMatrix(tuple(sk.labels[i] for i in pos),
                      tuple(tuple(sk.entries[i][j] for j in pos) for i in pos))


def anti_transpose(sk: SkewMatrix) -> SkewMatrix:
    """Flip across the anti-diagonal, keeping the label list."""
    n = sk.size
    return SkewMatrix(sk.labels, tuple(tuple(sk.entries[n - 1 - j][n - 1 - i] for j in range(n))
                                       for i in range(n)))


def skew_embed(m: LabeledMatrix) -> SkewMatrix:
    """The compiler's block skew matrix [[0, m̃], [-m̃ᵀ, 0]] on labels rows ++
    reversed cols, for a square m with disjoint row and column labels.

    Its Pfaffian is det(m), and every principal sub-Pfaffian on a slot
    subset I ∪ J̃ is the minor det(m_{I,J}); the column reversal is what
    cancels the block form's intrinsic sign.
    """
    return SkewMatrix(m.rows + tuple(reversed(m.cols)), _skew_grid(m.entries, len(m.cols)))


def edge_matrix(pc: PfaffianCircuit) -> list[list]:
    """The dense edge matrix of pc in the natural edge order: index e - 1
    for edge id e, each state's entries, and each costate's entries times
    the checkerboard twist (-1)**(i+j+1) in edge ids."""
    n = pc.edge_count
    grid = [[0] * n for _ in range(n)]
    for twist, side in ((False, pc.states), (True, pc.costates)):
        for g in side:
            for ea, row in zip(g.labels, g.entries):
                for eb, x in zip(g.labels, row):
                    grid[ea - 1][eb - 1] += -x if twist and (ea + eb) % 2 == 0 else x
    return grid


def graph_to_circuit(g: Graph) -> Circuit:
    """Closed three-stack circuit whose value is the rooted forest count.

    Stack 0 splits each edge wire into its two incidences with incidence
    signs, stack 1 is an all-ones gate per vertex joining its incidences,
    stack 2 recombines incidences into edge wires; the loop closes edge
    wires onto themselves, and the collapsed matrix is exactly BBᵀ.
    """
    n, m = g.vertex_count, len(g.edges)

    def inc(i: int, s: int) -> int:  # boundary-1 incidence wire
        return m + 2 * i + s + 1

    def out_inc(i: int, s: int) -> int:  # boundary-2 incidence wire
        return 3 * m + 2 * i + s + 1

    split_gates = []
    join_gates = []
    for i in range(m):
        split_gates.append(labeled((inc(i, 0), inc(i, 1)), (i + 1,), [[1], [-1]]))
        join_gates.append(labeled((i + 1,), (out_inc(i, 0), out_inc(i, 1)), [[1, -1]]))

    at_vertex: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, (u, v) in enumerate(g.edges):
        at_vertex[u].append(2 * i)      # incidence index of (i, tail)
        at_vertex[v].append(2 * i + 1)  # incidence index of (i, head)
    vertex_gates = []
    for v in range(1, n + 1):
        slots = at_vertex[v]
        cols = tuple(m + s + 1 for s in slots)
        rows = tuple(3 * m + s + 1 for s in slots)
        vertex_gates.append(labeled(rows, cols, [[1] * len(slots) for _ in slots]))

    stacks = (Stack(tuple(split_gates)),
              Stack(tuple(vertex_gates)),
              Stack(tuple(join_gates)))
    # Every wiring is the identity on labels; the last one closes the
    # edge-out wires back onto the edge-in wires.
    wirings = tuple(tuple((lab, lab) for lab in s.out_labels) for s in stacks)
    return Circuit(stacks, wirings)


def forest_histogram(g: Graph) -> list[int]:
    """Count of rooted forests by number of roots; index k = k roots."""
    hist = [0] * (g.vertex_count + 1)
    for _, roots in enumerate_forests(g):
        hist[len(roots)] += 1
    return hist


def faddeev_leverrier_rows(g: Graph):
    """Faddeev-LeVerrier for det(Ix + L) with each row a list of ints: yield
    (M_k, A M_k) for k = 1..n, where A = -L, M_1 = I and
    M_k = A M_{k-1} + c_{n-k+1} I, each c read from the previous A M.

    Row i of A M is the sum of M[t] over i's neighbours t (once per edge)
    less deg(i) M[i].  Isolated vertices stay in, as zero rows of A."""
    n = g.vertex_count
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        nbrs[u - 1].append(v - 1)
        nbrs[v - 1].append(u - 1)
    am = [[0] * n for _ in range(n)]  # A M_0 = 0
    c = 1
    for k in range(1, n + 1):
        mk = [row[:] for row in am]
        for i, row in enumerate(mk):
            row[i] += c
        am = [list(map(sum, zip([-len(ts) * x for x in mk[i]], *[mk[t] for t in ts])))
              for i, ts in enumerate(nbrs)]
        yield mk, am
        c = -sum(row[i] for i, row in enumerate(am)) // k


def forest_polynomial_rows(g: Graph) -> tuple[int, ...]:
    """Ascending coefficients of det(Ix + L) from faddeev_leverrier_rows."""
    coeffs = [1]
    for k, (_, am) in enumerate(faddeev_leverrier_rows(g), 1):
        coeffs.append(-sum(row[i] for i, row in enumerate(am)) // k)
    return tuple(reversed(coeffs))
