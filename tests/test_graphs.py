import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detcircuits import (
    Graph,
    TooLarge,
    ValidationError,
    compose,
    contract_circuit,
    count_rooted_forests,
    count_spanning_trees,
    enumerate_forests,
    enumerate_multicycles,
    enumerate_trees,
    evaluate,
    forest_polynomial,
    incidence_matrix,
    laplacian,
    laplacian_cofactor,
    principal_minor_sum,
    reorient,
)
from detcircuits.graphs import ENUM_EDGE_CAP, _slot_bits
from detcircuits.scalars import det_grid
from paper import (
    dagger,
    faddeev_leverrier_rows,
    forest_histogram,
    forest_polynomial_rows,
    graph_to_circuit,
)

K3 = Graph(3, ((1, 2), (2, 3), (3, 1)))
K4 = Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
EDGE = Graph(2, ((1, 2),))
VERTEX = Graph(1, ())
PATH3 = Graph(3, ((1, 2), (2, 3)))

# Multigraphs where renumbering the touched vertices matters: parallel
# edges (some reversed), an isolated vertex first, in the middle and last,
# two components, and n = 0 and 1.
MULTIGRAPHS = (
    Graph(0, ()),
    Graph(1, ()),
    Graph(3, ((1, 2), (1, 2), (3, 2))),
    Graph(4, ((2, 3), (3, 4), (3, 2), (4, 2))),
    Graph(5, ((1, 2), (2, 1), (4, 5), (1, 4), (5, 1))),
    Graph(4, ((1, 2), (2, 3), (3, 1), (2, 1))),
    Graph(6, ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 4), (5, 4))),
    Graph(7, ((2, 3), (3, 2), (5, 6), (6, 5), (6, 5))),
)


def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph(2, ((1, 1),))  # self-loop
    with pytest.raises(ValidationError):
        Graph(2, ((1, 3),))  # endpoint out of range
    Graph(2, ((1, 2), (1, 2)))  # multi-edges are allowed


def test_incidence_matrix_single_edge():
    b = incidence_matrix(EDGE)
    assert b.shape == (1, 2)
    assert list(b.entries[0]) == [Fraction(1), Fraction(-1)]


def test_incidence_rows_have_norm_two():
    bbt = compose(incidence_matrix(K4), dagger(incidence_matrix(K4)))
    for i in range(6):
        assert bbt.entries[i][i] == 2


def test_laplacian_holds_ints():
    assert all(type(x) is int for row in laplacian(K4) for x in row)


def test_count_rooted_forests_small():
    assert count_rooted_forests(VERTEX) == 1
    assert count_rooted_forests(EDGE) == 3
    assert count_rooted_forests(K3) == 16
    # I + L over the touched vertices against det_grid on the whole I + L.
    for g in MULTIGRAPHS:
        got = count_rooted_forests(g)
        shifted = [[x + (r == s) for s, x in enumerate(row)] for r, row in enumerate(laplacian(g))]
        assert type(got) is int and got == det_grid(shifted)


def test_enumeration_matches_determinant_small():
    for g in (VERTEX, EDGE, PATH3, K3, K4):
        assert count_rooted_forests(g) == len(enumerate_forests(g))
        assert count_spanning_trees(g) == len(enumerate_trees(g))


def test_k3_forest_histogram():
    assert forest_histogram(K3) == [0, 9, 6, 1]


def test_forest_polynomial_values():
    assert forest_polynomial(K3).coefficients == (0, 9, 6, 1)
    assert forest_polynomial(VERTEX).coefficients == (0, 1)
    assert forest_polynomial(EDGE).coefficients == (0, 2, 1)


def test_forest_polynomial_matches_histogram():
    rng = random.Random(0)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = rng.randint(0, min(8, n * 3))
        edges = []
        for _ in range(m):
            u = rng.randint(1, n)
            v = rng.randint(1, n)
            if u != v:
                edges.append((u, v))
        g = Graph(n, tuple(edges))
        poly = forest_polynomial(g)
        hist = forest_histogram(g)
        assert list(poly.coefficients) == hist
        assert sum(poly.coefficients) == count_rooted_forests(g)
        assert poly(1) == count_rooted_forests(g)


def test_spanning_trees_small():
    assert count_spanning_trees(K3) == 3
    assert count_spanning_trees(K4) == 16
    assert count_spanning_trees(PATH3) == 1  # trees have one spanning tree
    assert count_spanning_trees(Graph(4, ((1, 2), (3, 4)))) == 0  # disconnected


def test_all_cofactors_agree():
    rng = random.Random(1)
    for g in (K3, K4, PATH3, Graph(4, ((1, 2), (3, 4)))):
        vals = {abs(laplacian_cofactor(g, i)) for i in range(g.vertex_count)}
        assert len(vals) == 1
    for _ in range(10):
        n = rng.randint(2, 5)
        edges = tuple((rng.randint(1, n - 1), n) for _ in range(rng.randint(1, 4)))
        edges = tuple((u, v) for u, v in edges if u != v)
        g = Graph(n, edges)
        vals = {abs(laplacian_cofactor(g, i)) for i in range(n)}
        assert len(vals) == 1


def test_orientation_invariance():
    for g in (K3, K4, PATH3):
        base = (count_rooted_forests(g), count_spanning_trees(g),
                forest_polynomial(g).coefficients)
        for seed in range(10):
            h = reorient(g, seed)
            assert (count_rooted_forests(h), count_spanning_trees(h),
                    forest_polynomial(h).coefficients) == base


def test_circuit_value_is_forest_count():
    for g in (VERTEX, EDGE, PATH3, K3):
        c = graph_to_circuit(g)
        assert evaluate(c) == count_rooted_forests(g)


def test_circuit_matches_oracle_on_tiny_graphs():
    for g in (EDGE, PATH3):
        c = graph_to_circuit(g)
        assert contract_circuit(c) == count_rooted_forests(g)


def test_circuit_collapse_is_gram_matrix():
    # the loop composite of the three-stack construction is B B^T
    for g in (EDGE, PATH3, K3):
        b = incidence_matrix(g)
        bbt = compose(b, dagger(b))
        c = graph_to_circuit(g)
        from detcircuits import collapse
        col = collapse(c)
        assert [list(r) for r in col.entries] == [list(r) for r in bbt.entries]
        assert evaluate(c) == principal_minor_sum(bbt)


def test_laplacian_census_trace_identity():
    # det(I + B B^T) = det(I + B^T B): edge-indexed and vertex-indexed agree
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 5)
        edges = []
        for _ in range(rng.randint(0, 7)):
            u, v = rng.randint(1, n), rng.randint(1, n)
            if u != v:
                edges.append((u, v))
        g = Graph(n, tuple(edges))
        b = incidence_matrix(g)
        lhs = principal_minor_sum(compose(b, dagger(b)))
        rhs = principal_minor_sum(compose(dagger(b), b))
        assert lhs == rhs == count_rooted_forests(g)


def test_cofactors_with_isolated_vertices_match_full_minors():
    # The early 0 for an isolated vertex (n > 1) must equal the minor of
    # the full Laplacian, for every removed vertex; i = n removes none.
    rng = random.Random(8)
    graphs = list(MULTIGRAPHS)
    for _ in range(40):
        n = rng.randint(1, 7)
        touched = rng.sample(range(1, n + 1), rng.randint(min(n, 2), n))
        edges = [tuple(rng.sample(touched, 2)) for _ in range(rng.randint(0, 2 * n))] if n > 1 else []
        graphs.append(Graph(n, tuple(edges)))
    seen_zero = seen_nonzero = 0
    for g in graphs:
        n = g.vertex_count
        lap = laplacian(g)
        for i in range(n + 1):
            keep = [j for j in range(n) if j != i]
            want = det_grid([[lap[r][s] for s in keep] for r in keep])
            got = laplacian_cofactor(g, i)
            assert type(got) is int and got == want
            seen_zero += want == 0
            seen_nonzero += want != 0
    assert seen_zero >= 20 and seen_nonzero >= 20


def _grid_graph(k: int) -> Graph:
    """The k x k grid graph, vertices numbered row by row (a banded Laplacian)."""
    edges = [(r * k + c + 1, r * k + c + 2) for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c + 1, (r + 1) * k + c + 1) for r in range(k - 1) for c in range(k)]
    return Graph(k * k, tuple(edges))


def _multigraph_in_parts(rng) -> Graph:
    """n = 8-20 vertices, shuffled, 0-2 of them isolated and the rest split
    into 1-3 parts; each part of two or more vertices gets a random spanning
    tree and extra edges, some of them repeated and some repeats reversed,
    and a part of one is one more isolated vertex."""
    n = rng.randint(8, 20)
    order = rng.sample(range(1, n + 1), n - rng.choice((0, 0, 1, 2)))
    cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, 2)))
    edges = []
    for part in [order[i:j] for i, j in zip([0] + cuts, cuts + [len(order)])]:
        if len(part) < 2:
            continue
        part_edges = [(part[i], rng.choice(part[:i])) for i in range(1, len(part))]
        part_edges += [tuple(rng.sample(part, 2)) for _ in range(rng.randint(0, len(part)))]
        repeats = rng.choices(part_edges, k=rng.randint(0, 3))
        edges += part_edges + [(v, u) if rng.random() < 0.5 else (u, v) for u, v in repeats]
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


def test_counts_match_the_forest_polynomial_without_det_grid():
    # forest_polynomial never calls det_grid, so a fault in the elimination
    # kernel cannot hide in both sides: the forest count is the sum of its
    # coefficients and n times the tree count is its x^1 coefficient.  Grid
    # graphs in row order are banded, so most rows wait at each pivot; the
    # multigraphs have up to three components, where a tree count is 0.
    rng = random.Random(23)
    graphs = [_grid_graph(k) for k in range(2, 7)]
    graphs += [_multigraph_in_parts(rng) for _ in range(40)]
    split = parallel = isolated = with_trees = 0
    for g in graphs:
        poly = forest_polynomial(g).coefficients
        assert count_rooted_forests(g) == sum(poly)
        trees = count_spanning_trees(g)
        assert g.vertex_count * trees == poly[1]
        split += poly[1] == 0
        with_trees += trees > 0
        parallel += len({frozenset(e) for e in g.edges}) < len(g.edges)
        isolated += len({v for e in g.edges for v in e}) < g.vertex_count
    assert split >= 10 and with_trees >= 10 and parallel >= 10 and isolated >= 10


def test_vertex_side_counts_match_edge_side_beyond_enum_cap():
    # The old edge-side route, det(I + B Bᵀ) over |E| x |E|, and the
    # circuit bridge stay as oracles for the vertex-side det(I + L), on
    # multigraphs past the 20-edge enumeration cap with isolated vertices.
    rng = random.Random(4)
    past_cap = with_isolated = 0
    for _ in range(40):
        n = rng.randint(2, 16)
        touched = rng.sample(range(1, n + 1), rng.randint(2, n))
        edges = [tuple(rng.sample(touched, 2)) for _ in range(rng.randint(0, 3 * n))]
        edges += edges[:rng.randint(0, 3)]  # repeated edges
        g = Graph(n, tuple(edges))
        past_cap += len(edges) > 20
        with_isolated += len(touched) < n
        b = incidence_matrix(g)
        forests = count_rooted_forests(g)
        assert forests == principal_minor_sum(compose(b, dagger(b)))
        assert forests == evaluate(graph_to_circuit(g))
        poly = forest_polynomial(g)
        assert poly(1) == forests
        assert poly.coefficients[1] == n * count_spanning_trees(g)
    assert past_cap >= 10 and with_isolated >= 10


def _interpolate(ys):
    """Ascending coefficients of the polynomial through (x, ys[x]) for
    x = 0, 1, ...: Newton divided differences, then the Newton form expanded."""
    d = [Fraction(y) for y in ys]
    for k in range(1, len(d)):
        for i in range(len(d) - 1, k - 1, -1):
            d[i] = (d[i] - d[i - 1]) / k
    coeffs = [d[-1]]
    for k in range(len(d) - 2, -1, -1):  # coeffs = coeffs * (x - k) + d[k]
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += d[k]
    return coeffs


def test_forest_polynomial_matches_interpolated_determinant():
    # Past the enumeration cap the oracle is det(xI + L) by Bareiss at
    # x = 0..n, interpolated.  Parallel edges, some reversed, must each add
    # their neighbour once; isolated vertices are factors of x.
    rng = random.Random(12)
    past_cap = parallel = with_isolated = 0
    for _ in range(30):
        n = rng.randint(2, 30)
        touched = rng.sample(range(1, n + 1), rng.randint(2, n))
        base = [tuple(rng.sample(touched, 2)) for _ in range(rng.randint(1, 2 * n))]
        repeats = rng.choices(base, k=rng.randint(0, min(len(base), n)))
        edges = base + [(v, u) if rng.random() < 0.5 else (u, v) for u, v in repeats]
        rng.shuffle(edges)
        g = Graph(n, tuple(edges))
        past_cap += len(edges) > ENUM_EDGE_CAP
        parallel += len({frozenset(e) for e in edges}) < len(edges)
        with_isolated += len(touched) < n
        lap = laplacian(g)
        values = [det_grid([[a + x * (r == s) for s, a in enumerate(row)]
                            for r, row in enumerate(lap)]) for x in range(n + 1)]
        assert list(forest_polynomial(g).coefficients) == _interpolate(values)
    assert past_cap >= 10 and parallel >= 10 and with_isolated >= 10


@st.composite
def multigraphs(draw, max_n: int = 60):
    """Graphs on up to max_n vertices whose edges join a random subset of them
    (the rest are isolated), some edges repeated and some repeats reversed."""
    n = draw(st.integers(0, max_n))
    rng = draw(st.randoms(use_true_random=False))
    used = rng.sample(range(1, n + 1), rng.randint(min(n, 2), n))
    base = [tuple(rng.sample(used, 2)) for _ in range(rng.randint(0, 3 * len(used)))
            ] if len(used) > 1 else []
    repeats = rng.choices(base, k=rng.randint(0, len(base))) if base else []
    edges = base + [(v, u) if rng.random() < 0.5 else (u, v) for u, v in repeats]
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


def _complete(n: int) -> Graph:
    return Graph(n, tuple([(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]))


# A pair of vertices joined by 1000 edges, half of them reversed, and a star
# whose spokes repeat 1 to 6 times, some reversed, beside an isolated vertex.
PARALLEL = Graph(2, tuple([(1, 2) if i % 2 else (2, 1) for i in range(1000)]))
STAR = Graph(8, tuple([(1, v) if (v + j) % 3 else (v, 1)
                       for v in range(2, 8) for j in range(v - 1)]))
FIXED_GRAPHS = {"empty": Graph(0, ()), "isolated-only": Graph(6, ()),
                "parallel": PARALLEL, "star": STAR,
                **{f"K{n}": _complete(n) for n in (1, 2, 7, 40)}}


def _check_against_the_list_oracle(g: Graph) -> None:
    # Every entry of M_k and of A M_k fits a signed slot of forest_polynomial,
    # with room for the half added before a diagonal read, and the packed
    # coefficients are the list loop's.
    limit = 1 << (_slot_bits([row[i] for i, row in enumerate(laplacian(g))]) - 1)
    for mk, am in faddeev_leverrier_rows(g):
        assert max([abs(x) for row in mk + am for x in row]) < limit
    assert forest_polynomial(g).coefficients == forest_polynomial_rows(g)


@given(multigraphs())
@settings(max_examples=40, deadline=None)
def test_forest_polynomial_matches_the_list_oracle(g):
    _check_against_the_list_oracle(g)


@pytest.mark.parametrize("name", FIXED_GRAPHS)
def test_forest_polynomial_matches_the_list_oracle_fixed(name):
    _check_against_the_list_oracle(FIXED_GRAPHS[name])


def test_forest_polynomial_of_complete_graphs():
    # det(xI + L(K_n)) = x (x + n)^(n-1): L has eigenvalue 0 once and n n-1 times.
    for n in range(1, 41):
        want = [0] + [comb(n - 1, j) * n ** (n - 1 - j) for j in range(n)]
        assert list(forest_polynomial(_complete(n)).coefficients) == want


def test_forest_polynomial_fixed_closed_forms():
    assert forest_polynomial(PARALLEL).coefficients == (0, 2000, 1)  # x (x + 2000)
    assert forest_polynomial(Graph(6, ())).coefficients == (0,) * 6 + (1,)
    lap = laplacian(STAR)
    values = [det_grid([[a + x * (r == s) for s, a in enumerate(row)]
                        for r, row in enumerate(lap)]) for x in range(STAR.vertex_count + 1)]
    assert list(forest_polynomial(STAR).coefficients) == _interpolate(values)


def test_enumerate_forests_cap():
    big = Graph(7, tuple((1 + i % 6, 7) for i in range(21)))
    with pytest.raises(TooLarge):
        enumerate_forests(big)
    with pytest.raises(TooLarge):
        enumerate_trees(big)
    # 20 edges are still enumerated: a star whose six spokes repeat 3 or 4 times.
    assert len(enumerate_trees(Graph(7, big.edges[:20]))) == 4 ** 2 * 3 ** 4


@given(multigraphs(max_n=7))
@example(Graph(0, ()))
@example(Graph(1, ()))
@example(Graph(5, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 4))))  # two components
@example(Graph(6, ((1, 2), (2, 3), (3, 4), (4, 5))))  # n - 1 > m
@settings(max_examples=60, deadline=None)
def test_tree_enumeration_matches_the_forest_enumeration(g):
    # enumerate_trees searches depth first for spanning trees; enumerate_forests
    # tests each subset with a union-find, and its spanning trees are its
    # (n-1)-edge sets.  At most 12 edges keep the forest walk short.
    g = Graph(g.vertex_count, g.edges[:12])
    n = g.vertex_count
    trees = {subset for subset, _ in enumerate_forests(g) if len(subset) == n - 1}
    got = enumerate_trees(g)
    assert got == sorted(trees, key=sorted)
    assert len(got) == count_spanning_trees(g)


def test_enumerate_trees_with_too_few_edges_allocates_nothing_per_vertex():
    # 100 000 vertices and 3 edges: no spanning tree, and no list of n labels.
    g = Graph(100_000, ((1, 2), (2, 3), (3, 1)))
    tracemalloc.start()
    try:
        assert enumerate_trees(g) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _decode_multicycle(g, support):
    """Recover (edges, in-endpoint map, out-endpoint map) from wire labels."""
    m = len(g.edges)
    edges = set()
    t_map = {}
    u_map = {}
    for k, lab in support:
        if k == 0:
            edges.add(lab - 1)
        elif k == 1:
            idx = lab - m - 1
            e, s = divmod(idx, 2)
            t_map[e] = g.edges[e][s]
        else:
            idx = lab - 3 * m - 1
            e, s = divmod(idx, 2)
            u_map[e] = g.edges[e][s]
    return edges, t_map, u_map


def _cycle_count(perm):
    seen = set()
    cycles = 0
    for start in perm:
        if start in seen:
            continue
        length = 0
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length >= 2:
            cycles += 1
    return cycles


@pytest.mark.parametrize("g", [EDGE, PATH3, K3, Graph(2, ((1, 2), (1, 2)))])
def test_multicycle_classifier(g):
    # every multicycle of a graph circuit has weight +1 or -1; the sign is
    # determined by the permutation the endpoint maps induce on the chosen
    # edges: straight-through entries give +1, each closed cycle of length
    # >= 2 contributes a -1
    report = enumerate_multicycles(graph_to_circuit(g))
    total = Fraction(0)
    for mc in report:
        edges, t_map, u_map = _decode_multicycle(g, mc.support)
        assert set(t_map) == set(u_map) == edges
        assert sorted(t_map.values()) == sorted(u_map.values())
        # sigma sends e to the edge whose out-vertex is e's in-vertex
        by_out = {v: e for e, v in u_map.items()}
        sigma = {e: by_out[t_map[e]] for e in edges}
        want = Fraction(-1) ** _cycle_count(sigma)
        assert mc.weight == want
        total += mc.weight
    assert total == count_rooted_forests(g)
