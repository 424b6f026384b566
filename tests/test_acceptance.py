"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Every fast-path value here is compared against an independent
slow computation: explicit minor sums, tensor contraction, perfect-matching
Pfaffians, or exhaustive forest enumeration.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

from detcircuits import (
    Circuit,
    Graph,
    Stack,
    compile_circuit,
    compose,
    contract_circuit,
    count_rooted_forests,
    count_spanning_trees,
    enumerate_forests,
    enumerate_multicycles,
    enumerate_trees,
    eval_pfaffian_circuit,
    evaluate,
    forest_polynomial,
    labeled,
    laplacian_cofactor,
    multicycle_total,
    pfaffian,
    pfaffian_oracle,
    principal_minor_sum,
    sdet_expand,
    submatrix,
    tensor_compose,
)
from detcircuits.scalars import det_grid
from circgen import rand_circuit, rand_grid, rand_skew_grid
from paper import (
    determinant,
    forest_histogram,
    reorient,
    skew_embed,
    skew_restrict,
    tensors_equal,
)


def close(a, b, tol=1e-9):
    """Relative comparison; floating values here can reach 1e10."""
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(a)),
                                                     abs(complex(b)))


def loop_circuit(grid):
    n = len(grid)
    rows = tuple(range(n + 1, 2 * n + 1))
    cols = tuple(range(1, n + 1))
    g = labeled(rows, cols, grid)
    return Circuit((Stack((g,)),), (tuple(zip(rows, cols)),))


def test_c01_minor_sum_equals_explicit_subset_sum():
    # 200 random rational endomorphisms up to 10x10, compared against the
    # literal 2^n-term sum of principal minors; budget 30 s
    rng = random.Random(9)
    start = time.monotonic()
    for _ in range(200):
        n = rng.randint(0, 10)
        grid = rand_grid(rng, n, n)
        m = labeled(tuple(range(1, n + 1)), tuple(range(1, n + 1)), grid)
        explicit = Fraction(0)
        for k in range(n + 1):
            for sub in combinations(range(n), k):
                explicit += det_grid([[grid[i][j] for j in sub] for i in sub])
        assert principal_minor_sum(m) == explicit
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 1 ok in {elapsed:.2f}s")


def test_c02_minor_expansion_is_functorial():
    # Cauchy-Binet: the expansion of a product is the product of expansions,
    # exact over rationals, 200 composable pairs up to 4x4
    rng = random.Random(10)
    for _ in range(200):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        y = labeled(tuple(range(1, r + 1)), tuple(range(100, 100 + k)),
                    rand_grid(rng, r, k))
        x = labeled(tuple(range(100, 100 + k)), tuple(range(200, 200 + c)),
                    rand_grid(rng, k, c))
        assert tensors_equal(sdet_expand(compose(y, x)),
                             tensor_compose(sdet_expand(y), sdet_expand(x)))
    print("criterion 2 ok")


def test_c03_evaluate_matches_contraction_and_multicycles():
    # 100 random rational circuits (<= 4 stacks, <= 4 wires, entries in
    # [-5, 5]): determinant evaluation, full tensor contraction, and the
    # multicycle sum agree exactly; complex variants agree within 1e-9
    rng = random.Random(11)
    for _ in range(100):
        c = rand_circuit(rng, max_stacks=4, max_wires=4)
        fast = evaluate(c)
        assert fast == contract_circuit(c)
        assert fast == multicycle_total(c)
    for _ in range(30):
        c = rand_circuit(rng, max_stacks=4, max_wires=4, field="complex")
        fast = evaluate(c)
        assert close(fast, contract_circuit(c))
        assert close(fast, multicycle_total(c))
    print("criterion 3 ok")


def test_c04_two_by_two_closed_form():
    # a single looped 2x2 gate evaluates to 1 + a + d + ad - bc and its
    # multicycle weights are exactly {1, a, d, ad - bc}
    rng = random.Random(12)
    for _ in range(5):
        a, b, c, d = (Fraction(rng.randint(-9, 9)) for _ in range(4))
        circ = loop_circuit([[a, b], [c, d]])
        assert evaluate(circ) == 1 + a + d + a * d - b * c
        weights = sorted(mc.weight for mc in enumerate_multicycles(circ))
        assert weights == sorted([Fraction(1), a, d, a * d - b * c])
    print("criterion 4 ok")


def test_c05_pfaffian_against_pairing_oracle():
    # 100 random skew matrices up to 12x12 against the perfect-matching sum;
    # Pf^2 = det throughout; anti-transposition preserves the value; the
    # 4x4 two-parameter example evaluates to -ab
    rng = random.Random(13)
    for i in range(100):
        n = rng.choice((0, 2, 4, 6, 8, 10, 12))
        if i % 4 == 3:
            grid = rand_skew_grid(rng, n, "complex", -5, 5)
            pf = pfaffian(grid)
            assert close(pf, pfaffian_oracle(grid))
            assert close(pf * pf, det_grid(grid))
        else:
            grid = rand_skew_grid(rng, n, "rational", -5, 5)
            pf = pfaffian(grid)
            assert pf == pfaffian_oracle(grid)
            assert pf * pf == det_grid(grid)
            flipped = [[grid[n - 1 - j][n - 1 - i] for j in range(n)]
                       for i in range(n)]
            assert pfaffian(flipped) == pf
    for _ in range(5):
        a, b = Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))
        grid = [[0, 0, a, 0], [0, 0, 0, b], [-a, 0, 0, 0], [0, -b, 0, 0]]
        assert pfaffian(grid) == -a * b
    print("criterion 5 ok")


def test_c06_skew_embedding_carries_determinants():
    # Pf of the embedded block equals det for 100 random square matrices up
    # to 6x6, and every sub-Pfaffian of a 3x3 embedding equals the matching
    # minor (non-square selections vanish)
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(0, 6)
        m = labeled(tuple(range(1, n + 1)), tuple(range(50, 50 + n)),
                    rand_grid(rng, n, n))
        s = skew_embed(m)
        assert pfaffian([list(r) for r in s.entries]) == determinant(m)
    n = 3
    m = labeled((1, 2, 3), (11, 12, 13), rand_grid(rng, n, n))
    s = skew_embed(m)
    for rbits in product((0, 1), repeat=n):
        for cbits in product((0, 1), repeat=n):
            rows = [m.rows[i] for i in range(n) if rbits[i]]
            cols = [m.cols[j] for j in range(n) if cbits[j]]
            keep = [lab for lab in s.labels if lab in set(rows) | set(cols)]
            got = pfaffian([list(r) for r in skew_restrict(s, keep).entries])
            if len(rows) != len(cols):
                assert got == 0
            else:
                assert got == determinant(submatrix(m, rows, cols))
    print("criterion 6 ok")


def rand_full_circuit(rng, max_stacks=4, max_wires=4):
    """Ring of single full gates: every stack one gate, no zero widths."""
    k = rng.randint(1, max_stacks)
    widths = [rng.randint(1, max_wires) for _ in range(k)]
    fresh = iter(range(1, 10 ** 6))
    bounds = [tuple(next(fresh) for _ in range(w)) for w in widths]
    stacks = []
    wirings = []
    for i in range(k):
        cols = bounds[i]
        nxt = bounds[(i + 1) % k]
        rows = tuple(next(fresh) for _ in range(len(nxt)))
        g = labeled(rows, cols, rand_grid(rng, len(rows), len(cols)))
        stacks.append(Stack((g,)))
        pairs = list(zip(rows, nxt))
        rng.shuffle(pairs)
        wirings.append(tuple(pairs))
    return Circuit(tuple(stacks), tuple(wirings))


def test_c07_compiled_circuits_reproduce_values():
    # 50 random circuits compile to skew form and evaluate identically;
    # the reported size ratio stays within 24x the largest emitted gate
    # dimension on circuits without degenerate zero-area stacks
    rng = random.Random(15)
    worst = Fraction(0)
    for _ in range(50):
        c = rand_circuit(rng, max_stacks=4, max_wires=4)
        cc = compile_circuit(c)
        assert eval_pfaffian_circuit(cc.target) == evaluate(c)
        worst = max(worst, cc.size_ratio)
    bound_worst = 0.0
    for _ in range(50):
        c = rand_full_circuit(rng)
        cc = compile_circuit(c)
        assert eval_pfaffian_circuit(cc.target) == evaluate(c)
        dim = max(max(len(s.in_labels), len(s.out_labels)) for s in c.stacks)
        assert cc.size_ratio <= 24 * dim
        bound_worst = max(bound_worst, float(cc.size_ratio) / dim)
    for w in range(1, 7):
        cc = compile_circuit(loop_circuit(rand_grid(rng, w, w)))
        assert cc.size_ratio <= 24 * w
    print(f"criterion 7 ok, worst ratio {float(worst):.1f}, "
          f"worst ratio/dim {bound_worst:.1f}")


def _connected(g: Graph) -> bool:
    parent = list(range(g.vertex_count + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[find(u)] = find(v)
    return len({find(i) for i in range(1, g.vertex_count + 1)}) <= 1


def test_c08_forest_counts_match_enumeration():
    # frozen small cases plus an exhaustive census of all connected graphs
    # on up to 5 vertices; budget 60 s
    start = time.monotonic()
    k3 = Graph(3, ((1, 2), (2, 3), (3, 1)))
    assert count_rooted_forests(k3) == 16
    assert forest_histogram(k3) == [0, 9, 6, 1]
    assert list(forest_polynomial(k3).coefficients) == [0, 9, 6, 1]
    assert count_spanning_trees(k3) == 3
    assert count_rooted_forests(Graph(2, ((1, 2),))) == 3
    k4 = Graph(4, tuple(combinations(range(1, 5), 2)))
    assert count_spanning_trees(k4) == 16

    census = 0
    for n in range(1, 6):
        pool = list(combinations(range(1, n + 1), 2))
        for k in range(len(pool) + 1):
            for sub in combinations(pool, k):
                g = Graph(n, sub)
                if not _connected(g):
                    continue
                census += 1
                assert count_rooted_forests(g) == len(enumerate_forests(g))
                assert list(forest_polynomial(g).coefficients) == \
                    forest_histogram(g)
                assert count_spanning_trees(g) == len(enumerate_trees(g))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 8 ok, {census} connected graphs in {elapsed:.2f}s")


def _rand_graph(rng):
    n = rng.randint(2, 6)
    edges = []
    for _ in range(rng.randint(1, 8)):
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            edges.append((u, v))
    return Graph(n, tuple(edges))


def test_c09_counts_ignore_orientation_and_root():
    # forest and tree counts are orientation-independent, and every choice
    # of deleted row/column gives the same tree count up to sign
    rng = random.Random(16)
    graphs = [Graph(3, ((1, 2), (2, 3), (3, 1))),
              Graph(4, tuple(combinations(range(1, 5), 2)))]
    graphs += [_rand_graph(rng) for _ in range(8)]
    for g in graphs:
        base = (count_rooted_forests(g), count_spanning_trees(g),
                forest_polynomial(g).coefficients)
        for seed in range(10):
            h = reorient(g, seed)
            assert (count_rooted_forests(h), count_spanning_trees(h),
                    forest_polynomial(h).coefficients) == base
        cof = {abs(laplacian_cofactor(g, i)) for i in range(g.vertex_count)}
        assert cof == {count_spanning_trees(g)}
    print("criterion 9 ok")


def test_c10_trace_is_cyclic():
    # det(I + XY) = det(I + YX) for 100 random rectangular pairs
    rng = random.Random(17)
    for _ in range(100):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        x = labeled(tuple(range(1, r + 1)), tuple(range(100, 100 + c)),
                    rand_grid(rng, r, c))
        y = labeled(tuple(range(100, 100 + c)), tuple(range(1, r + 1)),
                    rand_grid(rng, c, r))
        assert principal_minor_sum(compose(x, y)) == \
            principal_minor_sum(compose(y, x))
    print("criterion 10 ok")
