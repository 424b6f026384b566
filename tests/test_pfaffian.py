import random
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detcircuits import (
    Circuit,
    DanglingWire,
    DuplicateLabel,
    NotSkew,
    PfaffianCircuit,
    TooLarge,
    compile_circuit,
    eval_pfaffian_circuit,
    eval_pfaffian_oracle,
    evaluate,
    labeled,
    parse_pfaffian,
    pfaffian,
    pfaffian_oracle,
    skew,
    spf,
    spf_dual,
    SkewMatrix,
    Stack,
    validate_pfaffian,
)
from detcircuits.pfaffian import _pair_order, _perm_sign
from detcircuits.scalars import det_grid, is_exact, scalars_equal
from circgen import has_sign_gadget, rand_circuit, rand_pf_circuit, rand_ring, rand_skew_grid
from paper import anti_transpose, determinant, edge_matrix

rat = st.integers(-9, 9).map(Fraction)
pq = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def rand_pq_skew_grid(rng, n, zeros=0.0):
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= zeros:
                g[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                g[j][i] = -g[i][j]
    return g


def zero_grid(n):
    return [[0] * n for _ in range(n)]


def test_pfaffian_degenerate_sizes():
    assert pfaffian([]) == 1
    assert pfaffian([[Fraction(0)]]) == 0  # odd size
    assert pfaffian([[Fraction(0), Fraction(7)], [Fraction(-7), Fraction(0)]]) == 7


def test_pfaffian_of_ints_is_exact():
    big = 10**20 + 1
    got = pfaffian([[0, big], [-big, 0]])
    assert type(got) is Fraction and got == big
    mixed = [[0, big, Fraction(1, 3), 2],
             [-big, 0, 5, Fraction(-2, 7)],
             [Fraction(-1, 3), -5, 0, 2**70],
             [-2, Fraction(2, 7), -2**70, 0]]
    got = pfaffian(mixed)
    assert type(got) is Fraction and got == pfaffian_oracle(mixed)


def test_pfaffian_4x4_closed_form():
    a12, a13, a14, a23, a24, a34 = (Fraction(x) for x in (2, 3, 5, 7, 11, 13))
    g = [[0, a12, a13, a14],
         [-a12, 0, a23, a24],
         [-a13, -a23, 0, a34],
         [-a14, -a24, -a34, 0]]
    g = [[Fraction(x) for x in row] for row in g]
    assert pfaffian(g) == a12 * a34 - a13 * a24 + a14 * a23


def test_pfaffian_zero_matrix():
    for n in (2, 4, 6):
        assert pfaffian([[Fraction(0)] * n for _ in range(n)]) == 0


def test_pfaffian_matches_pairing_oracle():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.choice((0, 2, 4, 6, 8))
        g = rand_skew_grid(rng, n)
        assert pfaffian(g) == pfaffian_oracle(g)


def test_pfaffian_oracle_cap():
    with pytest.raises(TooLarge):
        pfaffian_oracle([[Fraction(0)] * 14 for _ in range(14)])


def test_sub_pfaffian_caps_are_20():
    big = skew(range(1, 22), zero_grid(21))
    with pytest.raises(TooLarge):
        spf(big)
    with pytest.raises(TooLarge):
        spf_dual(big)
    pc = PfaffianCircuit((big,), (big,))
    with pytest.raises(TooLarge, match="21 edges"):
        eval_pfaffian_oracle(pc)


@given(st.integers(0, 3).flatmap(
    lambda h: st.lists(rat, min_size=h * (2 * h - 1) if h else 0,
                       max_size=h * (2 * h - 1) if h else 0).map(
        lambda v: (2 * h, v))))
@settings(max_examples=60, deadline=None)
def test_pfaffian_squared_is_determinant(nv):
    n, vals = nv
    g = [[Fraction(0)] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i + 1, n):
            x = next(it)
            g[i][j] = x
            g[j][i] = -x
    p = pfaffian(g)
    assert p * p == determinant(labeled(tuple(range(n)), tuple(range(n)), g))


def test_pfaffian_complex_vs_oracle():
    rng = random.Random(1)
    for t in range(45):
        n = rng.choice((2, 4, 6, 8, 10))
        g = rand_skew_grid(rng, n, field="complex")
        if t % 3 == 1:  # zero leading entry
            g[0][1] = g[1][0] = 0j
        elif t % 3 == 2:  # all-zero row: Pf 0
            r = rng.randrange(n)
            for j in range(n):
                g[r][j] = g[j][r] = 0j
        want = pfaffian_oracle(g)
        assert abs(pfaffian(g) - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("field", ["rational", "complex"])
def test_pfaffian_reads_only_the_upper_triangle(field):
    # A zero or small leading entry makes both eliminations swap at once.
    rng = random.Random(11)
    zero = Fraction(0) if field == "rational" else 0j
    for t in range(50):
        n = rng.choice((6, 8, 10, 12))
        g = rand_skew_grid(rng, n, field=field)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    g[i][j] = g[j][i] = zero
        lead = zero if t % 2 else g[0][1] / 1000
        g[0][1], g[1][0] = lead, -lead
        upper = [[x if i < j else zero for j, x in enumerate(row)] for i, row in enumerate(g)]
        assert pfaffian(g) == pfaffian(upper)


def test_skew_validation():
    with pytest.raises(NotSkew):
        skew((1, 2), [[0, 1], [1, 0]])
    with pytest.raises(NotSkew):
        skew((1, 2), [[1, 2], [-2, 0]])
    sk = skew((1, 2), [[0, 3], [-3, 0]])
    assert sk.entries[0][1] == 3
    # One entry of a pair zero, the other not: the pair is still checked.
    for one in (1, 1.0):
        with pytest.raises(NotSkew):
            skew((1, 2), [[0, one], [0, 0]])
    with pytest.raises(NotSkew):  # same numerator, other denominator
        skew((1, 2), [[0, Fraction(1, 2)], [Fraction(-1, 3), 0]])
    skew((1, 2), [[0, 1 + 2j], [-1 - 2j + 1e-12, 0]])
    with pytest.raises(NotSkew):
        skew((1, 2), [[0, 1 + 2j], [-1 - 2j + 1e-6, 0]])


# Finite, but its modulus passes the largest float, so abs() raises on it.
HUGE = 1.2711610061536462e+308 + 1.2711610061536464e+308j


def test_pfaffian_of_an_entry_past_the_largest_modulus():
    assert pfaffian([[0, HUGE], [-HUGE, 0]]) == HUGE
    grid = [[0j, HUGE, 0j, 0j], [-HUGE, 0j, 1, 0j], [0j, -1, 0j, 1], [0j, 0j, -1, 0j]]
    assert pfaffian(grid) == HUGE  # a12 * a34
    grid[0][1], grid[1][0], grid[1][2], grid[2][1] = 1, -1, HUGE, -HUGE
    assert pfaffian(grid) == 1


def test_pfaffian_divides_by_a_pivot_whose_parts_sum_past_the_largest_float():
    # abs(wide) is finite, but the denominator of CPython's complex
    # division, about the sum of its parts, is not.
    wide = 1.2e308 + 1.2e308j
    assert 1 / wide == 0
    grid = [[0j] * 4 for _ in range(4)]
    for i, j, x in ((0, 1, wide), (0, 2, 1), (1, 3, 1)):
        grid[i][j], grid[j][i] = x, -x
    assert scalars_equal(pfaffian(grid), -1)  # a12 a34 - a13 a24 + a14 a23
    assert pfaffian([[0, wide], [-wide, 0]]) == wide


def _reference_skew_check(labels, entries):
    """SkewMatrix's check as it was before zeros were skipped and exact zero
    sums passed early: every pair through scalars_equal."""
    n = len(labels)
    for i, row in enumerate(entries):
        if not scalars_equal(row[i], 0):
            raise NotSkew(f"nonzero diagonal at {labels[i]}")
        for j in range(i + 1, n):
            x, y = row[j], entries[j][i]
            if (x or y) and not scalars_equal(x, -y):
                raise NotSkew(f"entry ({labels[i]},{labels[j]}) not antisymmetric")


def _outcome(check):
    try:
        check()
    except Exception as exc:  # the verdict includes which error, and where
        return type(exc).__name__, str(exc)
    return "ok"


def _retyped(x):
    """x as the other exact type: an int as a Fraction, an integral Fraction as an int."""
    if type(x) is int:
        return Fraction(x)
    return int(x) if x.denominator == 1 else x


# Relative offsets around scalars_equal's 1e-9 tolerance, on both sides.
TOL_STEPS = (1e-12, 0.5e-9, 0.999e-9, 1.001e-9, 2e-9, 1e-6)


@st.composite
def exact_near_skew_grids(draw):
    """Grids of mixed ints and Fractions, each pair skew, retyped, or off:
    another value, or the same numerator over another denominator."""
    n = draw(st.integers(0, 5))
    value = st.one_of(st.integers(-3, 3), st.just(Fraction(0)), pq)
    g = [[draw(st.sampled_from((0, Fraction(0))))] * n for _ in range(n)]
    for i in range(n):
        if draw(st.integers(0, 9)) == 0:
            g[i][i] = draw(value)
        for j in range(i + 1, n):
            x = draw(value)
            mode = draw(st.sampled_from(("skew",) * 4 + ("retyped", "other", "denominator")))
            if mode == "skew":
                y = -x
            elif mode == "retyped":
                y = _retyped(-x)
            elif mode == "other":
                y = draw(value)
            else:
                x = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
                y = Fraction(-x.numerator, x.denominator + draw(st.integers(1, 3)))
            g[i][j], g[j][i] = x, y
    return g


@st.composite
def complex_near_skew_grids(draw):
    """Complex grids (with some int zeros, as compile writes them) whose
    pairs and diagonal entries sit just inside or just outside scalars_equal's
    tolerance, at small and large magnitudes, some of them infinite or nan."""
    n = draw(st.integers(0, 5))
    part = st.one_of(st.floats(-3, 3), st.floats(allow_nan=True, allow_infinity=True))
    value = st.one_of(st.just(0j), st.just(0), st.builds(complex, part, part))
    step = st.sampled_from(TOL_STEPS)
    pair_step = st.sampled_from((0.0,) * len(TOL_STEPS) + TOL_STEPS)  # half exactly skew
    g = [[draw(st.sampled_from((0, 0j, -0j)))] * n for _ in range(n)]
    for i in range(n):
        if draw(st.integers(0, 4)) == 0:
            g[i][i] = draw(step) * draw(st.sampled_from((1, -1j)))
        for j in range(i + 1, n):
            x, off = draw(value), draw(pair_step)
            if off:
                # max(1, abs(x)) / 4: abs(x) overflows on a finite x whose
                # modulus passes the largest float, a quarter of it does not.
                quarter = max(0.25, abs(complex(x.real / 4, x.imag / 4))) if x == x else 0.25
                x_off = x + off * 4 * quarter * draw(st.sampled_from((1, -1, 1j, -1j)))
            else:
                x_off = x  # -x exactly, infinite parts included
            g[i][j], g[j][i] = x, -x_off
    return g


@given(st.one_of(exact_near_skew_grids(), complex_near_skew_grids()))
@example([[0j, HUGE], [-HUGE, 0j]])
@example([[0j, HUGE], [-HUGE * (1 + 1e-12), 0j]])
@example([[0j, HUGE], [HUGE, 0j]])
@settings(max_examples=600, deadline=None)
def test_skew_check_matches_the_reference_check(g):
    labels = tuple(range(1, len(g) + 1))
    grid = tuple(tuple(row) for row in g)
    want = _outcome(lambda: _reference_skew_check(labels, grid))
    assert _outcome(lambda: SkewMatrix(labels, grid)) == want


def test_skew_grid_must_be_square_on_its_labels():
    with pytest.raises(ValueError, match="not square"):
        SkewMatrix((1, 2), ((0, 1),))
    with pytest.raises(ValueError, match="not square"):
        SkewMatrix((1, 2), ((0, 1), (-1, 0, 0)))


def test_anti_transpose_preserves_pfaffian():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.choice((2, 4, 6))
        sk = skew(tuple(range(1, n + 1)), rand_skew_grid(rng, n))
        hat = anti_transpose(sk)
        # result is again skew (the constructor enforces it) with equal Pfaffian
        a = pfaffian([list(r) for r in sk.entries])
        b = pfaffian([list(r) for r in hat.entries])
        assert a == b


def two_parameter_example(a, b):
    return skew((1, 2, 3, 4), [
        [0, 0, a, 0],
        [0, 0, 0, b],
        [-a, 0, 0, 0],
        [0, -b, 0, 0]])


def test_four_by_four_example_pfaffian():
    rng = random.Random(3)
    for _ in range(5):
        a, b = Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))
        n = two_parameter_example(a, b)
        assert pfaffian([list(r) for r in n.entries]) == -a * b


def test_four_by_four_example_spf_expansion():
    a, b = Fraction(2), Fraction(3)
    hat = anti_transpose(two_parameter_example(a, b))
    t = spf(hat)
    assert t.component((0, 0, 0, 0), ()) == 1
    assert t.component((1, 0, 1, 0), ()) == b
    assert t.component((0, 1, 0, 1), ()) == a
    assert t.component((1, 1, 1, 1), ()) == -a * b
    assert len(t.data) == 4  # nothing else survives


def _skew_grids():
    rng = random.Random(4)
    for n in range(7):
        yield rand_skew_grid(rng, n)  # integral Fractions
        yield [[int(x) for x in row] for row in rand_skew_grid(rng, n)]
        yield rand_pq_skew_grid(rng, n, zeros=0.3)
        yield rand_skew_grid(rng, n, "complex")
    for field in ("rational", "complex"):  # a zero row and column
        g = rand_skew_grid(rng, 6, field)
        for i in range(6):
            g[2][i] = g[i][2] = g[2][i] * 0
        yield g


def test_spf_corollary_reversed_bitstrings():
    # spf lists Pf(N_I) at the bitstring of I, spf_dual at that of its
    # complement, and spf(anti_transpose(N)) at the reversed bitstring of I.
    # Each against the pairing sum, on int, Fraction and complex grids, with
    # a zero row, n = 0 and odd n.
    for grid in _skew_grids():
        n = len(grid)
        sk = skew(tuple(range(1, n + 1)), grid)
        t, dual, hat = spf(sk), spf_dual(sk), spf(anti_transpose(sk))
        for size in range(n + 1):
            for sub in combinations(range(n), size):
                want = pfaffian_oracle([[sk.entries[i][j] for j in sub] for i in sub])
                bits = tuple(1 if i in sub else 0 for i in range(n))
                for got in (t.component(bits, ()), hat.component(bits[::-1], ()),
                            dual.component((), tuple(1 - b for b in bits))):
                    assert scalars_equal(got, want)
                    assert got == want or not is_exact(want)


def test_spf_dual_of_two_by_two():
    # sPf_dual([0 1;-1 0]) = <00| + <11|, the costate completing <0|
    k = skew((1, 2), [[0, 1], [-1, 0]])
    t = spf_dual(k)
    assert t.component((), (0, 0)) == 1
    assert t.component((), (1, 1)) == 1
    assert len(t.data) == 2


def test_spf_dual_of_single_zero():
    # the 1x1 zero skew matrix: complement of {} is {1}, Pf of 1x1 block is 0,
    # so only the full bra survives
    z = skew((1,), zero_grid(1))
    t = spf_dual(z)
    assert t.data == {((), (1,)): Fraction(1)}


def checkerboard(theta):
    n = len(theta)
    return [[theta[i][j] if (i + j) % 2 else -theta[i][j] for j in range(n)]
            for i in range(n)]


def test_pfaffian_splitting_identity():
    # Pf(Xi + checkerboard(Theta)) = sum over subsets I of
    # Pf(Xi_I) * Pf(Theta_{complement I}) for any skew pair of even size
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice((2, 4, 6))
        xi = rand_skew_grid(rng, n)
        th = rand_skew_grid(rng, n)
        chk = checkerboard(th)
        lhs = pfaffian([[xi[i][j] + chk[i][j] for j in range(n)] for i in range(n)])
        rhs = Fraction(0)
        for size in range(0, n + 1, 2):
            for sub in combinations(range(n), size):
                comp = tuple(i for i in range(n) if i not in sub)
                pxi = pfaffian([[xi[i][j] for j in sub] for i in sub])
                pth = pfaffian([[th[i][j] for j in comp] for i in comp])
                rhs += pxi * pth
        assert lhs == rhs


def two_edge_circuit():
    state = skew((1, 2), [[0, 2], [-2, 0]])
    costate = skew((1, 2), [[0, 1], [-1, 0]])
    return PfaffianCircuit((state,), (costate,))


def test_validate_pfaffian_coverage():
    validate_pfaffian(two_edge_circuit())
    # edge 2 missing on the costate side
    with pytest.raises(DanglingWire):
        PfaffianCircuit((skew((1, 2), [[0, 2], [-2, 0]]),), (skew((1,), [[0]]),))


def zero_circuit(states, costates):
    """The PfaffianCircuit of all-zero gadgets on the given label lists."""
    return PfaffianCircuit(*(tuple(skew(edges, zero_grid(len(edges))) for edges in side)
                             for side in (states, costates)))


def test_edge_count_is_the_largest_edge_id():
    assert PfaffianCircuit((), ()).edge_count == 0
    pc = zero_circuit([(3, 4), (1, 2)], [(4, 1), (2, 3)])
    assert pc.edge_count == 4
    rng = random.Random(8)
    for _ in range(30):
        target = compile_circuit(rand_circuit(rng, max_stacks=4, max_wires=3)).target
        for side in (target.states, target.costates):
            edges = sorted(e for g in side for e in g.labels)
            assert edges == list(range(1, target.edge_count + 1))


@pytest.mark.parametrize("gates,error,message", [
    (([(1, 3)], [(3, 1)]), DanglingWire, "1 edges have no state gate, the first is 2"),
    (([(1, 2)], [(2,)]), DanglingWire, "1 edges have no costate gate, the first is 1"),
    (([(1, 2), (1,)], [(2, 1)]), DuplicateLabel, "edge 1 used twice on the state side"),
    (([(0, 2)], [(2, 0)]), DanglingWire, "edge id 0 outside 1..2"),
])
def test_invalid_pfaffian_circuit_raises_when_built(gates, error, message):
    # gates: the label lists of the states, then of the costates.
    with pytest.raises(error) as e:
        zero_circuit(*gates)
    assert str(e.value) == message


def test_eval_pfaffian_tiny():
    pc = two_edge_circuit()
    assert eval_pfaffian_circuit(pc) == 3  # 1 + 2: the looped [2] gate
    assert eval_pfaffian_oracle(pc) == 3


def test_eval_pfaffian_empty():
    pc = PfaffianCircuit((), ())
    assert pc.exact is True
    assert eval_pfaffian_circuit(pc) == 1
    assert eval_pfaffian_oracle(pc) == 1


def test_eval_pfaffian_of_a_zero_complex_circuit_is_complex():
    # The gadgets say the field: a zero contraction is 0j on both paths.
    zero = [[0j, 0j], [0j, 0j]]
    pc = PfaffianCircuit((skew((1, 2), zero),), (skew((1, 2), zero),))
    assert pc.exact is False
    for value in (eval_pfaffian_circuit(pc), eval_pfaffian_oracle(pc)):
        assert value == 0j and type(value) is complex


def renumber(pc, sigma):
    return PfaffianCircuit(*(tuple(skew([sigma[e] for e in g.labels], g.entries) for g in side)
                             for side in (pc.states, pc.costates)))


def test_multiple_valid_edge_orderings_exist():
    # the fast path must agree with the ordering-independent oracle for at
    # least two distinct global edge numberings of the same circuit
    from detcircuits import Circuit, Stack, compile_circuit
    g = labeled((1, 2), (3, 4), [[1, 2], [3, 4]])
    c = Circuit((Stack((g,)),), (((1, 3), (2, 4)),))
    pc = compile_circuit(c).target
    want = eval_pfaffian_oracle(pc)
    valid = 0
    for perm in permutations(range(1, pc.edge_count + 1)):
        sigma = dict(zip(range(1, pc.edge_count + 1), perm))
        if eval_pfaffian_circuit(renumber(pc, sigma)) == want:
            valid += 1
    assert valid >= 2
    # the compiler's own numbering is one of the valid ones
    assert eval_pfaffian_circuit(pc) == want


def test_oracle_invariant_under_renumbering():
    pc = two_edge_circuit()
    swapped = renumber(pc, {1: 2, 2: 1})
    assert eval_pfaffian_oracle(swapped) == eval_pfaffian_oracle(pc)


def _entries(field):
    if field == "rational":
        return Fraction(0), pq
    return 0j, st.builds(lambda x, y: complex(float(x), float(y)), pq, pq)


@st.composite
def pq_skew_grids(draw, field="rational"):
    """Skew grids of p/q entries (complex ones have p/q parts) up to n = 10,
    many of them sparse, some with a zero leading entry (the kernel must
    swap) or an all-zero row (Pf 0)."""
    zero, value = _entries(field)
    n = draw(st.integers(0, 10))
    entry = st.one_of(st.just(zero), value) if draw(st.booleans()) else value
    g = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = draw(entry)
            g[j][i] = -g[i][j]
    hole = draw(st.sampled_from(("none", "lead", "row")))
    if hole == "lead" and n >= 2:
        g[0][1] = g[1][0] = zero
    elif hole == "row" and n:
        r = draw(st.integers(0, n - 1))
        for j in range(n):
            g[r][j] = g[j][r] = zero
    return g


@st.composite
def permuted_sparse_skew_grids(draw, field="rational"):
    """Banded or block-diagonal skew grids up to n = 10 under a random
    relabelling of the indices.  Zero pivots then turn up at later steps,
    and rows sit out several pivot pairs before one reaches them."""
    zero, value = _entries(field)
    n = draw(st.integers(2, 10))
    if draw(st.booleans()):
        band = draw(st.integers(1, 3))
        near = [[j - i <= band for j in range(n)] for i in range(n)]
    else:
        cuts = draw(st.lists(st.integers(1, n - 1), max_size=4))
        block = [sum(c <= i for c in cuts) for i in range(n)]
        near = [[block[i] == block[j] for j in range(n)] for i in range(n)]
    at = draw(st.permutations(range(n)))
    g = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if near[i][j]:
                x = draw(value)
                g[at[i]][at[j]], g[at[j]][at[i]] = x, -x
    return g


@given(st.one_of(pq_skew_grids(), permuted_sparse_skew_grids()))
@settings(max_examples=300, deadline=None)
def test_pfaffian_matches_oracle_on_rational_grids(g):
    assert pfaffian(g) == pfaffian_oracle(g)


@given(st.one_of(pq_skew_grids("complex"), permuted_sparse_skew_grids("complex")))
@settings(max_examples=200, deadline=None)
def test_pfaffian_matches_oracle_on_complex_grids(g):
    want = pfaffian_oracle(g)
    assert abs(pfaffian(g) - want) <= 1e-9 * max(1.0, abs(want))


def test_pfaffian_squared_is_det_grid_at_larger_sizes():
    rng = random.Random(6)
    for n, zeros in ((20, 0.0), (24, 0.8), (30, 0.5), (36, 0.9), (40, 0.0)):
        g = rand_pq_skew_grid(rng, n, zeros)
        p = pfaffian(g)
        assert p * p == det_grid(g)


def test_eval_pfaffian_adds_state_and_costate_on_a_shared_pair():
    # Pairs (1,2), (3,4), (5,6) and (7,8) are named by a state and by a
    # costate, so the assembly must add the two; at (1,2) they cancel, so
    # the elimination must swap, in both fields.  Gates stay at size 4, so
    # the oracle's sub-Pfaffian expansion stays small.
    h = Fraction(1, 2)
    a = skew((1, 2, 3, 4), [[0, h, Fraction(2, 3), -1], [-h, 0, 3, Fraction(5, 7)],
                            [Fraction(-2, 3), -3, 0, Fraction(1, 4)],
                            [1, Fraction(-5, 7), Fraction(-1, 4), 0]])
    b = skew((5, 6, 7, 8), [[0, 2, 0, Fraction(3, 5)], [-2, 0, Fraction(-4, 3), 1],
                            [0, Fraction(4, 3), 0, 6], [Fraction(-3, 5), -1, -6, 0]])
    c = skew((1, 2), [[0, -h], [h, 0]])
    d = skew((3, 4, 5, 6), [[0, Fraction(7, 2), 1, -2], [Fraction(-7, 2), 0, 5, 3],
                            [-1, -5, 0, Fraction(1, 3)], [2, -3, Fraction(-1, 3), 0]])
    e = skew((7, 8), [[0, Fraction(-9, 4)], [Fraction(9, 4), 0]])
    pc = PfaffianCircuit((a, b), (c, d, e))
    want = eval_pfaffian_oracle(pc)
    assert want != 0
    assert eval_pfaffian_circuit(pc) == want
    zc = PfaffianCircuit(*(
        tuple(skew(g.labels, [[complex(x) for x in row] for row in g.entries]) for g in side)
        for side in (pc.states, pc.costates)))
    got = eval_pfaffian_circuit(zc)
    assert type(got) is complex and abs(got - want) <= 1e-9 * abs(want)


def test_eval_pfaffian_on_a_thousand_independent_pairs():
    # Edges 2m-1 and 2m meet only each other, in one state and one costate,
    # so the edge matrix is block-diagonal and Pf is the product of the pair
    # values: the state entry plus the costate entry times its twist
    # (-1)**(i+j+1).  Eliminating it must not rescale the rows a pivot
    # pair does not reach.
    rng = random.Random(9)
    lines, want = [], 1
    for m in range(1, 1001):
        i, j = 2 * m - 1, 2 * m
        s, c = rng.randint(1, 9), rng.randint(0, 9)
        lines += [f"pfgate state 2 {i} {j}", f"0 {s}", f"{-s} 0",
                  f"pfgate costate 2 {i} {j}", f"0 {c}", f"{-c} 0"]
        want *= s + (-1) ** (i + j + 1) * c
    pc = parse_pfaffian("\n".join(lines) + "\n")
    assert pc.edge_count == 2000
    start = time.perf_counter()
    assert eval_pfaffian_circuit(pc) == want
    assert time.perf_counter() - start < 5.0


def test_compiled_deep_ring_matches_evaluate():
    c = rand_ring(random.Random(12), 6, 64)
    pc = compile_circuit(c).target
    assert pc.edge_count > 700
    assert eval_pfaffian_circuit(pc) == evaluate(c)


def i_gauge(c, rng):
    """c with each wire's source row times a power of i and its target
    column times the inverse power.  A multicycle either uses a wire at both
    ends or at neither, so the value stays; the entries turn complex, and
    none is rounded."""
    phase = {}
    for wiring in c.wirings:
        for src, dst in wiring:
            k = rng.randrange(4)
            phase[src], phase[dst] = 1j ** k, 1j ** -k
    return Circuit(tuple(
        Stack(tuple(labeled(g.rows, g.cols, [[complex(x) * phase[r] * phase[col]
                                              for col, x in zip(g.cols, row)]
                                             for r, row in zip(g.rows, g.entries)])
                    for g in stack.gates))
        for stack in c.stacks), c.wirings)


def test_compiled_deep_complex_ring_matches_the_exact_value():
    # The reference is the exact value of the rational ring it was gauged
    # from: the complex collapse in evaluate is no reference at this depth.
    rng = random.Random(12)
    c = rand_ring(rng, 6, 64)
    want = evaluate(c)
    z = i_gauge(c, rng)
    assert any(x.imag for stack in z.stacks for g in stack.gates for row in g.entries
               for x in row)
    got = eval_pfaffian_circuit(compile_circuit(z).target)
    assert type(got) is complex
    assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compiled_complex_ring_keeps_its_accuracy(seed):
    # The complex kernel eliminates in the natural edge order.  The unit
    # pair order of the exact kernel loses every digit here: at seed 1 its
    # relative error is about 2e6, against at most 1.4e-13 in this order.
    rng = random.Random(seed)
    c = rand_ring(rng, 6, 64)
    want = evaluate(c)
    got = eval_pfaffian_circuit(compile_circuit(i_gauge(c, rng)).target)
    assert type(got) is complex
    assert abs(got - want) <= 1e-9 * abs(want)


COMPLEX_PAIRS_PF = """\
pfgate state 4 1 2 3 4
0 0 0 1+1i
0 0 2-1i 0
0 -2+1i 0 0
-1-1i 0 0 0
pfgate costate 4 1 2 3 4
0 0 0 1
0 0 1 0
0 -1 0 0
-1 0 0 0
"""


def test_complex_circuits_skip_the_pair_search(monkeypatch):
    # Only the exact kernel eliminates in the pair order, so a complex
    # circuit never searches its costates for unit pairs.
    rng = random.Random(1)
    c = rand_ring(rng, 6, 64)
    circuits = [parse_pfaffian(COMPLEX_PAIRS_PF, "complex"),
                compile_circuit(i_gauge(c, rng)).target]
    assert all(_pair_order(pc.costates, 0) for pc in circuits)  # both hold unit pairs
    want = [pfaffian(edge_matrix(pc)) for pc in circuits]
    assert want[0] == 7 + 1j and abs(want[1] - evaluate(c)) <= 1e-9 * abs(want[1])

    def no_search(costates, n):
        raise AssertionError("pair search on a complex circuit")

    monkeypatch.setattr(sys.modules["detcircuits.pfaffian"], "_pair_order", no_search)
    got = [eval_pfaffian_circuit(pc) for pc in circuits]
    assert got == want and all(type(v) is complex for v in got)


def test_perm_sign_is_the_inversion_parity():
    for n in range(7):
        for perm in permutations(range(1, n + 1)):
            inversions = sum(a > b for a, b in combinations(perm, 2))
            assert _perm_sign(list(perm)) == (-1) ** inversions


def renumbering_sign(pc):
    """Sign of the edge order an exact circuit is eliminated in: the
    costates' unit pairs, then the other edges in their natural order."""
    return _perm_sign(_pair_order(pc.costates, pc.edge_count))


def assert_natural_order_value(pc):
    got, want = eval_pfaffian_circuit(pc), pfaffian(edge_matrix(pc))
    assert type(got) is type(want) and got == want


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_eval_pfaffian_is_the_natural_order_pfaffian(rng):
    assert_natural_order_value(rand_pf_circuit(rng))


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_eval_pfaffian_is_the_natural_order_pfaffian_when_compiled(rng):
    assert_natural_order_value(compile_circuit(rand_circuit(rng, max_stacks=5)).target)


def test_natural_order_corpus_covers_signs_swaps_and_layouts(monkeypatch):
    # The equality above holds on every input only if the kernel result is
    # multiplied by the renumbering's sign; the files here have nonzero
    # values under renumberings of both signs, so a run without it fails.
    # A compiled circuit's renumbering is even: each pass-through lists its
    # pairs in an even permutation of its labels, and the sign fix makes
    # the costates' label lists, read in turn, an even permutation too.
    pf_module = sys.modules["detcircuits.pfaffian"]
    swaps = []
    swap = pf_module._swap
    monkeypatch.setattr(pf_module, "_swap", lambda *args: swaps.append(swap(*args)))
    rng = random.Random(21)
    seen = set()
    for t in range(400):
        if t % 4 == 0:
            c = rand_circuit(rng, max_stacks=5)
            pc = compile_circuit(c).target
            assert_natural_order_value(pc)
            widths = [len(s.in_labels) for s in c.stacks]
            if any(w != widths[k - 1] for k, w in enumerate(widths)):
                seen.add("rectangular ring gate")
            if len(widths) % 2 == 0:
                seen.add("even ring")
            if has_sign_gadget(pc):
                seen.add("sign gadget")
            continue
        pc = rand_pf_circuit(rng)
        before = len(swaps)
        if eval_pfaffian_circuit(pc) and renumbering_sign(pc) < 0:
            seen.add("sign -1")
        if len(swaps) > before:
            seen.add("swap")
        assert_natural_order_value(pc)
        gadgets = pc.states + pc.costates
        if any(row.count(0) < len(row) - 1 and any(x in (1, -1) for x in row)
               for g in pc.costates for row in g.entries):
            seen.add("unit beside another nonzero")
        if any(type(x) is Fraction and x.denominator > 1
               for g in gadgets for row in g.entries for x in row):
            seen.add("p/q entry")
        if any(list(g.labels) != sorted(g.labels) for g in gadgets):
            seen.add("shuffled labels")
    assert seen == {"sign -1", "swap", "unit beside another nonzero", "p/q entry",
                    "shuffled labels", "rectangular ring gate", "even ring", "sign gadget"}
