import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

import pytest

from detcircuits import (
    Circuit,
    LabelCollision,
    LabelMismatch,
    Stack,
    TooLarge,
    compose,
    contract_circuit,
    enumerate_multicycles,
    evaluate,
    identity,
    labeled,
    multicycle_total,
    permutation_matrix,
    principal_minor_sum,
    sdet_expand,
    submatrix,
    tensor_compose,
    tensor_product,
    tensor_trace,
)
from detcircuits import tensor
from detcircuits.scalars import is_exact, scalars_equal
from circgen import rand_grid
from paper import tensors_equal


def test_sdet_expand_1x1():
    t = sdet_expand(labeled((1,), (2,), [[5]]))
    assert t.data == {((0,), (0,)): Fraction(1), ((1,), (1,)): Fraction(5)}


def _leibniz(grid):
    """The determinant by its definition: signed products over permutations."""
    total = 0
    for perm in permutations(range(len(grid))):
        term = prod([row[j] for row, j in zip(grid, perm)])
        inversions = sum([a > b for a, b in combinations(perm, 2)])
        total = total - term if inversions % 2 else total + term
    return total


def _grids_to_expand():
    """(grid, column count) pairs."""
    rng = random.Random(0)
    yield rand_grid(rng, 3, 2), 2  # integral Fractions
    yield [[rng.choice((0, 0, 1, -2, 3)) for _ in range(4)] for _ in range(3)], 4  # ints
    yield [[3, 0, -1, 2], [0, 0, 0, 0], [1, 5, 0, -4], [2, -1, 1, 0]], 4  # a zero row
    yield [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)] for _ in range(2)], 4
    yield rand_grid(rng, 3, 3, "complex"), 3
    yield [[1 + 2j, 0j, -1j], [0j, 0j, 0j], [2 - 1j, 0.5 + 0j, 3j]], 3  # complex, a zero row
    yield [[]] * 3, 0  # 3x0
    yield [], 3  # 0x3: only the empty minor
    yield [], 0


def test_sdet_expand_coefficients_are_minors():
    # Every coefficient against the Leibniz sum of its minor, on int, Fraction
    # and complex grids, square and not, with zero rows and no rows or columns.
    for grid, c in _grids_to_expand():
        r = len(grid)
        m = labeled(tuple(range(1, r + 1)), tuple(range(20, 20 + c)), grid)
        t = sdet_expand(m)
        for rsize in range(r + 1):
            for csize in range(c + 1):
                for rsub in combinations(range(r), rsize):
                    for csub in combinations(range(c), csize):
                        ket = tuple(1 if i in rsub else 0 for i in range(r))
                        bra = tuple(1 if j in csub else 0 for j in range(c))
                        if rsize != csize:
                            assert (ket, bra) not in t.data
                            continue
                        want = _leibniz([[m.entries[i][j] for j in csub] for i in rsub])
                        assert scalars_equal(t.component(ket, bra), want)
                        if is_exact(want):
                            assert t.component(ket, bra) == want


def test_sdet_expand_empty_minor_is_one():
    m = labeled((1,), (2,), [[0]])
    t = sdet_expand(m)
    assert t.component((0,), (0,)) == 1
    assert t.component((1,), (1,)) == 0


def test_sdet_expand_cap():
    wide = labeled(tuple(range(1, 12)), tuple(range(20, 30)),
                   [[0] * 10 for _ in range(11)])
    with pytest.raises(TooLarge):
        sdet_expand(wide)
    # The cap is 20 wires: a 1x19 matrix expands, a 1x20 one is refused.
    row = labeled((1,), tuple(range(2, 21)), [[1] * 19])
    assert len(sdet_expand(row).data) == 20  # the empty minor and 19 entries
    with pytest.raises(TooLarge):
        sdet_expand(labeled((1,), tuple(range(2, 22)), [[1] * 20]))


def test_braiding_expansion_signs():
    # sDet of the 1|1 braiding, the crossing with rows (2, 1) and columns
    # (1, 2): |00><00| + |01><10| + |10><01| - |11><11|
    t = sdet_expand(permutation_matrix({1: 1, 2: 2}, (1, 2), (2, 1)))
    assert t.data == {
        ((0, 0), (0, 0)): Fraction(1),
        ((0, 1), (1, 0)): Fraction(1),
        ((1, 0), (0, 1)): Fraction(1),
        ((1, 1), (1, 1)): Fraction(-1),
    }


def test_tensor_product_concatenates():
    a = sdet_expand(labeled((1,), (2,), [[3]]))
    b = sdet_expand(labeled((4,), (5,), [[7]]))
    p = tensor_product(a, b)
    assert p.out_wires == (1, 4)
    assert p.component((1, 1), (1, 1)) == 21
    assert p.component((1, 0), (1, 0)) == 3


def test_compose_with_identity_expansion():
    rng = random.Random(1)
    m = labeled((1, 2), (3, 4), rand_grid(rng, 2, 2))
    t = sdet_expand(m)
    i = sdet_expand(identity((3, 4)))
    assert tensors_equal(tensor_compose(t, i), t)


def test_bra_ket_composition_is_delta():
    m = labeled((1, 2), (3, 4), [[1, 0], [0, 1]])
    t = sdet_expand(m)
    # <J| . |I> through the identity: delta_{IJ}
    for bits in product((0, 1), repeat=2):
        assert t.component(bits, bits) == 1


def test_cauchy_binet_functoriality():
    rng = random.Random(2)
    for _ in range(40):
        r, k, c = (rng.randint(0, 3) for _ in range(3))
        y = labeled(tuple(range(1, r + 1)), tuple(range(10, 10 + k)),
                    rand_grid(rng, r, k))
        x = labeled(tuple(range(10, 10 + k)), tuple(range(30, 30 + c)),
                    rand_grid(rng, k, c))
        lhs = sdet_expand(compose(y, x))
        rhs = tensor_compose(sdet_expand(y), sdet_expand(x))
        assert tensors_equal(lhs, rhs)


def test_tensor_compose_label_mismatch():
    a = sdet_expand(labeled((1,), (2,), [[1]]))
    b = sdet_expand(labeled((3,), (4,), [[1]]))
    with pytest.raises(LabelMismatch):
        tensor_compose(a, b)


def test_tensor_product_and_trace_refuse_mismatched_legs():
    a = tensor.Tensor((1,), (2,), {})
    with pytest.raises(LabelCollision):
        tensor_product(a, tensor.Tensor((1,), (3,), {}))
    with pytest.raises(LabelCollision):
        tensor_product(a, tensor.Tensor((3,), (2,), {}))
    with pytest.raises(LabelMismatch):
        tensor_trace(a)


def test_trace_of_identity_counts_subsets():
    for n in range(5):
        t = sdet_expand(identity(tuple(range(1, n + 1))))
        assert tensor_trace(t) == 2 ** n


def test_trace_equals_principal_minor_sum():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(0, 6)
        labs = tuple(range(1, n + 1))
        m = labeled(labs, labs, rand_grid(rng, n, n))
        assert tensor_trace(sdet_expand(m)) == principal_minor_sum(m)


def test_trace_of_zero_1x1():
    t = sdet_expand(labeled((1,), (1,), [[0]]))
    assert tensor_trace(t) == 1


def test_multicycle_enumeration_cap(monkeypatch):
    # One stack of width 5 closed on itself: 2**5 subset tuples to try.
    rng = random.Random(3)
    gate = labeled((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), rand_grid(rng, 5, 5))
    c = Circuit((Stack((gate,)),), (tuple(zip(gate.rows, gate.cols)),))
    monkeypatch.setattr(tensor, "ORACLE_CAP", 5)
    assert sum(mc.weight for mc in enumerate_multicycles(c)) == evaluate(c)
    monkeypatch.setattr(tensor, "ORACLE_CAP", 4)
    with pytest.raises(TooLarge):
        enumerate_multicycles(c)


def test_multicycle_cap_is_2_to_the_20_tuples():
    # One width-21 stack closed on itself: 2**21 subset tuples, refused
    # before any of them is tried.
    gate = labeled(tuple(range(1, 22)), tuple(range(31, 52)), rand_grid(random.Random(5), 21, 21))
    c = Circuit((Stack((gate,)),), (tuple(zip(gate.rows, gate.cols)),))
    with pytest.raises(TooLarge, match=r"2097152 subset tuples > 2\*\*20"):
        enumerate_multicycles(c)


def test_complex_oracles_give_complex_values():
    # Only the empty minors contribute across the zero-width boundary, and
    # their 1 is still a complex value in a complex circuit.
    g1 = labeled((1, 2), (3,), [[2 + 1j], [1j]])
    g2 = labeled((), (4, 5), [])
    g3 = labeled((6,), (), [[]])
    c = Circuit((Stack((g1,)), Stack((g2,)), Stack((g3,))),
                (((1, 4), (2, 5)), (), ((6, 3),)))
    for value in (evaluate(c), contract_circuit(c),
                  *(mc.weight for mc in enumerate_multicycles(c))):
        assert type(value) is complex and value == 1
    exact = Circuit((Stack((labeled((1,), (2,), [[3]]),)),), (((1, 2),),))
    values = [contract_circuit(exact)] + [mc.weight for mc in enumerate_multicycles(exact)]
    assert values == [4, 1, 3]
    assert not any(isinstance(v, complex) for v in values)


def test_one_complex_gate_makes_the_circuit_complex():
    # labeled() keeps the first gate's ints; the second gate alone puts the
    # circuit in the complex field.  The loop is B A = [[i, 2i], [1, 4]], and
    # det(I + B A) = 5+3i.
    ints = labeled((1, 2), (3, 4), [[1, 2], [0, 1]])
    cplx = labeled((5, 6), (7, 8), [[1j, 0], [1, 2]])
    assert {type(x) for row in ints.entries for x in row} == {int}
    c = Circuit((Stack((ints,)), Stack((cplx,))), (((1, 7), (2, 8)), ((5, 3), (6, 4))))
    assert c.exact is False
    for value in (evaluate(c), contract_circuit(c), multicycle_total(c)):
        assert type(value) is complex and value == 5 + 3j
