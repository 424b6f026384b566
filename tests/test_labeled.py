import random
from fractions import Fraction
from itertools import combinations

import pytest

from detcircuits import (
    DuplicateLabel,
    LabelCollision,
    LabelMismatch,
    LabeledMatrix,
    NotEndomorphism,
    compose,
    direct_sum,
    identity,
    labeled,
    permutation_matrix,
    principal_minor_sum,
    submatrix,
)
from circgen import rand_grid
from paper import determinant


def mk(rng, rows, cols):
    return labeled(rows, cols, rand_grid(rng, len(rows), len(cols)))


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel):
        labeled((1, 1), (2, 3), [[1, 2], [3, 4]])
    with pytest.raises(DuplicateLabel):
        labeled((1, 2), (3, 3), [[1, 2], [3, 4]])


def test_entry_grid_must_fit_the_labels():
    with pytest.raises(ValueError, match="wrong row count"):
        LabeledMatrix((1, 2), (3,), ((1,),))
    with pytest.raises(ValueError, match="wrong column count"):
        LabeledMatrix((1,), (3, 4), ((1,),))


def test_compose_identity():
    rng = random.Random(0)
    m = mk(rng, (1, 2), (3, 4))
    assert compose(identity((1, 2)), m) == m
    assert compose(m, identity((3, 4))) == m


def test_compose_scalars():
    a = labeled((1,), (2,), [[3]])
    b = labeled((2,), (3,), [[5]])
    ab = compose(a, b)
    assert ab.rows == (1,) and ab.cols == (3,)
    assert ab.entries[0][0] == 15


def test_compose_respects_label_order_not_position():
    # b's rows are listed in the opposite order of a's columns
    a = labeled((0,), (1, 2), [[1, 10]])
    b = labeled((2, 1), (3,), [[100], [1000]])
    ab = compose(a, b)
    # label 1 must hit b's second row, label 2 its first
    assert ab.entries[0][0] == 1 * 1000 + 10 * 100


def test_compose_label_mismatch():
    a = labeled((1,), (2,), [[1]])
    b = labeled((3,), (4,), [[1]])
    with pytest.raises(LabelMismatch):
        compose(a, b)


def test_compose_associative():
    rng = random.Random(1)
    for _ in range(25):
        x = mk(rng, (1, 2), (3, 4, 5))
        y = mk(rng, (3, 4, 5), (6,))
        z = mk(rng, (6,), (7, 8))
        assert compose(compose(x, y), z) == compose(x, compose(y, z))


def test_direct_sum_blocks_and_collision():
    a = labeled((1,), (2,), [[5]])
    b = labeled((3,), (4,), [[7]])
    s = direct_sum(a, b)
    assert s.rows == (1, 3) and s.cols == (2, 4)
    assert s.entries == ((Fraction(5), Fraction(0)), (Fraction(0), Fraction(7)))
    with pytest.raises(LabelCollision):
        direct_sum(a, labeled((1,), (9,), [[1]]))


def test_braiding_shape_and_inverse():
    # The crossing of bundles a and b: rows b ++ a, columns a ++ b.
    a, b = (1, 2), (3,)
    c = permutation_matrix({x: x for x in a + b}, a + b, b + a)
    assert c.rows == (3, 1, 2)
    assert c.cols == (1, 2, 3)
    back = permutation_matrix({x: x for x in b + a}, b + a, a + b)
    assert compose(back, c) == identity((1, 2, 3))


def test_permutation_matrix_routes_wires():
    p = permutation_matrix({1: 20, 2: 10}, cols=(1, 2), rows=(10, 20))
    m = labeled((1, 2), (7, 8), [[1, 2], [3, 4]])
    routed = compose(p, m)
    assert routed.rows == (10, 20) and routed.cols == (7, 8)
    assert routed.entries == ((3, 4), (1, 2))  # row 1 went to 20, row 2 to 10


def test_determinant_conventions():
    assert determinant(labeled((), (), ())) == 1
    assert determinant(labeled((1, 2), (3, 4), [[1, 2], [3, 4]])) == -2


def test_principal_minor_sum_zero_matrix():
    z = labeled((1, 2, 3), (1, 2, 3), [[0] * 3] * 3)
    assert principal_minor_sum(z) == 1


def test_principal_minor_sum_2x2_formula():
    m = labeled((1, 2), (1, 2), [[1, 2], [3, 4]])
    assert principal_minor_sum(m) == 4  # 1 + a + d + (ad - bc)


def test_principal_minor_sum_requires_endomorphism():
    with pytest.raises(NotEndomorphism):
        principal_minor_sum(labeled((1,), (2,), [[1]]))


def minor_sum_explicit(m):
    """Brute-force sum of all principal minors, the defining identity."""
    labs = m.rows
    total = Fraction(0)
    for size in range(len(labs) + 1):
        for sub in combinations(labs, size):
            total += determinant(submatrix(m, sub, sub))
    return total


def test_principal_minor_sum_vs_explicit_enumeration():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(0, 6)
        labs = tuple(range(1, n + 1))
        m = labeled(labs, labs, rand_grid(rng, n, n))
        assert principal_minor_sum(m) == minor_sum_explicit(m)


def test_trace_cyclicity_rectangular():
    # det(I+XY) = det(I+YX) even when X, Y are rectangular
    rng = random.Random(4)
    for _ in range(25):
        r = rng.randint(0, 4)
        c = rng.randint(0, 4)
        x = labeled(tuple(range(1, r + 1)), tuple(range(101, 101 + c)),
                    rand_grid(rng, r, c))
        y = labeled(tuple(range(101, 101 + c)), tuple(range(1, r + 1)),
                    rand_grid(rng, c, r))
        assert principal_minor_sum(compose(x, y)) == principal_minor_sum(compose(y, x))


def test_submatrix_keeps_parent_order():
    m = labeled((3, 1, 2), (9, 8), [[1, 2], [3, 4], [5, 6]])
    s = submatrix(m, (2, 3), (8,))
    assert s.rows == (3, 2)  # parent order, not request order
    assert s.entries == ((Fraction(2),), (Fraction(6),))
