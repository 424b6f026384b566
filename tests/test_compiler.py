import random
from fractions import Fraction
from itertools import product

import pytest

from detcircuits import (
    Circuit,
    LabelCollision,
    NotSquare,
    Stack,
    compile_circuit,
    determinant,
    eval_pfaffian_circuit,
    eval_pfaffian_oracle,
    evaluate,
    labeled,
    pfaffian,
    sdet_expand,
    skew,
    skew_embed,
    spf,
    spf_dual,
    submatrix,
    validate_pfaffian,
)
from circgen import rand_circuit, rand_grid


def test_skew_embed_1x1():
    s = skew_embed(labeled((1,), (2,), [[Fraction(3)]]))
    assert [list(r) for r in s.entries] == [[Fraction(0), Fraction(3)],
                                            [Fraction(-3), Fraction(0)]]
    assert pfaffian([list(r) for r in s.entries]) == 3


def test_skew_embed_requires_square_and_disjoint():
    with pytest.raises(NotSquare):
        skew_embed(labeled((1,), (2, 3), [[1, 2]]))
    with pytest.raises(LabelCollision):
        skew_embed(labeled((1,), (1,), [[1]]))


def test_skew_embed_pfaffian_is_determinant():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(0, 5)
        m = labeled(tuple(range(1, n + 1)), tuple(range(11, 11 + n)),
                    rand_grid(rng, n, n, lo=-9, hi=9))
        s = skew_embed(m)
        assert pfaffian([list(r) for r in s.entries]) == determinant(m)


def test_skew_embed_subpfaffians_are_minors():
    # Pf(S(M)_K) = det(M_{I,J}) for every K = I together with reflected J
    rng = random.Random(1)
    from detcircuits import skew_restrict
    for _ in range(5):
        n = 3
        m = labeled((1, 2, 3), (11, 12, 13), rand_grid(rng, n, n))
        s = skew_embed(m)
        for rbits in product((0, 1), repeat=n):
            for cbits in product((0, 1), repeat=n):
                rows = [m.rows[i] for i in range(n) if rbits[i]]
                cols = [m.cols[j] for j in range(n) if cbits[j]]
                keep = [lab for lab in s.labels if lab in set(rows) | set(cols)]
                block = skew_restrict(s, keep)
                got = pfaffian([list(r) for r in block.entries])
                if len(rows) != len(cols):
                    assert got == 0
                else:
                    assert got == determinant(submatrix(m, rows, cols))


def coefficient(t, assign):
    if t.out_wires:
        key = (tuple(assign[w] for w in t.out_wires), ())
    else:
        key = ((), tuple(assign[w] for w in t.in_wires))
    return t.data.get(key, Fraction(0))


def test_gate_level_faithfulness():
    # contracting the state gadget of a square gate with the pass-through
    # costate gadget on its column side reproduces the gate's minor tensor
    # coefficient for coefficient
    rng = random.Random(2)
    for n in (1, 2, 3):
        m = labeled(tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n + 1)),
                    rand_grid(rng, n, n))
        state = spf(skew_embed(m))
        fresh = tuple(range(-n, 0))
        shared_rev = tuple(range(2 * n, n, -1))
        grid = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            grid[i][2 * n - 1 - i] = 1
            grid[2 * n - 1 - i][i] = -1
        passthrough = spf_dual(skew(fresh + shared_rev, grid))
        shared = list(shared_rev)
        for ibits in product((0, 1), repeat=n):
            for jbits in product((0, 1), repeat=n):
                acc = Fraction(0)
                for kbits in product((0, 1), repeat=n):
                    a = dict(zip(m.rows, ibits))
                    a.update(zip(shared, kbits))
                    b = dict(zip(fresh, jbits))
                    b.update(zip(shared, kbits))
                    acc += coefficient(state, a) * coefficient(passthrough, b)
                rows = [m.rows[i] for i in range(n) if ibits[i]]
                cols = [m.cols[j] for j in range(n) if jbits[j]]
                if len(rows) != len(cols):
                    assert acc == 0
                else:
                    assert acc == determinant(submatrix(m, rows, cols))


def test_compile_single_looped_gate():
    g = labeled((2,), (1,), [[Fraction(5)]])
    c = Circuit((Stack((g,)),), (((2, 1),),))
    out = compile_circuit(c)
    validate_pfaffian(out.target)
    assert evaluate(c) == 6
    assert eval_pfaffian_circuit(out.target) == 6
    assert eval_pfaffian_oracle(out.target) == 6
    assert out.gadget_count == len(out.target.gates)
    assert out.size_ratio > 0


def test_compile_even_ring():
    # two-stack rings force the parity fix (an appended identity stack)
    g1 = labeled((2,), (1,), [[Fraction(3)]])
    g2 = labeled((4,), (3,), [[Fraction(5)]])
    c = Circuit((Stack((g1,)), Stack((g2,))), (((2, 3),), ((4, 1),)))
    out = compile_circuit(c)
    assert evaluate(c) == 16
    assert eval_pfaffian_circuit(out.target) == 16


def test_compile_non_square_gates():
    g1 = labeled((3,), (1, 2), [[Fraction(1), Fraction(2)]])
    g2 = labeled((4, 5), (6,), [[Fraction(3)], [Fraction(-1)]])
    c = Circuit((Stack((g1,)), Stack((g2,))), (((3, 6),), ((4, 1), (5, 2))))
    out = compile_circuit(c)
    assert eval_pfaffian_circuit(out.target) == evaluate(c)


def test_compile_empty_circuit():
    c = Circuit((), ())
    out = compile_circuit(c)
    assert evaluate(c) == 1
    assert eval_pfaffian_circuit(out.target) == 1


def test_compile_zero_width_stacks():
    empty_gate = labeled((), (), ())
    c = Circuit((Stack((empty_gate,)),), ((),))
    out = compile_circuit(c)
    assert evaluate(c) == 1
    assert eval_pfaffian_circuit(out.target) == 1


def test_compile_random_circuits_exact():
    rng = random.Random(3)
    for _ in range(60):
        c = rand_circuit(rng, max_stacks=5, max_wires=4)
        out = compile_circuit(c)
        validate_pfaffian(out.target)
        assert eval_pfaffian_circuit(out.target) == evaluate(c)


def test_compile_random_circuits_complex():
    rng = random.Random(4)
    for _ in range(15):
        c = rand_circuit(rng, max_stacks=3, max_wires=3, field="complex", lo=-2, hi=2)
        out = compile_circuit(c)
        got = eval_pfaffian_circuit(out.target)
        assert abs(complex(got) - complex(evaluate(c))) < 1e-6


def test_compile_matches_tensor_oracle_on_small_targets():
    rng = random.Random(5)
    done = 0
    while done < 10:
        c = rand_circuit(rng, max_stacks=2, max_wires=2)
        out = compile_circuit(c)
        if out.target.edge_count > 14:
            continue
        assert eval_pfaffian_oracle(out.target) == evaluate(c)
        done += 1


def test_size_ratio_scales_with_gate_dimension():
    # the compiled blowup should stay within a constant times the largest
    # gate dimension (the construction is quadratic per gate)
    rng = random.Random(6)
    worst = Fraction(0)
    for width in range(1, 8):
        labs_in = tuple(range(1, width + 1))
        labs_out = tuple(range(width + 1, 2 * width + 1))
        g = labeled(labs_out, labs_in, rand_grid(rng, width, width))
        c = Circuit((Stack((g,)),),
                    (tuple(zip(labs_out, labs_in)),))
        out = compile_circuit(c)
        worst = max(worst, out.size_ratio / width)
    assert worst <= 24
