import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings

from detcircuits import (
    Circuit,
    LabeledMatrix,
    PfaffianCircuit,
    SkewMatrix,
    Stack,
    compile_circuit,
    eval_pfaffian_circuit,
    eval_pfaffian_oracle,
    evaluate,
    identity_wiring,
    labeled,
    parse_circuit,
    pfaffian,
    skew,
    spf,
    spf_dual,
    submatrix,
    transfer_matrix,
    validate_pfaffian,
)
from detcircuits.pfaffian import _pair_order
from circgen import has_sign_gadget, rand_circuit, rand_grid
from paper import determinant, skew_embed, skew_restrict
from test_circuit import ring_circuits


def test_skew_embed_1x1():
    s = skew_embed(labeled((1,), (2,), [[Fraction(3)]]))
    assert [list(r) for r in s.entries] == [[Fraction(0), Fraction(3)],
                                            [Fraction(-3), Fraction(0)]]
    assert pfaffian([list(r) for r in s.entries]) == 3


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
    assert out.gadget_count == len(out.target.states) + len(out.target.costates)
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


def agree(got, want):
    if isinstance(want, complex):
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))
    return got == want


def test_compile_matches_tensor_oracle_on_small_targets():
    # The fast path, the sub-Pfaffian contraction and evaluate agree on
    # every compiled circuit of at most 14 edges, in both fields.
    seen = set()
    for field in ("rational", "complex"):
        rng = random.Random(5)
        done = 0
        while done < 75:
            c = rand_circuit(rng, max_stacks=4, max_wires=3, field=field)
            target = compile_circuit(c).target
            if target.edge_count > 14:
                continue
            want = evaluate(c)
            assert agree(eval_pfaffian_circuit(target), want)
            assert agree(eval_pfaffian_oracle(target), want)
            widths = [len(s.in_labels) for s in c.stacks]
            if any(w != widths[k - 1] for k, w in enumerate(widths)):
                seen.add("rectangular ring gate")
            if 0 in widths:
                seen.add("zero-width boundary")
            if has_sign_gadget(target):
                seen.add("sign gadget")
            done += 1
    assert seen == {"rectangular ring gate", "zero-width boundary", "sign gadget"}


# evaluate gives -17.  A sign-fix costate whose own Pfaffian was -1 turned
# the sub-Pfaffian contraction of the compiled circuit into +17.
SIGN_GADGET_CIRCUIT = """stack
gate 1 2 1 / 2 3
-1 -2
stack
gate 1 1 4 / 5
-3
stack
gate 2 1 6 7 / 8
4
-5
wiring 0: 1->5
wiring 1: 4->8
wiring 2: 6->2, 7->3
"""


def test_sign_gadget_keeps_the_oracle_value():
    c = parse_circuit(SIGN_GADGET_CIRCUIT, "rational")
    target = compile_circuit(c).target
    assert has_sign_gadget(target)
    assert evaluate(c) == -17
    assert eval_pfaffian_circuit(target) == -17
    assert eval_pfaffian_oracle(target) == -17


def test_every_compiled_edge_lies_in_a_unit_pair():
    # Exact pfeval eliminates the costates' unit pairs first and the other
    # edges in their natural order.  A compiler layout that left edges
    # unpaired would keep every value but lose that order, so it fails here.
    rng = random.Random(13)
    circuits = [Circuit((), ()), parse_circuit(SIGN_GADGET_CIRCUIT, "rational")]
    circuits += [rand_circuit(rng, max_stacks=5, max_wires=4) for _ in range(150)]
    seen = set()
    for c in circuits:
        target = compile_circuit(c).target
        paired = _pair_order(target.costates, 0)  # n = 0: the pairs alone
        assert sorted(paired) == list(range(1, target.edge_count + 1))
        widths = [len(s.in_labels) for s in c.stacks]
        if not widths:
            seen.add("empty circuit")
        if any(w != widths[k - 1] for k, w in enumerate(widths)):
            seen.add("rectangular ring gate")
        if 0 in widths:
            seen.add("zero-width boundary")
        if has_sign_gadget(target):
            seen.add("sign gadget")
    assert seen == {"empty circuit", "rectangular ring gate", "zero-width boundary",
                    "sign gadget"}


def ring_shapes(c):
    """(rows, cols) of each ring gate: stack k with wiring k, then the
    identity stack that an even ring gets."""
    widths = [len(s.in_labels) for s in c.stacks] or [0]
    m = len(widths)
    shapes = [(widths[(k + 1) % m], widths[k]) for k in range(m)]
    if m % 2 == 0:
        shapes.append((widths[0], widths[0]))
    return shapes


def test_compiled_size_is_one_gadget_per_gate_and_boundary():
    # An r x c ring gate costs r + c edges and one state gadget, a boundary
    # of nonzero width one costate gadget, and the sign fix two edges and
    # two gadgets; nothing is padded to a square.
    rng = random.Random(7)
    circuits = [Circuit((), ())] + [rand_circuit(rng, max_stacks=5, max_wires=4)
                                    for _ in range(200)]
    for c in circuits:
        out = compile_circuit(c)
        shapes = ring_shapes(c)
        fix = 2 if has_sign_gadget(out.target) else 0
        assert out.target.edge_count == sum(r + k for r, k in shapes) + fix
        assert out.gadget_count == len(shapes) + sum(1 for _, k in shapes if k) + fix


@pytest.mark.parametrize("r, c", [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)])
def test_rectangular_state_gadget_carries_every_minor(r, c):
    # Ring gate 0 of this two-stack ring is g itself, and its state gadget
    # sits on edges 1..r+c: row i on edge i + 1, column j on edge r + c - j.
    rng = random.Random(10 * r + c)
    g = labeled(tuple(range(1, r + 1)), tuple(range(11, 11 + c)), rand_grid(rng, r, c))
    h = labeled(tuple(range(21, 21 + c)), tuple(range(31, 31 + r)), rand_grid(rng, c, r))
    ring = Circuit((Stack((g,)), Stack((h,))),
                   (identity_wiring(g.rows, h.cols), identity_wiring(h.rows, g.cols)))
    state = compile_circuit(ring).target.states[0]
    assert state.labels == tuple(range(1, r + c + 1))
    for ibits in product((0, 1), repeat=r):
        for jbits in product((0, 1), repeat=c):
            rows = [i for i in range(r) if ibits[i]]
            cols = [j for j in range(c) if jbits[j]]
            block = skew_restrict(state, [i + 1 for i in rows] + [r + c - j for j in cols])
            got = pfaffian([list(row) for row in block.entries])
            if len(rows) != len(cols):
                assert got == 0
            else:
                assert got == determinant(submatrix(
                    g, [g.rows[i] for i in rows], [g.cols[j] for j in cols]))


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


# --- the trusted path against the checked constructors -----------------------

def _labeled_transfer_matrix(c, k):
    """Stack k and wiring k as labeled() builds them: int zeros, the nonzero
    entries placed, the grid normalized."""
    cols = c.stacks[k].in_labels
    rows = c.stacks[(k + 1) % len(c.stacks)].in_labels
    wire = dict(c.wirings[k])
    grid = {lab: [0] * len(cols) for lab in rows}
    for g in c.stacks[k].gates:
        for r, row in zip(g.rows, g.entries):
            for col, x in zip(g.cols, row):
                if x:
                    grid[wire[r]][cols.index(col)] = x
    return labeled(rows, cols, [grid[lab] for lab in rows])


def _types(m):
    return [[type(x) for x in row] for row in m.entries]


def _check_trusted_path(c):
    """Every transfer matrix is labeled()'s, entry types included; every
    compiled gadget passes the full skew check, and the target the full
    edge check, with the same edge_count.  Returns the target."""
    for k in range(len(c.stacks)):
        got, want = transfer_matrix(c, k), _labeled_transfer_matrix(c, k)
        assert got == want and _types(got) == _types(want)
    target = compile_circuit(c).target
    for g in target.states + target.costates:
        assert SkewMatrix(g.labels, g.entries) == g
    checked = PfaffianCircuit(target.states, target.costates)
    assert checked == target and checked.edge_count == target.edge_count
    assert (hash(checked), repr(checked)) == (hash(target), repr(target))
    return target


def _ring_with_an_all_zero_complex_stack():
    zero = Stack((labeled((1, 2), (3, 4), [[0j, 0j], [0j, 0j]]),))
    live = Stack((labeled((5, 6), (7, 8), [[1 + 2j, 0j], [0.5j, -1]]),))
    return Circuit((zero, live), (((1, 7), (2, 8)), ((5, 3), (6, 4))))


@given(ring_circuits("rational") | ring_circuits("complex"))
@example(_ring_with_an_all_zero_complex_stack())
@settings(max_examples=150, deadline=None)
def test_trusted_path_matches_the_checked_constructors(c):
    _check_trusted_path(c)


def test_trusted_path_covers_even_rings_sign_fixes_and_empty_boundaries():
    rng = random.Random(32)
    seen = set()
    for field in ("rational", "complex"):
        for _ in range(80):
            c = rand_circuit(rng, max_stacks=4, max_wires=3, field=field, lo=-2, hi=2)
            target = _check_trusted_path(c)
            seen |= {(field, "even")} if len(c.stacks) % 2 == 0 else set()
            seen |= {(field, "sign fix")} if has_sign_gadget(target) else set()
            seen |= {(field, "empty boundary")} if not all(s.in_labels for s in c.stacks) else set()
    assert seen == {(field, case) for field in ("rational", "complex")
                    for case in ("even", "sign fix", "empty boundary")}


@pytest.mark.parametrize("entries", [
    ((Fraction(1, 2), 2j),),  # mixed fields: demoted to complex
    ((0.5, 3),),               # a float: made complex
    ((2, True),),              # a bool: refused
], ids=["mixed", "float", "bool"])
def test_hand_built_gate_entries_are_normalized_as_labeled_does(entries):
    gate = LabeledMatrix((1,), (2, 3), entries)
    c = Circuit((Stack((gate, labeled((2, 3), (1,), [[1], [1]]))),), (((1, 1), (2, 2), (3, 3)),))
    try:
        want = _labeled_transfer_matrix(c, 0)
    except TypeError as exc:
        with pytest.raises(TypeError, match=str(exc)):
            transfer_matrix(c, 0)
    else:
        got = transfer_matrix(c, 0)
        assert got == want and _types(got) == _types(want)
