import random
import sys
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detcircuits import (
    Circuit,
    DanglingWire,
    DuplicateLabel,
    LabeledMatrix,
    SizeMismatch,
    Stack,
    ValidationError,
    collapse,
    compile_circuit,
    compose,
    contract_circuit,
    enumerate_multicycles,
    eval_pfaffian_circuit,
    evaluate,
    identity_wiring,
    labeled,
    multicycle_total,
    principal_minor_sum,
    transfer_matrix,
    validate,
    wiring_matrix,
)
from detcircuits.circuit import _collapse_exact, _unpack
from circgen import rand_circuit
from paper import stack_matrix


def loop_gate(entries, n):
    """Single n-wire gate with wire i looped straight back."""
    g = labeled(tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n + 1)), entries)
    wiring = tuple((i, n + i) for i in range(1, n + 1))
    return Circuit((Stack((g,)),), (wiring,))


def test_empty_circuit_evaluates_to_one():
    c = Circuit((), ())
    assert evaluate(c) == 1
    assert contract_circuit(c) == 1
    assert multicycle_total(c) == 1


def test_empty_circuit_collapses_to_the_empty_matrix():
    assert collapse(Circuit((), ())) == LabeledMatrix((), (), ())


def test_single_gate_loop_value():
    c = loop_gate([[2]], 1)
    assert evaluate(c) == 3  # det(1 + 2)


def test_2x2_gate_symbolic_formula():
    # value of the looped 2x2 gate is 1 + a + d + ad - bc
    rng = random.Random(0)
    for _ in range(5):
        a, b, c_, d = (Fraction(rng.randint(-9, 9)) for _ in range(4))
        circ = loop_gate([[a, b], [c_, d]], 2)
        assert evaluate(circ) == 1 + a + d + a * d - b * c_


def test_2x2_gate_multicycle_weights():
    a, b, c_, d = Fraction(1), Fraction(2), Fraction(3), Fraction(4)
    circ = loop_gate([[a, b], [c_, d]], 2)
    report = enumerate_multicycles(circ)
    weights = sorted(mc.weight for mc in report)
    assert weights == sorted([Fraction(1), a, d, a * d - b * c_])
    assert multicycle_total(circ) == evaluate(circ)


def test_validate_rejects_dangling_and_duplicate():
    g = labeled((1,), (2,), [[1]])
    with pytest.raises(DanglingWire):
        validate(Circuit((Stack((g,)),), (((1, 99),),)))
    g2 = labeled((1, 3), (2, 4), [[1, 0], [0, 1]])
    with pytest.raises(DuplicateLabel):
        validate(Circuit((Stack((g2,)),), (((1, 2), (1, 4)),)))


def test_wiring_count_must_match_stacks():
    g = labeled((1,), (2,), [[1]])
    with pytest.raises(SizeMismatch):
        Circuit((Stack((g,)),), ())


def test_dangling_circuit_raises_when_built():
    # Output 1 wired to a missing input 99: wiring_matrix used to return a
    # zero matrix for it, and transfer_matrix a bare KeyError.
    g = labeled((1,), (2,), [[1]])
    with pytest.raises(DanglingWire) as e:
        Circuit((Stack((g,)),), (((1, 99),),))
    assert str(e.value) == "wiring 0: unmatched inputs {2}"


@pytest.mark.parametrize("gates,wiring,error,message", [
    ("g2", ((1, 2), (1, 4)), DuplicateLabel, "wiring 0 reuses output 1"),
    ("g2", ((1, 2), (3, 2)), DuplicateLabel, "wiring 0 reuses input 2"),
    ("g2", ((1, 2), (5, 4)), DanglingWire, "wiring 0: unmatched outputs {3}"),
    ("shared", ((1, 2),), DuplicateLabel, "stack 0 repeats an output label in (1, 1)"),
])
def test_invalid_circuit_raises_when_built(gates, wiring, error, message):
    stack = {"g2": (labeled((1, 3), (2, 4), [[1, 0], [0, 1]]),),
             "shared": (labeled((1,), (2,), [[1]]), labeled((1,), (), [[]]))}[gates]
    with pytest.raises(error) as e:
        Circuit((Stack(stack),), (wiring,))
    assert str(e.value) == message


@st.composite
def loose_circuits(draw):
    """A random closed circuit, as gate specs and wirings, after up to four
    edits that may leave a wire dangling or a label repeated: a wiring pair
    retargeted, redirected, dropped, doubled, added or swapped with another,
    or a gate row relabelled, often onto a label its stack already uses, with
    the wiring pairs that read the old label dropped."""
    c = rand_circuit(draw(st.randoms(use_true_random=False)), max_stacks=3, max_wires=3)
    specs = [[[list(g.rows), g.cols, g.entries] for g in s.gates] for s in c.stacks]
    wirings = [list(w) for w in c.wirings]
    label = st.integers(1, 20)
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(wirings) - 1))
        w = wirings[k]
        how = draw(st.sampled_from(
            ["retarget", "redirect", "drop", "double", "add", "swap", "relabel"]))
        if how == "add":
            w.append((draw(label), draw(label)))
        elif how == "relabel":
            rows = [g[0] for g in specs[k] if g[0]]
            if rows:
                r = draw(st.sampled_from(rows))
                i = draw(st.integers(0, len(r) - 1))
                old = r[i]
                r[i] = draw(st.sampled_from([x for g in rows for x in g]) | label)
                w[:] = [pair for pair in w if pair[0] != old]
        elif w:
            i = draw(st.integers(0, len(w) - 1))
            a, b = w[i]
            if how == "retarget":
                w[i] = (a, draw(label))
            elif how == "redirect":
                w[i] = (draw(label), b)
            elif how == "drop":
                del w[i]
            elif how == "double":
                w.append(w[i])
            else:
                j = draw(st.integers(0, len(w) - 1))
                w[i], w[j] = (a, w[j][1]), (w[j][0], b)
    return specs, tuple(tuple(w) for w in wirings)


def _is_permutation(grid) -> bool:
    lines = [list(line) for line in (*grid, *zip(*grid))]
    return all(sorted(line) == [0] * (len(line) - 1) + [1] for line in lines)


@given(loose_circuits())
@settings(max_examples=200, deadline=None)
def test_a_circuit_that_exists_is_closed(case):
    specs, wirings = case
    try:
        c = Circuit(tuple(Stack(tuple(labeled(tuple(r), cols, e) for r, cols, e in s))
                          for s in specs), wirings)
    except ValidationError:
        return
    value = evaluate(c)
    assert eval_pfaffian_circuit(compile_circuit(c).target) == value
    for k in range(len(c.stacks)):
        transfer_matrix(c, k)
        p = wiring_matrix(c, k)
        assert len(p.rows) == len(p.cols) and _is_permutation(p.entries)


def test_collapse_of_two_stack_chain():
    # two 1-wire stacks in a loop: collapse is the product of the entries
    g1 = labeled((2,), (1,), [[3]])
    g2 = labeled((4,), (3,), [[5]])
    c = Circuit((Stack((g1,)), Stack((g2,))), (((2, 3),), ((4, 1),)))
    m = collapse(c)
    assert m.rows == (1,) and m.cols == (1,)
    assert m.entries[0][0] == 15
    assert evaluate(c) == 16


def test_evaluate_matches_oracle_and_multicycles():
    rng = random.Random(1)
    for _ in range(40):
        c = rand_circuit(rng, max_stacks=3, max_wires=3)
        v = evaluate(c)
        assert v == contract_circuit(c)
        assert v == multicycle_total(c)


def test_evaluate_complex_matches_oracle():
    rng = random.Random(2)
    for _ in range(15):
        c = rand_circuit(rng, max_stacks=3, max_wires=3, field="complex")
        v = evaluate(c)
        assert abs(complex(v) - complex(contract_circuit(c))) < 1e-9
        assert abs(complex(v) - complex(multicycle_total(c))) < 1e-9


def rotate(c: Circuit, k: int) -> Circuit:
    m = len(c.stacks)
    return Circuit(tuple(c.stacks[(i + k) % m] for i in range(m)),
                   tuple(c.wirings[(i + k) % m] for i in range(m)))


def test_evaluate_invariant_under_rotation():
    rng = random.Random(3)
    for _ in range(15):
        c = rand_circuit(rng, max_stacks=4, max_wires=3)
        v = evaluate(c)
        for k in range(1, len(c.stacks)):
            assert evaluate(rotate(c, k)) == v


def test_evaluate_invariant_under_identity_refinement():
    # splitting a stack in two through an identity wiring keeps the value
    rng = random.Random(4)
    for _ in range(15):
        c = rand_circuit(rng, max_stacks=3, max_wires=3)
        v = evaluate(c)
        # insert an identity stack after stack 0
        mid_labels = c.stacks[0].out_labels
        fresh = tuple(l + 1000 for l in mid_labels)
        id_stack = Stack((labeled(fresh, mid_labels,
                                  [[Fraction(1) if i == j else Fraction(0)
                                    for j in range(len(fresh))]
                                   for i in range(len(fresh))]),))
        new_w0 = tuple((l, l) for l in mid_labels)
        old_w0 = c.wirings[0]
        remap = dict(zip(mid_labels, fresh))
        new_w1 = tuple((remap[a], b) for a, b in old_w0)
        c2 = Circuit((c.stacks[0], id_stack) + c.stacks[1:],
                     (new_w0, new_w1) + c.wirings[1:])
        assert evaluate(c2) == v


def test_multicycle_supports_are_consistent():
    rng = random.Random(5)
    c = rand_circuit(rng, max_stacks=3, max_wires=3)
    m = len(c.stacks)
    for mc in enumerate_multicycles(c):
        picks = {}
        for k, lab in mc.support:
            picks.setdefault(k, set()).add(lab)
        if picks:
            sizes = {len(v) for v in picks.values()}
            assert len(sizes) == 1  # equal subset size at every boundary
            assert set(picks) == set(range(m))
        assert mc.weight != 0


def test_identity_wiring_size_mismatch():
    with pytest.raises(SizeMismatch):
        identity_wiring((1, 2), (3,))


# --- collapse against the dense compose chain --------------------------------

def _parts(draw, n: int, g: int) -> list[int]:
    """Split n wires into g consecutive shares, empty shares allowed."""
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=g - 1, max_size=g - 1)))
    bounds = [0, *cuts, n]
    return [bounds[i + 1] - bounds[i] for i in range(g)]


@st.composite
def ring_circuits(draw, field: str, max_depth: int = 4, min_width: int = 0, big: bool = False):
    """Closed rings with p/q or complex entries, rectangular and empty
    gates, several gates per stack, and boundaries of width min_width to 4.
    Rational entries are ints or Fractions, so some stacks hold only ints;
    `big` draws them up to 10**12, over denominators up to 12."""
    if big:
        entry = (st.integers(-10 ** 12, 10 ** 12)
                 | st.fractions(min_value=-10 ** 12, max_value=10 ** 12, max_denominator=12))
    elif field == "rational":
        entry = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        entry = st.complex_numbers(max_magnitude=2, allow_nan=False,
                                   allow_infinity=False)
    m = draw(st.integers(1, max_depth))
    widths = draw(st.lists(st.integers(min_width, 4), min_size=m, max_size=m))
    stacks = []
    label = 1
    for k in range(m):
        ins, outs = widths[k], widths[(k + 1) % m]
        g = draw(st.integers(1, max(1, ins, outs)))
        gates = []
        for c, r in zip(_parts(draw, ins, g), _parts(draw, outs, g)):
            rows = tuple(range(label, label + r))
            cols = tuple(range(label + r, label + r + c))
            label += r + c
            grid = [[draw(entry) for _ in range(c)] for _ in range(r)]
            gates.append(labeled(rows, cols, grid))
        stacks.append(Stack(tuple(gates)))
    wirings = []
    for k in range(m):
        src = stacks[k].out_labels
        dst = draw(st.permutations(stacks[(k + 1) % m].in_labels))
        wirings.append(tuple(zip(src, dst)))
    return Circuit(tuple(stacks), tuple(wirings))


def _compose_chain(c: Circuit, start: int):
    """The dense product of permutation and direct-sum matrices, from start."""
    m = len(c.stacks)
    acc = None
    for i in range(m):
        k = (start + i) % m
        step = compose(wiring_matrix(c, k), stack_matrix(c.stacks[k]))
        acc = step if acc is None else compose(step, acc)
    return acc


def _check_collapse_matches_chain(c: Circuit, starts=None) -> None:
    exact = not any(isinstance(x, complex) for s in c.stacks for g in s.gates
                    for row in g.entries for x in row)
    for k in range(len(c.stacks)):
        assert transfer_matrix(c, k) == compose(wiring_matrix(c, k), stack_matrix(c.stacks[k]))
    for start in range(len(c.stacks)) if starts is None else starts:
        got = collapse(c, start)
        want = _compose_chain(c, start)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        for grow, wrow in zip(got.entries, want.entries):
            for x, y in zip(grow, wrow):
                if exact:
                    assert type(x) is Fraction and x == y
                else:
                    # The chain returns Fraction(0) after a zero-width
                    # boundary even on a complex circuit; collapse stays complex.
                    assert type(x) is complex
                    assert abs(x - y) <= 1e-9 * max(1.0, abs(y))


@given(ring_circuits("rational"))
@settings(max_examples=150, deadline=None)
def test_collapse_equals_compose_chain_rational(c):
    _check_collapse_matches_chain(c)


@given(ring_circuits("complex"))
@settings(max_examples=100, deadline=None)
def test_collapse_equals_compose_chain_complex(c):
    _check_collapse_matches_chain(c)


@given(ring_circuits("rational", max_depth=40, min_width=1, big=True))
@settings(max_examples=40, deadline=None)
def test_collapse_equals_compose_chain_deep_big_entries(c):
    # Entries of 40 bits over denominators up to 12 grow every packed row
    # by up to 60 bits a stack, so the slot width, fixed before the turn,
    # runs to thousands of bits.  No boundary is empty, since an empty one
    # zeroes every row after it.
    widths = [len(s.in_labels) for s in c.stacks]
    _check_collapse_matches_chain(c, starts=sorted({0, len(widths) // 2,
                                                    widths.index(max(widths))}))


def _complex_ring_with_an_empty_boundary() -> Circuit:
    """1 -> 1 -> 0 -> 1 wires: a complex 1x1 gate, a 0x1 gate, a 1x0 gate."""
    stacks = (Stack((labeled((1,), (2,), [[0.5 + 1j]]),)),
              Stack((labeled((), (3,), []),)),
              Stack((labeled((4,), (), [[]]),)))
    return Circuit(stacks, (((1, 3),), (), ((4, 2),)))


@given(ring_circuits("rational") | ring_circuits("rational", max_depth=12, big=True)
       | ring_circuits("complex"))
@example(_complex_ring_with_an_empty_boundary())
@settings(max_examples=200, deadline=None)
def test_exact_evaluate_is_the_minor_sum_of_the_collapse(c):
    # evaluate takes det(sI + A) / s^w over the collapse A / s, with s = 1 on
    # a complex ring.  An exact value and its type (int 1 at an empty
    # boundary, else Fraction) are those of det(I + collapse) at the
    # narrowest boundary; a complex value is that determinant to the last
    # bit, and complex even at an empty boundary.
    widths = [len(s.in_labels) for s in c.stacks]
    want = principal_minor_sum(collapse(c, widths.index(min(widths))))
    got = evaluate(c)
    if any(type(x) is complex for s in c.stacks for g in s.gates
           for row in g.entries for x in row):
        want = complex(want)
    assert got == want and type(got) is type(want)


def _with_unpack_widths(run):
    """run()'s result and every slot width that _unpack read meanwhile."""
    picked = set()

    def unpack(p, w, bits):
        picked.add(bits)
        return _unpack(p, w, bits)

    with patch.object(sys.modules["detcircuits.circuit"], "_unpack", unpack):
        return run(), picked


def test_pack_unpack_round_trip():
    # Slots at 0 and at +-(2**(bits - 1) - 1), the widest values a slot of
    # the collapse holds, at width 64 and at the widths that one turn of a
    # cancelling ring and of a 100-bit gate pick: one more bit than their
    # bounds, 6**100 and 10**30 + 1.
    _, picked = _with_unpack_widths(lambda: (
        collapse(_cancelling_ring(100), 0),
        collapse(loop_gate([[10 ** 30, 1], [1, 10 ** 30]], 2), 0)))
    assert picked == {(6 ** 100).bit_length() + 1, (10 ** 30 + 1).bit_length() + 1}
    for bits in {64} | picked:
        big = 2 ** (bits - 1) - 1
        for w in (0, 1, 5):
            for row in product((0, big, -big), repeat=w):
                packed = sum([v << (i * bits) for i, v in enumerate(row)])
                assert _unpack(packed, w, bits) == list(row)


def _ring_with_a_zero_stack() -> Circuit:
    """Three 2x2 stacks, the middle one all zero: the bound is 0."""
    grids = ([[2, Fraction(1, 3)], [-4, 5]], [[0, 0], [0, 0]], [[7, 1], [Fraction(-1, 2), 3]])
    stacks = tuple([Stack((labeled((1, 2), (3, 4), grid),)) for grid in grids])
    return Circuit(stacks, (((1, 3), (2, 4)),) * 3)


@given(ring_circuits("rational") | ring_circuits("rational", max_depth=40, min_width=1, big=True))
@example(_ring_with_a_zero_stack())
@example(loop_gate([[10 ** 30, 1], [1, 10 ** 30]], 2))
@settings(max_examples=60, deadline=None)
def test_final_slots_fit_the_width_the_collapse_picks(c):
    # The width comes from a bound fixed before the turn; every final entry
    # of the integer rows is the chain's times the scale and sits strictly
    # inside its signed slot, so the one _unpack at the end reads it back.
    for start in sorted({0, len(c.stacks) // 2}):
        labels = c.stacks[start].in_labels
        (rows, scale), picked = _with_unpack_widths(lambda: _collapse_exact(c, start, labels))
        want = _compose_chain(c, start).entries
        assert [[Fraction(v, scale) for v in row] for row in rows] == [list(r) for r in want]
        assert len(picked) == (1 if labels else 0)
        for bits in picked:
            assert all(abs(v) < 1 << (bits - 1) for row in rows for v in row)


def _cancelling_ring(depth: int) -> Circuit:
    """[[1, 5], [0, 1]] and [[1, -5], [0, 1]] alternating: every pair of
    stacks multiplies to the identity."""
    stacks = tuple([Stack((labeled((1, 2), (3, 4), [[1, 5 if k % 2 else -5], [0, 1]]),))
                    for k in range(depth)])
    return Circuit(stacks, (((1, 3), (2, 4)),) * depth)


def test_collapse_of_a_cancelling_ring():
    # The entries never pass 5, but each stack's largest absolute row sum
    # is 6, so the slot width, fixed before the turn from the bound 6**2000,
    # is 5171 bits wide for entries of 3 bits.
    c = _cancelling_ring(2000)
    for start in (0, 1):
        got = collapse(c, start)
        assert got.entries == ((1, 0), (0, 1))
        assert all(type(x) is Fraction for row in got.entries for x in row)
    assert evaluate(c) == 4
    odd = _cancelling_ring(2001)  # one [[1, -5], [0, 1]] is left over
    for start in (0, 1):
        assert collapse(odd, start).entries == ((1, -5), (0, 1))
    assert evaluate(odd) == 4


def test_collapse_start_out_of_range():
    c = loop_gate([[2]], 1)
    with pytest.raises(IndexError):
        collapse(c, 1)
