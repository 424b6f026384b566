import contextlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import chain
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcircuits import (
    Circuit,
    ForestPolynomial,
    Graph,
    ParseError,
    PfaffianCircuit,
    Stack,
    TooLarge,
    ValidationError,
    collapse,
    compile_circuit,
    contract_circuit,
    count_rooted_forests,
    count_spanning_trees,
    enumerate_multicycles,
    eval_pfaffian_circuit,
    eval_pfaffian_oracle,
    evaluate,
    labeled,
    parse_circuit,
    parse_graph,
    parse_pfaffian,
    principal_minor_sum,
    skew,
    write_circuit,
    write_graph,
    write_pfaffian,
)
from detcircuits.cli import INT_MAX_STR_DIGITS, main
import detcircuits.formats as formats
from detcircuits.scalars import format_scalar, grid_is_exact, parse_scalar, scalars_equal
from circgen import pf_blocks, rand_circuit, rand_grid, rand_skew_grid

DATA = Path(__file__).resolve().parent.parent / "data"

CIRCUITS = {
    "one_gate.circuit": "3",
    "two_by_two.circuit": "4",
    "ring3.circuit": "14",
}


def test_circuit_round_trip():
    for name in CIRCUITS:
        text = (DATA / name).read_text()
        c = parse_circuit(text, "rational")
        out = write_circuit(c)
        c2 = parse_circuit(out, "rational")
        assert write_circuit(c2) == out
        assert evaluate(c2) == evaluate(c)


def test_parse_circuit_default_wiring():
    text = "stack\ngate 1 1 7 / 7\n7\n"
    c = parse_circuit(text, "rational")
    assert c.wirings[0] == ((7, 7),)
    assert evaluate(c) == 8


def test_parse_circuit_errors():
    with pytest.raises(ParseError) as e:
        parse_circuit("gate 1 1 1 / 1\n5\n", "rational")
    assert e.value.line == 1
    assert "before any stack" in e.value.reason

    with pytest.raises(ParseError) as e:
        parse_circuit("stack\ngate 1 2 1 / 2 3\n5\n", "rational")
    assert e.value.line == 3  # one entry where two were promised

    with pytest.raises(ParseError) as e:
        parse_circuit("stack\ngate 1 1 1 / 1\n5\nwiring 0: 1->1\nwiring 0: 1->1\n",
                      "rational")
    assert e.value.line == 5
    assert "duplicate" in e.value.reason

    with pytest.raises(ParseError) as e:
        parse_circuit("stack\ngate 1 1 1 / 1\n5\nwiring 0: 1=>1\n", "rational")
    assert "a->b" in e.value.reason

    with pytest.raises(ParseError):
        parse_circuit("bogus line\n", "rational")


def test_parse_circuit_bad_scalar_reports_line():
    with pytest.raises(ParseError) as e:
        parse_circuit("stack\ngate 1 1 1 / 1\nxyz\n", "rational")
    assert e.value.line == 3


def test_pfaffian_round_trip():
    for name in ("two_by_two.pf", "ring3.pf"):
        text = (DATA / name).read_text()
        pc = parse_pfaffian(text)
        out = write_pfaffian(pc)
        assert parse_pfaffian(out).edge_count == pc.edge_count
        assert write_pfaffian(parse_pfaffian(out)) == out


def test_parse_pfaffian_errors():
    with pytest.raises(ParseError) as e:
        parse_pfaffian("pfgate state 2 0 1\n0 1\n-1 0\n")
    assert "positive" in e.value.reason

    # non-skew grid is rejected at parse time with the offending line
    with pytest.raises(ParseError) as e:
        parse_pfaffian("pfgate state 2 1 2\n0 1\n1 0\n")
    assert e.value.line > 0

    with pytest.raises(ParseError):
        parse_pfaffian("pfgate sideways 2 1 2\n0 1\n-1 0\n")


def test_graph_round_trip():
    for name in ("triangle.graph", "k4.graph", "single_edge.graph"):
        text = (DATA / name).read_text()
        g = parse_graph(text)
        assert write_graph(g) == text
        assert parse_graph(write_graph(g)) == g


def test_parse_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError) as e:
        parse_graph("2 1\n1 2\n1 2\n")
    assert "trailing" in e.value.reason
    with pytest.raises(ParseError):
        parse_graph("2 x\n")
    with pytest.raises(ParseError) as e:
        parse_graph("2 1\n1 1\n")  # self-loop caught on its edge line
    assert e.value.line == 2


@pytest.mark.parametrize("text, lineno, reason", [
    ("3 1\n1 5\n", 2, "edge (1,5) endpoint out of range"),
    ("3 2\n1 2\n0 1\n", 3, "edge (0,1) endpoint out of range"),
    ("3 2\n1 2\n\n# loop\n2 2\n", 5, "self-loop at vertex 2"),
    ("3 3\n1 5\nx y\n", 2, "edge (1,5) endpoint out of range"),  # before the later fault
])
def test_parse_graph_names_the_line_of_a_bad_edge(text, lineno, reason):
    with pytest.raises(ParseError) as e:
        parse_graph(text)
    assert (e.value.line, e.value.reason) == (lineno, reason)


def test_a_hand_built_graph_checks_its_edges_and_equals_the_parsed_one():
    with pytest.raises(ValidationError, match=r"^edge \(1,5\) endpoint out of range$"):
        Graph(3, ((1, 2), (1, 5)))
    with pytest.raises(ValidationError, match="^self-loop at vertex 2$"):
        Graph(3, ((2, 2),))
    for name in ("triangle.graph", "k4.graph", "triangle_plus_isolated.graph"):
        g = parse_graph((DATA / name).read_text())
        built = Graph(g.vertex_count, tuple(g.edges))
        assert (g, hash(g), repr(g)) == (built, hash(built), repr(built))


@pytest.mark.parametrize("text, want", [
    ("3 1\n1 5\n", "error: line 2: edge (1,5) endpoint out of range\n"),
    ("3 1\n1 1\n", "error: line 2: self-loop at vertex 1\n"),
])
def test_cli_graph_edge_errors_name_their_line(tmp_path, text, want):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    for verb in ("forests", "trees", "poly"):
        assert _run([verb, str(path)]) == (2, "", want)


def test_cli_eval_frozen_values(capsys):
    for name, want in CIRCUITS.items():
        assert main(["eval", str(DATA / name)]) == 0
        assert capsys.readouterr().out == want + "\n"
    assert main(["eval", "--field", "complex", str(DATA / "complex_pair.circuit")]) == 0
    assert capsys.readouterr().out == "7+1i\n"


def test_cli_oracle_and_check(capsys):
    assert main(["oracle", str(DATA / "two_by_two.circuit")]) == 0
    assert capsys.readouterr().out == "4\n"
    assert main(["check", str(DATA / "ring3.circuit")]) == 0
    assert capsys.readouterr().out == "ok 14\n"


def test_cli_multicycles_frozen(capsys):
    assert main(["multicycles", str(DATA / "two_by_two.circuit")]) == 0
    assert capsys.readouterr().out == (
        "() 1\n(0:3) 1\n(0:4) 4\n(0:3 0:4) -2\ntotal 4\n")
    assert main(["multicycles", "--field", "complex",
                 str(DATA / "complex_pair.circuit")]) == 0
    assert capsys.readouterr().out == (
        "() 1+0i\n(0:3) 1+1i\n(0:4) 2-1i\n(0:3 0:4) 3+1i\ntotal 7+1i\n")


def test_cli_graph_verbs(capsys):
    cases = [
        (["forests", str(DATA / "triangle.graph")], "16"),
        (["trees", str(DATA / "triangle.graph")], "3"),
        (["poly", str(DATA / "triangle.graph")], "0 9 6 1"),
        (["forests", str(DATA / "k4.graph")], "125"),
        (["trees", str(DATA / "k4.graph")], "16"),
        (["poly", str(DATA / "k4.graph")], "0 64 48 12 1"),
        (["forests", str(DATA / "single_edge.graph")], "3"),
        (["trees", str(DATA / "triangle_plus_isolated.graph")], "0"),
        (["forests", str(DATA / "triangle_plus_isolated.graph")], "16"),
        (["poly", str(DATA / "triangle_plus_isolated.graph")], "0 0 9 6 1"),
    ]
    for argv, want in cases:
        assert main(argv) == 0
        assert capsys.readouterr().out == want + "\n"


def test_cli_orientation_seed_invariance(capsys):
    for seed in ("0", "5", "17"):
        assert main(["forests", "--orientation-seed", seed,
                     str(DATA / "triangle.graph")]) == 0
        assert capsys.readouterr().out == "16\n"
        assert main(["poly", "--orientation-seed", seed,
                     str(DATA / "k4.graph")]) == 0
        assert capsys.readouterr().out == "0 64 48 12 1\n"


@pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
def test_cli_poly_on_a_long_path_and_cycle(tmp_path, capsys, cycle):
    # Closed forms at n = 120: the path P_n has F_2n rooted forests and one
    # spanning tree, the cycle C_n has L_2n - 2 forests and n spanning trees
    # (F Fibonacci, L Lucas); the linear coefficient is n times the trees.
    # A dense n^4 matrix product per step would make this take tens of seconds.
    n = 120
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)] * cycle
    path = tmp_path / "long.graph"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    fib = [0, 1]
    while len(fib) <= 2 * n + 1:
        fib.append(fib[-1] + fib[-2])
    assert main(["poly", str(path)]) == 0
    coeffs = [int(t) for t in capsys.readouterr().out.split()]
    assert len(coeffs) == n + 1 and coeffs[0] == 0 and coeffs[n] == 1
    if cycle:
        assert sum(coeffs) == fib[2 * n - 1] + fib[2 * n + 1] - 2
        assert coeffs[1] == n * n
    else:
        assert sum(coeffs) == fib[2 * n]
        assert coeffs[1] == n


def test_cli_compile_round_trip(tmp_path, capsys):
    # compiled file evaluates to the same printed value, byte for byte
    for name in CIRCUITS:
        src = DATA / name
        main(["eval", str(src)])
        direct = capsys.readouterr().out
        out = tmp_path / (name + ".pf")
        assert main(["compile", str(src), "-o", str(out)]) == 0
        assert capsys.readouterr().out.startswith("size_ratio ")
        assert main(["pfeval", str(out)]) == 0
        assert capsys.readouterr().out == direct


def test_cli_compile_complex_round_trip(tmp_path, capsys):
    src = DATA / "complex_pair.circuit"
    main(["eval", "--field", "complex", str(src)])
    direct = capsys.readouterr().out
    out = tmp_path / "cp.pf"
    assert main(["compile", "--field", "complex", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["pfeval", "--field", "complex", str(out)]) == 0
    assert capsys.readouterr().out == direct


def test_cli_compile_default_output(tmp_path, capsys):
    src = tmp_path / "g.circuit"
    src.write_text((DATA / "one_gate.circuit").read_text())
    assert main(["compile", str(src)]) == 0
    capsys.readouterr()
    assert (tmp_path / "g.circuit.pf").exists()
    assert main(["pfeval", str(tmp_path / "g.circuit.pf")]) == 0
    assert capsys.readouterr().out == "3\n"


def complex_ring(seed, width=6, depth=3):
    rng = random.Random(seed)
    stacks = []
    for k in range(depth):
        rows = tuple(range(20 * k + 1, 20 * k + width + 1))
        cols = tuple(range(20 * k + 11, 20 * k + width + 11))
        stacks.append(Stack((labeled(rows, cols, rand_grid(rng, width, width, "complex", -1, 1)),)))
    wirings = []
    for k in range(depth):
        dst = list(stacks[(k + 1) % depth].in_labels)
        rng.shuffle(dst)
        wirings.append(tuple(zip(stacks[k].out_labels, dst)))
    return Circuit(tuple(stacks), tuple(wirings))


def test_cli_pfeval_complex_frozen(tmp_path, capsys):
    # Compiled complex edge matrices make the elimination swap; the ring's
    # swaps 15 times.  The printed values are pinned byte for byte.
    ring = tmp_path / "ring.circuit"
    ring.write_text(write_circuit(complex_ring(1)))
    for src, want in ((DATA / "complex_pair.circuit", "7+1i"),
                      (ring, "-59.5969450713-327.279324593i")):
        out = tmp_path / "c.pf"
        assert main(["compile", "--field", "complex", str(src), "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["pfeval", "--field", "complex", str(out)]) == 0
        assert capsys.readouterr().out == want + "\n"


COMPLEX_PAIR_PF = """\
pfgate state 4 1 2 3 4
0 0 0+0i 1+1i
0 0 2-1i 0+0i
0+0i -2+1i 0 0
-1-1i 0+0i 0 0
pfgate costate 4 1 2 3 4
0 0 0 1
0 0 1 0
0 -1 0 0
-1 0 0 0
"""


def test_cli_compile_bytes_frozen(tmp_path):
    # What compile writes is pinned byte for byte: the checked-in .pf files,
    # and a complex gadget whose exact zeros print as 0 beside 0+0i; the skew
    # embedding's negated 0j prints as 0+0i too.
    out = tmp_path / "c.pf"
    for name in ("ring3", "two_by_two"):
        assert main(["compile", str(DATA / f"{name}.circuit"), "-o", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{name}.pf").read_bytes()
    src = DATA / "complex_pair.circuit"
    assert main(["compile", "--field", "complex", str(src), "-o", str(out)]) == 0
    assert out.read_bytes() == COMPLEX_PAIR_PF.encode()


NEGATIVE_ZERO_REAL = ("stack\ngate 3 3 1 2 3 / 4 5 6\n-1 -2 2i\n-1i -0-0i -2\n2i 0-0i -1\n"
                      "wiring 0: 1->5, 2->4, 3->6\n")


def test_cli_a_zero_real_part_prints_unsigned_on_every_route(tmp_path):
    # The value's real part is -0.0 from the collapse's determinant and
    # +0.0 from the oracle, the multicycle sum and the Pfaffian; every route
    # prints 0, never -0.
    src = tmp_path / "negzero.circuit"
    src.write_text(NEGATIVE_ZERO_REAL)
    pf = tmp_path / "negzero.pf"
    flags = ["--field", "complex"]
    for argv, want in ((["eval", src], "0-4i\n"), (["check", src], "ok 0-4i\n"),
                       (["oracle", src], "0-4i\n"), (["compile", src, "-o", pf], "size_ratio 8\n"),
                       (["pfeval", pf], "0-4i\n")):
        assert _run([str(a) for a in argv] + flags) == (0, want, "")
    code, out, err = _run(["multicycles", str(src)] + flags)
    assert (code, out.splitlines()[-1], err) == (0, "total 0-4i", "")


def test_cli_pfeval_frozen(capsys):
    assert main(["pfeval", str(DATA / "two_by_two.pf")]) == 0
    assert capsys.readouterr().out == "4\n"
    assert main(["pfeval", str(DATA / "ring3.pf")]) == 0
    assert capsys.readouterr().out == "14\n"


def test_cli_deterministic_output(capsys):
    main(["eval", str(DATA / "ring3.circuit")])
    first = capsys.readouterr().out
    main(["eval", str(DATA / "ring3.circuit")])
    assert capsys.readouterr().out == first


def test_cli_usage_errors(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["frobnicate", "x"]) == 1
    capsys.readouterr()
    assert main(["eval"]) == 1
    capsys.readouterr()
    assert main(["eval", "--field", "integer", "x"]) == 1
    capsys.readouterr()


def test_cli_io_and_parse_errors(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "missing.circuit")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.circuit"
    bad.write_text("gate 1 1 1 / 1\n5\n")
    assert main(["eval", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    loop = tmp_path / "loop.graph"
    loop.write_text("2 1\n1 1\n")
    assert main(["forests", str(loop)]) == 2
    capsys.readouterr()
    notskew = tmp_path / "bad.pf"
    notskew.write_text("pfgate state 2 1 2\n0 1\n1 0\n")
    assert main(["pfeval", str(notskew)]) == 2
    capsys.readouterr()


def test_cli_check_mismatch_exit_code(monkeypatch, capsys):
    import detcircuits.tensor as tensormod
    monkeypatch.setattr(tensormod, "contract_circuit", lambda c: 999)
    assert main(["check", str(DATA / "one_gate.circuit")]) == 3
    out = capsys.readouterr()
    assert "mismatch" in out.err


def test_cli_usage_error_then_valid_verb(capsys):
    # The parser is built once per process; a failed parse must not leak
    # into the next call.
    assert main(["eval", "--field", "integer", str(DATA / "two_by_two.circuit")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error:")
    assert main(["eval", str(DATA / "two_by_two.circuit")]) == 0
    out = capsys.readouterr()
    assert out.out == "4\n"
    assert out.err == ""


def test_cli_oracle_ignores_the_environment(monkeypatch, capsys):
    # The oracle caps are constants: no environment variable changes a run.
    monkeypatch.setenv("DETCIRC_ORACLE_CAP", "abc")
    assert main(["oracle", str(DATA / "two_by_two.circuit")]) == 0
    out = capsys.readouterr()
    assert out.out == "4\n"
    assert out.err == ""


def test_cli_missing_wiring_names_stack_line(tmp_path, capsys):
    # Stack 1 (line 5) has one output but stack 0 takes two inputs, and no
    # wiring 1 line says how to join them.
    path = tmp_path / "gap.circuit"
    path.write_text("stack\n"
                    "gate 2 2 1 2 / 3 4\n1 0\n0 1\n"
                    "stack\n"
                    "gate 1 2 5 / 6 7\n1 1\n"
                    "wiring 0: 1->6, 2->7\n")
    assert main(["eval", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: line 5: no wiring 1")


@pytest.mark.parametrize("text", [
    # stack 1 takes input label 1 in two gates
    "stack\ngate 1 1 5 / 9\n2\n"
    "stack\ngate 1 1 7 / 1\n3\ngate 0 1 / 1\n"
    "wiring 0: 5->1\nwiring 1: 7->9\n",
    # stack 0 gives output label 5 from two gates
    "stack\ngate 1 1 5 / 9\n2\ngate 1 1 5 / 8\n4\n"
    "stack\ngate 2 1 7 6 / 1\n3\n5\n"
    "wiring 0: 5->1\nwiring 1: 7->9, 6->8\n",
])
def test_cli_stack_repeating_a_label_exits_2(tmp_path, capsys, text):
    # Every wiring covers the label sets, so only the repeat is wrong.
    path = tmp_path / "repeat.circuit"
    path.write_text(text)
    for verb in ("eval", "oracle", "check", "multicycles", "compile"):
        assert main([verb, str(path), "-o", str(tmp_path / "r.pf")]
                    if verb == "compile" else [verb, str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: stack ") and "repeats" in out.err
    assert not (tmp_path / "r.pf").exists()


def test_complex_circuit_with_empty_later_boundary(tmp_path, capsys):
    # Stack 2 takes no inputs, so evaluate reads the collapse there as the
    # 0x0 matrix; the value must still be complex and print as pfeval does.
    c = Circuit(
        (Stack((labeled((1, 2), (3,), [[2 + 1j], [1j]]),)),
         Stack((labeled((), (4, 5), []),)),
         Stack((labeled((6,), (), [[]]),))),
        (((1, 4), (2, 5)), (), ((6, 3),)))
    value = evaluate(c)
    assert isinstance(value, complex) and value == 1
    assert principal_minor_sum(collapse(c, 0)) == value
    pf = tmp_path / "c.pf"
    pf.write_text(write_pfaffian(compile_circuit(c).target))
    assert main(["pfeval", "--field", "complex", str(pf)]) == 0
    assert capsys.readouterr().out == format_scalar(value) + "\n" == "1+0i\n"


# Frozen outputs of the oracle verbs in the complex field.  They must not
# depend on whether the tensor oracles seed their sums and products with
# int 0 and 1 or with Fraction(0) and Fraction(1), and a complex circuit's
# oracle values print as complex, the exact 1 of an empty contraction too.
EMPTY_BOUNDARY = ("stack\ngate 2 1 1 2 / 3\n2+1i\n0+1i\n"
                  "stack\ngate 0 2  / 4 5\n"
                  "stack\ngate 1 0 6 / \n\n"
                  "wiring 0: 1->4, 2->5\nwiring 1:\nwiring 2: 6->3\n")
ORACLE_VERBS_COMPLEX = [
    (["oracle"], "complex_pair.circuit", "7+1i\n"),
    (["check"], "complex_pair.circuit", "ok 7+1i\n"),
    (["multicycles"], "complex_pair.circuit",
     "() 1+0i\n(0:3) 1+1i\n(0:4) 2-1i\n(0:3 0:4) 3+1i\ntotal 7+1i\n"),
    (["eval"], None, "1+0i\n"),
    (["oracle"], None, "1+0i\n"),
    (["check"], None, "ok 1+0i\n"),
    (["multicycles"], None, "() 1+0i\ntotal 1+0i\n"),
]


@pytest.mark.parametrize("verb, name, want", ORACLE_VERBS_COMPLEX)
def test_cli_complex_oracle_verbs_frozen(tmp_path, capsys, verb, name, want):
    if name is None:
        path = tmp_path / "empty_boundary.circuit"
        path.write_text(EMPTY_BOUNDARY)
    else:
        path = DATA / name
    assert main(verb + ["--field", "complex", str(path)]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (want, "")


NO_ENTRIES_OUTPUT = {
    "eval": "{}\n", "oracle": "{}\n", "check": "ok {}\n",
    "multicycles": "() {}\ntotal {}\n", "pfeval": "{}\n",
}


@pytest.mark.parametrize("verb", sorted(NO_ENTRIES_OUTPUT))
def test_cli_value_without_entries_prints_in_the_field(tmp_path, capsys, verb):
    # A file with no matrix entries has the exact value 1 in either field,
    # and a complex run prints it as 1+0i.  pfeval reads the file compile
    # writes for it, a state gadget on no edges.
    path = tmp_path / "empty.circuit"
    path.write_text("stack\n")
    assert parse_circuit("stack\n", "complex").exact is True
    if verb == "pfeval":
        pf = tmp_path / "empty.pf"
        assert main(["compile", str(path), "-o", str(pf)]) == 0
        assert pf.read_text() == "pfgate state 0\n"
        assert parse_pfaffian(pf.read_text(), "complex").exact is True
        capsys.readouterr()
        path = pf
    for field, one in (("complex", "1+0i"), ("rational", "1")):
        assert main([verb, str(path), "--field", field]) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == (NO_ENTRIES_OUTPUT[verb].format(one, one), "")


# Finite, but its modulus passes the largest float, so abs() raises on it.
HUGE_TOKEN = "1.2711610061536462e+308+1.2711610061536464e+308i"


@pytest.mark.parametrize("verb, want", [
    ("eval", "{v}\n"), ("oracle", "{v}\n"), ("check", "ok {v}\n"),
    ("multicycles", "() 1+0i\n(0:1) {x}\ntotal {v}\n"), ("pfeval", "{v}\n"),
])
def test_cli_entry_past_the_largest_modulus(tmp_path, capsys, verb, want):
    # The value 1 + x is finite; the pivot searches and scalars_equal must
    # not call abs() on x where it overflows.
    path = tmp_path / "huge.circuit"
    path.write_text(f"stack\ngate 1 1 1 / 1\n{HUGE_TOKEN}\n")
    if verb == "pfeval":
        pf = tmp_path / "huge.pf"
        assert main(["compile", str(path), "--field", "complex", "-o", str(pf)]) == 0
        capsys.readouterr()
        path = pf
    assert main([verb, str(path), "--field", "complex"]) == 0
    x = complex(HUGE_TOKEN.replace("i", "j"))
    out = capsys.readouterr()
    assert (out.out, out.err) == (want.format(x=format_scalar(x), v=format_scalar(1 + x)), "")


def test_cli_check_uses_relative_tolerance(monkeypatch, capsys):
    # Circuit #50 of this stream has |value| ~ 5.6e5, where evaluate and the
    # contraction oracle differ by 1.7e-8: a rounding gap, not a mismatch.
    import detcircuits.cli as climod
    rng = random.Random(1)
    for _ in range(51):
        c = rand_circuit(rng, max_stacks=4, max_wires=5, field="complex")
    assert abs(evaluate(c)) > 5e5 and abs(evaluate(c) - contract_circuit(c)) > 1e-8
    monkeypatch.setattr(climod, "parse_circuit", lambda text, field: c)
    assert main(["check", "--field", "complex", str(DATA / "one_gate.circuit")]) == 0
    assert capsys.readouterr().out == f"ok {format_scalar(evaluate(c))}\n"


def test_cli_multicycles_refuses_oversized_ring(tmp_path, capsys):
    # Three stacks of width 12: about 2.0e9 subset tuples, over 2**20.
    lines = []
    for k in range(3):
        rows = " ".join(str(100 * k + 50 + i) for i in range(12))
        cols = " ".join(str(100 * k + i) for i in range(12))
        lines.append(f"stack\ngate 12 12 {rows} / {cols}")
        lines.extend(" ".join("1" if i == j else "0" for j in range(12))
                     for i in range(12))
    path = tmp_path / "wide.circuit"
    path.write_text("\n".join(lines) + "\n")
    assert main(["multicycles", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: multicycle enumeration over 2046924400")


@pytest.mark.parametrize("verb", ["multicycles", "check"])
def test_cli_multicycles_refusal_of_a_deep_ring_is_one_line(tmp_path, capsys, verb):
    # 15000 stacks of width 2: 2**15000 + 2 subset tuples, a count of 4516
    # digits, past the digit limit the file is read under.  The refusal
    # names it cut short instead of raising while it formats the count.
    path = tmp_path / "deep.circuit"
    path.write_text("stack\ngate 2 2 1 2 / 1 2\n1 1\n0 1\n" * 15000)
    assert main([verb, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: multicycle enumeration over ")
    assert out.err.count("\n") == 1 and "(4516 characters)" in out.err


def test_multicycles_refusal_of_a_deep_ring_is_one_line_under_the_digit_limit():
    # In process, under the interpreter's default limit, the 4516-digit count
    # is named without str(), so the refusal is TooLarge, not ValueError.
    c = parse_circuit("stack\ngate 2 2 1 2 / 1 2\n1 1\n0 1\n" * 15000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(TooLarge) as e:
            enumerate_multicycles(c)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(e.value) == ("multicycle enumeration over <int of 15001 bits> "
                            "subset tuples > 2**20")


def test_write_circuit_round_trips_gates_without_columns():
    # A gate with rows but no columns is written as r blank lines; the
    # parser must not read the next directive as one of its rows.
    rng = random.Random(11)
    without_columns = 0
    for _ in range(300):
        c = rand_circuit(rng, max_stacks=5, max_wires=5)
        without_columns += any(g.shape[0] and not g.shape[1]
                               for s in c.stacks for g in s.gates)
        text = write_circuit(c)
        back = parse_circuit(text, "rational")
        assert write_circuit(back) == text
        assert evaluate(back) == evaluate(c)
    assert without_columns > 250


def test_cli_pfeval_huge_missing_edge_id(tmp_path, capsys):
    # Edge id 10**6 makes 999 998 edges missing on each side; the error
    # names the first and counts the rest instead of listing them.
    path = tmp_path / "sparse.pf"
    path.write_text("pfgate state 2 1 1000000\n0 1\n-1 0\n"
                    "pfgate costate 2 1 1000000\n0 1\n-1 0\n")
    assert main(["pfeval", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert len(out.err.encode()) < 200
    assert "999998 edges" in out.err and "first is 2" in out.err


@pytest.mark.parametrize("verb,name", [
    ("eval", "bad.circuit"), ("pfeval", "bad.pf"), ("forests", "bad.graph")])
def test_cli_non_utf8_file_exits_2(tmp_path, capsys, verb, name):
    path = tmp_path / name
    path.write_bytes(b"# ok\n\xff\xfe\n")
    assert main([verb, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: line 2: {path} is not UTF-8")
    assert out.err.count("\n") == 1


BAD_X = "error: line 4: bad rational 'x': Invalid literal for Fraction: 'x'\n"


# Only \n, \r\n and \r end a line.  str.splitlines also ended one at a form
# feed or U+2028, so the rest of the comment read as a directive: "error:
# line 3: unknown directive 'more'".
@pytest.mark.parametrize("text, want", [
    ("stack\n# note\x0cmore\ngate 1 1 1 / 2\nx\n", (2, "", BAD_X)),
    ("stack\n# note\u2028more\ngate 1 1 1 / 2\nx\n", (2, "", BAD_X)),
    ("stack\n# note\x0cmore\ngate 1 1 1 / 2\n3\n", (0, "4\n", "")),
    ("stack\r\n# note\r\ngate 1 1 1 / 2\r\nx\r\n", (2, "", BAD_X)),
    ("stack\r# note\rgate 1 1 1 / 2\rx\r", (2, "", BAD_X)),
], ids=["form-feed", "line-separator", "form-feed-evaluates", "crlf", "lone-cr"])
def test_only_newline_and_carriage_return_end_a_line(tmp_path, text, want):
    path = tmp_path / "input.circuit"
    path.write_bytes(text.encode("utf-8"))
    assert _run(["eval", str(path)]) == want


@pytest.mark.parametrize("name, verb", [
    ("ring3.circuit", "eval"), ("ring3.pf", "pfeval"), ("k4.graph", "poly")])
@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_crlf_and_cr_files_read_as_their_newline_form(tmp_path, name, verb, end):
    text = (DATA / name).read_text()
    path = tmp_path / name
    path.write_bytes(text.replace("\n", end).encode("utf-8"))
    want = _run([verb, str(DATA / name)])
    assert want[0] == 0 and _run([verb, str(path)]) == want


@pytest.mark.parametrize("data, lineno", [
    (b"# ok\r\n\xff\n", 2), (b"# ok\r\xff", 2), (b"# a\x0cb\n\xff", 2),
    (b"# a\xe2\x80\xa8b\r\n\r\n\xff", 3), (b"\xff", 1)])
def test_cli_non_utf8_line_counts_the_parsers_line_ends(tmp_path, capsys, data, lineno):
    path = tmp_path / "bad.circuit"
    path.write_bytes(data)
    assert main(["eval", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {lineno}: {path} is not UTF-8")


BOM = b"\xef\xbb\xbf"
BOM_VERBS = {".circuit": (["eval"], ["eval", "--field", "complex"], ["compile"]),
             ".pf": (["pfeval"], ["pfeval", "--field", "complex"]),
             ".graph": (["forests"], ["trees"], ["poly"])}


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir()))
def test_a_leading_byte_order_mark_is_dropped(tmp_path, name):
    # Some editors start a UTF-8 file with one.  It used to be read as part
    # of the first token: "unknown directive '\ufeffstack'".
    data = (DATA / name).read_bytes()
    path = tmp_path / name
    for args in BOM_VERBS[path.suffix]:
        argv = [args[0], str(path), *args[1:]]
        path.write_bytes(data)
        want = _run(argv)
        path.write_bytes(BOM + data)
        assert _run(argv) == want


def test_a_byte_order_mark_keeps_the_line_of_a_bad_byte(tmp_path, capsys):
    path = tmp_path / "bad.circuit"
    path.write_bytes(BOM + b"# ok\n\xff\n")
    assert main(["eval", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line 2: {path} is not UTF-8")


@pytest.mark.parametrize("name, data, err", [
    ("x.circuit", b"stack\n" + BOM + b"gate 1 1 1 / 2\n3\n",
     "error: line 2: unknown directive '\\ufeffgate'\n"),
    ("x.graph", b"\n" + BOM + b"3 0\n", "error: line 2: expected integer vertex count, "
                                       "got '\\ufeff3'\n"),
    ("y.graph", BOM + BOM + b"3 0\n", "error: line 1: expected integer vertex count, "
                                     "got '\\ufeff3'\n"),
])
def test_a_byte_order_mark_past_the_start_is_refused(tmp_path, name, data, err):
    path = tmp_path / name
    path.write_bytes(data)
    verb = "eval" if name.endswith(".circuit") else "forests"
    assert _run([verb, str(path)]) == (2, "", err)


@pytest.mark.parametrize("token", ["nan", "inf", "-infi", "1e400", "1+nani"])
def test_non_finite_complex_entries_are_parse_errors(tmp_path, capsys, token):
    with pytest.raises(ParseError) as e:
        parse_circuit(f"stack\ngate 1 1 1 / 1\n{token}\n", "complex")
    assert e.value.line == 3 and "not finite" in e.value.reason
    with pytest.raises(ParseError) as e:
        parse_pfaffian(f"pfgate state 2 1 2\n0 {token}\n1 0\n", "complex")
    assert e.value.line == 2 and "not finite" in e.value.reason
    circuit = tmp_path / "x.circuit"
    circuit.write_text(f"stack\ngate 1 1 1 / 1\n{token}\n")
    pf = tmp_path / "x.pf"
    pf.write_text(f"pfgate state 2 1 2\n0 {token}\n1 0\n"
                  "pfgate costate 2 1 2\n0 1\n-1 0\n")
    for argv in (["eval", str(circuit)], ["check", str(circuit)], ["pfeval", str(pf)]):
        assert main(argv + ["--field", "complex"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: line ")


@pytest.mark.parametrize("verb", ["eval", "oracle", "check", "multicycles", "pfeval"])
def test_cli_non_finite_complex_result_exits_2(tmp_path, capsys, verb):
    # Finite entries whose minors overflow: det is -inf, the oracle's sum
    # nan, and the multicycle weights end in -inf+nani.  Nothing is printed.
    path = tmp_path / "huge.circuit"
    path.write_text("stack\ngate 2 2 1 2 / 3 4\n1e300 1e300\n1e300 -1e300\n"
                    "wiring 0: 1->3, 2->4\n")
    if verb == "pfeval":
        pf = tmp_path / "huge.pf"
        assert main(["compile", str(path), "--field", "complex", "-o", str(pf)]) == 0
        capsys.readouterr()
        path = pf
    assert main([verb, str(path), "--field", "complex"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "not finite" in out.err


@contextlib.contextmanager
def no_digit_limit():
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(caller)


@pytest.mark.parametrize("verb", ["eval", "oracle", "check", "multicycles", "compile", "pfeval",
                                  "forests", "trees"])
def test_cli_exact_result_past_the_digit_limit_exits_2(tmp_path, capsys, verb):
    # 10**limit has limit + 1 digits, one more than str may print under the
    # limit.  A result prints whole and equals the in-process value; these
    # runs exited 2 until results were formatted with the limit lifted.
    # compile still exits 2, with nothing on stdout, and writes no file: its
    # .pf must read back under the limit.  A path of 2152 vertices with
    # every edge 100 times has 100**2151 spanning trees, 4303 digits, and
    # more rooted forests still.
    token = f"1e{INT_MAX_STR_DIGITS}"
    if verb == "pfeval":
        path = tmp_path / "big.pf"
        path.write_text(f"pfgate state 2 1 2\n0 {token}\n-{token} 0\n"
                        "pfgate costate 2 1 2\n0 0\n0 0\n")
    elif verb in ("forests", "trees"):
        path = tmp_path / "big.graph"
        edges = [f"{v} {v + 1}\n" for v in range(1, 2152) for _ in range(100)]
        path.write_text(f"2152 {len(edges)}\n" + "".join(edges))
    else:
        path = tmp_path / "big.circuit"
        path.write_text(f"stack\ngate 1 1 1 / 1\n{token}\n")
    kept = tmp_path / "kept.pf"
    kept.write_text("kept\n")
    if verb == "compile":
        for argv in ([verb, str(path)], [verb, str(path), "-o", str(kept)]):
            assert main(argv) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("error: ") and "too long to print" in out.err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted((path.name, kept.name))
        assert kept.read_text() == "kept\n"
        return
    text = path.read_text()
    if verb == "pfeval":
        value = eval_pfaffian_circuit(parse_pfaffian(text))
    elif verb == "forests":
        value = count_rooted_forests(parse_graph(text))
    elif verb == "trees":
        value = count_spanning_trees(parse_graph(text))
    else:
        value = evaluate(parse_circuit(text))
    assert main([verb, str(path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    with no_digit_limit():
        whole = str(value)
    assert len(whole) > INT_MAX_STR_DIGITS
    lines = out.out.splitlines()
    if verb == "check":
        assert lines == [f"ok {whole}"]
    elif verb == "multicycles":
        assert lines[-1] == f"total {whole}"
    else:
        assert lines == [whole]


def test_cli_poly_coefficient_past_the_digit_limit_exits_2(capsys, monkeypatch):
    # A graph whose coefficients pass the limit is too big to build here, so
    # poly gets such a polynomial, and prints each coefficient whole.  This
    # run exited 2 until results were formatted with the limit lifted.
    import detcircuits.graphs as graphsmod
    monkeypatch.setattr(graphsmod, "forest_polynomial",
                        lambda g: ForestPolynomial((0, 10 ** INT_MAX_STR_DIGITS, 1)))
    assert main(["poly", str(DATA / "triangle.graph")]) == 0
    assert capsys.readouterr() == ("0 1" + "0" * INT_MAX_STR_DIGITS + " 1\n", "")


def test_cli_prints_a_result_past_the_digit_limit_from_short_tokens(tmp_path, capsys):
    # Forty one-gate stacks of 10**120 round a ring: every token is short,
    # and the value, 1 + 10**4800, is not.
    n = 40
    path = tmp_path / "ring.circuit"
    path.write_text("stack\ngate 1 1 1 / 1\n1e120\n" * n)
    value = evaluate(parse_circuit(path.read_text()))
    assert value == 1 + 10 ** (120 * n)
    for verb in ("eval", "compile", "pfeval"):
        argv = [verb, str(path)] if verb != "pfeval" else [verb, str(path) + ".pf"]
        assert main(argv) == 0
        out = capsys.readouterr()
        assert out.err == ""
        if verb != "compile":
            assert out.out == "1" + "0" * (120 * n - 1) + "1\n"


@pytest.mark.parametrize("token", ["1e10000000", "-1E+10000000", "1e-10000000"])
def test_cli_refuses_an_exponent_past_ten_times_the_digit_limit(tmp_path, capsys, token):
    # Fraction would build 10**10000000 before any check; the token is
    # refused as it is read, at its line.
    path = tmp_path / "exp.circuit"
    path.write_text(f"stack\ngate 1 1 1 / 1\n{token}\n")
    assert main(["eval", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: line 3: bad rational {token!r}: exponent past the "
                       f"{10 * INT_MAX_STR_DIGITS} limit\n")


ENTRY = ("eval", "stack\ngate 1 1 1 / 1\n{}\n", 3)
LONG = "y" * 5000
LONG_DIGITS = "9" * 5000
PF_GRID = "\n0 1\n-1 0\n"


@pytest.mark.parametrize("token, field, case", [
    ("1" + "0" * 5000, "rational", ENTRY),
    ("x" * 5000, "rational", ENTRY),
    ("1" * 4400 + "/3", "rational", ENTRY),
    ("1" * 100 + "/0", "rational", ENTRY),
    ("1" + "0" * 999, "complex", ENTRY),
    (LONG, None, ("eval", "stack\ngate 1 1 {} / 1\n1\n", 2)),
    (LONG_DIGITS, None, ("eval", "stack\ngate 1 {} 1 / 1\n1\n", 2)),
    ("st" + LONG, None, ("eval", "{}\n", 1)),
    (LONG, None, ("eval", "stack\ngate 1 1 1 / 2\n1\nwiring 0: 2->{}\n", 4)),
    (LONG, None, ("eval", "stack\ngate 1 1 1 / 2\n1\nwiring 0: {}\n", 4)),
    (LONG_DIGITS, None, ("eval", "stack\ngate 1 1 1 / 2\n1\nwiring {}: 2->1\n", 4)),
    (LONG_DIGITS, None, ("trees", "2 1\n1 {}\n", 2)),
    (LONG, None, ("trees", "{} 0\n", 1)),
    (LONG, None, ("pfeval", "{} state 2 1 2" + PF_GRID, 1)),
    (LONG, None, ("pfeval", "pfgate {} 2 1 2" + PF_GRID, 1)),
    (LONG, None, ("pfeval", "pfgate state 2 1 {}" + PF_GRID, 1)),
], ids=["digits-5001", "garbage-5000", "p-4400-over-q", "p-100-over-zero", "complex-1000",
        "row-label", "column-count", "directive", "wiring-end", "wiring-pair", "wiring-index",
        "endpoint", "vertex-count", "pf-head", "pfgate-kind", "edge-id"])
def test_cli_names_a_long_refused_token_in_a_short_line(tmp_path, capsys, token, field, case):
    # The whole token was echoed: 5174 bytes of stderr for the 5001-digit
    # entry, 5038-5060 for a label, directive, wiring end, endpoint or .pf head.
    verb, template, lineno = case
    path = tmp_path / "long.txt"
    path.write_text(template.format(token))
    assert main([verb, str(path)] + (["--field", field] if field else [])) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: line {lineno}: ") and out.err.count("\n") == 1
    assert f"{token[:40]!r}... ({len(token)} characters)" in out.err
    assert len(out.err.encode()) < 200


D = "9" * 4000  # under the digit limit, so it parses and is refused by value


@pytest.mark.parametrize("verb, text, prefix, value", [
    ("eval", f"stack\ngate -{D} 0 /\n", "error: line 2: ", "-" + D),
    ("eval", f"stack\ngate {D} 1 1 / 1\n1\n", "error: line 2: ", D),
    ("eval", f"stack\ngate 1 1 1 / 2\n1\nwiring {D}: 2->1\nwiring {D}: 2->1\n",
     "error: line 5: ", D),
    ("eval", f"stack\ngate 1 1 1 / 2\n1\nwiring {D}: 2->1\n", "error: line 4: ", D),
    ("pfeval", f"pfgate state -{D}\n", "error: line 1: ", "-" + D),
    ("pfeval", f"pfgate state {D} 1 2\n0 1\n-1 0\n", "error: line 1: ", D),
    ("pfeval", f"pfgate state 2 1 -{D}\n0 1\n-1 0\n", "error: line 1: ", "-" + D),
    ("trees", f"2 {D}\n1 2\n", "error: line 2: ", D),
    ("trees", f"2 1\n1 {D}\n", "error: line 2: ", D),
    ("trees", f"{D} 1\n{D} {D}\n", "error: line 2: ", D),
    ("pfeval", f"pfgate costate 1 {D}\n0\n", "error: ", D),
    ("pfeval", f"pfgate state 1 {D}\n0\npfgate state 1 {D}\n0\n", "error: ", D),
    ("pfeval", f"pfgate state 1 {D}\n1\n", "error: line 1: ", D),
    ("pfeval", f"pfgate state 2 1 {D}\n0 1\n1 0\n", "error: line 1: ", D),
    ("eval", f"stack\ngate 1 2 1 / {D} {D}\n1 1\n", "error: ", f"({D}, {D})"),
    ("pfeval", f"pfgate state 2 {D} {D}\n0 1\n-1 0\n", "error: line 1: ", f"({D}, {D})"),
    ("eval", f"stack\ngate 2 2 1 3 / 2 4\n1 0\n0 1\nwiring 0: {D}->2, {D}->4\n",
     "error: ", D),
    ("eval", f"stack\ngate 1 1 {D} / 2\n1\nwiring 0: 1->2\n", "error: ", "{" + D + "}"),
    ("eval", f"stack\ngate 1 1 1 / {D}\n1\nwiring 0: 1->2\n", "error: ", "{" + D + "}"),
    ("eval", f"stack\ngate 1 1 {D} / 2\n1\ngate 1 0 {D} /\n\nwiring 0: {D}->2\n",
     "error: ", f"({D}, {D})"),
], ids=["gate-count", "label-count", "duplicate-wiring", "wiring-range", "pf-size",
        "edge-id-count", "edge-id-sign", "edge-line-count", "endpoint-range", "self-loop",
        "no-state-gate", "edge-used-twice", "nonzero-diagonal", "not-antisymmetric",
        "repeated-gate-label", "repeated-pfgate-edge", "wiring-reuses-output",
        "unmatched-outputs", "unmatched-inputs", "stack-repeats-output"])
def test_cli_names_a_long_refused_value_in_a_short_line(tmp_path, capsys, verb, text,
                                                         prefix, value):
    # Each site echoed the whole value: 4027-4069 bytes of stderr, and
    # 8034-8038 for a repeated label, which printed the whole label tuple.
    path = tmp_path / "long.txt"
    path.write_text(text)
    assert main([verb, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(prefix) and out.err.count("\n") == 1
    assert f"{value[:40]}... ({len(value)} characters)" in out.err
    assert len(out.err.encode()) < 200


def test_cli_reads_an_exponent_at_ten_times_the_digit_limit(tmp_path, capsys):
    # 10**43000 and 10**-43000 are read and cancel round the loop: 1 + 1.
    path = tmp_path / "exp.circuit"
    path.write_text("stack\ngate 1 1 1 / 2\n1e43000\nstack\ngate 1 1 3 / 4\n1e-43000\n"
                    "wiring 0: 1->4\nwiring 1: 3->2\n")
    assert main(["eval", str(path)]) == 0
    assert capsys.readouterr() == ("2\n", "")


DIGIT_FILES = {
    "digits_1000.circuit": "stack\ngate 1 1 1 / 1\n1" + "0" * 999 + "\n",
    "digits_5001.circuit": "stack\ngate 1 1 1 / 1\n1e5000\n",
    "token_5000.circuit": "stack\ngate 1 1 1 / 1\n1" + "0" * 4999 + "\n",
}


def test_cli_digit_limit_is_the_same_in_every_shell(tmp_path):
    # PYTHONINTMAXSTRDIGITS sets the interpreter's limit: at 640 it refused
    # the 1000-digit token, and at 0 it took the 5000-digit token and
    # orientation seed.  The 5001-digit value prints whole in every shell;
    # it exited 2 until results were formatted with the limit lifted.
    for name, text in DIGIT_FILES.items():
        (tmp_path / name).write_text(text)
    runs = [["eval", name] for name in DIGIT_FILES]
    runs.append(["forests", str(DATA / "triangle.graph"), "--orientation-seed", "7" * 5000])
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = {}
    for setting in (None, "0", "640"):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = src
        if setting is not None:
            env["PYTHONINTMAXSTRDIGITS"] = setting
        outputs[setting] = [
            (run.returncode, run.stdout, run.stderr) for run in (
                subprocess.run([sys.executable, "-m", "detcircuits"] + argv, cwd=tmp_path,
                               env=env, capture_output=True, text=True) for argv in runs)]
    assert outputs["0"] == outputs[None] == outputs["640"]
    digits_1000, digits_5001, token_5000, seed = outputs[None]
    assert digits_1000 == (0, "1" + "0" * 998 + "1\n", "")
    assert digits_5001 == (0, "1" + "0" * 4999 + "1\n", "")
    assert token_5000[0] == 2 and token_5000[2].startswith("error: line 3: ")
    assert seed[0] == 1 and seed[2].startswith("usage error: ")


def test_cli_restores_the_callers_digit_limit(tmp_path, capsys):
    # After a result printed under the lifted limit, a help or usage run, a
    # missing file and a compile refused for its long entry alike.
    for name in ("digits_1000.circuit", "digits_5001.circuit"):
        (tmp_path / name).write_text(DIGIT_FILES[name])
    path = str(tmp_path / "digits_1000.circuit")
    big = str(tmp_path / "digits_5001.circuit")
    caller = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert main(["eval", path]) == 0
        assert sys.get_int_max_str_digits() == 640
        assert capsys.readouterr().out == "1" + "0" * 998 + "1\n"
        for argv, code in ((["eval", big], 0), (["eval", "-h"], 0), (["eval"], 1),
                           (["eval", path + ".missing"], 2), (["compile", big], 2)):
            assert main(argv) == code, argv
            assert sys.get_int_max_str_digits() == 640, argv
    finally:
        sys.set_int_max_str_digits(caller)


def test_format_scalar_refuses_non_finite_complex():
    for z in (complex("inf"), complex("-inf+1j"), complex("nan"), complex(1, float("nan"))):
        with pytest.raises(OverflowError):
            format_scalar(z)
    assert format_scalar(1e300 + 0j) == "1e+300+0i"


def test_cli_pfeval_complex_grid_skew_within_tolerance(tmp_path, capsys):
    # Entry (2,1) is 1e-10 where (1,2) is 0: skew within the tolerance, so
    # the file is accepted, and the elimination must not pivot on column 1
    # and then divide by the zero in row 1.
    path = tmp_path / "near.pf"
    rows = ["0 0 0 0 0 0", "1e-10 0 1 1 1 1", "0 -1 0 1 1 1",
            "0 -1 -1 0 1 1", "0 -1 -1 -1 0 1", "0 -1 -1 -1 -1 0"]
    costates = "".join(f"pfgate costate 2 {e} {e + 1}\n0 0\n0 0\n" for e in (1, 3, 5))
    path.write_text("pfgate state 6 1 2 3 4 5 6\n" + "\n".join(rows) + "\n" + costates)
    assert main(["pfeval", "--field", "complex", str(path)]) == 0
    assert capsys.readouterr().out == "0+0i\n"


ZERO_SPELLINGS = {
    "rational": ("0", "-0", "+0", "00", "0/7"),
    "complex": ("0", "0+0i", "-0+0i"),
}
DIRECTIVES = ("stack", "gate", "wiring", "pfgate")


def _map_grid_tokens(text, fn):
    """text with fn applied to each token of its grid rows."""
    out = []
    for line in text.splitlines():
        toks = line.split()
        out.append(line if not toks or toks[0] in DIRECTIVES else " ".join(map(fn, toks)))
    return "\n".join(out) + "\n"


def _grid_entries(obj):
    if isinstance(obj, Circuit):
        return [x for s in obj.stacks for g in s.gates for row in g.entries for x in row]
    return [x for g in obj.states + obj.costates for row in g.entries for x in row]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def spelling_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("spellings")


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("rational", "complex")))
@settings(max_examples=80, deadline=None)
def test_zero_spellings_read_and_evaluate_alike(spelling_dir, seed, field):
    # Every spelling of zero must give equal grids, all-complex ones in the
    # complex field, and the same eval and pfeval output byte for byte.
    rng = random.Random(seed)
    c = rand_circuit(rng, max_stacks=3, max_wires=3, field=field, lo=-2, hi=2)
    # Half the entries zero, then each zero token spelled at random.
    circuit = _map_grid_tokens(write_circuit(c), lambda t: "0" if rng.random() < 0.5 else t)
    compiled = write_pfaffian(compile_circuit(parse_circuit(circuit, field)).target)
    for text, parse, verb, ext in ((circuit, parse_circuit, "eval", "circuit"),
                                   (compiled, parse_pfaffian, "pfeval", "pf")):
        spelled = _map_grid_tokens(
            text, lambda t: rng.choice(ZERO_SPELLINGS[field]) if t == "0" else t)
        got, want = parse(spelled, field), parse(text, field)
        assert got == want
        if field == "complex":
            assert all(type(x) is complex for x in _grid_entries(got) + _grid_entries(want))
        results = []
        for body in (text, spelled):
            path = spelling_dir / f"input.{ext}"
            path.write_text(body)
            results.append(_run([verb, str(path), "--field", field]))
        assert results[0] == results[1]
        assert results[0][0] == 0


# Spellings of a few values, so that a grid repeats tokens and repeats
# values under different tokens.  1/1 and 2/2 read as Fraction, 1 and 01 as
# int; -0 and -0+0i keep their sign of zero in the complex field.
MEMO_TOKENS = {
    "rational": ("0", "1", "+1", "01", "1/1", "2/2", "-0", "0/7", "1e0"),
    "complex": ("0", "1", "+1", "01", "-0", "1e0", "1+0i", "-0+0i"),
}


def _negated(tok):
    return tok[1:] if tok.startswith("-") else "-" + tok.lstrip("+")


@st.composite
def memo_files(draw):
    """(field, .circuit or .pf text, its grid tokens in reading order).
    The .pf grids are skew: the tokens below the diagonal negate those above."""
    field = draw(st.sampled_from(sorted(MEMO_TOKENS)))
    pool = st.sampled_from(MEMO_TOKENS[field])
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        grids = [[[draw(pool) for _ in range(n)] for _ in range(n)]
                 for _ in range(draw(st.integers(1, 3)))]
        lines = []
        for grid in grids:
            lines.append(f"stack\ngate {n} {n} {' '.join(map(str, range(1, n + 1)))}"
                         f" / {' '.join(map(str, range(n + 1, 2 * n + 1)))}")
            lines += [" ".join(row) for row in grid]
    else:
        zero = st.sampled_from([t for t in MEMO_TOKENS[field] if parse_scalar(t, field) == 0])
        grids, lines = [], []
        for kind in ("state", "costate"):
            grid = [[None] * n for _ in range(n)]
            for i in range(n):
                grid[i][i] = draw(zero)
                for j in range(i + 1, n):
                    grid[i][j] = draw(pool)
                    grid[j][i] = _negated(grid[i][j])
            grids.append(grid)
            lines.append(f"pfgate {kind} {n} {' '.join(map(str, range(1, n + 1)))}")
            lines += [" ".join(row) for row in grid]
    return field, "\n".join(lines) + "\n", [t for g in grids for row in g for t in row]


@given(memo_files())
@settings(max_examples=150, deadline=None)
def test_each_distinct_token_is_parsed_once_per_file(case):
    # Entries read through the per-file memo must be what parse_scalar
    # gives for their own token, in type and value (and sign of zero), and
    # parse_scalar must run once per distinct token in each parse.
    field, text, toks = case
    parse = parse_pfaffian if text.startswith("pfgate") else parse_circuit
    calls = Counter()

    def counting(tok, fld):
        calls[tok] += 1
        return parse_scalar(tok, fld)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "parse_scalar", counting)
        got = _grid_entries(parse(text, field))
        assert calls == Counter(set(toks))
        parse(text, field)
        assert calls == Counter({tok: 2 for tok in toks})  # nothing kept between files
    assert len(got) == len(toks)
    for x, tok in zip(got, toks):
        want = parse_scalar(tok, field)
        assert type(x) is type(want) and repr(x) == repr(want)


@pytest.fixture(scope="module")
def integer_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("integers")


def _as_fraction_tokens(text):
    """text with each integer grid token n spelled n/1, which parses to Fraction."""
    return _map_grid_tokens(text, lambda t: f"{t}/1" if t.lstrip("+-").isdecimal() else t)


@given(st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_integer_tokens_read_as_int_or_fraction_alike(integer_dir, seed, hand_written):
    # Integer tokens read as int, n/1 as Fraction; every printed value,
    # compiled file and exit code must be the same either way.
    rng = random.Random(seed)
    c = rand_circuit(rng, max_stacks=3, max_wires=3, lo=-3, hi=3)
    circuit = _map_grid_tokens(
        write_circuit(c), lambda t: f"{t}/{rng.randint(2, 4)}" if rng.random() < 0.2 else t)
    runs = []
    for text in (circuit, _as_fraction_tokens(circuit)):
        src, out = integer_dir / "input.circuit", integer_dir / "input.pf"
        src.write_text(text)
        runs.append((_run(["eval", str(src)]), _run(["compile", str(src), "-o", str(out)]),
                     out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0][0] == 0 and runs[0][1][0] == 0
    pc = _rand_pfaffian(rng, "rational") if hand_written else compile_circuit(
        parse_circuit(circuit)).target
    pf = write_pfaffian(pc)
    results = []
    for text in (pf, _as_fraction_tokens(pf)):
        path = integer_dir / "input.pf"
        path.write_text(text)
        results.append(_run(["pfeval", str(path)]))
    assert results[0] == results[1]
    assert results[0][0] == 0


def _rand_pfaffian(rng, field):
    """Edges 1..e in shuffled order, cut into state gadgets of up to four
    edges, and again into costate gadgets, each with a random skew grid."""
    edges = list(range(1, rng.randint(0, 8) + 1))
    sides = []
    for _ in range(2):
        rng.shuffle(edges)
        side, rest = [], edges[:]
        while rest:
            n = rng.randint(1, 4)
            side.append(skew(rest[:n], rand_skew_grid(rng, len(rest[:n]), field, -3, 3)))
            rest = rest[n:]
        sides.append(tuple(side))
    return PfaffianCircuit(*sides)


@pytest.fixture(scope="module")
def shuffle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("shuffles")


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("rational", "complex")),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_gate_block_order_changes_no_value(shuffle_dir, seed, field, compiled):
    # An edge-matrix entry gets at most one term from the states and one
    # from the costates, so the order of the blocks in a .pf file changes
    # neither what pfeval prints nor the oracle's value; the writer puts
    # the states first, each side in its file order.
    rng = random.Random(seed)
    if compiled:
        c = rand_circuit(rng, max_stacks=3, max_wires=3, field=field, lo=-3, hi=3)
        pc = compile_circuit(c).target
    else:
        pc = _rand_pfaffian(rng, field)
    # Read once, so the text is in the field's spelling, as write_pfaffian
    # writes it back.
    text = write_pfaffian(parse_pfaffian(write_pfaffian(pc), field))
    blocks = pf_blocks(text)
    rng.shuffle(blocks)
    shuffled = "".join(blocks)
    kinds = [b.split()[1] for b in blocks]
    assert write_pfaffian(parse_pfaffian(shuffled, field)) == "".join(
        [b for b, k in zip(blocks, kinds) if k == "state"] +
        [b for b, k in zip(blocks, kinds) if k == "costate"])
    results = []
    for body in (text, shuffled):
        path = shuffle_dir / "input.pf"
        path.write_text(body)
        results.append(_run(["pfeval", str(path), "--field", field]))
    assert results[0] == results[1]
    assert results[0][0] == 0
    if pc.edge_count <= 12:
        want = eval_pfaffian_oracle(parse_pfaffian(text, field))
        got = eval_pfaffian_oracle(parse_pfaffian(shuffled, field))
        assert scalars_equal(got, want)


@pytest.mark.parametrize("n", [2, 6])
def test_cli_pfeval_all_zero_complex_file_stays_complex(tmp_path, capsys, n):
    # The assembled grid is all zeros; its field comes from the gates, so
    # the complex file still prints a complex value.
    zeros = "\n".join(" ".join(["0"] * 2) for _ in range(2))
    path = tmp_path / "zero.pf"
    path.write_text("".join(f"pfgate {kind} 2 {e} {e + 1}\n{zeros}\n"
                            for kind in ("state", "costate") for e in range(1, n, 2)))
    assert parse_pfaffian(path.read_text(), "complex").exact is False
    assert main(["pfeval", "--field", "complex", str(path)]) == 0
    assert capsys.readouterr().out == "0+0i\n"
    assert main(["pfeval", str(path)]) == 0
    assert capsys.readouterr().out == "0\n"


def test_cli_help_returns_0(capsys):
    assert main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: detcirc")
    assert main(["pfeval", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: detcirc pfeval")


def test_cli_graph_counts_skip_isolated_vertices(tmp_path, capsys):
    # A header naming many vertices and no edges must not cost a |V| x |V|
    # grid.  The small size comes first: a dense build fails there.
    path = tmp_path / "sparse.graph"
    for n in (3000, 100000):
        path.write_text(f"{n} 0\n")
        for verb, want in (("forests", "1"), ("trees", "0")):
            tracemalloc.start()
            try:
                assert main([verb, str(path)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert capsys.readouterr().out == want + "\n"
            assert peak < 1 << 20, (n, verb, peak)


@pytest.mark.parametrize("n,message", [
    ("99999999999999999999", None),  # OverflowError: too many vertices to index
    (str(2 ** 62), "error: out of memory\n"),  # MemoryError: refused before allocating
])
def test_cli_poly_on_a_huge_vertex_count_exits_2(tmp_path, capsys, n, message):
    # poly prefixes one zero coefficient per isolated vertex.  Python refuses
    # both sizes at once; a count it would try to allocate is not tested.
    path = tmp_path / "huge.graph"
    path.write_text(f"{n} 0\n")
    assert main(["poly", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert message is None or out.err == message


# Exact stderr of a bad label, size, edge id, wiring pair or entry, and of the
# accepted spellings next to them.  The first bad token on a line is the one
# reported, whatever else is wrong further along.
PARSE_ERROR_TEXT = [
    ("row-label", "eval", "stack\ngate 1 1 x / 1\n5\n", [],
     2, "", "error: line 2: expected integer row label, got 'x'\n"),
    ("column-label", "eval", "stack\ngate 1 1 1 / x\n5\n", [],
     2, "", "error: line 2: expected integer column label, got 'x'\n"),
    ("row-before-column-label", "eval", "stack\ngate 1 1 x / y\n5\n", [],
     2, "", "error: line 2: expected integer row label, got 'x'\n"),
    ("edge-id", "pfeval", "pfgate state 2 1 x\n0 1\n-1 0\n", [],
     2, "", "error: line 1: expected integer edge id, got 'x'\n"),
    ("edge-id-before-sign", "pfeval", "pfgate state 2 0 x\n0 1\n-1 0\n", [],
     2, "", "error: line 1: expected integer edge id, got 'x'\n"),
    ("edge-id-zero", "pfeval", "pfgate state 2 1 0\n0 1\n-1 0\n", [],
     2, "", "error: line 1: edge ids are positive, got 0\n"),
    ("gate-negative-rows", "eval", "stack\ngate -1 0 /\n", [],
     2, "", "error: line 2: row and column counts must be nonnegative, got -1 and 0\n"),
    ("gate-negative-columns", "eval", "stack\ngate 1 -2 1 /\n5\n", [],
     2, "", "error: line 2: row and column counts must be nonnegative, got 1 and -2\n"),
    ("pfgate-negative-size", "pfeval", "pfgate state -1\n", [],
     2, "", "error: line 1: size must be nonnegative, got -1\n"),
    ("pfgate-negative-size-with-edges", "pfeval", "pfgate costate -2 1 2\n0 1\n-1 0\n", [],
     2, "", "error: line 1: size must be nonnegative, got -2\n"),
    ("graph-endpoint", "forests", "3 2\n1 2\nq z\n", [],
     2, "", "error: line 3: expected integer endpoint, got 'q'\n"),
    ("wiring-no-arrow", "eval", "stack\ngate 1 1 1 / 1\n5\nwiring 0: 1 1\n", [],
     2, "", "error: line 4: bad wiring pair '1 1', expected a->b\n"),
    ("wiring-two-arrows", "eval", "stack\ngate 1 1 1 / 1\n5\nwiring 0: 1->2->1\n", [],
     2, "", "error: line 4: expected integer wire label, got '2->1'\n"),
    ("wiring-non-integer-end", "eval", "stack\ngate 1 1 1 / 1\n5\nwiring 0: 1->y\n", [],
     2, "", "error: line 4: expected integer wire label, got 'y'\n"),
    ("wiring-trailing-comma", "eval", "stack\ngate 1 1 1 / 1\n5\nwiring 0: 1->1,\n", [],
     2, "", "error: line 4: bad wiring pair '', expected a->b\n"),
    ("wiring-bad-end-before-bad-pair", "eval",
     "stack\ngate 2 2 1 2 / 1 2\n1 0\n0 1\nwiring 0: x->1, 2\n", [],
     2, "", "error: line 5: expected integer wire label, got 'x'\n"),
    ("wiring-bad-pair-before-bad-end", "eval",
     "stack\ngate 2 2 1 2 / 1 2\n1 0\n0 1\nwiring 0: 1->1, 2, y->2\n", [],
     2, "", "error: line 5: bad wiring pair '2', expected a->b\n"),
    # \x1c is whitespace to str.strip() but not to int(), so the one-pass
    # read fails and the pair-by-pair pass reads the pair.
    ("wiring-file-separator-in-pair", "eval", "stack\ngate 1 1 1 / 2\n3\nwiring 0: 1->\x1c2\n", [],
     0, "4\n", ""),
    ("wiring-spaced-arrow", "eval", "stack\ngate 1 1 1 / 1\n5\nwiring 0: 1 -> 1\n", [],
     0, "6\n", ""),
    ("signed-and-underscored-labels", "eval",
     "stack\ngate 1 1 +1 / 0_1\n5\nwiring 0: +1 ->  1\n", [], 0, "6\n", ""),
    ("bad-entry-after-seen-tokens", "eval",
     "stack\ngate 2 2 1 2 / 1 2\n5 1/2\n1/2 5q\n", [],
     2, "", "error: line 4: bad rational '5q': Invalid literal for Fraction: '5q'\n"),
    # A repeated gate label names its gate's line; a bad entry of the same
    # gate is still reported first, and a later fault after it.
    ("repeated-column-label", "eval", "stack\ngate 1 2 1 / 5 5\n1 1\n", [],
     2, "", "error: line 2: repeated column label in (5, 5)\n"),
    ("repeated-row-before-column-label", "eval", "stack\ngate 2 2 1 1 / 5 5\n1 1\n1 1\n", [],
     2, "", "error: line 2: repeated row label in (1, 1)\n"),
    ("bad-entry-before-repeated-label", "eval", "stack\ngate 1 2 1 / 5 5\n1 q\n", [],
     2, "", "error: line 3: bad rational 'q': Invalid literal for Fraction: 'q'\n"),
    ("repeated-label-before-later-fault", "eval",
     "stack\ngate 1 2 1 / 5 5\n1 1\nstack\ngate 1 1 x / 1\n1\n", [],
     2, "", "error: line 2: repeated column label in (5, 5)\n"),
    ("gate-no-dimensions", "eval", "stack\ngate\n", [],
     2, "", "error: line 2: gate needs dimensions: gate r c <rows> / <cols>\n"),
    ("gate-no-separator", "eval", "stack\ngate 1 1 1 2\n5\n", [],
     2, "", "error: line 2: gate labels need a single / separator\n"),
    ("gate-two-separators", "eval", "stack\ngate 1 1 1 / 2 / 3\n5\n", [],
     2, "", "error: line 2: gate labels need a single / separator\n"),
    ("pfgate-no-size", "pfeval", "pfgate state\n", [],
     2, "", "error: line 1: pfgate needs: pfgate state|costate n <edges>\n"),
    ("stack-with-arguments", "eval", "stack x\n", [],
     2, "", "error: line 1: stack line takes no arguments\n"),
    ("wiring-no-colon", "eval", "stack\ngate 1 1 1 / 1\n5\nwiring 0 1->1\n", [],
     2, "", "error: line 4: wiring needs a colon: wiring k: a->b, ...\n"),
    ("graph-negative-count", "forests", "-1 2\n", [],
     2, "", "error: line 1: counts must be nonnegative\n"),
    ("gate-rows-cut-short", "eval", "stack\ngate 2 1 1 2 / 1\n5\n", [],
     2, "", "error: line 2: expected 2 matrix rows, file ended early\n"),
    ("pfgate-rows-cut-short", "pfeval", "pfgate state 2 1 2\n0 1\n", [],
     2, "", "error: line 1: expected 2 matrix rows, file ended early\n"),
    # The graph edge block names the last line read when it ends early and
    # the first line past the m edges when it runs on.
    ("graph-edges-cut-short", "forests", "3 2\n1 2\n", [],
     2, "", "error: line 2: expected 2 edge lines, file ended early\n"),
    ("graph-header-only", "forests", "3 1\n", [],
     2, "", "error: line 1: expected 1 edge lines, file ended early\n"),
    ("graph-trailing-edge", "forests", "2 1\n1 2\n\n# c\n2 1\n", [],
     2, "", "error: line 5: trailing content after last edge\n"),
    ("graph-no-edges-trailing", "forests", "2 0\n1 2\n", [],
     2, "", "error: line 2: trailing content after last edge\n"),
    ("unknown-field", "eval", "stack\ngate 1 1 1 / 1\n5\n", ["--field", "integer"],
     1, "", "usage error: argument --field: invalid choice: 'integer' "
            "(choose from 'rational', 'complex')\n"),
]


@pytest.mark.parametrize("verb, text, flags, code, out, err",
                         [case[1:] for case in PARSE_ERROR_TEXT],
                         ids=[case[0] for case in PARSE_ERROR_TEXT])
def test_cli_parse_error_text(tmp_path, verb, text, flags, code, out, err):
    path = tmp_path / "input"
    path.write_text(text)
    assert _run([verb, str(path)] + flags) == (code, out, err)


def _scan(gates) -> bool:
    return grid_is_exact(chain.from_iterable(g.entries for g in gates))


ENTRYLESS_CIRCUITS = ["", "stack\ngate 0 0 /\n", "stack\ngate 2 0 1 2 /\n\n\nstack\ngate 0 2 / 3 4\n"]


@pytest.mark.parametrize("field", ["rational", "complex"])
def test_parsed_field_agrees_with_the_scan(field):
    # A rational parse records its field; a complex one scans, and an
    # entry-less file scans True in either field.
    rng = random.Random(32)
    texts = [write_circuit(rand_circuit(rng, field=field)) for _ in range(40)] + ENTRYLESS_CIRCUITS
    for text in texts:
        c = parse_circuit(text, field)
        assert c.exact == _scan([g for s in c.stacks for g in s.gates])
        pc = parse_pfaffian(write_pfaffian(compile_circuit(c).target), field)
        assert pc.exact == _scan(pc.states + pc.costates)
    for text in ENTRYLESS_CIRCUITS:
        assert parse_circuit(text, field).exact


def test_rational_parse_skips_the_scan_and_a_hand_built_circuit_scans():
    c = parse_circuit((DATA / "ring3.circuit").read_text())
    pc = parse_pfaffian(write_pfaffian(compile_circuit(c).target))
    with patch("detcircuits.circuit.grid_is_exact", side_effect=AssertionError), \
            patch("detcircuits.pfaffian.grid_is_exact", side_effect=AssertionError):
        assert c.exact and pc.exact
    # The recorded field is not one of the circuit's fields: equality, hash
    # and repr are those of the same circuit built by hand, which scans.
    for parsed, hand_built in ((c, Circuit(c.stacks, c.wirings)),
                               (pc, PfaffianCircuit(pc.states, pc.costates))):
        assert hand_built.exact and hand_built == parsed
        assert (hash(hand_built), repr(hand_built)) == (hash(parsed), repr(parsed))
    # Built by hand with a complex gate, they scan complex.
    complex_stacks = tuple([Stack(tuple([labeled(g.rows, g.cols, [[complex(x) for x in row]
                                                                  for row in g.entries])
                                         for g in s.gates])) for s in c.stacks])
    assert not Circuit(complex_stacks, c.wirings).exact
    complex_states = tuple([skew(g.labels, [[complex(x) for x in row] for row in g.entries])
                            for g in pc.states])
    assert not PfaffianCircuit(complex_states, pc.costates).exact


@pytest.mark.parametrize("parse, text", [
    (parse_circuit, "stack\ngate 1 1 1 / 1\n5\n"),
    (parse_circuit, ""),
    (parse_circuit, "gate 1 1 1 / 1\n5\n"),
    (parse_pfaffian, "pfgate state 2 1 2\n0 1\n-1 0\n"),
    (parse_pfaffian, "pfgate state 0\npfgate costate 0\n"),
    (parse_pfaffian, "stack\n"),
], ids=["circuit-entries", "circuit-empty", "circuit-bad-line",
        "pfaffian-entries", "pfaffian-no-entries", "pfaffian-bad-line"])
@pytest.mark.parametrize("field", ["Rational", "integer", "bogus"])
def test_parse_unknown_field_is_refused_before_any_line(parse, text, field):
    # The field is checked before a line is read: not blamed on the file,
    # and not accepted by a file with no entries.
    with pytest.raises(ValueError) as want:
        parse_scalar("0", field)
    with pytest.raises(ValueError) as got:
        parse(text, field)
    assert type(got.value) is ValueError and str(got.value) == str(want.value)
    assert str(got.value) == f"unknown field {field!r}"
