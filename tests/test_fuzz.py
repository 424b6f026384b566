"""Fuzzing of the three parsers and of every `detcirc` verb.

The inputs are built from the formats' own tokens, so most examples get
past the first line.  Every integer the generator emits stays below 100:
a vertex count or edge id of millions would make even a correct program
allocate gigabytes for its n x n matrix.
"""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcircuits import ParseError, ValidationError, parse_circuit, parse_graph, parse_pfaffian
from detcircuits import tensor
from detcircuits.cli import main

small_int = st.integers(-2, 99).map(str)
label_list = st.lists(st.integers(0, 12).map(str), max_size=4).map(" ".join)
scalar = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-3/4", "1/0", "0/5", "i", "-i", "1+2i", "2.5-1i",
                     "2.5", "1e99", "1e5000", "1e-99", "-1e-99i", "nan", "inf", "-infi",
                     "x", "/", "+", "->"]),
)
entry_row = st.lists(scalar, max_size=4).map(" ".join)
junk = st.lists(st.one_of(small_int, scalar, st.sampled_from(
    ["stack", "gate", "wiring", "pfgate", "state", "costate", "#", ":", ","])),
    min_size=1, max_size=5).map(" ".join)

circuit_line = st.one_of(
    st.just("stack"),
    st.builds("gate {} {} {} / {}".format, st.integers(-1, 3), st.integers(-1, 3),
              label_list, label_list),
    st.builds(lambda k, pairs: f"wiring {k}: " + ", ".join(f"{a}->{b}" for a, b in pairs),
              st.integers(-1, 3), st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                                           max_size=4)),
    entry_row, junk,
)
pf_line = st.one_of(
    st.builds("pfgate {} {} {}".format, st.sampled_from(["state", "costate", "x"]),
              st.integers(-1, 4), st.lists(st.integers(-1, 12).map(str), max_size=4).map(" ".join)),
    entry_row, junk,
)
graph_line = st.one_of(
    st.builds("{} {}".format, small_int, small_int),
    st.builds("{} {}".format, st.integers(0, 12), st.integers(0, 12)),
    junk,
)


NEGATED = {"1/2": "-1/2", "-3/4": "3/4", "i": "-i", "1-2i": "-1+2i"}
NEGATED.update({str(k): str(-k) for k in range(-3, 4)})
GOOD = {"rational": [str(k) for k in range(-3, 4)] + ["1/2", "-3/4"],
        "complex": [str(k) for k in range(-3, 4)] + ["i", "1-2i"]}
token = st.one_of(small_int, scalar, st.sampled_from(["stack", "gate", "/", ":", "->", ""]))


@st.composite
def _mutated(draw, lines):
    """Apply up to two edits: delete or repeat a line, or overwrite a token."""
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "repeat", "token"]))
        if edit == "delete":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            toks = lines[i].split() or [""]
            toks[draw(st.integers(0, len(toks) - 1))] = draw(token)
            lines[i] = " ".join(toks)
    return "\n".join(lines)


@st.composite
def _well_formed_circuit(draw, field):
    """A ring of one-gate stacks joined by the default sorted-label wiring."""
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    lines, label = [], 1
    for k, c in enumerate(widths):
        r = widths[(k + 1) % len(widths)]
        rows, cols = range(label, label + r), range(label + r, label + r + c)
        label += r + c
        lines += ["stack", "gate {} {} {} / {}".format(
            r, c, " ".join(map(str, rows)), " ".join(map(str, cols)))]
        entry = st.sampled_from(GOOD[field])
        lines += [" ".join(draw(st.lists(entry, min_size=c, max_size=c))) for _ in range(r)]
    return draw(_mutated(lines))


@st.composite
def _well_formed_pfaffian(draw, field):
    """Edges 1..e split into state gates and, separately, costate gates."""
    edges = list(range(1, draw(st.integers(0, 5)) + 1))
    lines = []
    for kind in ("state", "costate"):
        order = draw(st.permutations(edges))
        cuts = sorted(draw(st.lists(st.integers(0, len(order)), max_size=2)))
        for part in (order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)])):
            lines.append(f"pfgate {kind} {len(part)} " + " ".join(map(str, part)))
            upper = {(i, j): draw(st.sampled_from(GOOD[field]))
                     for i in range(len(part)) for j in range(i + 1, len(part))}
            lines += [" ".join("0" if i == j else upper[i, j] if i < j else NEGATED[upper[j, i]]
                               for j in range(len(part))) for i in range(len(part))]
    return draw(_mutated(lines))


@st.composite
def _well_formed_graph(draw):
    n = draw(st.integers(0, 12))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=20)) if n > 1 else []
    return draw(_mutated([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]))


def _soup(line):
    return st.lists(line, max_size=14).map("\n".join)


def _field_and_text(line, well_formed):
    """(field, text) pairs: a mutated well-formed file or a soup of lines."""
    return st.sampled_from(["rational", "complex"]).flatmap(
        lambda field: st.tuples(st.just(field), st.one_of(well_formed(field), _soup(line))))


circuit_text = _field_and_text(circuit_line, _well_formed_circuit)
pf_text = _field_and_text(pf_line, _well_formed_pfaffian)
graph_text = st.one_of(_well_formed_graph(), _soup(graph_line))


def _parses_or_refuses(parse, *args):
    try:
        parse(*args)
    except (ParseError, ValidationError):
        pass


@given(circuit_text)
@settings(max_examples=150, deadline=None)
def test_parse_circuit_raises_only_parse_or_validation(case):
    field, text = case
    _parses_or_refuses(parse_circuit, text, field)


@given(pf_text)
@settings(max_examples=150, deadline=None)
def test_parse_pfaffian_raises_only_parse_or_validation(case):
    field, text = case
    _parses_or_refuses(parse_pfaffian, text, field)


@given(graph_text)
@settings(max_examples=150, deadline=None)
def test_parse_graph_raises_only_parse_or_validation(text):
    _parses_or_refuses(parse_graph, text)


@given(st.text(max_size=60), st.sampled_from(["rational", "complex"]))
@settings(max_examples=200, deadline=None)
def test_parsers_on_arbitrary_text(text, field):
    _parses_or_refuses(parse_circuit, text, field)
    _parses_or_refuses(parse_pfaffian, text, field)
    _parses_or_refuses(parse_graph, text)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(workdir, text, argv):
    path = workdir / "input"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(tensor, "ORACLE_CAP", 8), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{}", str(path)) for a in argv])
    if code == 2:
        assert err.getvalue().startswith("error: ")
    return code


@given(circuit_text, st.sampled_from(["eval", "oracle", "check", "multicycles", "compile"]))
@settings(max_examples=200, deadline=None)
def test_circuit_verbs_exit_codes(workdir, case, verb):
    field, text = case
    argv = [verb, "{}", "--field", field]
    if verb == "compile":
        argv += ["-o", "{}.pf"]
    assert _exit_code(workdir, text, argv) in (0, 2, 3)


@given(pf_text)
@settings(max_examples=200, deadline=None)
def test_pfeval_exit_codes(workdir, case):
    field, text = case
    assert _exit_code(workdir, text, ["pfeval", "{}", "--field", field]) in (0, 2)


@given(graph_text, st.sampled_from(["forests", "trees", "poly"]))
@settings(max_examples=200, deadline=None)
def test_graph_verbs_exit_codes(workdir, text, verb):
    assert _exit_code(workdir, text, [verb, "{}"]) in (0, 2)


@given(st.lists(st.sampled_from(["eval", "pfeval", "forests", "--field", "complex",
                                 "--orientation-seed", "x", "-o", "{}", "--bogus"]),
                max_size=5))
@settings(max_examples=150, deadline=None)
def test_any_argv_exit_codes(workdir, argv):
    assert _exit_code(workdir, "stack\ngate 1 1 1 / 1\n2\n", argv) in (0, 1, 2, 3)
