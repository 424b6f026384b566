"""Line-oriented text formats for circuits, Pfaffian circuits, and graphs.

All parsers report 1-based line numbers in ParseError.  Writers are
deterministic: the same object always serializes to the same bytes, so
round-trip tests can compare output verbatim.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

from .circuit import Circuit, Stack, identity_wiring
from .errors import DuplicateLabel, ParseError, SizeMismatch, ValidationError
from .labeled import LabeledMatrix, _trusted
from .pfaffian import PfaffianCircuit, SkewMatrix
from .scalars import Scalar, _check_field, _name, format_scalar, parse_scalar

if TYPE_CHECKING:  # the annotations name it; parse_graph imports graphs itself
    from .graphs import Graph


def _lines(text: str) -> list[str]:
    """text cut into lines at \\n, \\r\\n and \\r only.  str.splitlines also
    ends a line at \\x0b, \\x0c, \\x1c-\\x1e, \\x85, U+2028 and U+2029, which
    may stand inside a comment or between tokens."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _significant(text: str):
    """Yield (lineno, stripped line) skipping blanks and # comments."""
    for no, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield no, line


def _parse_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"expected integer {what}, got {_name(tok)}") from None


def _parse_ints(toks: list[str], lineno: int, what: str) -> list[int]:
    """All tokens as ints in one C-level pass; only on a bad token does it
    go token by token, so the error names the first bad one."""
    try:
        return list(map(int, toks))
    except ValueError:
        return [_parse_int(tok, lineno, what) for tok in toks]


def _parse_grid(lines, r: int, c: int, field: str, lineno: int,
                memo: dict[str, Scalar]) -> tuple[tuple[Scalar, ...], ...]:
    """Read r rows of c scalars.  parse_scalar reads integer tokens as int,
    other rationals as Fraction and complex tokens as complex, so a rational
    grid holds ints and Fractions, a complex grid only complex values, and
    neither needs normalization.  `memo` maps each token already read in
    this file to its value, so parse_scalar runs once per distinct token
    (a file has few: mostly 0 and small integers).
    Empty rows (c = 0) read no lines: write_circuit writes them blank."""
    if c == 0:
        return ((),) * r
    grid = []
    for _ in range(r):
        try:
            no, line = next(lines)
        except StopIteration:
            raise ParseError(lineno, f"expected {r} matrix rows, file ended early") from None
        toks = line.split()
        if len(toks) != c:
            raise ParseError(no, f"expected {c} entries, got {len(toks)}")
        try:
            # A miss tests membership and falls through, with no KeyError
            # raised: complex tokens seldom repeat, so misses are common there.
            grid.append(tuple([memo[tok] if tok in memo
                               else memo.setdefault(tok, parse_scalar(tok, field))
                               for tok in toks]))
        except ValueError as exc:
            raise ParseError(no, str(exc)) from None
    return tuple(grid)


# ---------------------------------------------------------------- circuits

def parse_circuit(text: str, field: str = "rational") -> Circuit:
    """Parse the circuit format.

    Layout: `stack` opens a stack; `gate r c <r row labels> / <c col labels>`
    followed by r rows of c scalars adds a gate to the open stack;
    `wiring k: a->b, c->d` gives the wire bijection out of stack k.  Gaps
    with no wiring line default to the sorted-label identity pairing.
    """
    _check_field(field)  # an unknown field is refused before a line is read
    lines = _significant(text)
    memo: dict[str, Scalar] = {}
    stacks: list[list[LabeledMatrix]] = []
    stack_lines: list[int] = []
    wirings: dict[int, tuple[tuple[int, int], ...]] = {}
    wiring_lines: dict[int, int] = {}
    for no, line in lines:
        toks = line.split()
        head = toks[0]
        if head == "stack":
            if len(toks) != 1:
                raise ParseError(no, "stack line takes no arguments")
            stacks.append([])
            stack_lines.append(no)
        elif head == "gate":
            if not stacks:
                raise ParseError(no, "gate before any stack line")
            if len(toks) < 3:
                raise ParseError(no, "gate needs dimensions: gate r c <rows> / <cols>")
            r = _parse_int(toks[1], no, "row count")
            c = _parse_int(toks[2], no, "column count")
            if r < 0 or c < 0:
                raise ParseError(no, f"row and column counts must be nonnegative, "
                                     f"got {_name(r)} and {_name(c)}")
            rest = toks[3:]
            if rest.count("/") != 1:
                raise ParseError(no, "gate labels need a single / separator")
            cut = rest.index("/")
            row_toks, col_toks = rest[:cut], rest[cut + 1:]
            if len(row_toks) != r or len(col_toks) != c:
                raise ParseError(
                    no, f"expected {_name(r)} row labels and {_name(c)} column labels, "
                        f"got {len(row_toks)} and {len(col_toks)}")
            rows = tuple(_parse_ints(row_toks, no, "row label"))
            cols = tuple(_parse_ints(col_toks, no, "column label"))
            grid = _parse_grid(lines, r, c, field, no, memo)
            try:
                stacks[-1].append(LabeledMatrix(rows, cols, grid))
            except DuplicateLabel as exc:
                raise ParseError(no, str(exc)) from None
        elif head == "wiring":
            body = line[len("wiring"):].strip()
            if ":" not in body:
                raise ParseError(no, "wiring needs a colon: wiring k: a->b, ...")
            k_part, _, pairs_part = body.partition(":")
            k = _parse_int(k_part.strip(), no, "wiring index")
            if k in wirings:
                raise ParseError(no, f"duplicate wiring {_name(k)}")
            pairs_part = pairs_part.strip()
            wirings[k] = tuple(_parse_wiring_pairs(pairs_part, no) if pairs_part else [])
            wiring_lines[k] = no
        else:
            raise ParseError(no, f"unknown directive {_name(head)}")

    m = len(stacks)
    for k in wirings:
        if not (0 <= k < m):
            raise ParseError(wiring_lines[k],
                             f"wiring {_name(k)} out of range for {m} stacks")
    built_stacks = tuple([Stack(tuple(gates)) for gates in stacks])
    full_wirings = []
    for k in range(m):
        if k in wirings:
            full_wirings.append(wirings[k])
        else:
            src = built_stacks[k].out_labels
            dst = built_stacks[(k + 1) % m].in_labels
            try:
                full_wirings.append(identity_wiring(src, dst))
            except SizeMismatch:
                raise ParseError(
                    stack_lines[k], f"no wiring {k} and boundary sizes differ "
                       f"({len(src)} outputs vs {len(dst)} inputs)") from None
    circuit = Circuit(built_stacks, tuple(full_wirings))
    if field == "rational":  # parse_scalar gave every entry as an int or a Fraction
        object.__setattr__(circuit, "_exact", True)
    return circuit


def _parse_wiring_pairs(body: str, lineno: int) -> list[tuple[int, int]]:
    """The `a->b, c->d` pairs of a wiring line.  int() skips the spaces
    around each end.  A pair with no arrow leaves an empty second end and
    one with two arrows leaves an arrow in it, so neither reads as an int
    and the one-pass read fails on every malformed pair; the pair by pair
    pass then names the first one."""
    try:
        return [(int(a), int(b)) for a, _, b in
                [chunk.partition("->") for chunk in body.split(",")]]
    except ValueError:
        pass
    pairs = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if "->" not in chunk:
            raise ParseError(lineno, f"bad wiring pair {_name(chunk)}, expected a->b")
        a_tok, _, b_tok = chunk.partition("->")
        pairs.append((_parse_int(a_tok.strip(), lineno, "wire label"),
                      _parse_int(b_tok.strip(), lineno, "wire label")))
    return pairs


def write_circuit(c: Circuit) -> str:
    out = []
    for stack in c.stacks:
        out.append("stack")
        for g in stack.gates:
            r, cc = g.shape
            out.append("gate {} {} {} / {}".format(
                r, cc,
                " ".join(str(l) for l in g.rows),
                " ".join(str(l) for l in g.cols)))
            for row in g.entries:
                out.append(" ".join(format_scalar(x) for x in row))
    for k, wiring in enumerate(c.wirings):
        pairs = ", ".join(f"{a}->{b}" for a, b in wiring)
        out.append(f"wiring {k}: {pairs}" if pairs else f"wiring {k}:")
    return "\n".join(out) + "\n" if out else ""


# ------------------------------------------------------- pfaffian circuits

def parse_pfaffian(text: str, field: str = "rational") -> PfaffianCircuit:
    """Parse `pfgate state|costate n <n edge ids>` blocks with n x n grids.
    The blocks may come in any order; each side keeps its blocks' order."""
    _check_field(field)  # an unknown field is refused before a line is read
    lines = _significant(text)
    memo: dict[str, Scalar] = {}
    sides: dict[str, list[SkewMatrix]] = {"state": [], "costate": []}
    for no, line in lines:
        toks = line.split()
        if toks[0] != "pfgate":
            raise ParseError(no, f"expected pfgate, got {_name(toks[0])}")
        if len(toks) < 3:
            raise ParseError(no, "pfgate needs: pfgate state|costate n <edges>")
        kind = toks[1]
        if kind not in sides:
            raise ParseError(no, f"pfgate kind must be state or costate, got {_name(kind)}")
        n = _parse_int(toks[2], no, "size")
        if n < 0:
            raise ParseError(no, f"size must be nonnegative, got {_name(n)}")
        edge_toks = toks[3:]
        if len(edge_toks) != n:
            raise ParseError(no, f"expected {_name(n)} edge ids, got {len(edge_toks)}")
        edges = tuple(_parse_ints(edge_toks, no, "edge id"))
        for e in edges:
            if e < 1:
                raise ParseError(no, f"edge ids are positive, got {_name(e)}")
        grid = _parse_grid(lines, n, n, field, no, memo)
        try:
            sides[kind].append(SkewMatrix(edges, grid))
        except (ValidationError, ValueError) as exc:
            raise ParseError(no, str(exc)) from None
    pc = PfaffianCircuit(tuple(sides["state"]), tuple(sides["costate"]))
    if field == "rational":  # parse_scalar gave every entry as an int or a Fraction
        object.__setattr__(pc, "_exact", True)
    return pc


def write_pfaffian(pc: PfaffianCircuit) -> str:
    out = []
    for kind, gates in (("state", pc.states), ("costate", pc.costates)):
        for g in gates:
            out.append("pfgate {} {} {}".format(
                kind, g.size, " ".join(str(e) for e in g.labels)).rstrip())
            # format_scalar prints an int as str does; the zeros that fill
            # most gadgets are ints, so calling str on them skips a Python call.
            for row in g.entries:
                out.append(" ".join([str(x) if type(x) is int else format_scalar(x)
                                     for x in row]))
    return "\n".join(out) + "\n" if out else ""


# ------------------------------------------------------------------ graphs

def parse_graph(text: str) -> Graph:
    """Parse `n m` then m lines `u v` (1-based, oriented u to v as listed).

    A well-formed file is read in C-level passes: every line is split, the
    blank ones (no token) and, if the text has a #, the comments are dropped,
    each line left must hold two tokens, one map(int, ...) converts them all,
    the counts are compared and graphs._check_edges tests the endpoints as
    whole lists.  Only when that read fails does _walk_graph go line by
    line, so the error names the first faulty line."""
    import detcircuits.graphs as graphs  # loaded by the graph verbs only
    pairs = list(filter(None, map(str.split, _lines(text))))
    if "#" in text:
        pairs = [toks for toks in pairs if toks[0][0] != "#"]
    if pairs and set(map(len, pairs)) == {2}:
        try:
            n, m, *ends = map(int, chain.from_iterable(pairs))
            tails, heads = ends[::2], ends[1::2]
            if m == len(tails):
                graphs._check_edges(n, tails, heads)  # and that n >= 0
                return _trusted(graphs.Graph, vertex_count=n,
                                edges=tuple(list(zip(tails, heads))))
        except (ValueError, ValidationError):
            pass
    return _walk_graph(text)


def _walk_graph(text: str) -> Graph:
    """parse_graph line by line: a ParseError at the first faulty line."""
    import detcircuits.graphs as graphs
    lines = _significant(text)
    try:
        no, line = next(lines)
    except StopIteration:
        raise ParseError(1, "empty graph file, expected header n m") from None
    toks = line.split()
    if len(toks) != 2:
        raise ParseError(no, "header must be: n m")
    n = _parse_int(toks[0], no, "vertex count")
    m = _parse_int(toks[1], no, "edge count")
    if n < 0 or m < 0:
        raise ParseError(no, "counts must be nonnegative")
    edges = []
    for no, line in lines:
        if len(edges) == m:
            raise ParseError(no, "trailing content after last edge")
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(no, "edge line must be: u v")
        u, v = _parse_ints(toks, no, "endpoint")
        try:
            graphs._check_edges(n, [u], [v])
        except ValidationError as exc:
            raise ParseError(no, str(exc)) from None
        edges.append((u, v))
    if len(edges) < m:
        raise ParseError(no, f"expected {_name(m)} edge lines, file ended early")
    return graphs.Graph(n, tuple(edges))


def write_graph(g: Graph) -> str:
    out = [f"{g.vertex_count} {len(g.edges)}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
