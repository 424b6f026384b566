"""Command-line front end.

Verbs on circuit files: eval (fast determinant path), oracle (exponential
tensor contraction), check (fast vs oracle vs multicycle total), multicycles
(list weights), compile (emit a Pfaffian circuit file).  On Pfaffian files:
pfeval.  On graph files: forests, trees, poly.

The command line is described once, in _VERBS.  A well-formed argv, `verb
path [option value]...` with each option spelled in full at most once, is
read in one pass by _plain_args.  Everything else (help, usage errors, and
the other spellings argparse accepts, such as `--fi`, `--field=complex` or
`--`) goes to an argparse parser built from the same table on first use,
with its help fixed at 78 columns.

Exit codes: 0 success, 1 usage error, 2 parse, validation, I/O or size
failure, a non-finite complex result or a compiled entry too long to
print, 3 value mismatch in check.  A run reads its arguments and file
under a 4300-digit limit on integers; every verb but compile lifts the
limit once the file is read, so an exact result prints whole, however
many digits it has.  All output is deterministic.
"""

from __future__ import annotations

import sys
from functools import cache
from types import SimpleNamespace

from .circuit import evaluate
from .compiler import compile_circuit
from .errors import ParseError, ValidationError
from .formats import (
    _lines,
    parse_circuit,
    parse_graph,
    parse_pfaffian,
    write_pfaffian,
)
from .pfaffian import eval_pfaffian_circuit
from .scalars import format_scalar, scalars_equal

# Each option: its flags, dest, choices (a tuple), type (int) or None for
# any string, default and help.
_FIELD = (("--field",), "field", ("rational", "complex"), "rational",
          "scalar field of the file")
_OUTPUT = (("-o", "--output"), "output", None, None,
           "output path (default: input path + .pf)")
_SEED = (("--orientation-seed",), "orientation_seed", int, None,
         "re-randomize edge directions (counts are invariant)")

# Each verb: the kind of file it reads, its help and its options.
_VERBS = {
    "eval": ("circuit", "evaluate a closed circuit (polynomial time)", (_FIELD,)),
    "oracle": ("circuit", "evaluate by brute-force tensor contraction", (_FIELD,)),
    "check": ("circuit", "compare fast value, oracle, and multicycle total", (_FIELD,)),
    "multicycles": ("circuit", "list nonzero multicycles and their weights", (_FIELD,)),
    "compile": ("circuit", "compile to a Pfaffian circuit file", (_FIELD, _OUTPUT)),
    "pfeval": ("pfaffian", "evaluate a Pfaffian circuit file", (_FIELD,)),
    "forests": ("graph", "count rooted spanning forests", (_SEED,)),
    "trees": ("graph", "count spanning trees", (_SEED,)),
    "poly": ("graph", "forest polynomial coefficients, ascending in roots", (_SEED,)),
}


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give a well-formed argv, or None.

    Well formed is a verb, a path, then option-value pairs: each option
    spelled out in full, at most once, with a valid value.  No path or value
    may start with "-", so none can be an option or a negative number."""
    if len(argv) < 2 or len(argv) % 2 or argv[0] not in _VERBS or argv[1][:1] == "-":
        return None
    options = _VERBS[argv[0]][2]
    ns = {"verb": argv[0], "path": argv[1]}
    for _, dest, _, default, _ in options:
        ns[dest] = default
    seen = set()
    for flag, value in zip(argv[2::2], argv[3::2]):
        for flags, dest, kind, _, _ in options:
            if flag in flags:
                break
        else:
            return None
        if dest in seen or value[:1] == "-":
            return None
        seen.add(dest)
        if kind is int:
            try:
                value = int(value)
            except ValueError:  # a bad seed, or one over the digit limit
                return None
        elif kind is not None and value not in kind:
            return None
        ns[dest] = value
    return SimpleNamespace(**ns)


class _UsageError(Exception):
    pass


@cache
def _argparser():
    """The argparse parser for _VERBS, built on first use: help, usage
    errors and the spellings _plain_args leaves alone are all it reads."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would exit(2); we want exit code 1
            raise _UsageError(message)

    # The width argparse would take from COLUMNS or the terminal, fixed at
    # the 80-column default: help is the same bytes in every shell.
    def fixed(prog):
        return argparse.HelpFormatter(prog, width=78)

    p = Parser(prog="detcirc", formatter_class=fixed,
               description="evaluate determinantal circuits, compile them "
                           "to Pfaffian form, and count spanning forests")
    sub = p.add_subparsers(dest="verb", required=True, metavar="verb")
    for verb, (file_kind, verb_help, options) in _VERBS.items():
        sp = sub.add_parser(verb, help=verb_help, formatter_class=fixed)
        sp.add_argument("path", help=f"{file_kind} file")
        for flags, dest, kind, default, help_text in options:
            check = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sp.add_argument(*flags, dest=dest, default=default, help=help_text, **check)
    return p


# Every run reads integers of up to this many digits, whatever limit the
# interpreter started with (PYTHONINTMAXSTRDIGITS, -X option).
INT_MAX_STR_DIGITS = 4300


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the first bad one decode, and are cut into lines
        # as the parsers cut them.
        line = len(_lines(data[:exc.start].decode("utf-8")))
        raise ParseError(line, f"{path} is not UTF-8 text ({exc.reason})") from None
    # A byte-order mark at the start is dropped; one anywhere else stays in
    # the text, where the parser refuses it.  The "utf-8-sig" codec would do
    # the same, but it loads a Python codec module on first use and decodes
    # ten times slower.
    return text.removeprefix("\ufeff")


def _run(ns) -> int:
    # Every verb reads and parses its one file before it prints anything.
    # graphs and tensor are imported only by the verbs that run them, each
    # as a module: once loaded, that import costs about a fifth of a `from
    # .graphs import` of its functions (0.3 against 1.4 µs under CPython
    # 3.11), which a graph verb would pay on each run.
    text = _read(ns.path)
    kind = _VERBS[ns.verb][0]
    if kind == "graph":
        import detcircuits.graphs as graphs
        g = parse_graph(text)
        if ns.orientation_seed is not None:
            g = graphs.reorient(g, ns.orientation_seed)
    else:
        if kind == "pfaffian":
            pc = parse_pfaffian(text, ns.field)
        else:
            c = parse_circuit(text, ns.field)
        if ns.verb in ("oracle", "check", "multicycles"):
            import detcircuits.tensor as tensor
        # A complex run prints every value complex, the exact 1 of no entries too.
        show = str if ns.field == "rational" else lambda x: format_scalar(complex(x))
    # The digit limit bounds the work a token in the file can force.  Once
    # the file is read, every verb but compile lifts it, so a result or an
    # error message prints whatever its length; main gives the caller's
    # limit back.  compile keeps it, since pfeval reads its file under it.
    if ns.verb != "compile":
        sys.set_int_max_str_digits(0)
    if ns.verb == "eval":
        print(show(evaluate(c)))
    elif ns.verb == "oracle":
        print(show(tensor.contract_circuit(c)))
    elif ns.verb == "check":
        fast = evaluate(c)
        slow = tensor.contract_circuit(c)
        cyc = tensor.multicycle_total(c)
        if not (scalars_equal(fast, slow) and scalars_equal(fast, cyc)):
            print("mismatch: eval={} oracle={} multicycles={}".format(
                show(fast), show(slow), show(cyc)), file=sys.stderr)
            return 3
        print(f"ok {show(fast)}")
    elif ns.verb == "multicycles":
        cycles = tensor.enumerate_multicycles(c)
        # Every line is formatted before any is printed: a non-finite weight
        # raises, and stdout stays empty.
        lines = []
        for mc in cycles:
            sup = " ".join(f"{k}:{lab}" for k, lab in sorted(mc.support))
            lines.append(f"({sup}) {show(mc.weight)}")
        lines.append(f"total {show(sum(mc.weight for mc in cycles))}")
        print("\n".join(lines))
    elif ns.verb == "compile":
        compiled = compile_circuit(c)
        # Formatted under the digit limit, which pfeval reads it back with,
        # before the file is opened: an entry too long to print raises, and
        # no output file is created or truncated.
        text = write_pfaffian(compiled.target)
        out_path = ns.output if ns.output else ns.path + ".pf"
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"size_ratio {format_scalar(compiled.size_ratio)}")
    elif ns.verb == "pfeval":
        print(show(eval_pfaffian_circuit(pc)))
    elif ns.verb == "forests":
        print(graphs.count_rooted_forests(g))
    elif ns.verb == "trees":
        print(graphs.count_spanning_trees(g))
    elif ns.verb == "poly":
        print(*graphs.forest_polynomial(g).coefficients)
    else:  # pragma: no cover - both readers enforce the verb set
        raise AssertionError(ns.verb)
    return 0


def main(argv: list[str] | None = None) -> int:
    # The digit limit decides which integers parse, arguments included: a
    # run sets its own, lifts it once its file is read, then sets the caller's.
    caller_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(INT_MAX_STR_DIGITS)
    if argv is None:
        argv = sys.argv[1:]
    try:
        return _run(_plain_args(argv) or _argparser().parse_args(argv))
    except _UsageError as exc:  # raised by parse_args only, as is SystemExit
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # -h/--help: argparse printed the help to stdout
        return exc.code
    except (ParseError, ValidationError, OSError, OverflowError,
            MemoryError) as exc:  # only a MemoryError has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(caller_limit)


def console_main() -> None:
    sys.exit(main())
