"""Command-line front end.

Verbs on circuit files: eval (fast determinant path), oracle (exponential
tensor contraction), check (fast vs oracle vs multicycle total), multicycles
(list weights), compile (emit a Pfaffian circuit file).  On Pfaffian files:
pfeval.  On graph files: forests, trees, poly.

Exit codes: 0 success, 1 usage error, 2 parse, validation, I/O or size
failure, a non-finite complex result or an exact result too long to print,
3 value mismatch in check.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import sys

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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit code 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="detcirc",
                description="evaluate determinantal circuits, compile them "
                            "to Pfaffian form, and count spanning forests")
    sub = p.add_subparsers(dest="verb", required=True, metavar="verb")

    def circuit_verb(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("path", help="circuit file")
        sp.add_argument("--field", choices=("rational", "complex"),
                        default="rational", help="scalar field of the file")
        return sp

    def graph_verb(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("path", help="graph file")
        sp.add_argument("--orientation-seed", type=int, default=None,
                        help="re-randomize edge directions (counts are invariant)")
        return sp

    circuit_verb("eval", "evaluate a closed circuit (polynomial time)")
    circuit_verb("oracle", "evaluate by brute-force tensor contraction")
    circuit_verb("check", "compare fast value, oracle, and multicycle total")
    circuit_verb("multicycles", "list nonzero multicycles and their weights")
    sp = circuit_verb("compile", "compile to a Pfaffian circuit file")
    sp.add_argument("-o", "--output",
                    help="output path (default: input path + .pf)")

    sp = sub.add_parser("pfeval", help="evaluate a Pfaffian circuit file")
    sp.add_argument("path", help="pfaffian file")
    sp.add_argument("--field", choices=("rational", "complex"),
                    default="rational", help="scalar field of the file")

    graph_verb("forests", "count rooted spanning forests")
    graph_verb("trees", "count spanning trees")
    graph_verb("poly", "forest polynomial coefficients, ascending in roots")
    return p


# Built once: parse_args keeps no state between calls, and building the
# tree costs more than a small eval.
_PARSER = _build_parser()

# Every run reads and prints integers of up to this many digits, whatever
# limit the interpreter started with (PYTHONINTMAXSTRDIGITS, -X option).
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
    if ns.verb in ("forests", "trees", "poly"):
        import detcircuits.graphs as graphs
        g = parse_graph(text)
        if ns.orientation_seed is not None:
            g = graphs.reorient(g, ns.orientation_seed)
    else:
        if ns.verb == "pfeval":
            pc = parse_pfaffian(text, ns.field)
        else:
            c = parse_circuit(text, ns.field)
        if ns.verb in ("oracle", "check", "multicycles"):
            import detcircuits.tensor as tensor
        # A complex run prints every value complex, the exact 1 of no entries too.
        show = format_scalar if ns.field == "rational" else lambda x: format_scalar(complex(x))
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
        # Formatted before the file is opened: an entry too long to print
        # raises, and no output file is created or truncated.
        text = write_pfaffian(compiled.target)
        out_path = ns.output if ns.output else ns.path + ".pf"
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"size_ratio {format_scalar(compiled.size_ratio)}")
    elif ns.verb == "pfeval":
        print(show(eval_pfaffian_circuit(pc)))
    elif ns.verb == "forests":
        print(format_scalar(graphs.count_rooted_forests(g)))
    elif ns.verb == "trees":
        print(format_scalar(graphs.count_spanning_trees(g)))
    elif ns.verb == "poly":
        print(" ".join([format_scalar(c) for c in graphs.forest_polynomial(g).coefficients]))
    else:  # pragma: no cover - argparse enforces the verb set
        raise AssertionError(ns.verb)
    return 0


def main(argv: list[str] | None = None) -> int:
    # The digit limit decides which integers parse, arguments included, and
    # which exact values print: a run sets its own, then the caller's again.
    caller_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(INT_MAX_STR_DIGITS)
    try:
        return _run(_PARSER.parse_args(argv))
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
