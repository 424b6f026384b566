"""The one-pass argv reader agrees with argparse, and help is fixed.

`cli._plain_args` reads a well-formed `detcirc` argv without argparse.
Whenever it returns a namespace, the namespace must equal the one the
argparse parser (built from the same `_VERBS` table) gives for that argv.
The argv shapes the benchmark and the golden corpus run must take that
path.  Help text is fixed at 78 columns, whatever COLUMNS says.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from detcircuits.cli import _VERBS, _argparser, _plain_args

SRC = Path(__file__).resolve().parent.parent / "src"

FLAGS = list(dict.fromkeys(flag for _, _, options in _VERBS.values()
                           for opt in options for flag in opt[0]))
# Abbreviations and = forms argparse accepts, and words that end its options.
SPELLINGS = ["--fi", "--f", "--out", "--o", "--orientation", "--orient", "--field=complex",
             "--output=q", "--orientation-seed=7", "-oq", "--", "-h", "--help"]
PATHS = ["x", "-", "", "p.circuit"]
# Values valid for some option or for none: bad, negative, past the digit limit.
VALUES = ["rational", "complex", "integer", "7", "0", "+7", " 7", "7_0", "x", "", "-", "-7",
          "q.pf", "7" * 5000]
DASHED = FLAGS + SPELLINGS


def _valid_value(option):
    """Values argparse takes for option."""
    _, _, choices, _, _ = option
    if choices is None:
        return st.sampled_from(["q.pf", "out", ""])
    return st.sampled_from(choices)


@st.composite
def shaped(draw):
    """verb path [flag value]..., well formed, then perhaps one word swapped
    for one that may not fit its place (an unknown verb, a path or value
    that starts with "-", another verb's flag, an abbreviation, an = form,
    `--`, `-h`, a bad or negative value), perhaps an extra argument or a
    repeated option, and perhaps cut short."""
    verb = draw(st.sampled_from(list(_VERBS)))
    argv = [verb, draw(st.sampled_from(PATHS))]
    options = draw(st.permutations(_VERBS[verb][2]))
    for option in options[:draw(st.integers(0, len(options)))]:
        argv += [draw(st.sampled_from(option[0])), draw(_valid_value(option))]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(argv) - 1))
        others = (["frobnicate", "x"] + DASHED, DASHED + list(_VERBS), DASHED + ["x"],
                  VALUES + DASHED)[k if k < 2 else 2 + k % 2]
        argv[k] = draw(st.sampled_from(others))
    if draw(st.integers(0, 3)) == 0:
        argv += draw(st.sampled_from([["x"], ["--field", "complex"], ["-o", "q"]]))
    if draw(st.integers(0, 3)) == 0:
        argv = argv[:draw(st.integers(0, len(argv)))]
    return argv


@settings(max_examples=2000, deadline=None)
@given(shaped())
def test_plain_args_agrees_with_argparse(argv):
    ns = _plain_args(argv)
    if ns is not None:
        assert vars(ns) == vars(_argparser().parse_args(argv))


def test_plain_args_reads_the_benchmark_and_golden_shapes():
    shapes = [["eval", "p"], ["eval", "p", "--field", "complex"],
              ["compile", "p", "-o", "q", "--field", "rational"],
              ["compile", "p", "--field", "complex", "-o", "q"], ["compile", "p"],
              ["pfeval", "q", "--field", "rational"], ["pfeval", "q"],
              ["oracle", "p", "--field", "rational"], ["check", "p", "--field", "complex"],
              ["multicycles", "p", "--field", "rational"], ["forests", "g"], ["trees", "g"],
              ["poly", "g"]]
    for argv in shapes:
        ns = _plain_args(argv)
        assert ns is not None, argv
        assert vars(ns) == vars(_argparser().parse_args(argv))
    assert vars(_plain_args(["forests", "g"])) == {"verb": "forests", "path": "g"}


def test_plain_args_leaves_other_spellings_to_argparse():
    for argv in ([], ["eval"], ["eval", "-h"], ["frobnicate", "p"], ["eval", "-"],
                 ["eval", "p", "--fi", "complex"], ["eval", "p", "--field=complex"],
                 ["eval", "p", "--field", "rational", "--field", "complex"],
                 ["eval", "p", "--", "q"], ["forests", "g", "--orientation-seed", "7"],
                 ["eval", "p", "--field", "integer"],
                 ["eval", "p", "extra"], ["compile", "p", "-o"], ["eval", "p", "-o", "q"],
                 ["compile", "p", "-o", "-q"]):
        assert _plain_args(argv) is None, argv


def test_help_is_the_same_at_every_terminal_width():
    env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
    env["PYTHONPATH"] = str(SRC)
    for argv in (["-h"], ["compile", "-h"]):
        outputs = []
        for columns in (None, "40", "200"):
            run_env = dict(env, COLUMNS=columns) if columns else env
            run = subprocess.run([sys.executable, "-m", "detcircuits"] + argv, env=run_env,
                                 capture_output=True, timeout=120)
            assert (run.returncode, run.stderr) == (0, b""), argv
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1] == outputs[2], argv
        assert max(len(line) for line in outputs[0].decode().splitlines()) <= 78
