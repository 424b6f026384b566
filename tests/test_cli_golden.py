"""Every verb's exit code, stdout, stderr and written .pf bytes, pinned.

The detcirc verbs run in-process on the files in data/, on edge-case files
(a complex circuit with no entries, a complex entry whose modulus passes the
largest float, integer entries of 1000 and 5001 digits, a .pf file whose
state and costate blocks interleave), and on a fixed corpus built with
tests/circgen.py in both fields.  Then `-h` runs for the top level and
every verb, and usage errors, pin the help text and the usage messages.
Each run's exit code, stdout, stderr and the SHA-256 of the .pf file that
compile writes must equal its entry in tests/cli_golden.json.

To record the JSON from the package on the path:

    PYTHONPATH=src python tests/test_cli_golden.py

Before it writes, the recorder prints each case id that was added, removed
or changed, with the fields that moved (exit, stdout, stderr, sha).
"""

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

from detcircuits import compile_circuit, evaluate, write_circuit, write_pfaffian
from detcircuits.cli import main
from circgen import pf_blocks, rand_circuit, rand_ring

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "data"
GOLDEN = HERE / "cli_golden.json"

CIRCUIT_VERBS = ("eval", "oracle", "check", "multicycles")
GRAPH_VERBS = ("forests", "trees", "poly")
VERBS = CIRCUIT_VERBS + ("compile", "pfeval") + GRAPH_VERBS
FIELDS = ("rational", "complex")
RECORD_FIELDS = ("exit", "stdout", "stderr", "sha")

# No verb, an unknown verb, no path, a bad --field, a bad seed, an extra
# argument and -o with no value.
USAGE_ERRORS = (
    [],
    ["frobnicate", Path("ring3.circuit")],
    ["eval"],
    ["eval", Path("ring3.circuit"), "--field", "integer"],
    ["forests", Path("triangle.graph"), "--orientation-seed", "x"],
    ["eval", Path("ring3.circuit"), "extra"],
    ["compile", Path("ring3.circuit"), "-o"],
)

EDGE_CASES = {
    "empty.circuit": "stack\n",
    "huge_modulus.circuit":
        "stack\ngate 1 1 1 / 1\n1.2711610061536462e+308+1.2711610061536464e+308i\n",
    "digits_1000.circuit": "stack\ngate 1 1 1 / 1\n1" + "0" * 999 + "\n",
    "digits_5001.circuit": "stack\ngate 1 1 1 / 1\n1e5000\n",
}


def _sign_fix_circuit():
    """The first random circuit (by seed) whose value is neither 0 nor 1 and
    whose compile adds the constant sign-fix gadget pair, which
    write_pfaffian puts last."""
    for seed in range(1000):
        c = rand_circuit(random.Random(seed), max_stacks=3, max_wires=3, lo=-3, hi=3)
        if evaluate(c) in (0, 1):
            continue
        target = compile_circuit(c).target
        e = target.edge_count
        if write_pfaffian(target).endswith(f"pfgate costate 2 {e} {e - 1}\n0 1\n-1 0\n"):
            return c
    raise AssertionError("no circuit in 1000 seeds needs the sign fix")


def write_inputs(folder: Path) -> None:
    """data/, the edge cases and the generated corpus, as files in folder."""
    for path in sorted(DATA.iterdir()):
        shutil.copy(path, folder / path.name)
    for name, text in EDGE_CASES.items():
        (folder / name).write_text(text)
    blocks = pf_blocks((DATA / "ring3.pf").read_text())
    random.Random(1).shuffle(blocks)
    (folder / "ring3_shuffled.pf").write_text("".join(blocks))
    for field in FIELDS:
        rng = random.Random(f"golden {field}")
        for k in range(6):
            c = rand_circuit(rng, max_stacks=3, max_wires=3, field=field, lo=-3, hi=3)
            while not all(s.in_labels for s in c.stacks):  # no empty boundary
                c = rand_circuit(rng, max_stacks=3, max_wires=3, field=field, lo=-3, hi=3)
            (folder / f"rand_{field}_{k}.circuit").write_text(write_circuit(c))
    (folder / "ring_even.circuit").write_text(write_circuit(rand_ring(random.Random(2), 3, 4)))
    (folder / "sign_fix.circuit").write_text(write_circuit(_sign_fix_circuit()))
    rng = random.Random(3)
    for k in range(3):
        n = rng.randint(3, 6)
        edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(n - 1, 2 * n))]
        edges = [(u, v) for u, v in edges if u != v]
        (folder / f"rand_{k}.graph").write_text(
            f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def runs(folder: Path):
    """(argv, compiled .pf name or None) for every run, in run order; file
    arguments are Paths relative to folder, and a compile run comes before
    the pfeval of its output."""
    for path in sorted(folder.iterdir()):
        name = Path(path.name)
        if name.suffix == ".circuit":
            for field in FIELDS:
                for verb in CIRCUIT_VERBS:
                    yield [verb, name, "--field", field], None
                out = Path(f"{name.stem}.{field}.compiled.pf")
                yield ["compile", name, "--field", field, "-o", out], out
                yield ["pfeval", out, "--field", field], None
        elif name.suffix == ".pf":
            for field in FIELDS:
                yield ["pfeval", name, "--field", field], None
        elif name.suffix == ".graph":
            for verb in GRAPH_VERBS:
                yield [verb, name], None
                yield [verb, name, "--orientation-seed", "5"], None
    yield ["-h"], None
    for verb in VERBS:
        yield [verb, "-h"], None
    for argv in USAGE_ERRORS:
        yield argv, None


def record(folder: Path) -> dict:
    """Case id -> [exit code, stdout, stderr, SHA-256 of the written .pf or None]."""
    write_inputs(folder)
    results = {}
    for argv, out in list(runs(folder)):
        full = [str(folder / a) if isinstance(a, Path) else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(full)
        digest = None
        if out is not None and (folder / out).exists():
            digest = hashlib.sha256((folder / out).read_bytes()).hexdigest()
        err = stderr.getvalue().replace(str(folder), "<dir>")
        results[" ".join(map(str, argv))] = [code, stdout.getvalue(), err, digest]
    return results


def moved(want: dict, got: dict) -> list[str]:
    """One line per case id added, removed or changed from recording `want`
    to recording `got`, a changed one naming the fields that moved."""
    lines = [f"added {case}" for case in sorted(got.keys() - want.keys())]
    lines += [f"removed {case}" for case in sorted(want.keys() - got.keys())]
    for case in sorted(want.keys() & got.keys()):
        fields = [name for name, a, b in zip(RECORD_FIELDS, want[case], got[case]) if a != b]
        if fields:
            lines.append(f"changed {case}: {' '.join(fields)}")
    return lines


def test_moved_names_each_case_and_field():
    want = {"a": [0, "1\n", "", None], "b": [0, "2\n", "", "ab"], "c": [2, "", "e\n", None]}
    got = {"a": [0, "1\n", "", None], "b": [1, "3\n", "", "cd"], "d": [0, "", "", None]}
    assert moved(want, got) == ["added d", "removed c", "changed b: exit stdout sha"]
    assert moved(want, want) == []


def test_every_verb_matches_the_recording(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record(tmp_path)
    # On a drift, name the moved cases and fields, not whole records.
    drift = "\n".join(moved(want, got))
    assert sorted(got) == sorted(want), drift
    changed = [case for case in want if got[case] != want[case]]
    assert not changed, drift


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = record(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for line in moved(old, results):
        print(line, file=sys.stderr)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(results)} runs recorded in {GOLDEN}", file=sys.stderr)
