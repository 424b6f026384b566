"""Shared random generators for the test suite, and pf_blocks, which
cuts a .pf text into the blocks they can shuffle.

Everything takes an explicit random.Random so tests stay reproducible.
"""

from fractions import Fraction

from detcircuits import Circuit, Stack, labeled


def rand_scalar(rng, field="rational", lo=-5, hi=5):
    if field == "rational":
        return Fraction(rng.randint(lo, hi))
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


def rand_grid(rng, r, c, field="rational", lo=-5, hi=5):
    return [[rand_scalar(rng, field, lo, hi) for _ in range(c)] for _ in range(r)]


def rand_skew_grid(rng, n, field="rational", lo=-5, hi=5):
    g = [[Fraction(0) if field == "rational" else 0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rand_scalar(rng, field, lo, hi)
            g[i][j] = x
            g[j][i] = -x
    return g


def rand_circuit(rng, max_stacks=4, max_wires=4, field="rational", lo=-5, hi=5):
    """Random closed circuit: random boundary widths, stacks split into a
    random number of gates, wire bijections shuffled."""
    m = rng.randint(1, max_stacks)
    widths = [rng.randint(0, max_wires) for _ in range(m)]
    stacks = []
    next_label = 1
    for k in range(m):
        ins_left, outs_left = widths[k], widths[(k + 1) % m]
        gates = []
        guard = 0
        while ins_left or outs_left:
            guard += 1
            gi = rng.randint(0, ins_left) if guard < 50 else ins_left
            go = rng.randint(0, outs_left) if guard < 50 else outs_left
            if not gi and not go:
                continue
            ins_left -= gi
            outs_left -= go
            rows = tuple(range(next_label, next_label + go))
            next_label += go
            cols = tuple(range(next_label, next_label + gi))
            next_label += gi
            gates.append(labeled(rows, cols, rand_grid(rng, go, gi, field, lo, hi)))
        if not gates:
            gates = [labeled((), (), ())]
        stacks.append(Stack(tuple(gates)))
    return _close(rng, stacks)


def _shares(rng, n, parts):
    """n split into `parts` positive shares at random cut points."""
    cuts = [0] + sorted(rng.sample(range(1, n), parts - 1)) + [n]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def rand_ring(rng, width, depth):
    """Closed rational ring of `depth` stacks on `width` wires each; every
    stack is one to three gates with nonempty row and column shares, and
    the wire bijections are shuffled."""
    stacks = []
    label = 0
    for _ in range(depth):
        parts = rng.randint(1, min(3, width))
        gates = []
        for r, c in zip(_shares(rng, width, parts), _shares(rng, width, parts)):
            rows = tuple(range(label + 1, label + r + 1))
            cols = tuple(range(label + r + 1, label + r + c + 1))
            label += r + c
            gates.append(labeled(rows, cols, rand_grid(rng, r, c)))
        stacks.append(Stack(tuple(gates)))
    return _close(rng, stacks)


def _close(rng, stacks):
    """The ring through the stacks, each wiring a shuffled bijection."""
    m = len(stacks)
    wirings = []
    for k in range(m):
        src = list(stacks[k].out_labels)
        dst = list(stacks[(k + 1) % m].in_labels)
        rng.shuffle(dst)
        wirings.append(tuple(zip(src, dst)))
    return Circuit(tuple(stacks), tuple(wirings))


def pf_blocks(text):
    """The pfgate blocks of a .pf text, each with its grid rows."""
    blocks = []
    for line in text.splitlines(keepends=True):
        if line.startswith("pfgate"):
            blocks.append("")
        blocks[-1] += line
    return blocks
