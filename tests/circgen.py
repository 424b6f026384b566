"""Shared random generators for the test suite; pf_blocks, which cuts a
.pf text into the blocks they can shuffle; and has_sign_gadget, which
finds the compiler's sign-fix pair.

Everything takes an explicit random.Random so tests stay reproducible.
"""

from fractions import Fraction

from detcircuits import Circuit, PfaffianCircuit, Stack, labeled, skew


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


def _pf_entry(rng):
    """0, +-1, a small int or a p/q, in about equal shares."""
    k = rng.randrange(4)
    if k == 0:
        return 0
    if k == 1:
        return rng.choice((1, -1))
    if k == 2:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.randint(2, 5))


def _pf_gadgets(rng, units):
    """Label lists of 1 to 4 edges cut from a list of units (tuples of edges
    that must stay together), each list shuffled."""
    gadgets, cur = [], []
    for u in units:
        if cur and (len(cur) + len(u) > 4 or rng.random() < 0.4):
            gadgets.append(cur)
            cur = []
        cur = cur + list(u)
    if cur:
        gadgets.append(cur)
    for labels in gadgets:
        rng.shuffle(labels)
    return gadgets


def _pf_grid(rng, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = _pf_entry(rng)
            g[i][j], g[j][i] = x, -x
    return g


def rand_pf_circuit(rng, max_edges=14):
    """Random exact Pfaffian circuit on edges 1..n: state and costate gadgets
    of 1 to 4 edges with shuffled label lists and entries from _pf_entry.
    Most costates of two or more edges hold an isolated unit pair, a row
    and a column whose only nonzeros are +-1 at each other.  Half of those
    pairs share a state, and half of these cancel the pair's entry of the
    edge matrix, so the elimination must swap there."""
    n = rng.randint(0, max_edges)
    edges = list(range(1, n + 1))
    rng.shuffle(edges)
    costates, pairs = [], {}
    for labels in _pf_gadgets(rng, [(e,) for e in edges]):
        g = _pf_grid(rng, len(labels))
        if len(labels) >= 2 and rng.random() < 0.6:
            p, q = sorted(rng.sample(range(len(labels)), 2))
            for k in range(len(labels)):
                g[p][k] = g[k][p] = g[q][k] = g[k][q] = 0
            u = rng.choice((1, -1))
            g[p][q], g[q][p] = u, -u
            pairs[labels[p], labels[q]] = u
        costates.append(skew(labels, g))
    together = [ab for ab in pairs if rng.random() < 0.5]
    alone = set(edges).difference(*together)
    units = together + [(e,) for e in sorted(alone)]
    rng.shuffle(units)
    states = []
    for labels in _pf_gadgets(rng, units):
        g = _pf_grid(rng, len(labels))
        pos = {e: i for i, e in enumerate(labels)}
        for a, b in together:
            if a in pos and rng.random() < 0.5:
                # Minus the costate entry u with its twist: a_ab is 0.
                s = pairs[a, b] if (a + b) % 2 == 0 else -pairs[a, b]
                g[pos[a]][pos[b]], g[pos[b]][pos[a]] = s, -s
        states.append(skew(labels, g))
    return PfaffianCircuit(tuple(states), tuple(costates))


def pf_blocks(text):
    """The pfgate blocks of a .pf text, each with its grid rows."""
    blocks = []
    for line in text.splitlines(keepends=True):
        if line.startswith("pfgate"):
            blocks.append("")
        blocks[-1] += line
    return blocks


def has_sign_gadget(target):
    """Whether target ends in the sign-fix pair: a state and a costate on
    the last two edges alone.  Past two edges no ring gate's state and no
    pass-through costate share such a pair."""
    e = target.edge_count
    counts = [sum(set(g.labels) == {e - 1, e} for g in side)
              for side in (target.states, target.costates)]
    return e > 2 and counts == [1, 1]
