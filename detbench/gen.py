"""Seeded input generator for the detcirc benchmark.

Writes `.circuit` and `.graph` text directly, without the package's own
writers or the test-suite generators, so the bytes a run feeds to
`detcirc` depend only on the seed.  Every function takes an explicit
random.Random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Gate:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    grid: tuple[tuple[str, ...], ...]  # entry tokens as written


@dataclass(frozen=True)
class Ring:
    stacks: tuple[tuple[Gate, ...], ...]
    wirings: tuple[tuple[tuple[int, int], ...], ...]  # wirings[k]: stack k -> k+1
    widths: tuple[int, ...]  # widths[k]: wires entering stack k

    @property
    def depth(self) -> int:
        return len(self.stacks)

    @property
    def width(self) -> int:
        return max(self.widths)


def rational_entry(rng, frac_share: float) -> str:
    """An integer in [-3, 3], or with probability frac_share a p/q with q in 2..4."""
    p = rng.randint(-3, 3)
    if rng.random() < frac_share:
        return f"{p}/{rng.randint(2, 4)}"
    return str(p)


def complex_entry(rng) -> str:
    """A complex number of modulus below 1, uniform in the disc, 6 decimals."""
    r = 0.999 * math.sqrt(rng.random())
    t = 2 * math.pi * rng.random()
    re, im = r * math.cos(t), r * math.sin(t)
    return f"{re:.6f}{'-' if im < 0 else '+'}{abs(im):.6f}i"


def _split(rng, n: int, parts: int) -> list[int]:
    """n wires in `parts` shares as even as possible, in random order."""
    shares = [n // parts + (i < n % parts) for i in range(parts)]
    rng.shuffle(shares)
    return shares


def ring(rng, widths, gate_counts, entry) -> Ring:
    """Closed ring; stack k maps widths[k] wires to widths[k+1] (mod depth).

    Stack k holds gate_counts[k] gates (fewer if a boundary is narrower)
    with near-even row and column shares, and every wiring is a shuffled
    bijection.  Callers pass a fixed multiset of gate counts in shuffled
    order, so rings of one shape cost about the same for every seed.
    """
    d = len(widths)
    label = 0
    stacks = []
    for k in range(d):
        ins, outs = widths[k], widths[(k + 1) % d]
        g = min(gate_counts[k], ins, outs)
        gates = []
        for c, r in zip(_split(rng, ins, g), _split(rng, outs, g)):
            rows = tuple(range(label + 1, label + r + 1))
            cols = tuple(range(label + r + 1, label + r + c + 1))
            label += r + c
            grid = tuple(tuple(entry(rng) for _ in range(c)) for _ in range(r))
            gates.append(Gate(rows, cols, grid))
        stacks.append(tuple(gates))
    wirings = []
    for k in range(d):
        src = [lab for g in stacks[k] for lab in g.rows]
        dst = [lab for g in stacks[(k + 1) % d] for lab in g.cols]
        rng.shuffle(dst)
        wirings.append(tuple(zip(src, dst)))
    return Ring(tuple(stacks), tuple(wirings), tuple(widths))


def gate_counts(rng, depth: int, most: int) -> list[int]:
    """1..most gates per stack, cycling, in shuffled stack order."""
    counts = [1 + k % most for k in range(depth)]
    rng.shuffle(counts)
    return counts


def circuit_text(c: Ring, start: int = 0) -> str:
    """The circuit file of the ring read from stack `start` on.

    A rotation is the same closed circuit, so its value must not change;
    the benchmark uses that as an independent reference.
    """
    d = c.depth
    order = [(start + i) % d for i in range(d)]
    out = []
    for k in order:
        out.append("stack")
        for g in c.stacks[k]:
            out.append(f"gate {len(g.rows)} {len(g.cols)} "
                       f"{' '.join(map(str, g.rows))} / {' '.join(map(str, g.cols))}")
            out.extend(" ".join(row) for row in g.grid)
    for i, k in enumerate(order):
        out.append(f"wiring {i}: " + ", ".join(f"{a}->{b}" for a, b in c.wirings[k]))
    return "\n".join(out) + "\n"


def dense_graph(rng, n: int, density: float = 0.6) -> tuple[int, list[tuple[int, int]]]:
    """n vertices, round(density * n(n-1)/2) distinct edges, random orientation."""
    pairs = list(combinations(range(1, n + 1), 2))
    edges = rng.sample(pairs, round(density * len(pairs)))
    return n, _orient(rng, edges)


def sparse_graph(rng, n: int, ratio: float = 1.5) -> tuple[int, list[tuple[int, int]]]:
    """Connected: a random spanning tree plus extra edges up to round(ratio * n)."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i], perm[rng.randrange(i)]))) for i in range(1, n)}
    rest = [p for p in combinations(range(1, n + 1), 2) if p not in edges]
    edges.update(rng.sample(rest, round(ratio * n) - len(edges)))
    return n, _orient(rng, sorted(edges))


def _orient(rng, edges) -> list[tuple[int, int]]:
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return out


def graph_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
