"""Outside-in tracer for the detcircuits package.

Wraps the public functions named in LAYERS in every `detcircuits` module
namespace that binds them (a `from .x import f` binding is a separate
name, so patching only the defining module would miss it), records one
span per call, counts work from argument and result shapes, and puts
every original function back on uninstall.

A span is [name, start, end, parent span index, op id, cover]: start and
end bracket the wrapped call, cover is the whole wrapper including the
tracer's own bookkeeping, so a caller's self time excludes both its
children and the tracer's work on their behalf.
"""

from __future__ import annotations

import sys
from time import perf_counter

# The layers are the package modules; tensor only holds the exponential
# oracles, which no timed path calls.
LAYERS = {
    "cli": ("main",),
    "formats": ("parse_circuit", "parse_pfaffian", "write_pfaffian", "parse_graph"),
    "circuit": ("collapse", "validate", "wiring_matrix"),
    "labeled": ("compose", "direct_sum", "permutation_matrix", "principal_minor_sum"),
    "scalars": ("normalize_grid", "det_grid"),
    "pfaffian": ("pfaffian", "eval_pfaffian_circuit", "skew", "validate_pfaffian"),
    "compiler": ("compile_circuit",),
    "graphs": ("count_rooted_forests", "count_spanning_trees", "forest_polynomial",
               "incidence_matrix", "laplacian"),
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# Counters read from shapes, with their units; every one is reported even
# when a workload never calls its function, so all workloads print the same
# names.  useful_mults becomes labeled.compose.useful_ratio in the report.
COUNT_UNITS = {
    "labeled.compose.calls": "count",
    "labeled.compose.scalar_mults": "count",
    "labeled.compose.useful_mults": "count",
    "labeled.compose.perm_calls": "count",
    "scalars.normalize_grid.entries": "count",
    "labeled.principal_minor_sum.max_n": "count",
    "scalars.det_grid.calls": "count",
    "scalars.det_grid.max_n": "count",
    "scalars.det_grid.max_entry_bits": "bit",
    "pfaffian.pfaffian.max_n": "count",
    "pfaffian.pfaffian.max_entry_bits": "bit",
    "compiler.edges": "count",
    "compiler.gadgets": "count",
    "compiler.size_ratio_per_width": "ratio",
    "formats.pf_bytes": "byte",
    "graphs.forests_det_n": "count",
}


def _entry_bits(grid) -> int:
    """Largest numerator or denominator bit length among rational entries."""
    best = 0
    for row in grid:
        for x in row:
            den = getattr(x, "denominator", None)
            if den is not None:
                best = max(best, x.numerator.bit_length(), den.bit_length())
    return best


def _is_permutation(m) -> bool:
    n = len(m.rows)
    if n != len(m.cols):
        return False
    col_hits = [0] * n
    for row in m.entries:
        nonzero = [j for j, x in enumerate(row) if x != 0]
        if len(nonzero) != 1 or row[nonzero[0]] != 1:
            return False
        col_hits[nonzero[0]] += 1
    return all(h == 1 for h in col_hits)


def _count_compose(t, args, result) -> None:
    n, m = args
    r, k, c = len(n.rows), len(n.cols), len(m.cols)
    counts = t.counts
    counts["labeled.compose.calls"] += 1
    counts["labeled.compose.scalar_mults"] += r * k * c
    # A product n[i][k] * m[k][j] has both factors nonzero for every pair of
    # a nonzero in column k of n and a nonzero in the matching row of m.
    pos = {lab: i for i, lab in enumerate(m.rows)}
    useful = 0
    for kk, lab in enumerate(n.cols):
        col_nz = sum(1 for i in range(r) if n.entries[i][kk] != 0)
        if col_nz:
            useful += col_nz * sum(1 for x in m.entries[pos[lab]] if x != 0)
    counts["labeled.compose.useful_mults"] += useful
    if _is_permutation(n) or _is_permutation(m):
        counts["labeled.compose.perm_calls"] += 1


def _count_normalize_grid(t, args, result) -> None:
    t.counts["scalars.normalize_grid.entries"] += sum(len(row) for row in result)


def _count_principal_minor_sum(t, args, result) -> None:
    t.bump_max("labeled.principal_minor_sum.max_n", len(args[0].rows))


def _count_det_grid(t, args, result) -> None:
    grid = args[0]
    t.counts["scalars.det_grid.calls"] += 1
    t.bump_max("scalars.det_grid.max_n", len(grid))
    t.bump_max("scalars.det_grid.max_entry_bits", _entry_bits(grid))
    if t.inside("graphs.count_rooted_forests"):
        t.bump_max("graphs.forests_det_n", len(grid))


def _count_pfaffian(t, args, result) -> None:
    grid = args[0]
    t.bump_max("pfaffian.pfaffian.max_n", len(grid))
    t.bump_max("pfaffian.pfaffian.max_entry_bits", _entry_bits(grid))


def _count_compile(t, args, result) -> None:
    t.counts["compiler.edges"] += result.target.edge_count
    t.counts["compiler.gadgets"] += result.gadget_count
    width = max((len(s.in_labels) for s in args[0].stacks), default=0)
    t.bump_max("compiler.size_ratio_per_width",
               float(result.size_ratio) / max(width, 1))


def _count_write_pfaffian(t, args, result) -> None:
    t.counts["formats.pf_bytes"] += len(result.encode("utf-8"))


COUNTERS = {
    "labeled.compose": _count_compose,
    "scalars.normalize_grid": _count_normalize_grid,
    "labeled.principal_minor_sum": _count_principal_minor_sum,
    "scalars.det_grid": _count_det_grid,
    "pfaffian.pfaffian": _count_pfaffian,
    "compiler.compile_circuit": _count_compile,
    "formats.write_pfaffian": _count_write_pfaffian,
}


class Tracer:
    """Spans and shape counts for the calls made between install and uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNT_UNITS, 0)
        self.op = 0  # id of the op in flight, set by the caller
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def bump_max(self, key: str, value) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            c0 = perf_counter()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = t0
                stack.pop()
            if count is not None:
                count(self, args, result)
            span[5] = perf_counter() - c0
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "detcircuits"
                                         or name.startswith("detcircuits."))]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"detcircuits.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Span duration minus the covers of its direct children, per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, cover in self.spans:
            if parent >= 0:
                child[parent] += cover
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, parent, op, cover) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out
