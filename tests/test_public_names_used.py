"""Every public function, class and method in the package has a caller
outside the tests.

A public top-level function or class, or a public method of one, counts
as used when one of these reads its name:
- package code outside the name's own definition (`__init__.py` only
  re-exports, so it does not count);
- the benchmark in detbench/: a name it imports from the package, an
  attribute it reads, or a string, such as the tracer's LAYERS entries.
Otherwise it must be on TEST_ONLY.  A helper that only tests call
belongs in tests/paper.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "detcircuits"
BENCH = ROOT / "detbench"

# Only tests call these, and they stay in the package: the brute-force
# oracles the fast paths are checked against, and the writers that invert
# the parsers.  detbench/workloads.py has its own write_circuit and
# write_graph, which share only the names.
TEST_ONLY = {"pfaffian_oracle", "eval_pfaffian_oracle", "enumerate_forests",
             "write_circuit", "write_graph"}


def public_defs(tree: ast.Module):
    """(name, node) for each public top-level function or class, and for
    each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item


def names_read(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Bare names and attribute names read under node, outside skip."""
    if node is skip:
        return set()
    if isinstance(node, ast.Name):
        names = {node.id}
    elif isinstance(node, ast.Attribute):
        names = {node.attr}
    else:
        names = set()
    for child in ast.iter_child_nodes(node):
        names |= names_read(child, skip)
    return names


def bench_names(sources: list[str]) -> set[str]:
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "detcircuits":
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def unused_public_names(modules: dict[str, str], bench: set[str]) -> list[str]:
    """module.name for every public definition in modules that nothing reads."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    unused = []
    for mod, tree in trees.items():
        for name, node in public_defs(tree):
            if name in bench or name in TEST_ONLY:
                continue
            if not any(name in names_read(other, node if other is tree else None)
                       for other in trees.values()):
                unused.append(f"{mod}.{name}")
    return sorted(unused)


def test_unused_public_names_flags_a_dead_definition():
    modules = {
        "a": "def used():\n    pass\n\n\ndef dead(n):\n    return dead(n - 1)\n\n\n"
             "class Box:\n    def read(self):\n        return self.drop\n\n"
             "    def drop(self):\n        pass\n\n    def _private(self):\n        pass\n",
        "b": "from .a import used, Box\n\nused()\nBox().read()\n",
    }
    # dead calls only itself, which does not count; drop is read by read.
    assert unused_public_names(modules, set()) == ["a.dead"]
    assert unused_public_names(modules, {"dead"}) == []
    modules["b"] = "from .a import used\n\nused()\n"
    assert unused_public_names(modules, set()) == ["a.Box", "a.dead", "a.read"]


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    bench = bench_names([p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))])
    assert unused_public_names(modules, bench) == []
