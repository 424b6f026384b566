"""Every private function, class and method in the package has a caller
in the package.

A private top-level function or class, or a private method of a
top-level class, counts as used when package code outside its own
definition reads its name.  Tests do not count: a helper only they call
is dead code, and belongs in tests/paper.py if they still need it.
Dunder methods are called by Python itself and are not checked.
"""

import ast

from test_public_names_used import SRC, names_read


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_defs(tree: ast.Module):
    """(name, node) for each private top-level function or class, and for
    each private method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and private(item.name):
                    yield item.name, item


def unused_private_names(modules: dict[str, str]) -> list[str]:
    """module.name for every private definition in modules that nothing reads."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    return sorted(f"{mod}.{name}" for mod, tree in trees.items()
                  for name, node in private_defs(tree)
                  if not any(name in names_read(other, node if other is tree else None)
                             for other in trees.values()))


def test_unused_private_names_flags_a_dead_helper():
    modules = {
        "a": "def _used():\n    pass\n\n\ndef _dead(n):\n    return _dead(n - 1)\n\n\n"
             "class _Box:\n    def __init__(self):\n        self._read()\n\n"
             "    def _read(self):\n        pass\n\n    def _drop(self):\n        pass\n",
        "b": "from .a import _used, _dead, _Box\n\n_used()\n_Box()\n",
    }
    # _dead calls only itself and b only imports it, which do not count;
    # __init__ is not checked, and its call reads _read.
    assert unused_private_names(modules) == ["a._dead", "a._drop"]
    modules["b"] = "from .a import _used\n\n_used()\n"
    assert unused_private_names(modules) == ["a._Box", "a._dead", "a._drop"]


def test_every_private_name_has_a_caller_in_the_package():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unused_private_names(modules) == []
