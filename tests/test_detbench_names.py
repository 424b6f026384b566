"""The benchmark in detbench/ reaches into the package by name: its tracer
wraps the functions listed in LAYERS with getattr, and its scripts import
from detcircuits.  Every such name must stay defined."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "detbench"


def test_traced_layers_are_defined():
    spec = importlib.util.spec_from_file_location("detbench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for mod, fns in tracer.LAYERS.items():
        module = importlib.import_module(f"detcircuits.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"detcircuits.{mod}.{fn}"


def test_benchmark_imports_are_defined():
    names = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names += [(a.name, None) for a in node.names
                          if a.name.split(".")[0] == "detcircuits"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    (node.module or "").split(".")[0] == "detcircuits":
                names += [(node.module, a.name) for a in node.names]
    assert ("detcircuits", "evaluate") in names
    for module_name, attr in names:
        module = importlib.import_module(module_name)
        assert attr is None or hasattr(module, attr), f"{module_name}.{attr}"
