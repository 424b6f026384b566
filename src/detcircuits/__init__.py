"""Determinantal circuits: polynomial-time evaluation, Pfaffian
compilation, and spanning-forest counting.

The core objects are LabeledMatrix (wires named by integer labels),
Circuit (a closed ring of gate stacks and wire bijections), SkewMatrix
and PfaffianCircuit (the Pfaffian side), and Graph.  Every fast path in
the package has a brute-force oracle next to it.

Each exported name loads with its module on first use (PEP 562), as does
a submodule asked for by name, so a program imports only the modules it
reads from.  A bare `import detcircuits` loads errors, scalars, labeled
and pfaffian: `labeled` and `pfaffian` name both a module and a function
here, and are imported now because the first import of either module
would bind the package name to the module.
"""

from importlib import import_module

from .labeled import labeled
from .pfaffian import pfaffian

# Every exported name, by the module that defines it.
_EXPORTS = {
    "circuit": ("Circuit", "Stack", "collapse", "evaluate", "identity_wiring",
                "transfer_matrix", "validate", "wiring_matrix"),
    "compiler": ("CompiledCircuit", "compile_circuit"),
    "errors": ("DanglingWire", "DuplicateLabel", "LabelCollision", "LabelMismatch",
               "NotEndomorphism", "NotSkew", "ParseError", "SizeMismatch", "TooLarge",
               "ValidationError"),
    "formats": ("parse_circuit", "parse_graph", "parse_pfaffian", "write_circuit",
                "write_graph", "write_pfaffian"),
    "graphs": ("ForestPolynomial", "Graph", "count_rooted_forests", "count_spanning_trees",
               "enumerate_forests", "enumerate_trees", "forest_polynomial",
               "incidence_matrix", "laplacian", "laplacian_cofactor"),
    "labeled": ("LabeledMatrix", "compose", "direct_sum", "identity", "labeled",
                "permutation_matrix", "principal_minor_sum", "submatrix"),
    "pfaffian": ("PfaffianCircuit", "SkewMatrix", "eval_pfaffian_circuit", "pfaffian",
                 "pfaffian_oracle", "skew", "validate_pfaffian"),
    "scalars": ("Scalar", "format_scalar", "parse_scalar", "scalars_equal"),
    "tensor": ("Multicycle", "Tensor", "contract_circuit", "enumerate_multicycles",
               "eval_pfaffian_oracle", "multicycle_total", "sdet_expand", "spf", "spf_dual",
               "tensor_compose", "tensor_product", "tensor_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
