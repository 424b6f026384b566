"""Determinantal circuits: polynomial-time evaluation, Pfaffian
compilation, and spanning-forest counting.

The core objects are LabeledMatrix (wires named by integer labels),
Circuit (a closed ring of gate stacks and wire bijections), SkewMatrix
and PfaffianCircuit (the Pfaffian side), and Graph.  Every fast path in
the package has a brute-force oracle next to it.

The names of graphs and tensor load with their module on first use
(PEP 562), so a program that runs neither the graph counts nor the
exponential oracles does not import them.  The other modules stay
eager: detbench's tracer looks each of them up in sys.modules, and
`labeled` and `pfaffian` name both a module and a function here, which
a first import of the module would rebind to the module.
"""

from importlib import import_module

from .circuit import (
    Circuit,
    Stack,
    collapse,
    evaluate,
    identity_wiring,
    transfer_matrix,
    validate,
    wiring_matrix,
)
from .compiler import CompiledCircuit, compile_circuit
from .errors import (
    DanglingWire,
    DuplicateLabel,
    LabelCollision,
    LabelMismatch,
    NotEndomorphism,
    NotSkew,
    ParseError,
    SizeMismatch,
    TooLarge,
    ValidationError,
)
from .formats import (
    parse_circuit,
    parse_graph,
    parse_pfaffian,
    write_circuit,
    write_graph,
    write_pfaffian,
)
from .labeled import (
    LabeledMatrix,
    compose,
    direct_sum,
    identity,
    labeled,
    permutation_matrix,
    principal_minor_sum,
    submatrix,
)
from .pfaffian import (
    PfaffianCircuit,
    SkewMatrix,
    eval_pfaffian_circuit,
    pfaffian,
    pfaffian_oracle,
    skew,
    validate_pfaffian,
)
from .scalars import Scalar, format_scalar, parse_scalar, scalars_equal

_LAZY = {
    "graphs": ("ForestPolynomial", "Graph", "count_rooted_forests", "count_spanning_trees",
               "enumerate_forests", "enumerate_trees", "forest_polynomial",
               "incidence_matrix", "laplacian", "laplacian_cofactor", "reorient"),
    "tensor": ("Multicycle", "Tensor", "contract_circuit", "enumerate_multicycles",
               "eval_pfaffian_oracle", "multicycle_total", "sdet_expand", "spf", "spf_dual",
               "tensor_compose", "tensor_product", "tensor_trace"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "Circuit", "CompiledCircuit", "DanglingWire", "DuplicateLabel", "ForestPolynomial",
    "Graph", "LabelCollision", "LabelMismatch", "LabeledMatrix", "Multicycle",
    "NotEndomorphism", "NotSkew", "ParseError", "PfaffianCircuit", "Scalar", "SizeMismatch",
    "SkewMatrix", "Stack", "Tensor", "TooLarge", "ValidationError", "collapse",
    "compile_circuit", "compose", "contract_circuit", "count_rooted_forests",
    "count_spanning_trees", "direct_sum", "enumerate_forests", "enumerate_multicycles",
    "enumerate_trees", "eval_pfaffian_circuit", "eval_pfaffian_oracle", "evaluate",
    "forest_polynomial", "format_scalar", "identity", "identity_wiring", "incidence_matrix",
    "labeled", "laplacian", "laplacian_cofactor", "multicycle_total", "parse_circuit",
    "parse_graph", "parse_pfaffian", "parse_scalar", "permutation_matrix", "pfaffian",
    "pfaffian_oracle", "principal_minor_sum", "reorient", "scalars_equal", "sdet_expand",
    "skew", "spf", "spf_dual", "submatrix", "tensor_compose", "tensor_product",
    "tensor_trace", "transfer_matrix", "validate", "validate_pfaffian", "wiring_matrix",
    "write_circuit", "write_graph", "write_pfaffian",
]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
