"""Determinantal circuits: polynomial-time evaluation, Pfaffian
compilation, and spanning-forest counting.

The core objects are LabeledMatrix (wires named by integer labels),
Circuit (a closed ring of gate stacks and wire bijections), SkewMatrix
and PfaffianCircuit (the Pfaffian side), and Graph.  Every fast path in
the package has a brute-force oracle next to it.
"""

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
from .graphs import (
    ForestPolynomial,
    Graph,
    count_rooted_forests,
    count_spanning_trees,
    enumerate_forests,
    enumerate_trees,
    forest_polynomial,
    incidence_matrix,
    laplacian,
    laplacian_cofactor,
    reorient,
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
from .tensor import (
    Multicycle,
    Tensor,
    contract_circuit,
    enumerate_multicycles,
    eval_pfaffian_oracle,
    multicycle_total,
    sdet_expand,
    spf,
    spf_dual,
    tensor_compose,
    tensor_product,
    tensor_trace,
)
