"""The package's value classes behave as frozen dataclasses do.

Each is built by keyword and by position; two built from equal fields are
equal with equal hashes, that of the field tuple, and the repr is
`Name(field=value, ...)`.  No field can be assigned or deleted, and no
attribute added.  Tensor alone compares by identity.
"""

from fractions import Fraction

import pytest

from detcircuits import (
    Circuit,
    CompiledCircuit,
    DuplicateLabel,
    ForestPolynomial,
    Graph,
    LabeledMatrix,
    Multicycle,
    PfaffianCircuit,
    SkewMatrix,
    Stack,
    Tensor,
    ValidationError,
)
from detcircuits.labeled import _trusted

GATE = LabeledMatrix((1,), (1,), ((3,),))
GATE_REPR = "LabeledMatrix(rows=(1,), cols=(1,), entries=((3,),))"
STATE = SkewMatrix((1, 2), ((0, 1), (-1, 0)))
COSTATE = SkewMatrix((2, 1), ((0, 1), (-1, 0)))
PC = PfaffianCircuit((STATE,), (COSTATE,))
PC_REPR = ("PfaffianCircuit(states=(SkewMatrix(labels=(1, 2), entries=((0, 1), (-1, 0))),), "
           "costates=(SkewMatrix(labels=(2, 1), entries=((0, 1), (-1, 0))),), edge_count=2)")

# class, keyword arguments in field order, repr
VALUES = [
    (LabeledMatrix, {"rows": (1,), "cols": (1,), "entries": ((3,),)}, GATE_REPR),
    (Stack, {"gates": (GATE,)}, f"Stack(gates=({GATE_REPR},))"),
    (Circuit, {"stacks": (Stack((GATE,)),), "wirings": (((1, 1),),)},
     f"Circuit(stacks=(Stack(gates=({GATE_REPR},)),), wirings=(((1, 1),),))"),
    (SkewMatrix, {"labels": (1, 2), "entries": ((0, 1), (-1, 0))},
     "SkewMatrix(labels=(1, 2), entries=((0, 1), (-1, 0)))"),
    (PfaffianCircuit, {"states": (STATE,), "costates": (COSTATE,)}, PC_REPR),
    (CompiledCircuit, {"target": PC, "gadget_count": 2, "size_ratio": Fraction(8)},
     f"CompiledCircuit(target={PC_REPR}, gadget_count=2, size_ratio=Fraction(8, 1))"),
    (Graph, {"vertex_count": 2, "edges": ((1, 2),)}, "Graph(vertex_count=2, edges=((1, 2),))"),
    (ForestPolynomial, {"coefficients": (0, 2, 1)}, "ForestPolynomial(coefficients=(0, 2, 1))"),
    (Multicycle, {"support": frozenset({(0, 1)}), "weight": 3},
     "Multicycle(support=frozenset({(0, 1)}), weight=3)"),
    (Tensor, {"out_wires": (1,), "in_wires": (), "data": {((1,), ()): 2}},
     "Tensor(out_wires=(1,), in_wires=(), data={((1,), ()): 2})"),
]


def field_names(cls, kwargs) -> list[str]:
    # edge_count is a field but not an argument: the circuit counts its edges.
    return list(kwargs) + (["edge_count"] if cls is PfaffianCircuit else [])


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_equality_hash_repr_and_construction(cls, kwargs, text):
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert repr(a) == repr(b) == text
    fields = tuple([getattr(a, name) for name in field_names(cls, kwargs)])
    assert fields[:len(kwargs)] == tuple(kwargs.values())
    assert a != fields and a.__eq__(fields) is NotImplemented
    if cls is Tensor:
        assert a == a and a != b and hash(a) == object.__hash__(a)
    else:
        assert a == b and not a != b and hash(a) == hash(b) == hash(fields)


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_fields_cannot_be_assigned_or_deleted(cls, kwargs, text):
    a = cls(**kwargs)
    for name in field_names(cls, kwargs):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = 1
    assert repr(a) == text


def test_values_differ_by_field_and_by_class():
    assert Graph(2, ((1, 2),)) != Graph(2, ((2, 1),))
    assert Graph(3, ((1, 2),)) != Graph(2, ((1, 2),))
    assert ForestPolynomial((1,)) != Stack((1,))
    assert len({Graph(2, ((1, 2),)), Graph(2, ((1, 2),)), Graph(2, ())}) == 2


def test_construction_checks_each_way_but_trusted():
    with pytest.raises(DuplicateLabel):
        LabeledMatrix(rows=(1, 1), cols=(), entries=((), ()))
    with pytest.raises(ValidationError):
        Graph(vertex_count=1, edges=((1, 2),))
    with pytest.raises(TypeError):
        PfaffianCircuit((), (), 0)
    with pytest.raises(TypeError):
        Stack()
    with pytest.raises(TypeError):
        Stack((), gates=())
    # _trusted skips the checks: the caller vouches for the fields.
    loose = _trusted(Graph, vertex_count=1, edges=((1, 2),))
    assert repr(loose) == "Graph(vertex_count=1, edges=((1, 2),))"
