"""Matrices with labeled rows and columns.

A LabeledMatrix is a morphism in the wire category: its column labels
name the incoming wires and its row labels the outgoing wires.  Labels
are plain ints, each distinct within one side of one matrix, and the
order of a label list is meaningful (it fixes the tensor-leg layout
everywhere else in the package).  Degenerate shapes (0xk, kx0, 0x0) are
ordinary values here; the empty determinant is 1.

Composition matches the interface by label set, not by position: the
right factor's rows are permuted into the left factor's column order
before the ordinary matrix product is taken.

_Value, the base of LabeledMatrix and of the package's other immutable
values, stands in for frozen dataclasses, which cost a process more to
import and to define (README, "Start-up").
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import DuplicateLabel, LabelCollision, LabelMismatch, NotEndomorphism
from .scalars import Scalar, _name, det_grid, normalize_grid

WireLabel = int


def _check_labels(labels: tuple[int, ...], what: str) -> None:
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"repeated {what} in {_name(labels)}")


class _Value:
    """Base of the package's immutable values.

    A subclass's fields are the names annotated in its class body, in
    order.  Its __init__ takes them as positional or keyword arguments,
    except those named in the class keyword `computed`, which its
    __post_init__ sets; __init__ calls __post_init__ when the class has
    one.  Two values are equal when they are of the same class and their
    field tuples are equal, the hash is that of the field tuple, and the
    repr is `Name(field=value, ...)`.  A field cannot be assigned or
    deleted (AttributeError).  A value keeps its __dict__: _trusted fills
    it directly, and the parsers record a circuit's field through
    object.__setattr__.
    """

    def __init_subclass__(cls, computed=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        args = [f for f in cls._fields if f not in computed]
        # Written out per class, as namedtuple does, so that building a
        # value costs as little as a hand-written __init__: a generic one
        # over *args and **kwargs costs about three times as much.
        lines = [f"def __init__(self, {', '.join(args)}):", "    d = self.__dict__"]
        lines += [f"    d[{f!r}] = {f}" for f in args]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {}
        exec("\n".join(lines), namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LabeledMatrix(_Value):
    rows: tuple[WireLabel, ...]
    cols: tuple[WireLabel, ...]
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        _check_labels(self.rows, "row label")
        _check_labels(self.cols, "column label")
        if len(self.entries) != len(self.rows):
            raise ValueError("entry grid has wrong row count")
        for row in self.entries:
            if len(row) != len(self.cols):
                raise ValueError("entry grid has wrong column count")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)


def _trusted(cls, **fields):
    """An instance of the value class cls holding fields, built without
    __init__ or __post_init__.  For values compile_circuit and
    transfer_matrix build consistent by construction, and for graphs
    parse_graph has already checked; a hand-built value is still checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def labeled(rows: Sequence[int], cols: Sequence[int], entries: Sequence[Sequence]) -> LabeledMatrix:
    """Build a LabeledMatrix, normalizing entry types."""
    return LabeledMatrix(tuple(rows), tuple(cols), normalize_grid(entries))


def identity(labels: Sequence[int]) -> LabeledMatrix:
    n = len(labels)
    ent = [[int(i == j) for j in range(n)] for i in range(n)]
    return labeled(labels, labels, ent)


def compose(n: LabeledMatrix, m: LabeledMatrix) -> LabeledMatrix:
    """Matrix product n*m along matching label sets (cols of n = rows of m)."""
    if set(n.cols) != set(m.rows):
        raise LabelMismatch(f"cannot compose: columns {n.cols} vs rows {m.rows}")
    # Align the contraction axis: fetch m's rows in n's column-label order.
    pos = {lab: i for i, lab in enumerate(m.rows)}
    mid = [m.entries[pos[lab]] for lab in n.cols]
    cols = [[r[j] for r in mid] for j in range(len(m.cols))]
    out = [[sum(map(mul, row, col)) for col in cols] for row in n.entries]
    return labeled(n.rows, m.cols, out)


def direct_sum(a: LabeledMatrix, b: LabeledMatrix) -> LabeledMatrix:
    """Block diagonal sum; label lists concatenate and must stay disjoint."""
    if set(a.rows) & set(b.rows) or set(a.cols) & set(b.cols):
        raise LabelCollision("direct_sum requires disjoint labels")
    ra, ca = a.shape
    rb, cb = b.shape
    ent = []
    for i in range(ra):
        ent.append(list(a.entries[i]) + [0] * cb)
    for i in range(rb):
        ent.append([0] * ca + list(b.entries[i]))
    return labeled(a.rows + b.rows, a.cols + b.cols, ent)


def permutation_matrix(mapping: Mapping[int, int],
                       cols: Sequence[int],
                       rows: Sequence[int]) -> LabeledMatrix:
    """0/1 matrix of a label bijection: entry (mapping[c], c) is 1."""
    rows = tuple(rows)
    cols = tuple(cols)
    ent = [[int(mapping[c] == r) for c in cols] for r in rows]
    return labeled(rows, cols, ent)


def principal_minor_sum(m: LabeledMatrix) -> Scalar:
    """det(I + m) for an endomorphism; equals the sum of all principal minors."""
    if set(m.rows) != set(m.cols):
        raise NotEndomorphism(f"rows {m.rows} and cols {m.cols} differ as sets")
    pos = {lab: j for j, lab in enumerate(m.cols)}
    grid = []
    for i, lab in enumerate(m.rows):
        row = [m.entries[i][pos[other]] for other in m.rows]
        row[i] = row[i] + 1
        grid.append(row)
    return det_grid(grid)


def submatrix(m: LabeledMatrix, row_labels: Iterable[int], col_labels: Iterable[int]) -> LabeledMatrix:
    """Submatrix on the given labels, kept in m's own row/column order."""
    rset = set(row_labels)
    cset = set(col_labels)
    rs = [i for i, lab in enumerate(m.rows) if lab in rset]
    cs = [j for j, lab in enumerate(m.cols) if lab in cset]
    ent = [[m.entries[i][j] for j in cs] for i in rs]
    return labeled([m.rows[i] for i in rs], [m.cols[j] for j in cs], ent)
