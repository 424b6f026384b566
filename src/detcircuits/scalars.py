"""Scalar arithmetic for the two supported ground fields.

Every value in the package is either an exact rational (an int, or a
fractions.Fraction, which keeps lowest terms and a positive denominator)
or a complex float.  A grid of ints and Fractions is exact and goes to
the exact kernels as it is.  normalize_grid, behind labeled(), skew() and
transfer_matrix, keeps ints and Fractions and demotes the whole grid to
complex when any entry is a float or complex.  Comparisons are exact on
the rational side; on the complex side two values agree when they differ
by at most 1e-9 times the larger of 1 and their magnitudes (absolute near
order 1, relative above).
"""

from __future__ import annotations

import sys
from cmath import isfinite
from fractions import Fraction
from itertools import chain
from math import isinf, lcm, prod
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, complex]

COMPLEX_TOL = 1e-9

# Longest token an error text quotes whole; see _name.
NAMED_WHOLE = 64

# By type, so a bool is not exact; unlike isinstance, this makes no call into
# Fraction's ABC metaclass for each int, and int zeros fill most exact grids.
_EXACT_TYPES = frozenset((int, Fraction))
_SCALAR_TYPES = _EXACT_TYPES | {complex}


def normalize_scalar(x) -> Scalar:
    """Keep ints, Fractions and complex values, make floats complex; reject
    everything else.  A bool is rejected, and other int subclasses become int."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return int(x)
    if isinstance(x, (Fraction, complex)):
        return x
    if isinstance(x, float):
        return complex(x)
    raise TypeError(f"unsupported scalar type {type(x).__name__}")


def is_exact(x: Scalar) -> bool:
    return type(x) in _EXACT_TYPES


def normalize_grid(rows: Sequence[Iterable]) -> tuple[tuple[Scalar, ...], ...]:
    """The rows as a tuple of tuples of scalars, all complex if any is.  One
    type scan passes a grid of ints and Fractions as it is; only one holding
    a type other than those and complex goes through normalize_scalar."""
    grid = tuple([tuple(row) for row in rows])
    kinds = set(map(type, chain.from_iterable(grid)))
    if _EXACT_TYPES.issuperset(kinds):
        return grid
    if not _SCALAR_TYPES.issuperset(kinds):
        grid = tuple([tuple([normalize_scalar(x) for x in row]) for row in grid])
        if grid_is_exact(grid):
            return grid
    return tuple([tuple(list(map(complex, row))) for row in grid])


def grid_is_exact(grid) -> bool:
    return _EXACT_TYPES.issuperset(map(type, chain.from_iterable(grid)))


def scalars_equal(a: Scalar, b: Scalar) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    a, b = complex(a), complex(b)
    try:
        return abs(a - b) <= COMPLEX_TOL * max(1.0, abs(a), abs(b))
    except OverflowError:  # a modulus past the largest float: compare a quarter of each
        return scalars_equal(a * 0.25, b * 0.25)


# --- determinants -----------------------------------------------------------

def det_grid(grid: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a square grid; det of the 0x0 grid is 1.

    Exact grids go through fraction-free Bareiss elimination on a
    denominator-cleared int copy.  A pivot updates only the rows it reaches
    (a nonzero in its column); every other row keeps a stamp, the pivot at
    which it was last current, and is rescaled by the exact division of its
    next update, as the Pfaffian kernel's _catch_up does.  So the work
    follows the rows each pivot reaches, and a banded or block grid costs
    far less than n^3.  A nonempty exact grid's value is a Fraction.
    Complex grids use LU with partial pivoting.  evaluate and the graph
    verbs call the kernels directly on rows they have just built.
    """
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("det_grid requires a square grid")
    if n == 0:
        return 1
    if grid_is_exact(grid):
        a, factors = clear_denominators(grid)  # det scales by prod(d)
        return Fraction(_det_bareiss_int(a), prod(factors))
    return _det_complex([[complex(x) for x in row] for row in grid])


def clear_denominators(grid) -> tuple[list[list[int]], list[int]]:
    """Each row times d_i, the lcm of its denominators, as ints; and the d_i."""
    # A set keeps lcm's argument tuple short: CPython 3.11 frees a 20-entry
    # tuple onto a free list it never takes from.
    factors = [lcm(*{x.denominator for x in row}) for row in grid]
    return [[x.numerator for x in row] if d == 1 else
            [x.numerator * (d // x.denominator) for x in row]
            for row, d in zip(grid, factors)], factors


def _det_bareiss_int(a: list[list[int]]) -> int:
    """det of a nonempty square int grid, eliminated in place."""
    n = len(a)
    # Entry (i, j) after pivot k is the minor on rows 0..k, i and columns
    # 0..k, j (Sylvester's identity), so the division by the last pivot prev
    # is exact.  A row with a 0 in the pivot column would only be scaled by
    # pivot / prev; it waits instead, its entries times prev / stamp[i] are
    # the current ones, and its c is off by that same factor.
    stamp = [1] * n
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:  # a stale entry is 0 exactly when the current one is
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    stamp[k], stamp[i] = stamp[i], stamp[k]
                    sign = -sign
                    break
            else:
                return 0
        ak = a[k]
        cols = range(k + 1, n)
        s = stamp[k]
        if s != prev:  # catch the pivot row up
            for j in range(k, n):
                ak[j] = ak[j] * prev // s
        pivot = ak[k]
        for i in cols:
            ai = a[i]
            c = ai[k]
            if c:
                s = stamp[i]
                for j in cols:
                    ai[j] = (ai[j] * pivot - c * ak[j]) // s
                stamp[i] = pivot
        prev = pivot
    return sign * a[n - 1][n - 1] * prev // stamp[n - 1]


def _det_complex(a: list[list[complex]]) -> complex:
    n = len(a)
    det = 1 + 0j
    for k in range(n):
        try:
            piv = max(range(k, n), key=lambda i: abs(a[i][k]))
            big = isinf(abs(a[piv][k].real) + abs(a[piv][k].imag))
        except OverflowError:  # a modulus past the largest float
            big = True
        if big:  # dividing by the pivot would overflow: column k / 4, det * 4
            for i in range(k, n):
                a[i][k] *= 0.25
            det *= 4
            piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        if not a[piv][k]:
            return 0j
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return det


# --- text round-trip --------------------------------------------------------

def format_scalar(x: Scalar) -> str:
    """Rationals print as p/q (bare integers without /1); complex as a+bi,
    a zero real part as 0, never -0 (adding 0.0 turns -0.0 into 0.0, as
    abs() does for the imaginary part).  A complex value that is not finite
    (a result that overflowed), or a rational with more digits than
    sys.get_int_max_str_digits() allows, raises OverflowError."""
    if is_exact(x):
        try:
            return str(x)
        except ValueError:  # str refuses an int over the limit
            raise OverflowError("exact value too long to print (over the "
                                f"{sys.get_int_max_str_digits()}-digit limit)") from None
    z = complex(x)
    if not isfinite(z):
        raise OverflowError(f"complex value {z} is not finite")
    re = f"{z.real + 0.0:.12g}"
    im = f"{abs(z.imag):.12g}"
    sign = "-" if z.imag < 0 else "+"
    return f"{re}{sign}{im}i"


def parse_scalar(token: str, field: str = "rational") -> Scalar:
    """Parse one scalar token in the given field ("rational" or "complex").

    In the rational field an integer token (an optional sign, then decimal
    digits) reads as an int and any other rational token as a Fraction; both
    are exact scalars.  A p/q token (an optional sign, decimal digits, a
    slash, decimal digits) with a nonzero denominator is read with int(),
    and every other spelling with Fraction(token).  A rational token whose
    exponent is past ten times sys.get_int_max_str_digits() in magnitude is
    refused, since Fraction would build 10**exponent first.  The complex
    field reads every token as complex."""
    token = token.strip()
    if field == "rational":
        # Plain integers skip Fraction's regex.  isdecimal() is the set of
        # digits Fraction's \d and int() both accept (isdigit() would let
        # through superscripts, which both reject).
        digits = token[1:] if token[:1] in "+-" else token
        try:
            if digits.isdecimal():
                return int(token)
            _check_exponent(token)
            head, slash, den = digits.partition("/")
            # p/q tokens skip the regex too.  The numerator is read first, as
            # Fraction does, so a digit string past the limit fails with the
            # same text.
            if slash and head.isdecimal() and den.isdecimal():
                p, q = int(head), int(den)
                if q:
                    return Fraction(-p if token[0] == "-" else p, q)
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational {_name(token)}: {_wrapped_text(exc, token)}") from exc
    _check_field(field)
    return _parse_complex(token)


def _check_field(field: str) -> None:
    if field not in ("rational", "complex"):
        raise ValueError(f"unknown field {field!r}")


def _name(token: str | int | tuple[int, ...] | set[int]) -> str:
    """A token as error text, a str quoted and an int, label tuple or label
    set as str prints it: whole up to 64 characters, else by its first 40
    characters, "..." and its length, so that a refused token of thousands
    of digits costs one short line.  An int past the digit limit is named
    by its bit length, a tuple or set holding one by its length."""
    try:
        text = str(token)
    except ValueError:
        size = f"{token.bit_length()} bits" if type(token) is int else f"{len(token)} labels"
        return f"<{type(token).__name__} of {size}>"
    show = repr if type(token) is str else str
    if len(text) <= NAMED_WHOLE:
        return show(token)
    return f"{show(text[:40])}... ({len(text)} characters)"


def _wrapped_text(exc: Exception, token: str) -> str:
    """The text of the error int() or Fraction raised on token.  For a token
    _name cuts, the quoted token in Fraction's text is cut the same way, a
    zero denominator's numerator is not echoed, and int()'s digit-limit text
    loses its advice on sys.set_int_max_str_digits(), which a detcirc user
    cannot follow."""
    if len(token) <= NAMED_WHOLE:
        return str(exc)
    if isinstance(exc, ZeroDivisionError):
        return "zero denominator"
    return str(exc).replace(repr(token), _name(token)).partition(";")[0]


def _check_exponent(token: str) -> None:
    """Refuse a rational token whose exponent is past ten times the digit
    limit (0 is no limit); parse_scalar adds the token to the text.  An
    exponent that int() cannot read is left for Fraction to reject."""
    limit = 10 * sys.get_int_max_str_digits()
    _, e, exp = token.lower().rpartition("e")
    if not (e and limit):
        return
    try:
        big = abs(int(exp)) > limit
    except ValueError:
        return
    if big:
        raise ValueError(f"exponent past the {limit} limit")


def _parse_complex(token: str) -> complex:
    t = token.replace(" ", "")
    if not t:
        raise ValueError("empty complex token")
    if t.endswith("i"):
        t = t[:-1] + "j"
    try:
        z = complex(t)
    except ValueError as exc:
        raise ValueError(f"bad complex {_name(token)}") from exc
    if not isfinite(z):
        raise ValueError(f"complex {_name(token)} is not finite")
    return z
