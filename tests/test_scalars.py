import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detcircuits.labeled import labeled
from detcircuits.scalars import (
    _name,
    det_grid,
    format_scalar,
    normalize_grid,
    normalize_scalar,
    parse_scalar,
    scalars_equal,
)
from paper import det_cofactor

rationals = st.fractions(max_denominator=20).map(
    lambda f: Fraction(f.numerator, f.denominator))


def test_normalize_scalar_types():
    assert normalize_scalar(3) == Fraction(3)
    assert type(normalize_scalar(3)) is int
    assert normalize_scalar(0.5) == 0.5 + 0j
    assert isinstance(normalize_scalar(0.5), complex)
    with pytest.raises(TypeError):
        normalize_scalar(True)
    with pytest.raises(TypeError):
        normalize_scalar("1")


def test_normalize_grid_demotes_to_complex():
    grid = normalize_grid([[1, Fraction(1, 2)], [0.25, 2]])
    assert all(isinstance(x, complex) for row in grid for x in row)
    grid = normalize_grid([[1, 2], [3, 4]])
    assert all(type(x) is int for row in grid for x in row)


def test_ints_stay_ints_and_parsed_integers_become_ints():
    assert normalize_scalar(-3) == -3 and type(normalize_scalar(-3)) is int
    half = Fraction(1, 2)
    assert normalize_scalar(half) is half
    m = labeled((1, 2), (3, 4), [[0, 7], [half, -2]])
    assert [[type(x) for x in row] for row in m.entries] == [[int, int], [Fraction, int]]
    assert m.entries == ((0, 7), (half, -2))
    # The parser reads integer tokens as int and p/q tokens as Fraction.
    assert type(parse_scalar("3")) is int and parse_scalar("3") == 3
    assert type(parse_scalar("-3")) is int and parse_scalar("-3") == -3
    assert type(parse_scalar("6/2")) is Fraction and parse_scalar("6/2") == 3


def test_int_subclasses_become_int():
    class Count(int):
        pass

    got = normalize_scalar(Count(5))
    assert type(got) is int and got == 5
    assert [[type(x) for x in row] for row in normalize_grid([[Count(2), 1]])] == [[int, int]]


@pytest.mark.parametrize("bad", [True, False, "1", None, b"1", [1]])
def test_non_scalars_are_rejected(bad):
    with pytest.raises(TypeError):
        normalize_scalar(bad)
    with pytest.raises(TypeError):
        normalize_grid([[1, bad]])


def test_float_subclasses_become_complex():
    class Weight(float):
        pass

    got = normalize_scalar(Weight(0.25))
    assert type(got) is complex and got == 0.25
    assert type(normalize_scalar(2.0)) is complex


def test_mixed_grid_demotes_every_entry_to_complex():
    grid = normalize_grid([[0, 3, Fraction(-1, 4)], [1j, Fraction(2), 5]])
    assert all(type(x) is complex for row in grid for x in row)
    assert grid == ((0j, 3 + 0j, -0.25 + 0j), (1j, 2 + 0j, 5 + 0j))
    m = labeled((1,), (2, 3), [[7, 0.5]])
    assert m.entries == ((7 + 0j, 0.5 + 0j),)
    assert all(type(x) is complex for x in m.entries[0])


class _Count(int):
    pass


def _reference_scalar(x):
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return int(x)
    if isinstance(x, (Fraction, complex)):
        return x
    if isinstance(x, float):
        return complex(x)
    raise TypeError(f"unsupported scalar type {type(x).__name__}")


def _reference_grid(rows):
    """labeled()'s rule entry by entry: each entry normalized on its own,
    then every entry made complex unless all are ints and Fractions."""
    grid = [[_reference_scalar(x) for x in row] for row in rows]
    if not all(type(x) in (int, Fraction) for row in grid for x in row):
        grid = [[complex(x) for x in row] for row in grid]
    return tuple([tuple(row) for row in grid])


_mixed_entries = st.one_of(
    st.integers(-5, 5), rationals, st.integers(-5, 5).map(_Count),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.floats(-10, 10), st.booleans())


@given(st.integers(0, 4).flatmap(lambda c: st.lists(
           st.tuples(st.lists(_mixed_entries, min_size=c, max_size=c),
                     st.sampled_from(["list", "tuple", "generator"])), max_size=4)))
@example([([1, Fraction(1, 2), 3j], "generator")])
@example([([_Count(2), 0], "generator"), ([0.5, True], "list")])
@settings(max_examples=300, deadline=None)
def test_normalize_grid_keeps_the_entry_by_entry_rule(spec):
    shapes = {"list": list, "tuple": tuple, "generator": lambda row: (x for x in row)}
    rows = [shapes[shape](row) for row, shape in spec]
    try:
        want = _reference_grid([row for row, _ in spec])
    except TypeError as exc:
        with pytest.raises(TypeError, match=f"^{re.escape(str(exc))}$"):
            normalize_grid(rows)
        return
    got = normalize_grid(rows)
    assert got == want and type(got) is tuple and all(type(row) is tuple for row in got)
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]


def test_name_an_int_past_the_digit_limit_by_its_bits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert _name(10**5000) == "<int of 16610 bits>"
        assert _name((1, 10**5000)) == "<tuple of 2 labels>"
        assert _name(10**4000) == "1" + "0" * 39 + "... (4001 characters)"
    finally:
        sys.set_int_max_str_digits(limit)


def test_det_small_cases():
    assert det_grid([]) == Fraction(1)
    assert det_grid([[Fraction(7)]]) == 7
    assert det_grid([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2


def test_det_exact_with_fractions():
    g = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    assert det_grid(g) == Fraction(1, 10) - Fraction(1, 12)


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_bareiss_matches_cofactor_expansion(grid):
    assert det_grid(grid) == det_cofactor(grid)


def test_int_grids_take_the_exact_path():
    # As floats both products round to 2**120 and the determinant to 0.
    got = det_grid([[2**60 + 1, 2**60], [2**60, 2**60 - 1]])
    assert type(got) is Fraction and got == -1
    mixed = [[Fraction(1, 3), 2**60, 1], [2**60 + 1, 3, Fraction(-2, 5)], [7, 0, 2**61]]
    got = det_grid(mixed)
    assert type(got) is Fraction and got == det_cofactor(mixed)


@st.composite
def sparse_int_grids(draw):
    """n x n int grids, n <= 7, most entries 0; a third of them made singular
    by a scaled copy of one row over another."""
    n = draw(st.integers(1, 7))
    entry = st.sampled_from((0,) * 7 + (1, -1, 2, -3, 5, 2**40 + 1))
    grid = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        grid[j] = [draw(st.sampled_from((1, -2))) * x for x in grid[i]]
    return grid


def _same_as_fractions(grid):
    """det_grid of grid, checked against the same grid written as Fractions:
    equal values, both of type Fraction."""
    got = det_grid(grid)
    as_fractions = det_grid([[Fraction(x) for x in row] for row in grid])
    assert got == as_fractions
    assert type(got) is Fraction and type(as_fractions) is Fraction
    return got


@given(sparse_int_grids())
@settings(max_examples=80, deadline=None)
def test_sparse_int_grids_match_cofactor_expansion(grid):
    assert _same_as_fractions(grid) == det_cofactor(grid)


def test_zero_pivot_swaps_in_a_stale_row():
    # Pivot 0 (3) reaches rows 1 and 2, and row 3 waits at stamp 1 while
    # row 1's diagonal becomes 0.  Row 3 is swapped in with its stamp and
    # caught up from 1 to 3; row 1 leaves with stamp 3 and waits, as row 2
    # does, until pivot 2 reads them.  Swapping the rows but not the stamps
    # gives pivot 1 a third of its value.
    grid = [[3, 0, 0, -1], [3, 0, 2, 0], [1, 0, 3, 0], [0, -1, 0, 0]]
    assert _same_as_fractions(grid) == 7 == det_cofactor(grid)
    # Here the swapped-out row is still stale at the end.
    grid = [[2, 1, 1], [2, 1, 4], [0, 3, 5]]
    assert _same_as_fractions(grid) == -18 == det_cofactor(grid)


def test_permutation_grids_wait_for_their_columns():
    # Every row but the pivot's has a 0 in the pivot column until its own
    # column comes up, and then it is swapped in as the pivot row.  Nonunit
    # entries leave each waiting row's stamp behind the current pivot.
    rng = random.Random(3)
    signs = set()
    for n in range(2, 8):
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            grid = [[0] * n for _ in range(n)]
            for i, j in enumerate(perm):
                grid[i][j] = rng.choice((1, -1, 2, 3, -5))
            want = det_cofactor(grid)
            assert _same_as_fractions(grid) == want
            signs.add(want > 0)
    # A cyclic shift of n rows has sign (-1)^(n-1).
    for n, sign in ((4, -1), (5, 1)):
        shift = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
        assert _same_as_fractions(shift) == sign
    assert signs == {True, False}


def test_block_diagonal_grid_ends_on_a_stale_row():
    # The last 1x1 block waits through every pivot, so the result is its
    # stale entry caught up by prev // stamp.
    grid = [[2, 1, 0, 0, 0], [1, 3, 0, 0, 0], [0, 0, 4, 1, 0], [0, 0, 1, 2, 0], [0, 0, 0, 0, 3]]
    assert _same_as_fractions(grid) == 5 * 7 * 3
    grid[4][4] = -2**70
    assert _same_as_fractions(grid) == 5 * 7 * -2**70


def test_det_of_the_one_and_zero_grids():
    assert _same_as_fractions([[5]]) == 5
    assert _same_as_fractions([[0]]) == 0
    assert _same_as_fractions([[-2**80]]) == -2**80
    assert det_grid([]) == 1  # the empty product, for any field


def test_ints_compare_and_print_exactly():
    assert not scalars_equal(10**17 + 1, 10**17)
    assert scalars_equal(10**17, Fraction(10**17))
    assert format_scalar(3) == "3"
    assert format_scalar(-3) == "-3"


def test_det_complex_matches_cofactor():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        g = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
             for _ in range(n)]
        assert abs(det_grid(g) - det_cofactor(g)) < 1e-8


def test_singular_rational_matrix():
    g = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det_grid(g) == 0


def test_format_rational():
    assert format_scalar(Fraction(3)) == "3"
    assert format_scalar(Fraction(-7, 2)) == "-7/2"


def test_format_complex():
    assert format_scalar(1 + 2j) == "1+2i"
    assert format_scalar(1.5 - 0.25j) == "1.5-0.25i"


def test_format_complex_zero_parts_print_unsigned():
    assert format_scalar(complex(-0.0, 2.0)) == "0+2i"
    assert format_scalar(-0j) == "0+0i"
    assert format_scalar(complex(-0.0, -0.0)) == "0+0i"
    assert format_scalar(complex(-0.0, -4.0)) == "0-4i"


def test_det_grid_refuses_a_non_square_grid():
    with pytest.raises(ValueError, match="square"):
        det_grid([[1, 2]])


def test_blank_complex_token_is_refused():
    with pytest.raises(ValueError, match="empty complex token"):
        parse_scalar(" ", "complex")


def test_parse_round_trip_rational():
    for x in (Fraction(0), Fraction(5), Fraction(-3, 7), Fraction(22, 51)):
        assert parse_scalar(format_scalar(x), "rational") == x


def test_parse_round_trip_complex():
    rng = random.Random(5)
    for _ in range(20):
        z = complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
        back = parse_scalar(format_scalar(z), "complex")
        assert abs(back - z) < 1e-9


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("zap", "rational")
    with pytest.raises(ValueError):
        parse_scalar("1+2x", "complex")
    with pytest.raises(ValueError):
        parse_scalar("1", "octonion")


def test_scalars_equal_mixed():
    assert scalars_equal(Fraction(1, 2), 0.5 + 0j)
    assert not scalars_equal(Fraction(1, 2), 0.5 + 1e-6j)
    assert scalars_equal(Fraction(1, 3), Fraction(1, 3))
    assert not scalars_equal(Fraction(1, 3), Fraction(1, 4))


def test_scalars_equal_is_absolute_near_order_one():
    assert scalars_equal(0.5 + 0j, 0.5 + 0.9e-9j)
    assert not scalars_equal(0.5 + 0j, 0.5 + 1.1e-9j)
    assert not scalars_equal(0j, 2e-9 + 0j)
    assert not scalars_equal(1 + 0j, 1 + 2e-9j)
    assert not scalars_equal(Fraction(0), 2e-9 + 0j)


def test_scalars_equal_is_relative_at_large_magnitude():
    assert scalars_equal(5e5 + 0j, 5e5 + 1e-5 + 0j)  # 2e-11 relative
    assert not scalars_equal(5e5 + 0j, 5e5 + 1e-3 + 0j)  # 2e-9 relative
    assert scalars_equal(-1e12j, -1e12j + 900)
    assert not scalars_equal(-1e12j, -1e12j + 1100)


# Finite, but its modulus passes the largest float, so abs() raises on it.
HUGE = 1.2711610061536462e+308 + 1.2711610061536464e+308j


def test_complex_values_past_the_largest_modulus():
    with pytest.raises(OverflowError):
        abs(HUGE)
    assert scalars_equal(HUGE, HUGE)
    assert scalars_equal(HUGE, HUGE * (1 + 1e-12))
    assert not scalars_equal(HUGE, -HUGE)
    assert not scalars_equal(HUGE, HUGE * (1 + 1e-6))
    assert not scalars_equal(HUGE, 0j) and not scalars_equal(1, HUGE)
    # The pivot search takes the largest entry even so, and the elimination
    # divides by it without overflowing.
    assert det_grid([[HUGE]]) == HUGE
    assert det_grid([[0j, 1 + 0j], [HUGE, 2 + 0j]]) == -HUGE
    assert scalars_equal(det_grid([[1 + 0j, 0j], [HUGE, 2 + 0j]]), 2)


# abs() of this is finite (1.7e308), but its parts sum past the largest
# float, and that sum is the denominator of CPython's complex division.
WIDE = 1.2e308 + 1.2e308j


def test_det_divides_by_a_pivot_whose_parts_sum_past_the_largest_float():
    assert abs(WIDE) < 1.8e308 and 1 / WIDE == 0
    assert scalars_equal(det_grid([[1, 0], [WIDE, 2]]), 2)
    assert scalars_equal(det_grid([[WIDE, 1], [1, 0]]), -1)
    assert det_grid([[WIDE]]) == WIDE


# Signs, separators, ASCII and Arabic-Indic digits, superscripts (isdigit
# but not decimal), exponents, fractions, points, whitespace and junk.
_TOKEN_CHARS = "0123456789+-_/.eE \t\u0663\u0661\u00b3\u00b2xj"


def _fraction_or_reject(token: str):
    """Fraction(token), or None where parse_scalar must refuse the token:
    where Fraction does, and where its exponent is past ten times the
    digit limit, which parse_scalar refuses before Fraction builds 10**N."""
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        return None
    return None if _exponent_past_limit(token) else value


def _exponent_past_limit(token: str) -> bool:
    exp = re.search(r"e([^e]*)$", token.lower())
    try:
        return bool(exp) and abs(int(exp.group(1))) > 10 * sys.get_int_max_str_digits()
    except ValueError:
        return False


@given(st.one_of(
    st.text(alphabet=_TOKEN_CHARS, max_size=8),
    st.integers().map(str),
    st.sampled_from(["1e3", "-2/3", "+7", "1_000", "\u0663", "\u00b3", "-\u0663",
                     "+-1", "--1", "1_", "_1", " 12 ", "0/5", "5/0", "", "-"]),
))
@example("0E43001")
@example("1e-43001")
@example("-1e43000")
@example("1" * 4400)  # an integer token past the limit: the same prefix
@example("1" * 4400 + "/3")  # p/q digit strings past the limit: Fraction's text,
@example("-3/" + "2" * 4400)  # which names the numerator's length when both are
@example("7" * 4500 + "/" + "8" * 4400)
@example("x" * 65)  # the shortest token whose name is cut
@example("1" * 65 + "/0")
@example("-0/00")
@settings(max_examples=400, deadline=None)
def test_parse_scalar_rational_matches_fraction(token):
    want = _fraction_or_reject(token)
    if want is None:
        with pytest.raises(ValueError, match="bad rational") as refused:
            parse_scalar(token, "rational")
        t = token.strip()
        try:  # Fraction's own text, where the exponent check lets it through
            Fraction(t)
        except (ValueError, ZeroDivisionError) as exc:
            if _exponent_past_limit(token):
                pass
            elif len(t) <= 64:
                assert str(refused.value) == f"bad rational {t!r}: {exc}"
            else:  # named by its first 40 characters and length, in a short line
                head = f"bad rational {t[:40]!r}... ({len(t)} characters): "
                text = str(refused.value)
                assert text.startswith(head) and len(text) < 200
                assert t not in text
    else:
        got = parse_scalar(token, "rational")
        # An integer token (a sign, then decimal digits) reads as int; any
        # other rational spelling (p/q, 1e3, 1_000) as Fraction.
        integer = re.fullmatch(r"[+-]?\d+", token.strip()) is not None
        assert type(got) is (int if integer else Fraction) and got == want
