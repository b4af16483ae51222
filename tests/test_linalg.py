import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bendercuts.errors import DimensionError, ParseError
from bendercuts.linalg import (MAX_DIGITS, affine_rank, as_fraction, as_vector, dot,
                               matrix_rank, nullspace_basis, rref, solve_square)

ints = st.integers(-6, 6)


def frac_matrix(rows, cols):
    return st.lists(
        st.lists(ints.map(F), min_size=cols, max_size=cols).map(tuple),
        min_size=rows, max_size=rows).map(tuple)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    assert as_fraction(3) == F(3)
    assert as_fraction(F(2, 7)) == F(2, 7)


def test_as_fraction_reads_strings_with_the_one_grammar():
    assert [as_fraction(s) for s in ("3", "-2/7", "+3", "10/4")] == [3, F(-2, 7), 3, F(5, 2)]
    for refused in ("1.5", "1e3", "1_000", "\u0663/4", " 3/4", "1/0", ""):
        with pytest.raises(ParseError):
            as_fraction(refused)


def test_as_fraction_bounds_digits():
    """A string or an int past MAX_DIGITS digits is refused; a Fraction is taken as it is."""
    widest = "9" * MAX_DIGITS
    assert as_fraction(widest) == as_fraction(int(widest)) == 10 ** MAX_DIGITS - 1
    assert as_fraction(f"-1/{widest}") == F(-1, 10 ** MAX_DIGITS - 1)
    for refused in ("1" * (MAX_DIGITS + 1), "1/" + "3" * (MAX_DIGITS + 1), 10 ** MAX_DIGITS):
        with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
            as_fraction(refused)
    assert as_fraction(F(10 ** MAX_DIGITS)) == 10 ** MAX_DIGITS
    with pytest.raises(ParseError, match="zero denominator in '1/0'"):
        as_fraction("1/0")


def test_as_vector():
    assert as_vector([1, F(1, 2)]) == (F(1), F(1, 2))
    # a vector is a tuple or a list: a string's characters are not its entries
    for refused in ("12", 5, {1, 2}, range(2)):
        with pytest.raises(DimensionError):
            as_vector(refused)


def test_dot():
    assert dot((F(1), F(2)), (F(3), F(4))) == F(11)
    empty = dot((), [])
    assert type(empty) is F and empty == 0
    with pytest.raises(DimensionError):
        dot((F(1), F(2)), (F(3),))


def reference_dot(a, b):
    """The sum of the Fraction products, term by term."""
    return sum((x * y for x, y in zip(a, b)), F(0))


_WIDE = 10 ** (MAX_DIGITS - 1)
dot_entries = st.one_of(
    st.just(0), st.just(F(0)),
    st.integers(-10 ** 6, 10 ** 6),  # plain ints
    ints.map(F),  # integer-valued Fractions
    st.fractions(max_denominator=60),
)
# a numerator and a denominator of MAX_DIGITS digits, and a short one over a wide one
wide_entries = st.tuples(st.integers(-9, 9), st.integers(1, 9)).flatmap(
    lambda t: st.sampled_from([F(t[0] * _WIDE + 1, t[1] * _WIDE - 1), F(t[0], t[1] * _WIDE + 7)]))


@given(st.data())
def test_dot_equals_the_sum_of_fraction_products(data):
    n = data.draw(st.integers(0, 7))
    a = data.draw(st.lists(dot_entries, min_size=n, max_size=n))
    b = data.draw(st.lists(dot_entries, min_size=n, max_size=n).map(tuple))
    if n and data.draw(st.booleans()):
        a[data.draw(st.integers(0, n - 1))] = data.draw(wide_entries)
    got = dot(a, b)
    assert type(got) is F and got == reference_dot(a, b)


def test_matrix_rank_known():
    assert matrix_rank(((F(1), F(2)), (F(2), F(4)))) == 1
    assert matrix_rank(((F(1), F(0)), (F(0), F(1)))) == 2
    assert matrix_rank(()) == 0


def test_affine_rank_degenerate():
    assert affine_rank([]) == -1
    assert affine_rank([(F(3), F(4))]) == 0
    assert affine_rank([(F(0),), (F(1),)]) == 1
    # three collinear points still span a line
    assert affine_rank([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]) == 1


def test_solve_square_known():
    sol = solve_square(((F(2), F(0)), (F(0), F(4))), (F(6), F(8)))
    assert sol == (F(3), F(2))
    assert solve_square(((F(1), F(1)), (F(2), F(2))), (F(1), F(2))) is None


def test_nullspace_of_empty_row_set():
    basis = nullspace_basis((), 2)
    assert len(basis) == 2
    assert matrix_rank(basis) == 2


@given(frac_matrix(3, 3), st.lists(ints.map(F), min_size=3, max_size=3).map(tuple))
def test_solve_square_verifies(matrix, rhs):
    sol = solve_square(matrix, rhs)
    if sol is not None:
        assert tuple(dot(row, sol) for row in matrix) == rhs


@given(frac_matrix(2, 4))
def test_nullspace_annihilates(rows):
    basis = nullspace_basis(rows, 4)
    for v in basis:
        assert all(dot(row, v) == 0 for row in rows)
    assert len(basis) == 4 - matrix_rank(rows)


@given(frac_matrix(3, 2))
def test_rank_bounded(rows):
    r = matrix_rank(rows)
    assert 0 <= r <= 2


def _fraction_rref(rows):
    """Gauss-Jordan over Fractions that makes each pivot 1 at once: the
    reference the integer elimination of `rref` must match."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        at = len(pivots)
        pivot_row = next((i for i in range(at, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[at], mat[pivot_row] = mat[pivot_row], mat[at]
        p = mat[at][col]
        mat[at] = [v / p for v in mat[at]]
        for i, r in enumerate(mat):
            if i != at and r[col]:
                mat[i] = [v - r[col] * u for v, u in zip(r, mat[at])]
        pivots.append(col)
    return mat[:len(pivots)], pivots


def _random_matrix(rng, rows, cols):
    """Entries in [-9, 9] over denominators 1, 2, 3 or 7, a third of them 0;
    then, by chance, a duplicate row, a multiple of a row, a zero row and a
    zero column."""
    def entry():
        return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) if rng.random() < 0.67 else F(0)
    mat = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        mat[rng.randrange(rows)] = list(mat[rng.randrange(rows)])
    if rows > 1 and rng.random() < 0.3:
        scale = F(rng.choice((-3, -1, 2)), rng.choice((1, 5)))
        mat[rng.randrange(rows)] = [scale * v for v in mat[rng.randrange(rows)]]
    if rows and rng.random() < 0.2:
        mat[rng.randrange(rows)] = [F(0)] * cols
    if cols and rng.random() < 0.2:
        j = rng.randrange(cols)
        for r in mat:
            r[j] = F(0)
    return mat


def test_rref_matches_fraction_gauss_jordan():
    """Seeded matrices of every shape up to 6 x 6, tall and wide, one row or
    one column, and empty: the integer elimination gives the reference's
    reduced rows and pivots, entry for entry, all Fractions; `matrix_rank`
    and `solve_square` agree with it too."""
    rng = random.Random(26)
    for rows in range(7):
        for cols in range(7):
            for _ in range(12):
                mat = _random_matrix(rng, rows, cols)
                reduced, pivots = rref(mat)
                assert (reduced, pivots) == _fraction_rref(mat)
                assert all(type(v) is F for r in reduced for v in r)
                assert matrix_rank(mat) == len(pivots)
                if rows == cols:
                    rhs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rows)]
                    ref, ref_pivots = _fraction_rref([r + [b] for r, b in zip(mat, rhs)])
                    expected = (tuple(r[rows] for r in ref)
                                if ref_pivots == list(range(rows)) else None)
                    assert solve_square(mat, rhs) == expected


def test_rref_refuses_a_ragged_matrix():
    for ragged in ([[F(1), F(2)], [F(3)]], [[F(1)], [F(2), F(3)]], [[], [F(1)]]):
        with pytest.raises(DimensionError, match="ragged matrix"):
            rref(ragged)
        with pytest.raises(DimensionError):
            matrix_rank(ragged)
