"""Dense exact linear algebra over rationals. Desk scale only.

Every exact sum of products in the package is a `dot`, which sums in
integers; elimination (`rref`) runs in integers too.

`as_fraction` reads every outside number: documents, CLI arguments (the
integer options too) and constructor arguments, all under `MAX_DIGITS`."""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import DimensionError, ParseError

Vector = tuple[Fraction, ...]

LITERAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")
"""The one rational literal: an optional sign, ASCII digits, and optionally
"/" and ASCII digits.  `match` accepts it whole or not at all."""

MAX_DIGITS = 4300
"""Most digits of an outside number's numerator or denominator: `as_fraction` refuses
more with ParseError, the document writers with TooLarge.  It is CPython's default
int/str conversion limit, so under default settings every document within it reads
and writes."""
_DIGIT_BOUND = 10 ** MAX_DIGITS


def too_long(value: Fraction) -> bool:
    """Has the numerator or the denominator more than MAX_DIGITS digits?"""
    return not -_DIGIT_BOUND < value.numerator < _DIGIT_BOUND or value.denominator >= _DIGIT_BOUND


def as_fraction(value) -> Fraction:
    """value as a Fraction; the one place where a string becomes one.

    A Fraction comes back as it is.  A string must be a whole `LITERAL` with a
    nonzero denominator, and a string or an int may have at most MAX_DIGITS digits
    in its numerator and denominator; ParseError otherwise.  A float: TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted, use int, Fraction or 'p/q'")
    if not isinstance(value, str):
        number = Fraction(value)
    elif not LITERAL.match(value):
        raise ParseError(f"expected an integer or a 'p/q' literal, got {value!r}")
    else:
        try:
            number = Fraction(value)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {value!r}") from None
        except ValueError:  # more digits than int/str conversion allows
            number = None
    if number is None or too_long(number):
        raise ParseError(f"a numerator or denominator has more than {MAX_DIGITS} digits")
    return number


def as_vector(values: Sequence) -> Vector:
    """values, a tuple or a list, as a tuple of Fractions, each read by `as_fraction`.

    Anything else is refused with DimensionError: a number, a set, and a string,
    whose characters would pass for entries."""
    if not isinstance(values, (tuple, list)):
        raise DimensionError(f"expected a tuple or list of numbers, got {type(values).__name__}")
    return tuple(as_fraction(v) for v in values)


def sized(values: Sequence, n: int, what: str) -> Sequence:
    """values itself, or DimensionError unless it has n entries."""
    if len(values) != n:
        raise DimensionError(f"{what} has {len(values)} entries, expected {n}")
    return values


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """sum of a_i * b_i over Fractions or ints, exactly; DimensionError unless the
    lengths match.  The empty sum is Fraction(0).

    It sums in integers: num over den, with one gcd per nonzero term and one
    Fraction at the end.  Invariant: after each term, num/den is the partial
    sum, and den is the lcm of d_i = x_i.denominator * y_i.denominator over
    the nonzero terms so far (1 before the first).  Proof, by induction: it
    holds at num = 0, den = 1.  A term x*y = p/d, p = x.numerator *
    y.numerator, with g = gcd(den, d), gives num/den + p/d =
    (num*(d/g) + p*(den/g)) / (den*(d/g)), and den*(d/g) = den*d/g is
    lcm(den, d), the lcm with d added; d/g and den/g are integers.  A term
    with a zero factor adds 0 and is skipped.  So at the end num/den is the
    sum, and Fraction(num, den) reduces it to lowest terms, the value that
    summing the Fraction products gives."""
    if len(a) != len(b):
        raise DimensionError(f"dot: {len(a)} vs {len(b)}")
    num, den = 0, 1
    for x, y in zip(a, b):
        if x and y:
            d = x.denominator * y.denominator
            g = gcd(den, d)
            num = num * (d // g) + x.numerator * y.numerator * (den // g)
            den *= d // g
    return Fraction(num, den)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form. Returns (reduced rows, pivot column indices).

    The elimination runs in integers (fraction-free Gauss-Jordan; Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", 1968).  Each row is first multiplied by the lcm of its
    entries' denominators, a positive scale.  A pivot p in row prow turns
    each other row with entry f in its column into p*row - f*prow, divided
    by the gcd of its entries.  At every step each row is a nonzero multiple
    of the row that Gauss-Jordan over Fractions, which scales each pivot to
    1 at once, holds at the same step.  So the zeros fall in the same places
    and the same pivots are chosen.  Dividing each final row by its pivot
    entry gives Fractions and a reduced row echelon form of the matrix.  That
    form is unique, so the result equals the Fraction elimination's, entry
    for entry."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    mat = []
    for r in rows:
        if len(r) != ncols:
            raise DimensionError("ragged matrix")
        scale = lcm(*(v.denominator for v in r))
        mat.append([v.numerator * (scale // v.denominator) for v in r])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(row, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        prow = mat[row]
        p = prow[col]
        for i, r in enumerate(mat):
            f = r[col]
            if f and i != row:
                r = [p * v - f * u for v, u in zip(r, prow)]
                g = gcd(*r)
                mat[i] = [v // g for v in r] if g > 1 else r
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return [[Fraction(v, r[c]) for v in r] for r, c in zip(mat, pivots)], pivots


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine hull of the points. Empty input gives -1."""
    pts = [list(p) for p in points]
    if not pts:
        return -1
    base = pts[0]
    for p in pts:
        if len(p) != len(base):
            raise DimensionError("points of mixed dimension")
    diffs = [[v - b for v, b in zip(p, base)] for p in pts[1:]]
    if not diffs:
        return 0
    return matrix_rank(diffs)


def nullspace_basis(rows: Sequence[Sequence[Fraction]], dim: int) -> list[Vector]:
    """Basis of {u : rows @ u = 0}, one vector per free column of the RREF.

    With no rows at all this is exactly the standard basis of R^dim, in order.
    """
    for r in rows:
        if len(r) != dim:
            raise DimensionError("row length does not match dim")
    reduced, pivots = rref(rows)
    free_cols = [c for c in range(dim) if c not in pivots]
    basis: list[Vector] = []
    for f in free_cols:
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def solve_square(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Vector]:
    """Solve a square system exactly; None when the matrix is singular."""
    n = len(matrix)
    if any(len(r) != n for r in matrix) or len(rhs) != n:
        raise DimensionError("solve_square needs an n x n matrix and an n-vector")
    reduced, pivots = rref([list(row) + [r] for row, r in zip(matrix, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(row[n] for row in reduced)
