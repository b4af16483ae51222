"""Dense exact linear algebra over rationals. Desk scale only."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError

Vector = tuple[Fraction, ...]


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted, use int, Fraction or 'p/q'")
    return Fraction(value)


def as_vector(values: Sequence) -> Vector:
    return tuple(as_fraction(v) for v in values)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise DimensionError(f"dot: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form. Returns (reduced rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    for r in mat:
        if len(r) != ncols:
            raise DimensionError("ragged matrix")
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [v - f * p for v, p in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots


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
