"""Exact two-phase simplex over rationals.

Every consumer in the package relies on one sign convention, stated here once:

* internally the problem is a minimization over rows normalized to <=-form
  (">=" rows are negated, "=" rows stay equalities, finite variable bounds are
  appended as extra <= rows, maximizations negate the objective);
* ``LpOutcome.dual`` and ``LpOutcome.farkas`` carry one multiplier per entry of
  ``LinearProgram.normalized_rows()``; the first ``len(rows)`` entries line up
  with the original rows;
* duals of "<=" rows are nonpositive and the dual objective ``dual . rhs``
  equals the primal optimum of the internal minimization exactly;
* Farkas multipliers of "<=" rows are nonnegative (multipliers of "=" rows are
  sign-free in both vectors) and aggregate the rows into 0 <= negative.

Pivoting uses Bland's rule throughout, so solves are deterministic and free of
cycling.  All numbers are ``fractions.Fraction``; nothing here rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import DimensionError
from .linalg import Vector, as_fraction, as_vector, dot

LE = "<="
EQ = "="
GE = ">="

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


Row = tuple[Vector, str, Fraction]


@dataclass(frozen=True)
class LinearProgram:
    """min or max of objective . x subject to rows and optional variable bounds.

    rows are (coefficients, relation, rhs) with relation in {"<=", "=", ">="}.
    lower/upper are per-variable bounds, None meaning unbounded on that side.
    """

    sense: str
    objective: Vector
    rows: tuple[Row, ...]
    lower: tuple[Optional[Fraction], ...] = None  # type: ignore[assignment]
    upper: tuple[Optional[Fraction], ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise DimensionError(f"sense must be 'min' or 'max', got {self.sense!r}")
        objective = as_vector(self.objective)
        if not objective:
            raise DimensionError("a linear program needs at least one variable")
        n = len(objective)
        rows = []
        for coeffs, rel, rhs in self.rows:
            if rel not in (LE, EQ, GE):
                raise DimensionError(f"unknown relation {rel!r}")
            coeffs = as_vector(coeffs)
            if len(coeffs) != n:
                raise DimensionError(f"row has {len(coeffs)} coefficients, expected {n}")
            rows.append((coeffs, rel, as_fraction(rhs)))
        lower = self.lower if self.lower is not None else (None,) * n
        upper = self.upper if self.upper is not None else (None,) * n
        if len(lower) != n or len(upper) != n:
            raise DimensionError("bound vectors must match the variable count")
        lower = tuple(None if v is None else as_fraction(v) for v in lower)
        upper = tuple(None if v is None else as_fraction(v) for v in upper)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @cached_property
    def normalized_rows(self) -> tuple[tuple[Vector, str, Fraction], ...]:
        """<=-form rows: original rows (">=" negated), then bound rows.

        Bound rows come in variable order, lower bound (as -x_j <= -l) before
        upper bound (as x_j <= u).  dual/farkas vectors index this list.
        """
        n = self.num_vars
        out = []
        for coeffs, rel, rhs in self.rows:
            if rel == GE:
                out.append((tuple(-c for c in coeffs), LE, -rhs))
            else:
                out.append((coeffs, rel, rhs))
        for j in range(n):
            if self.lower[j] is not None:
                e = tuple(Fraction(-1) if i == j else _ZERO for i in range(n))
                out.append((e, LE, -self.lower[j]))
            if self.upper[j] is not None:
                e = tuple(_ONE if i == j else _ZERO for i in range(n))
                out.append((e, LE, self.upper[j]))
        return tuple(out)


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    primal: Optional[Vector] = None
    objective_value: Optional[Fraction] = None
    dual: Optional[Vector] = None
    farkas: Optional[Vector] = None
    ray: Optional[Vector] = None


def dual_objective_value(lp: LinearProgram, outcome: LpOutcome) -> Fraction:
    """dual . normalized rhs; equals the internal minimization optimum."""
    rhs = [r[2] for r in lp.normalized_rows]
    return dot(outcome.dual, rhs)


class _Tableau:
    """Dense simplex tableau with an artificial column per row."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        norm = lp.normalized_rows
        # columns: x_j split into 2j (+) and 2j+1 (-), a slack per "<=" row,
        # then one artificial per row
        slack = 2 * lp.num_vars
        self.art0 = slack + sum(rel == LE for _, rel, _ in norm)
        self.ncols = self.art0 + len(norm)
        self.sigma: list[Fraction] = []
        self.tab: list[list[Fraction]] = []
        for i, (coeffs, rel, rhs) in enumerate(norm):
            sigma = Fraction(-1) if rhs < 0 else _ONE
            row = [_ZERO] * (self.ncols + 1)
            for j, a in enumerate(coeffs):
                if a:
                    row[2 * j] = sigma * a
                    row[2 * j + 1] = -sigma * a
            if rel == LE:
                row[slack] = sigma
                slack += 1
            row[self.art0 + i] = _ONE
            row[-1] = sigma * rhs
            self.sigma.append(sigma)
            self.tab.append(row)
        self.basis = [self.art0 + i for i in range(len(norm))]
        self.obj: list[Fraction] = [_ZERO] * (self.ncols + 1)

    # -- internals --------------------------------------------------------

    def _pivot(self, r: int, c: int):
        prow = self.tab[r]
        inv = 1 / prow[c]
        # the scaled pivot row's nonzeros, found once; only these columns change
        nz = [(j, v * inv) for j, v in enumerate(prow) if v]
        for j, v in nz:
            prow[j] = v
        for row in (*self.tab, self.obj):
            f = row[c]
            if f and row is not prow:
                for j, v in nz:
                    row[j] -= f * v
        self.basis[r] = c

    def _run(self, limit: int) -> Optional[int]:
        """Bland pivoting on columns < limit: None when optimal, else the unbounded column."""
        obj = self.obj
        while True:
            enter = next((j for j in range(limit) if obj[j] < 0), None)
            if enter is None:
                return None
            leave = None
            best = None
            for i, row in enumerate(self.tab):
                t = row[enter]
                if t > 0:
                    ratio = row[-1] / t
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return enter
            self._pivot(leave, enter)

    def _price(self, costs: list[Fraction]):
        """Reduced costs (and minus the objective value, last) of one cost per column."""
        obj = costs + [_ZERO]
        for row, b in zip(self.tab, self.basis):
            cb = costs[b]
            if cb:
                for j in range(self.ncols + 1):
                    if row[j]:
                        # a unit cost, as all of phase one's are, needs no product
                        obj[j] -= row[j] if cb == 1 else cb * row[j]
        self.obj = obj

    def _drive_out_artificials(self):
        for i in range(len(self.tab)):
            if self.basis[i] >= self.art0:
                col = next((j for j in range(self.art0) if self.tab[i][j] != 0), None)
                # a redundant row (no such column) stays, its artificial basic at 0:
                # it is zero on every column phase two may enter, so no pivot or
                # ratio test touches it, and its dual reads 0
                if col is not None:
                    self._pivot(i, col)

    # -- readouts ---------------------------------------------------------

    def _row_duals(self, art_cost: Fraction) -> Vector:
        """Multipliers per normalized row, mapped back through sigma flips.

        y_i is read from the artificial column of row i, whose reduced cost is
        art_cost - y_i (artificials cost 1 in phase one, 0 in phase two).
        """
        return tuple(s * (art_cost - self.obj[self.art0 + i]) for i, s in enumerate(self.sigma))

    def _fold(self, vals: list[Fraction]) -> Vector:
        """Column values back to variables: x_j = x_j+ - x_j-."""
        return tuple(vals[2 * j] - vals[2 * j + 1] for j in range(self.lp.num_vars))

    def _primal(self) -> Vector:
        vals = [_ZERO] * self.ncols
        for i, b in enumerate(self.basis):
            vals[b] = self.tab[i][-1]
        return self._fold(vals)

    def _ray(self, enter: int) -> Vector:
        d = [_ZERO] * self.ncols
        d[enter] = _ONE
        for i, b in enumerate(self.basis):
            d[b] = -self.tab[i][enter]
        return self._fold(d)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly. Outcomes carry primal/dual, Farkas vector or ray."""
    t = _Tableau(lp)
    t._price([_ZERO] * t.art0 + [_ONE] * (t.ncols - t.art0))
    t._run(t.ncols)
    infeas = -t.obj[-1]
    if infeas > 0:
        farkas = tuple(-v for v in t._row_duals(_ONE))
        return LpOutcome(status=LpStatus.INFEASIBLE, farkas=farkas)
    t._drive_out_artificials()
    costs = [_ZERO] * t.ncols
    for j, cj in enumerate(lp.objective):
        cj = -cj if lp.sense == "max" else cj
        costs[2 * j] = cj
        costs[2 * j + 1] = -cj
    t._price(costs)
    enter = t._run(t.art0)
    if enter is not None:
        return LpOutcome(status=LpStatus.UNBOUNDED, ray=t._ray(enter))
    x = t._primal()
    value = dot(lp.objective, x)
    dual = t._row_duals(_ZERO)
    return LpOutcome(status=LpStatus.OPTIMAL, primal=x, objective_value=value, dual=dual)
