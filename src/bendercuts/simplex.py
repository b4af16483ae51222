"""Exact two-phase simplex over rationals.

Every consumer in the package relies on one sign convention, stated here once:

* internally the problem is a minimization over rows normalized to <=-form
  (">=" rows are negated, "=" rows stay equalities, a finite lower bound is the
  row -x_j <= -l_j and a finite upper bound the row x_j <= u_j, maximizations
  negate the objective);
* ``LpOutcome.dual`` and ``LpOutcome.farkas`` carry one multiplier per entry of
  ``LinearProgram.normalized_rows()``; the first ``len(rows)`` entries line up
  with the original rows;
* duals of "<=" rows are nonpositive and the dual objective ``dual . rhs``
  equals the primal optimum of the internal minimization exactly;
* Farkas multipliers of "<=" rows are nonnegative (multipliers of "=" rows are
  sign-free in both vectors) and aggregate the rows into 0 <= negative.

Pivoting uses Bland's rule throughout, so solves are deterministic and free of
cycling.  All numbers are ``fractions.Fraction``; nothing here rounds.

Lower bounds are column shifts (Chvatal, *Linear Programming*, 1983): the
tableau writes x_j = l_j + x'_j with x'_j >= 0 for each finite l_j (x'_j = x_j,
sign-free, for the others) and builds no row for the bound.  The rows it
builds are the others of ``normalized_rows``, the upper bounds included, each
with its own coefficients and the right side b_i - a_i . l.  ``_primal`` adds
l back, and a ray is a direction, which the shift leaves as it is.

Columns.  The tableau reads ``M = [sigma A, sigma S, I]`` over the built
rows, where sigma_i = -1 flips a row that the free-column start below puts
onto its artificial, ``S`` puts a slack on each "<=" row and ``I`` an
artificial on every row.  Bland's rule, the basis and every readout use these
columns in this order: x_j at j, then the slacks in row order, then the
artificials at ``art0 + i``, ``art0`` being n plus the number of slacks.  A
shifted x'_j >= 0 enters only at a negative reduced cost.  A sign-free x_j
enters at any nonzero one, downwards where it is positive; after the
free-column start below, such a column is basic for good or zero on every
row that is not held, so it enters only to end phase two unbounded.

Artificials.  Phase one starts from the slack basis (Bixby 1992), after the
free-column start below has placed the sign-free columns: a row that holds
no free basic and is a "<=" row with a nonnegative right side (sigma_i = 1)
starts with its slack basic, whose column is e_i as an artificial's is, and
every other such row with its artificial basic.  Both phases enter only x
and the slacks: an artificial that leaves the basis never comes back, as in
the textbook two-phase method.  A row that starts with its slack basic is
then a row whose artificial has already left, and so is a row that a
sign-free column holds.  So the tableau stores the artificials of "=" rows
only, and no readout needs the artificial of a "<=" row.  Let
pi = c_B B^-1, the multipliers of the flipped rows under the phase's costs
(the objective on x, 0 on the slacks, ``art_cost`` on the artificials: 1 in
phase one, 0 in phase two).  The slack
of "<=" row i has reduced cost -sigma_i pi_i and the artificial of "=" row i
has art_cost - pi_i, so sigma o pi is read off the rows' own columns, and
d_j = c_j - (sigma o pi)'A_j off column j.  At the end of either phase no
column may enter: d_j = 0 on a sign-free column, d_j >= 0 on a shifted one
and d >= 0 on every slack.
The ratio test lets a zero-level artificial bound a step (Bland, "New
finite pivoting rules for the simplex method", 1977, for the rule it keeps).
A row that is not held bounds the step of the entering column when its entry
t there is positive, at ratio r_i / t, or when its basic is an artificial at
r_i = 0 and t != 0, at ratio 0.  Of the rows at the least ratio, the one
whose basic comes first in Bland's order leaves, and the artificials come
last in that order: an artificial leaves only when no x or slack row ties
with it.  The rule holds in both phases; in phase one it only adds rows at
ratio 0.  No pass runs between the phases.  Four facts rest on this rule and
on the reduced costs of the columns that may enter, and on no artificial's,
whichever rows started with a basic artificial:

* zero stays zero: a basic artificial at 0 stays at 0.  A pivot whose
  entering column is nonzero on its row has least ratio 0, so it moves no
  value, and a pivot on that row itself divides the right side 0; a column
  that is 0 on the row leaves it as it is;
* phase one ends at 0 exactly when the LP is feasible.  Its value
  w = c_B B^-1 (sigma o (b - A l)) sums the basic artificials, each >= 0
  (a free basic costs nothing in phase one).
  Phase one costs x nothing, so f = -sigma o pi has f'A_j = d_j,
  f_i = d(slack_i) >= 0 on "<=" rows and f . (b - A l) = -w.  The lower-bound
  row of x_j takes f_j = d_j >= 0: it adds -d_j to column j, so the whole
  vector has f'A = 0, and -d_j l_j to the right side, so its value is
  f . b - f'A l = -w.  So w > 0 makes f a Farkas vector, and w = 0 leaves
  every basic artificial at 0, where the first fact keeps it through phase
  two: each basic solution of phase two is a feasible point;
* Bland's rule still terminates.  An artificial that is nonbasic, from the
  start or once it left, never enters, so from then on it is a deleted
  column, and each one leaves at most once.  A pivot on an artificial's
  row is such a leave, so between two of them every pivot is on an x or
  slack row, and that is the row the textbook rule (t > 0 alone) chooses:
  the rows the rule adds sit at ratio 0 and rank last, so they change no
  choice but by winning it.  Those are Bland pivots on one fixed LP, which
  do not cycle;
* the readouts.  ``_values`` skips artificial basics, and all of them are
  at 0 once phase one ends feasible.  A column that ends phase two
  UNBOUNDED is 0 on every row that holds a zero-level artificial, for that
  row would have bounded it, so the ray leaves every artificial at 0.  A
  redundant row, which is 0 on every column that may enter, keeps its
  artificial and no ratio test touches it.  ``_row_duals`` holds at any
  basis, so an artificial still basic at the end reads its row's dual as
  every row does: the dual is y = sigma o pi on the built rows and -d_j on
  the lower-bound row of x_j, and the Farkas vector is minus that, the
  second fact's f.  At the phase-two optimum y_i = -d(slack_i) <= 0 on
  "<=" rows and -d_j <= 0 on bound rows; the bound row adds
  (-d_j)(-1) = d_j to column j, so y'A = c by the definition of d_j; and
  y . b + sum d_j l_j = y . (b - A l) + c . l = c . x'* + c . l = c . x*,
  since y . (b - A l) = c_B B^-1 (sigma o (b - A l)) is the optimum over
  x', the basic artificials being at 0.

The free-column start.  Every LP places its sign-free columns first (Maros,
*Computational Techniques of the Simplex Method*, 2003; Bixby 1992).  The
tableau builds every row unflipped, each with its own slack or artificial
basic and the right side r_i = (b - A l)_i.  For each sign-free x_j in index
order it pivots x_j into the first row that holds no free basic and has a
nonzero entry in column j; that row holds x_j, and is *held*, from that
pivot on.  Then it flips each row that is not held and whose right side is
now negative onto its artificial: the row is negated, a "<=" row's basic
becomes its artificial and a "=" row keeps its artificial's entry at +1.
With no sign-free column this is the slack start with the negative rows
flipped; with no negative r_i either, it pivots and flips nothing, and
where every built row is also "<=" that basis is feasible and phase one
makes no pivot.  The start is sound:

* a basic free variable needs no sign, so a held row is set aside: it leaves
  the ratio test, its basic never leaves the basis, and no pivot after its
  own rewrites it (frozen rows, below); its value may be negative, which
  the readouts take as x_j;
* flipping a row whose basic is its own slack or artificial after the
  elimination is sigma_i = -1 in M.  Let B be the start basis over the
  unflipped M; the rows that are not held are those of B^-1 M (frozen rows,
  below), and no flip touches a held row.  Over M with sigma, the basis
  that puts the flipped rows' artificials where their own columns were is
  sigma B D, with D = -1 at those rows' basis positions and 1 elsewhere.
  Its inverse times the new M is D B^-1 M, which negates exactly the
  flipped rows, on the x columns, the slacks and the artificials of
  unflipped "=" rows; a flipped "=" row's own artificial, which is basic,
  stays the unit column, so its entry is set back to +1.  So the rows that
  are not held are the ones the slack start's conventions read at that
  basis, each starts at a right side >= 0, and ``_row_duals`` and the
  Farkas readout hold unchanged: they hold at whatever basis a phase ends;
* Bland's rule terminates, because the rows without a free basic form an
  ordinary LP: the held rows only define the free basics, no pivot leaves
  from them, and the reduced costs are those of the other rows with the free
  basics substituted out, so the argument above applies to it.  Phase one
  cannot run unbounded: a column whose phase-one reduced cost is negative is
  positive on the row of some basic artificial, which is not held;
* a free column left nonbasic is zero on every row that is not held, and a
  pivot in such a row keeps it so.  Phase one prices it at 0; when it enters
  phase two, upwards at a negative reduced cost or downwards at a positive
  one, no row bounds it, so the LP is unbounded along a ray that moves only
  it and the free basics.

Frozen rows.  A row is held from its own free-column pivot on, and from then
on it is frozen: no pivot rewrites it, neither the start's later free-column
pivots nor any pivot of phase one or phase two.
The tableau keeps the held rows in pivot order.  A pivot rewrites a row
from that row's entry in the entering column and the pivot row alone, and
no pivot row is held when it pivots, so every row that is not held is
rewritten exactly as it would be if no row were; the start reads only such
rows to choose where a free column goes.  So those rows are unchanged; a
pivot moves the objective row by its pivot row alone, and ``_price`` below
gives the same objective row, so every choice of the start, every ratio
test and every Bland choice is unchanged too.  Only the pricing and the
readouts see the frozen rows, and three facts carry them:

* the held and the other rows are together an invertible row transform of
  the system, for a pivot replaces rows by invertible combinations of rows
  and a frozen row is one such combination kept as it was;
* a held row is 1 on its own free basic and 0 on the free basics held
  before it: until its own pivot it was rewritten by each earlier free
  pivot, which eliminated that pivot's column from it, and its own pivot
  only scaled it.  It may be nonzero on the free basics held after it, so
  in pivot order the held rows are triangular on the free basics.  Every
  row that is not held is 0 on every free basic, for each free pivot
  eliminated its column from the row and every later pivot row is 0 there
  too, and is reduced against the other such rows' basics, as a tableau
  row is;
* a held row is 0 on the own slack and artificial of every row that is not
  held.  Each row starts with its own column alone, and a pivot on row r
  adds multiples of r's row to the rows it rewrites.  Until a row is held
  only the start's pivots rewrite it, and they pivot on rows held from then
  on, so a held row holds the own columns of held rows alone.  A "<=" row's
  artificial is sigma_i times its slack in M, so a held row, a combination
  of rows of M, is 0 on it too.

``_price`` takes from the costs, for each held row in pivot order, the
current objective entry of its free basic times the row.  That sets the
entry to 0, and by the second fact keeps at 0 the entries of the free
basics held before it, which the earlier steps set; so once the last held
row is folded, every free basic's entry is 0.  Then, for each row that is
not held, it takes the current entry of its basic times the row, which
zeroes that entry and no other basic's.  The result is the costs minus a
combination of rows that is 0 on the basis, and by the first fact it is
c - mu'M for some mu; 0 on the basis forces mu = c_B B^-1, so these are the
reduced costs of the module's other sections, entry for entry.  A basic
artificial is priced at ``art_cost``: by the third fact no held row moves
its entry, and a "<=" row's artificial, which is not stored, has no entry
to move.

``_primal`` and ``_ray`` know every value but the free basics': 0 on a
nonbasic column (the step, 1 or -1, on the entering column of a ray), and
the right side (minus the step times the entering column's entry, along a
ray) on the basic of a row that is not held.  Every row is an equation of the
system (first fact), so a held row times the values is its right side at the
basic solution and 0 along the ray, and by the second fact its unknowns are
its own free basic, with coefficient 1, and the free basics held after
it.  So the readouts take the held rows in reverse pivot order: the last held
row has no later one, and each row before it finds the values it needs
already read.  No artificial's value is needed: by the third fact a held row
is 0 on those of the rows that are not held, and every other artificial is
nonbasic.  So the readouts give the same basic solution and ray.

``check_outcome`` checks each of these certificates by arithmetic alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import DimensionError
from .linalg import Vector, as_fraction, as_vector, dot, sized

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
            rows.append((sized(as_vector(coeffs), n, "a row"), rel, as_fraction(rhs)))
        lower = (None,) * n if self.lower is None else sized(self.lower, n, "lower")
        upper = (None,) * n if self.upper is None else sized(self.upper, n, "upper")
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
        upper bound (as x_j <= u).  dual/farkas vectors index this list; the
        tableau builds every row but the lower bounds, which it shifts away.
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
    """One solve's result and its certificate.

    OPTIMAL carries primal, objective_value and dual; INFEASIBLE the Farkas
    vector; UNBOUNDED the improving ray and the basic feasible primal it
    was found at.
    """

    status: LpStatus
    primal: Optional[Vector] = None
    objective_value: Optional[Fraction] = None
    dual: Optional[Vector] = None
    farkas: Optional[Vector] = None
    ray: Optional[Vector] = None


class _Tableau:
    """Dense simplex tableau that stores one column per variable.

    Stored columns: x_j at j for each of the n variables, then the slacks in
    row order, then the artificials of "=" rows, then the right side; the
    objective row ``obj`` has the same layout.  Rows are the built rows of the
    module docstring: ``normalized_rows`` without the lower bounds, over x'.
    ``basis[i]`` is the stored column of row i's basic x_j or slack, or
    ``art0 + i`` for its basic artificial, so Bland's rule and the ratio
    tests compare the module docstring's columns in its order.  ``own[i]`` is
    the stored slack or artificial of built row i, ``free[j]`` whether x_j has
    no lower bound, and ``lower_at`` maps the ``normalized_rows`` index of
    each lower bound to its variable.  The tableau is built at the
    free-column start of the module docstring.  ``held[i]`` says that the
    free-column start put a sign-free column in row i, and ``placed`` lists
    those rows in pivot order.  Such a row is frozen from its own pivot on: the
    ratio test skips it and no later pivot rewrites it.  So the held rows are
    triangular in pivot order, and ``_price`` folds them in that order while
    ``_values`` reads them back in reverse.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.num_vars
        self.free = [lo is None for lo in lp.lower]
        self.lower_at: dict[int, int] = {}
        at = len(lp.rows)
        for j, (lo, up) in enumerate(zip(lp.lower, lp.upper)):
            if lo is not None:
                self.lower_at[at] = j
            at += (lo is not None) + (up is not None)
        norm = [r for i, r in enumerate(lp.normalized_rows) if i not in self.lower_at]
        shift = tuple(lo or _ZERO for lo in lp.lower) if any(lp.lower) else None
        rhs_of = [rhs - dot(coeffs, shift) if shift else rhs for coeffs, _, rhs in norm]
        n_le = sum(rel == LE for _, rel, _ in norm)
        self.art0 = n + n_le
        self.own: list[int] = []
        self.flip = [False] * len(norm)
        self.held = [False] * len(norm)
        self.placed: list[int] = []
        self.tab: list[list[Fraction]] = []
        self.basis: list[int] = []
        slack, art = n, self.art0
        for i, ((coeffs, rel, _), rhs) in enumerate(zip(norm, rhs_of)):
            row = [_ZERO] * (n + len(norm) + 1)
            row[:n] = coeffs
            if rel == LE:
                row[slack] = _ONE
                self.own.append(slack)
                self.basis.append(slack)
                slack += 1
            else:
                row[art] = _ONE
                self.own.append(art)
                self.basis.append(self.art0 + i)
                art += 1
            row[-1] = rhs
            self.tab.append(row)
        self.obj: list[Fraction] = [_ZERO] * (n + len(norm) + 1)
        self.art_cost = _ZERO
        self._free_column_start()

    # -- internals --------------------------------------------------------

    def _free_column_start(self):
        """Pivot each sign-free x_j, in index order, into the first row with no
        free basic and a nonzero entry in column j, and hold that row from its
        pivot on; then flip each row whose own slack or artificial is basic at
        a negative value onto its artificial (sigma_i = -1)."""
        n, held = self.lp.num_vars, self.held
        for j in range(n):
            if self.free[j]:
                r = next((i for i, row in enumerate(self.tab) if row[j] and not held[i]), None)
                if r is not None:
                    self._pivot(r, j)
                    held[r] = True
                    self.placed.append(r)
        for i, row in enumerate(self.tab):
            if row[-1] < 0 and not held[i]:
                own = self.own[i]
                self.tab[i] = row = [-v for v in row]
                if own >= self.art0:
                    row[own] = _ONE
                else:
                    self.basis[i] = self.art0 + i
                self.flip[i] = True

    def _pivot(self, r: int, c: int):
        prow = self.tab[r]
        inv = 1 / prow[c]
        # the scaled pivot row's nonzeros, found once; only these columns change
        nz = [(j, v * inv) for j, v in enumerate(prow) if v]
        for j, v in nz:
            prow[j] = v
        for row, held in zip(self.tab, self.held):
            f = row[c]
            if f and not held and row is not prow:
                for j, v in nz:
                    row[j] -= f * v
        # the objective row moves by the entering column's reduced cost, which
        # leaves that reduced cost at 0
        f = self.obj[c]
        if f:
            obj = self.obj
            for j, v in nz:
                obj[j] -= f * v
        self.basis[r] = c

    def _entering(self) -> Optional[int]:
        """The first x_j or slack, in Bland order, with a negative reduced
        cost, or a sign-free x_j with a nonzero one."""
        obj, free = self.obj, self.free
        n = self.lp.num_vars
        return next((j for j in range(self.art0)
                     if obj[j] < 0 or (obj[j] and j < n and free[j])), None)

    def _run(self) -> Optional[int]:
        """Bland pivoting: None when optimal, else the unbounded column."""
        while True:
            enter = self._entering()
            if enter is None:
                return None
            leave = None
            best = None
            for i, (row, held) in enumerate(zip(self.tab, self.held)):
                t = row[enter]
                # a held row's free basic needs no sign, so the row bounds no step;
                # an artificial at 0 bounds every step that would move it
                if not held and (t > 0 or (t and not row[-1] and self.basis[i] >= self.art0)):
                    ratio = row[-1] / t
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return enter
            self._pivot(leave, enter)

    def _price(self, costs: Vector, art_cost: Fraction):
        """Reduced costs of the stored columns (and minus the objective value, last).

        x_j costs costs[j], a slack 0 and an artificial art_cost.  The held
        rows fold their free basics' costs in first, in pivot order, then
        every other row prices its basic at its folded cost.
        """
        n_le = self.art0 - self.lp.num_vars
        self.art_cost = art_cost
        obj = [*costs, *[_ZERO] * n_le, *[art_cost] * (len(self.tab) - n_le), _ZERO]
        for i in [*self.placed, *(i for i, held in enumerate(self.held) if not held)]:
            b = self.basis[i]
            cb = art_cost if b >= self.art0 else obj[b]
            if cb:
                for j, v in enumerate(self.tab[i]):
                    if v:
                        # a unit cost, as all of phase one's are, needs no product
                        obj[j] -= v if cb == 1 else cb * v
        self.obj = obj

    # -- readouts ---------------------------------------------------------

    def _row_duals(self) -> Vector:
        """One multiplier per entry of ``normalized_rows``: sigma o pi on the
        built rows, which is minus a "<=" row's slack reduced cost and
        sigma_i (art_cost - d_i) for the reduced cost d_i of an "=" row's
        artificial, and -d_j on the lower bound of x_j."""
        obj, a, art0 = self.obj, self.art_cost, self.art0
        built = (-obj[s] if s < art0 else (obj[s] - a if flip else a - obj[s])
                 for s, flip in zip(self.own, self.flip))
        lower_at = self.lower_at
        return tuple(-obj[lower_at[i]] if i in lower_at else next(built)
                     for i in range(len(self.tab) + len(lower_at)))

    def _values(self, value, enter: Optional[int] = None, step: Fraction = _ONE) -> Vector:
        """x' where the basic of each row that is not held takes value(row),
        the column enter (if given) step and every other nonbasic column 0.

        Each free basic comes off its frozen row, with the row's right side,
        or with 0 along the ray that enter starts, last held row first.  An
        artificial's stored column, if any, is zero on every held row, so it
        is left at 0.
        """
        vals = [_ZERO] * (len(self.obj) - 1)
        for row, b, held in zip(self.tab, self.basis, self.held):
            if b < self.art0 and not held:
                vals[b] = value(row)
        if enter is not None:
            vals[enter] = step
        for r in reversed(self.placed):
            row = self.tab[r]
            vals[self.basis[r]] = (row[-1] if enter is None else _ZERO) - dot(row[:-1], vals)
        return tuple(vals[:self.lp.num_vars])

    def _primal(self) -> Vector:
        """x = l + x'."""
        x = self._values(lambda row: row[-1])
        return tuple(v + lo if lo else v for v, lo in zip(x, self.lp.lower))

    def _ray(self, enter: int) -> Vector:
        # a free column with a positive reduced cost improves downwards
        step = -_ONE if self.obj[enter] > 0 else _ONE
        return self._values(lambda row: -step * row[enter], enter, step)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly. Outcomes carry primal/dual, Farkas vector or ray."""
    t = _Tableau(lp)
    t._price((_ZERO,) * lp.num_vars, _ONE)
    t._run()
    infeas = -t.obj[-1]
    if infeas > 0:
        farkas = tuple(-v for v in t._row_duals())
        return LpOutcome(status=LpStatus.INFEASIBLE, farkas=farkas)
    t._price(tuple(-c for c in lp.objective) if lp.sense == "max" else lp.objective, _ZERO)
    enter = t._run()
    if enter is not None:
        return LpOutcome(status=LpStatus.UNBOUNDED, primal=t._primal(), ray=t._ray(enter))
    x = t._primal()
    value = dot(lp.objective, x)
    dual = t._row_duals()
    return LpOutcome(status=LpStatus.OPTIMAL, primal=x, objective_value=value, dual=dual)


def violated_row(rows, point: Vector) -> Optional[int]:
    """Index of the first (coefficients, relation, rhs) row, "<=" or "=", that
    point fails; None when it satisfies every row."""
    for i, (coeffs, rel, rhs) in enumerate(rows):
        lhs = dot(coeffs, point)
        if lhs > rhs or (rel == EQ and lhs != rhs):
            return i
    return None


def check_outcome(lp: LinearProgram, outcome: LpOutcome) -> Optional[str]:
    """The first way the outcome's certificate fails for lp, or None if it holds.

    Exact arithmetic against ``lp.normalized_rows`` and the internal
    (minimization) objective c; no LP is solved.  An OPTIMAL primal x
    satisfies every row and its dual y has y_i <= 0 on "<=" rows, y'A = c and
    y . b = c . x, which is weak duality with equality, so x is optimal.  An
    INFEASIBLE Farkas vector f has f_i >= 0 on "<=" rows, f'A = 0 and
    f . b < 0.  An UNBOUNDED primal is feasible and its ray r has a_i . r <= 0
    on "<=" rows, = 0 on "=" rows, and c . r < 0.
    """
    norm = lp.normalized_rows
    n, m = lp.num_vars, len(norm)
    cost = tuple(-c for c in lp.objective) if lp.sense == "max" else lp.objective
    rhs = tuple(r for _, _, r in norm)
    status = outcome.status
    carried = {"primal": outcome.primal, "objective_value": outcome.objective_value,
               "dual": outcome.dual, "farkas": outcome.farkas, "ray": outcome.ray}
    wanted = {LpStatus.OPTIMAL: ("primal", "objective_value", "dual"),
              LpStatus.INFEASIBLE: ("farkas",),
              LpStatus.UNBOUNDED: ("primal", "ray")}[status]
    sizes = {"primal": n, "ray": n, "dual": m, "farkas": m}
    for name, value in carried.items():
        if (value is None) == (name in wanted):
            return f"{status.value} outcome {'lacks' if value is None else 'carries'} {name}"
        if value is not None and name in sizes and len(value) != sizes[name]:
            return f"{name} has {len(value)} entries"

    def multiplier_problem(mult: Vector, name: str, sign: int, target: Vector,
                           what: str) -> Optional[str]:
        """sign * mult >= 0 on "<=" rows and mult' A = target, or what fails."""
        for i, (u, (_, rel, _)) in enumerate(zip(mult, norm)):
            if rel == LE and sign * u < 0:
                return f"{name}[{i}] = {u} has the wrong sign on a <= row"
        combo = tuple(dot(mult, [coeffs[j] for coeffs, _, _ in norm]) for j in range(n))
        return None if combo == target else f"{name}' A is not {what}"

    if status == LpStatus.INFEASIBLE:
        f = outcome.farkas
        problem = multiplier_problem(f, "farkas", 1, (_ZERO,) * n, "0")
        if problem is None and dot(f, rhs) >= 0:
            problem = "farkas . rhs is not negative"
        return problem
    x = outcome.primal
    i = violated_row(norm, x)
    if i is not None:
        coeffs, rel, b = norm[i]
        return f"primal violates row {i}: {dot(coeffs, x)} {rel} {b} fails"
    if status == LpStatus.UNBOUNDED:
        r = outcome.ray
        # the ray stays in the recession cone: the rows with right side 0
        i = violated_row(((coeffs, rel, _ZERO) for coeffs, rel, _ in norm), r)
        if i is not None:
            return f"ray leaves row {i}: a . ray = {dot(norm[i][0], r)}"
        return None if dot(cost, r) < 0 else "ray does not improve the objective"
    y = outcome.dual
    problem = multiplier_problem(y, "dual", -1, cost, "the objective")
    if problem is None and dot(y, rhs) != dot(cost, x):
        problem = "dual . rhs is not the optimum"
    if problem is None and outcome.objective_value != dot(lp.objective, x):
        problem = "objective_value is not objective . primal"
    return problem
