"""Decomposed instances and exact queries against the value-function epigraph.

An instance couples master variables x (n of them) with subproblem variables
y (k of them) through m linking rows  H x + A y <= b.  The value function

    z(x) = min { d . y : A y <= b - H x }

is +inf where the subproblem is infeasible and -inf where it is unbounded.
Its epigraph epi(z) = {(x, eta) : z(x) <= eta} is the object every cut in this
package is measured against.  It is the (x, eta) projection of
{(x, y, eta) : Hx + Ay <= b, d.y <= eta}, and every LP over it solves over
(x, y) on the rows of one builder, `tight_rows`, with eta projected out: the
support function, the dimension oracles, and `verify`'s Pareto and
core-point LPs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import DimensionError, EmptyEpigraph
from .linalg import Vector, as_fraction, as_vector, dot, rref, sized
from .simplex import LE, LinearProgram, LpStatus, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_matrix(rows: Sequence[Sequence], width: int, name: str) -> tuple[Vector, ...]:
    return tuple(sized(as_vector(r), width, f"{name}[{i}]") for i, r in enumerate(rows))


@dataclass(frozen=True)
class PolyhedralDomain:
    """Master feasible set S = {x : G x <= g}."""

    G: tuple[Vector, ...]
    g: Vector

    def __post_init__(self):
        G = _as_matrix(self.G, len(self.G[0]) if self.G else 0, "G")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "g", sized(as_vector(self.g), len(G), "g"))

    @cached_property
    def implicit_mask(self) -> Optional[tuple[bool, ...]]:
        """Which rows of G x <= g hold with equality on all of S; None when S is empty.

        One LP (see `_implicit_mask`), on first read only: the domain is immutable.
        """
        return _implicit_mask(self.rows())

    def rows(self, pad: int = 0) -> tuple:
        """G x <= g as LP rows, each followed by `pad` zero columns."""
        zeros = (_ZERO,) * pad
        return tuple((grow + zeros, LE, gi) for grow, gi in zip(self.G, self.g))


@dataclass(frozen=True)
class FiniteDomain:
    """Master feasible set given as an explicit list of points."""

    points: tuple[Vector, ...]

    def __post_init__(self):
        if not self.points:
            raise DimensionError("a finite domain needs at least one point")
        width = len(self.points[0])
        object.__setattr__(self, "points", _as_matrix(self.points, width, "points"))


MasterDomain = Union[PolyhedralDomain, FiniteDomain]


@dataclass(frozen=True, slots=True)
class EpiPoint:
    """A candidate point (x, eta) in master-epigraph space."""

    x: Vector
    eta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))
        object.__setattr__(self, "eta", as_fraction(self.eta))


@dataclass(frozen=True)
class Instance:
    n: int
    k: int
    m: int
    c: Vector
    d: Vector
    H: tuple[Vector, ...]
    A: tuple[Vector, ...]
    b: Vector
    master_domain: MasterDomain
    eta_lower_bound: Fraction

    def __post_init__(self):
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (self.n, self.k, self.m)):
            raise DimensionError("n, k and m must be integers")
        if self.n < 1 or self.k < 1 or self.m < 1:
            raise DimensionError("n, k and m must all be at least 1")
        object.__setattr__(self, "c", sized(as_vector(self.c), self.n, "c"))
        object.__setattr__(self, "d", sized(as_vector(self.d), self.k, "d"))
        object.__setattr__(self, "b", sized(as_vector(self.b), self.m, "b"))
        object.__setattr__(self, "H", sized(_as_matrix(self.H, self.n, "H"), self.m, "H"))
        object.__setattr__(self, "A", sized(_as_matrix(self.A, self.k, "A"), self.m, "A"))
        dom = self.master_domain
        if isinstance(dom, PolyhedralDomain):
            name, rows = "G", dom.G
        elif isinstance(dom, FiniteDomain):
            name, rows = "points", dom.points
        else:
            raise DimensionError("unknown master domain kind")
        # the domain has made its rows one width, so the first row speaks for all
        if rows:
            sized(rows[0], self.n, f"master.{name}[0]")
        object.__setattr__(self, "eta_lower_bound", as_fraction(self.eta_lower_bound))

    @cached_property
    def epi_affine_dimension(self) -> int:
        """Affine dimension of epi(z), -1 when it is empty.

        Computed from the implicit equalities of Hx + Ay <= b (see
        `_affine_dimension`) on first read only: the instance is immutable.
        """
        return _affine_dimension(self)

    def linking_rhs(self, x: Vector) -> Vector:
        """b - H x, the subproblem right-hand side at x."""
        sized(x, self.n, "x")
        return tuple(bi - dot(hrow, x) for hrow, bi in zip(self.H, self.b))


def level(instance: Instance, point: EpiPoint) -> Vector:
    """(b - H x*, eta*): the right side of the point's m+1 feasibility rows.

    Certificates put their multipliers on those rows, so the level also
    prices a certificate at the point: u'(b - Hx*) + u_eta eta*.
    """
    return instance.linking_rhs(point.x) + (point.eta,)


def feasibility_rows(instance: Instance, point: EpiPoint):
    """Rows of {y : A y <= b - H x*, d . y <= eta*} over the y variables.

    Nonempty exactly when the point lies in epi(z); the m+1 rows are the ones
    certificates put multipliers on, in this order.
    """
    return tuple((row, LE, r) for row, r in zip(instance.A + (instance.d,), level(instance, point)))


def tight_rows(instance: Instance, tight=None):
    """Rows over (x, y) of the set where a candidate inequality is tight.

    The m linking rows Hx + Ay <= b, then, with `tight` = (pi, pi0, alpha)
    and pi0 <= 0, the row -pi.x - pi0 d.y <= -alpha: the epigraph row
    d.y - eta <= 0 times a = -pi0 plus the reversed row
    -pi.x - pi0*eta <= -alpha, so eta is projected out (`_affine_dimension`
    proves what the projection keeps).
    """
    rows = tuple((hrow + arow, LE, bi)
                 for hrow, arow, bi in zip(instance.H, instance.A, instance.b))
    if tight is None:
        return rows
    pi, pi0, alpha = tight
    return rows + ((tuple(-v for v in pi) + tuple(-pi0 * v for v in instance.d), LE, -alpha),)


def subproblem_value(instance: Instance, x: Sequence) -> Union[Fraction, float]:
    """z(x); +inf when infeasible, -inf when unbounded below."""
    return _subproblem(instance, x)[0]


def _subproblem(instance: Instance, x: Sequence) -> tuple[Union[Fraction, float], Optional[Vector]]:
    """`subproblem_value`'s value and, when it is finite, the d-minimizing y."""
    rhs = instance.linking_rhs(as_vector(x))
    lp = LinearProgram("min", instance.d, tuple((a, LE, r) for a, r in zip(instance.A, rhs)))
    out = solve(lp)
    if out.status == LpStatus.OPTIMAL:
        return out.objective_value, out.primal
    return (math.inf if out.status == LpStatus.INFEASIBLE else -math.inf), None


def epi_contains(instance: Instance, point: EpiPoint) -> bool:
    """z(x) <= eta: the subproblem LP of `subproblem_value`, the loop's own test."""
    return _subproblem(instance, point.x)[0] <= point.eta


def epi_is_empty(instance: Instance) -> bool:
    """Whether epi(z) is empty: the cached `Instance.epi_affine_dimension` is -1."""
    return instance.epi_affine_dimension < 0


def support_function(instance: Instance, pi: Sequence, pi0) -> Union[Fraction, float]:
    """sup {pi . x + pi0 * eta : (x, eta) in epi(z)}, one LP over (x, y) on `tight_rows`.

    epi(z) is the (x, eta) projection of {(x, y, eta) : Hx + Ay <= b,
    d.y <= eta}.  For pi0 <= 0 the best eta above a feasible (x, y) is d.y
    itself, so the supremum is that of pi . x + pi0 * d.y over Hx + Ay <= b,
    which the LP maximizes: OPTIMAL gives the value and UNBOUNDED +inf.  For
    pi0 > 0 eta runs to +inf at any feasible (x, y), so the answer is +inf
    whenever the LP is feasible.  INFEASIBLE raises EmptyEpigraph: there is
    nothing to support.
    """
    pi = sized(as_vector(pi), instance.n, "pi")
    pi0 = as_fraction(pi0)
    out = solve(LinearProgram("max", pi + tuple(pi0 * v for v in instance.d),
                              tight_rows(instance)))
    if out.status == LpStatus.INFEASIBLE:
        raise EmptyEpigraph("the epigraph is empty")
    return math.inf if pi0 > 0 or out.status == LpStatus.UNBOUNDED else out.objective_value


def _relative_interior(rows, dim: int) -> Optional[tuple[tuple[bool, ...], Vector]]:
    """The rows that hold with equality everywhere on the solution set, and a
    point of its relative interior; None when the set is empty.

    The rows are `<=` and `=` rows over `dim` variables.  One LP (Freund,
    Roundy and Todd, 1985) over (z, t, s), one s per `<=` row: max sum s
    subject to a_i z - r_i t + s_i <= 0 on the `<=` rows, a_i z - r_i t = 0 on
    the `=` rows, t >= 1 and 0 <= s <= 1.  A solution gives the point z/t of
    the set, so the LP is infeasible exactly when the set is empty, and
    s_i > 0 puts that point strictly inside row i.  Every optimum has s_j > 0
    on each row j some point p of the set leaves strictly: adding mu (p, 1)
    raises row j's room and lowers no other row's.  So the implicit rows are
    the `=` rows and the `<=` rows whose s is 0, and the optimum's z/t lies on
    every implicit row (as every point of the set does) and strictly inside
    every other row (a_i z - r_i t <= -s_i < 0, divided by t > 0): it is in
    the relative interior.
    """
    if not rows:
        return (), (_ZERO,) * dim
    les = [i for i, (_, rel, _) in enumerate(rows) if rel == LE]
    unit = {i: tuple(_ONE if i == j else _ZERO for j in les) for i in les}
    no_slack = (_ZERO,) * len(les)
    lp_rows = tuple((tuple(coeffs) + (-rhs,) + unit.get(i, no_slack), rel, _ZERO)
                    for i, (coeffs, rel, rhs) in enumerate(rows))
    out = solve(LinearProgram("max", (_ZERO,) * (dim + 1) + (_ONE,) * len(les), lp_rows,
                              lower=(None,) * dim + (_ONE,) + no_slack,
                              upper=(None,) * (dim + 1) + (_ONE,) * len(les)))
    if out.status == LpStatus.INFEASIBLE:
        return None
    s = dict(zip(les, out.primal[dim + 1:]))
    t = out.primal[dim]
    return (tuple(s.get(i, _ZERO) == 0 for i in range(len(rows))),
            tuple(v / t for v in out.primal[:dim]))


def _implicit_mask(rows) -> Optional[tuple[bool, ...]]:
    """`_relative_interior`'s rows that hold with equality everywhere; None when empty."""
    found = _relative_interior(rows, len(rows[0][0]) if rows else 0)
    return None if found is None else found[0]


def _affine_dimension(instance: Instance, tight=None) -> int:
    """Affine dimension of epi(z), or of the face a valid inequality exposes; -1 when empty.

    epi(z) is the (x, eta) projection of the lifted set
    Q = {(x, y, eta) : Hx + Ay <= b, d.y - eta <= 0}.  With `tight` =
    (pi, pi0, alpha), Q also gets the reversed row
    -pi.x - pi0*eta <= -alpha, and the answer is -1 unless that row is
    implicit on a nonempty Q.  A point of epi(z) with pi.x + pi0*eta > alpha
    would lie in Q off that row, so an implicit reversed row on a nonempty Q
    means the inequality pi.x + pi0*eta <= alpha is valid for epi(z) and
    touches it, and Q is then the face it exposes.  Conversely, a valid
    inequality that touches epi(z) makes Q that face, nonempty and on the row.
    Q's affine hull is {w : E w = e}, E its implicit equalities, so the
    projection's hull has the direction space P null(E), P the unit rows of x
    and eta, whose dimension is rank([E; P]) - rank(E) =
    n + 1 - (rank E - rank E_y), E_y the y columns of E.

    Q is never built.  For pi0 > 0 the answer is -1 without an LP: both rows
    that read eta then bound it only from below, so raising eta leaves the
    reversed row at every point of Q, and that row is never implicit.
    Otherwise one implicit-equality LP (`_implicit_mask`) runs over (x, y) on
    the rows of `tight_rows`, and with E' its implicit rows the answer is
    n + f - (rank E' - rank E'_y), f = 1 with no tight row or with pi0 = 0 and
    f = 0 otherwise.  One RREF of E' with its y columns first gives both
    ranks: its pivots among those columns are rank E'_y.

    Proof, case a = -pi0 > 0.  At (x, y, eta) the rooms rho_e = eta - d.y of
    the epigraph row and rho_c = pi.x - alpha - a*eta of the reversed row
    satisfy a*rho_e + rho_c = pi.x - a d.y - alpha, the room of the projected
    row.  For fixed (x, y), some eta makes both rooms nonnegative exactly when
    that room is nonnegative, and both positive exactly when it is positive
    (eta runs over [d.y, (pi.x - alpha)/a]); and if it is 0 on the whole set,
    so are both rooms, as a > 0.  No linking row reads eta.  So Q projects
    onto the (x, y) set, is nonempty exactly when that set is, has the same
    implicit linking rows, and each of its two eta rows is implicit exactly
    when the projected row is.  When they are, E swaps the projected row of E'
    for the epigraph row and the reversed row, whose sum with weights a and 1
    is the projected row.  The epigraph row alone reads eta, so
    rank E = rank E' + 1; on the y columns the reversed row is 0 and the
    epigraph row is d, the projected row's a d over a, so
    rank E_y = rank E'_y.  The lifted count is then
    n + 1 - (rank E - rank E_y) = n - (rank E' - rank E'_y).

    Proof, case a = 0 or no tight row.  Only the epigraph row reads eta, and
    eta is free upwards, so that row is never implicit and Q is the (x, y)
    set with eta in [d.y, inf): E is E' with a zero eta column, and the lifted
    count is n + 1 - (rank E' - rank E'_y).
    """
    n, k = instance.n, instance.k
    if tight is not None and tight[1] > 0:
        return -1
    rows = tight_rows(instance, tight)
    mask = _implicit_mask(rows)
    if mask is None or (tight is not None and not mask[-1]):
        return -1
    eta_free = tight is None or tight[1] == 0
    y_first = [coeffs[n:] + coeffs[:n] for (coeffs, _, _), holds in zip(rows, mask) if holds]
    return n + eta_free - sum(col >= k for col in rref(y_first)[1])


def epi_dimension(instance: Instance) -> int:
    """Affine dimension of epi(z); raises EmptyEpigraph when it is empty."""
    d = instance.epi_affine_dimension
    if d < 0:
        raise EmptyEpigraph("the epigraph is empty")
    return d


def epi_face_dimension(instance: Instance, pi: Sequence, pi0, alpha) -> int:
    """Dimension of the face that pi.x + pi0*eta <= alpha exposes on epi(z); -1
    when it exposes none: it cuts into epi(z), misses it, or epi(z) is empty.
    With pi0 > 0 it is always -1, as eta runs to +inf in epi(z).

    One implicit-equality LP over (x, y), none for pi0 > 0; see `_affine_dimension`.
    """
    pi = sized(as_vector(pi), instance.n, "pi")
    return _affine_dimension(instance, tight=(pi, as_fraction(pi0), as_fraction(alpha)))


def undecomposed_value(instance: Instance) -> Union[Fraction, float]:
    """Optimum of the joint problem over (x, y), without any decomposition.

    math.inf when no feasible pair exists, -math.inf when the joint problem
    is unbounded below.  Reference oracle for end-to-end checks.
    """
    dom = instance.master_domain
    if isinstance(dom, FiniteDomain):
        best: Union[Fraction, float] = math.inf
        for p in dom.points:
            z = subproblem_value(instance, p)
            if z == math.inf:
                continue
            if z == -math.inf:
                return -math.inf
            value = dot(instance.c, p) + z
            if value < best:
                best = value
        return best
    rows = dom.rows(instance.k) + tight_rows(instance)
    out = solve(LinearProgram("min", instance.c + instance.d, rows))
    if out.status == LpStatus.OPTIMAL:
        return out.objective_value
    return math.inf if out.status == LpStatus.INFEASIBLE else -math.inf
