"""Decomposed instances and exact queries against the value-function epigraph.

An instance couples master variables x (n of them) with subproblem variables
y (k of them) through m linking rows  H x + A y <= b.  The value function

    z(x) = min { d . y : A y <= b - H x }

is +inf where the subproblem is infeasible and -inf where it is unbounded.
Its epigraph epi(z) = {(x, eta) : z(x) <= eta} is the object every cut in this
package is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import DimensionError, EmptyEpigraph
from .linalg import Vector, as_fraction, as_vector, nullspace_basis, sized
from .simplex import EQ, LE, LinearProgram, LpStatus, solve

_ZERO = Fraction(0)


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

        One LP per row, on first read only: the domain is immutable.
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

        Computed by rank growth on first read only: the instance is immutable.
        """
        return _affine_dimension(self)

    def linking_rhs(self, x: Vector) -> Vector:
        """b - H x, the subproblem right-hand side at x."""
        sized(x, self.n, "x")
        return tuple(bi - sum((hij * xj for hij, xj in zip(hrow, x)), _ZERO)
                     for hrow, bi in zip(self.H, self.b))


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


def lifted(instance: Instance, x: Sequence, eta) -> Vector:
    """An (x, eta)-space row or objective on the lifted columns (x, y, eta): zero on y."""
    return tuple(x) + (_ZERO,) * instance.k + (eta,)


def epigraph_rows(instance: Instance):
    """Rows of the lifted epigraph {(x, y, eta) : Hx + Ay <= b, d.y - eta <= 0}."""
    n, k = instance.n, instance.k
    rows = []
    for hrow, arow, bi in zip(instance.H, instance.A, instance.b):
        rows.append((hrow + arow + (_ZERO,), LE, bi))
    rows.append(((_ZERO,) * n + instance.d + (Fraction(-1),), LE, _ZERO))
    return tuple(rows)


def _epi_lift_lp(instance: Instance, direction=None, tight=None) -> LinearProgram:
    """LP over the lifted epigraph; optional (x, eta)-objective and pinned cut."""
    n = instance.n
    rows = list(epigraph_rows(instance))
    if tight is not None:
        pi, pi0, alpha = tight
        rows.append((lifted(instance, pi, pi0), EQ, alpha))
    u, sense = direction or ((_ZERO,) * (n + 1), "min")
    return LinearProgram(sense, lifted(instance, u[:n], u[n]), tuple(rows))


def _project(instance: Instance, xyeta: Vector) -> Vector:
    n, k = instance.n, instance.k
    return xyeta[:n] + (xyeta[n + k],)


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


def _rows_feasible(rows, num_vars: int) -> bool:
    """Do the rows have a solution?  One zero-objective LP."""
    lp = LinearProgram("min", (_ZERO,) * num_vars, tuple(rows))
    return solve(lp).status == LpStatus.OPTIMAL


def epi_contains(instance: Instance, point: EpiPoint) -> bool:
    return _rows_feasible(feasibility_rows(instance, point), instance.k)


def epi_is_empty(instance: Instance) -> bool:
    return solve(_epi_lift_lp(instance)).status == LpStatus.INFEASIBLE


def support_function(instance: Instance, pi: Sequence, pi0) -> Union[Fraction, float]:
    """sup {pi . x + pi0 * eta : (x, eta) in epi(z)}, one LP over the lifted epigraph.

    Maximizes pi . x + pi0 * eta over the rows of `epigraph_rows`.  OPTIMAL
    gives the value; UNBOUNDED gives +inf, as it always does for pi0 > 0, where
    eta runs to +inf; INFEASIBLE raises EmptyEpigraph: there is nothing to
    support.
    """
    return _support(instance, pi, pi0)[0]


def _support(instance: Instance, pi: Sequence, pi0) -> tuple[Union[Fraction, float], Optional[Vector]]:
    """`support_function`'s value and, when it is finite, the optimal (x, eta)."""
    pi = sized(as_vector(pi), instance.n, "pi")
    out = solve(_epi_lift_lp(instance, direction=(pi + (as_fraction(pi0),), "max")))
    if out.status == LpStatus.INFEASIBLE:
        raise EmptyEpigraph("the epigraph is empty")
    if out.status == LpStatus.UNBOUNDED:
        return math.inf, None
    return out.objective_value, _project(instance, out.primal)


def _implicit_mask(rows) -> Optional[tuple[bool, ...]]:
    """Which rows hold with equality everywhere on the solution set.

    None when the set is empty.
    """
    mask = []
    for coeffs, _, rhs in rows:
        probe = LinearProgram("min", coeffs, tuple(rows))
        out = solve(probe)
        if out.status == LpStatus.INFEASIBLE:
            return None
        mask.append(out.status == LpStatus.OPTIMAL and out.objective_value == rhs)
    return tuple(mask)


def _affine_dimension(instance: Instance, tight=None, bound: Optional[int] = None,
                      start: Optional[Vector] = None) -> int:
    """Affine dimension of epi(z), optionally sliced by a pinned hyperplane.

    The growth starts at `start`, a point (x, eta) of the set, when the caller
    has one, and otherwise at the optimum of a feasibility LP.

    Grows an affinely independent point set: directions orthogonal to the
    points found so far are optimized in both senses until no direction moves.
    Standard basis directions come first via the nullspace ordering.  Growth
    also stops once the points span `bound` dimensions, a dimension the caller
    knows the set cannot exceed.  The dimension is len(points) - 1: a point is
    added only along a direction u orthogonal to every earlier difference
    p_i - p_0, with u . (p - p_0) != 0 for the new point p, so p - p_0 is not in
    the span of the earlier differences and the points stay affinely
    independent.  When no direction moves, the set lies in p_0 plus the span of
    the differences, so they span it.
    """
    if start is None:
        base_out = solve(_epi_lift_lp(instance, tight=tight))
        if base_out.status != LpStatus.OPTIMAL:
            return -1
        start = _project(instance, base_out.primal)
    dim = instance.n + 1
    points = [start]
    while bound is None or len(points) <= bound:
        diffs = [tuple(p[j] - points[0][j] for j in range(dim)) for p in points[1:]]
        grew = False
        for u in nullspace_basis(diffs, dim):
            base_val = sum((ui * pi for ui, pi in zip(u, points[0])), _ZERO)
            for sense in ("max", "min"):
                out = solve(_epi_lift_lp(instance, direction=(u, sense), tight=tight))
                if out.status == LpStatus.UNBOUNDED:
                    step = _project(instance, out.ray)
                    points.append(tuple(p + s for p, s in zip(points[0], step)))
                    grew = True
                    break
                if out.status == LpStatus.OPTIMAL and out.objective_value != base_val:
                    points.append(_project(instance, out.primal))
                    grew = True
                    break
            if grew:
                break
        if not grew:
            break
    return len(points) - 1


def epi_dimension(instance: Instance) -> int:
    """Affine dimension of epi(z); raises EmptyEpigraph when it is empty."""
    d = instance.epi_affine_dimension
    if d < 0:
        raise EmptyEpigraph("the epigraph is empty")
    return d


def epi_face_dimension(instance: Instance, pi: Sequence, pi0, alpha,
                       start: Optional[Vector] = None) -> int:
    """Dimension of epi(z) cut with {pi.x + pi0*eta = alpha}; -1 when empty.

    `start`, when given, is a point (x, eta) of the slice, and the growth
    starts there instead of solving a feasibility LP for one.

    The point growth stops at the largest dimension the slice can have.  The
    slice lies in epi(z), so its dimension is at most dim epi(z).  When
    (pi, pi0) is nonzero, as every `Cut` has it, the slice also lies in a
    hyperplane of the (x, eta)-space R^(n+1), so its dimension is at most n.
    The growth keeps its points affinely independent (see `_affine_dimension`),
    so once there are bound + 1 of them the slice has dimension exactly bound,
    and the closing LPs, which could only find that no direction moves, are
    not solved.  The bound comes from the instance's cached epigraph dimension.
    """
    pi, pi0, alpha = as_vector(pi), as_fraction(pi0), as_fraction(alpha)
    epi_dim = instance.epi_affine_dimension
    if epi_dim < 0:
        return -1
    bound = min(instance.n, epi_dim) if any(pi) or pi0 else epi_dim
    return _affine_dimension(instance, tight=(pi, pi0, alpha), bound=bound, start=start)


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
            value = sum(ci * pi for ci, pi in zip(instance.c, p)) + z
            if value < best:
                best = value
        return best
    linking = zip(instance.H, instance.A, instance.b)
    rows = dom.rows(instance.k) + tuple((hrow + arow, LE, bi) for hrow, arow, bi in linking)
    out = solve(LinearProgram("min", instance.c + instance.d, rows))
    if out.status == LpStatus.OPTIMAL:
        return out.objective_value
    return math.inf if out.status == LpStatus.INFEASIBLE else -math.inf
