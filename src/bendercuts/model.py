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
from .linalg import Vector, affine_rank, as_fraction, as_vector, nullspace_basis
from .simplex import EQ, LE, LinearProgram, LpStatus, solve

_ZERO = Fraction(0)


def _as_matrix(rows: Sequence[Sequence], width: int, name: str) -> tuple[Vector, ...]:
    out = []
    for r in rows:
        v = as_vector(r)
        if len(v) != width:
            raise DimensionError(f"{name} row has {len(v)} entries, expected {width}")
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class PolyhedralDomain:
    """Master feasible set S = {x : G x <= g}."""

    G: tuple[Vector, ...]
    g: Vector

    def __post_init__(self):
        g = as_vector(self.g)
        if not self.G and g:
            raise DimensionError("rhs without rows")
        width = len(self.G[0]) if self.G else 0
        G = _as_matrix(self.G, width, "G")
        if len(G) != len(g):
            raise DimensionError("G and g disagree on the row count")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "g", g)

    @cached_property
    def implicit_mask(self) -> Optional[tuple[bool, ...]]:
        """Which rows of G x <= g hold with equality on all of S; None when S is empty.

        One LP per row, on first read only: the domain is immutable.
        """
        return _implicit_mask(tuple((grow, LE, gi) for grow, gi in zip(self.G, self.g)))


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


@dataclass(frozen=True)
class EpiPoint:
    """A candidate point (x, eta) in master-epigraph space."""

    x: Vector
    eta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))
        object.__setattr__(self, "eta", as_fraction(self.eta))

    def as_tuple(self) -> Vector:
        return self.x + (self.eta,)


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
        if self.n < 1 or self.k < 1 or self.m < 1:
            raise DimensionError("n, k and m must all be at least 1")
        c = as_vector(self.c)
        d = as_vector(self.d)
        b = as_vector(self.b)
        if len(c) != self.n or len(d) != self.k or len(b) != self.m:
            raise DimensionError("c, d or b has the wrong length")
        H = _as_matrix(self.H, self.n, "H")
        A = _as_matrix(self.A, self.k, "A")
        if len(H) != self.m or len(A) != self.m:
            raise DimensionError("H and A must have m rows")
        dom = self.master_domain
        if isinstance(dom, PolyhedralDomain):
            if dom.G and len(dom.G[0]) != self.n:
                raise DimensionError("master rows must have n columns")
        elif isinstance(dom, FiniteDomain):
            if len(dom.points[0]) != self.n:
                raise DimensionError("master points must have n entries")
        else:
            raise DimensionError("unknown master domain kind")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "eta_lower_bound", as_fraction(self.eta_lower_bound))

    @cached_property
    def epi_affine_dimension(self) -> int:
        """Affine dimension of epi(z), -1 when it is empty.

        Computed by rank growth on first read only: the instance is immutable.
        """
        return _affine_dimension(self)

    def linking_rhs(self, x: Vector) -> Vector:
        """b - H x, the subproblem right-hand side at x."""
        if len(x) != self.n:
            raise DimensionError(f"x has {len(x)} entries, expected {self.n}")
        return tuple(bi - sum((hij * xj for hij, xj in zip(hrow, x)), _ZERO)
                     for hrow, bi in zip(self.H, self.b))


def feasibility_rows(instance: Instance, point: EpiPoint):
    """Rows of {y : A y <= b - H x*, d . y <= eta*} over the y variables.

    Nonempty exactly when the point lies in epi(z); the m+1 rows are the ones
    certificates put multipliers on, in this order.
    """
    rhs = instance.linking_rhs(point.x)
    rows = [(arow, LE, ri) for arow, ri in zip(instance.A, rhs)]
    rows.append((instance.d, LE, point.eta))
    return tuple(rows)


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
    n, k = instance.n, instance.k
    rows = list(epigraph_rows(instance))
    if tight is not None:
        pi, pi0, alpha = tight
        rows.append((tuple(pi) + (_ZERO,) * k + (pi0,), EQ, alpha))
    if direction is None:
        objective = (_ZERO,) * (n + k + 1)
        sense = "min"
    else:
        u, sense = direction
        objective = tuple(u[:n]) + (_ZERO,) * k + (u[n],)
    return LinearProgram(sense, objective, tuple(rows))


def _project(instance: Instance, xyeta: Vector) -> Vector:
    n, k = instance.n, instance.k
    return xyeta[:n] + (xyeta[n + k],)


def subproblem_value(instance: Instance, x: Sequence) -> Union[Fraction, float]:
    """z(x); +inf when infeasible, -inf when unbounded below."""
    rhs = instance.linking_rhs(as_vector(x))
    lp = LinearProgram("min", instance.d, tuple((a, LE, r) for a, r in zip(instance.A, rhs)))
    out = solve(lp)
    if out.status == LpStatus.OPTIMAL:
        return out.objective_value
    return math.inf if out.status == LpStatus.INFEASIBLE else -math.inf


def epi_contains(instance: Instance, point: EpiPoint) -> bool:
    lp = LinearProgram("min", (_ZERO,) * instance.k, feasibility_rows(instance, point))
    return solve(lp).status == LpStatus.OPTIMAL


def epi_is_empty(instance: Instance) -> bool:
    return solve(_epi_lift_lp(instance)).status == LpStatus.INFEASIBLE


def support_function(instance: Instance, pi: Sequence, pi0) -> Union[Fraction, float]:
    """sup {pi . x + pi0 * eta : (x, eta) in epi(z)}, solved through its dual.

    The dual searches nonnegative row multipliers gamma with gamma' A = pi0 d
    and gamma' H = pi, minimizing gamma . b.  +inf when no such multipliers
    exist; EmptyEpigraph when there is nothing to support.
    """
    pi = as_vector(pi)
    pi0 = as_fraction(pi0)
    if len(pi) != instance.n:
        raise DimensionError(f"pi has {len(pi)} entries, expected {instance.n}")
    if pi0 > 0:
        if epi_is_empty(instance):
            raise EmptyEpigraph("the epigraph is empty")
        return math.inf
    m = instance.m
    rows = []
    for j in range(instance.k):
        col = tuple(instance.A[i][j] for i in range(m))
        rows.append((col, EQ, pi0 * instance.d[j]))
    for j in range(instance.n):
        col = tuple(instance.H[i][j] for i in range(m))
        rows.append((col, EQ, pi[j]))
    lp = LinearProgram("min", instance.b, tuple(rows), lower=(_ZERO,) * m)
    out = solve(lp)
    if out.status == LpStatus.OPTIMAL:
        return out.objective_value
    if out.status == LpStatus.UNBOUNDED:
        raise EmptyEpigraph("the epigraph is empty")
    if epi_is_empty(instance):
        raise EmptyEpigraph("the epigraph is empty")
    return math.inf


def _implicit_mask(rows) -> Optional[tuple[bool, ...]]:
    """Which <=-rows hold with equality everywhere on the solution set.

    None when the set is empty.  Equality rows are marked implicit as well.
    """
    mask = []
    for coeffs, rel, rhs in rows:
        if rel == EQ:
            mask.append(True)
            continue
        probe = LinearProgram("min", coeffs, tuple(rows))
        out = solve(probe)
        if out.status == LpStatus.INFEASIBLE:
            return None
        mask.append(out.status == LpStatus.OPTIMAL and out.objective_value == rhs)
    return tuple(mask)


def _affine_dimension(instance: Instance, tight=None, bound: Optional[int] = None) -> int:
    """Affine dimension of epi(z), optionally sliced by a pinned hyperplane.

    Grows an affinely independent point set: directions orthogonal to the
    points found so far are optimized in both senses until no direction moves.
    Standard basis directions come first via the nullspace ordering.  Growth
    also stops once the points span `bound` dimensions, a dimension the caller
    knows the set cannot exceed.
    """
    base_out = solve(_epi_lift_lp(instance, tight=tight))
    if base_out.status != LpStatus.OPTIMAL:
        return -1
    dim = instance.n + 1
    points = [_project(instance, base_out.primal)]
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
    return affine_rank(points)


def epi_dimension(instance: Instance) -> int:
    """Affine dimension of epi(z); raises EmptyEpigraph when it is empty."""
    d = instance.epi_affine_dimension
    if d < 0:
        raise EmptyEpigraph("the epigraph is empty")
    return d


def epi_face_dimension(instance: Instance, pi: Sequence, pi0, alpha) -> int:
    """Dimension of epi(z) cut with {pi.x + pi0*eta = alpha}; -1 when empty.

    The point growth stops at the largest dimension the slice can have.  The
    slice lies in epi(z), so its dimension is at most dim epi(z).  When
    (pi, pi0) is nonzero, as every `Cut` has it, the slice also lies in a
    hyperplane of the (x, eta)-space R^(n+1), so its dimension is at most n.
    Each point the growth adds moves along a direction orthogonal to the
    differences of the earlier ones, so the points stay affinely independent;
    once there are bound + 1 of them the slice has dimension exactly bound, and
    the closing LPs, which could only find that no direction moves, are not
    solved.  The bound comes from the instance's cached epigraph dimension.
    """
    pi, pi0, alpha = as_vector(pi), as_fraction(pi0), as_fraction(alpha)
    epi_dim = instance.epi_affine_dimension
    if epi_dim < 0:
        return -1
    bound = min(instance.n, epi_dim) if any(pi) or pi0 else epi_dim
    return _affine_dimension(instance, tight=(pi, pi0, alpha), bound=bound)


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
    n, k = instance.n, instance.k
    rows = [(tuple(grow) + (_ZERO,) * k, LE, gi) for grow, gi in zip(dom.G, dom.g)]
    for hrow, arow, bi in zip(instance.H, instance.A, instance.b):
        rows.append((tuple(hrow) + tuple(arow), LE, bi))
    out = solve(LinearProgram("min", instance.c + instance.d, tuple(rows)))
    if out.status == LpStatus.OPTIMAL:
        return out.objective_value
    return math.inf if out.status == LpStatus.INFEASIBLE else -math.inf
