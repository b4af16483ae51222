"""Running a cut strategy against a master point.

The workhorse is the relaxed-subproblem CGLP: its optimal relaxation amount t*
prices the strategy's weights, its row duals (divided by t*) are the selected
certificate, and the certificate maps to the cut coef_x.x + coef_eta.eta <= rhs.
The CGLP's basic dual is a vertex of the pointed cone C = {v >= 0 : v'[A; d'] = 0}
cut by one halfspace; for t* > 0 it is nonzero, so it lies on an extreme ray of C,
and dividing by t* puts it on the level row -1: a vertex of the relaxed alternative
polyhedron. So the certificate is returned as read, and `_push_to_vertex` has no
caller; it stays because the benchmark's layer trace names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .cglp import ObjectiveSpec, build_cglp_relaxed_subproblem, lift_objective, strategy_weights
from .errors import (EmptyEpigraph, PreconditionViolated, StrategyUnbounded, UnboundedDirection,
                     ZeroCertificate)
from .linalg import Vector, as_fraction, as_vector, dot
from .model import (EpiPoint, Instance, epi_contains, epi_is_empty, feasibility_rows,
                    support_function)
from .simplex import EQ, LinearProgram, LpStatus, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Certificate:
    """Nonnegative multipliers on the linking rows and the epigraph row."""

    row_multipliers: Vector
    eta_multiplier: Fraction

    def __post_init__(self):
        mults = as_vector(self.row_multipliers)
        eta = as_fraction(self.eta_multiplier)
        if any(v < 0 for v in mults) or eta < 0:
            raise PreconditionViolated("certificate multipliers must be nonnegative")
        object.__setattr__(self, "row_multipliers", mults)
        object.__setattr__(self, "eta_multiplier", eta)

    def as_tuple(self) -> Vector:
        return self.row_multipliers + (self.eta_multiplier,)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of nonzero multipliers; m stands for the epigraph row."""
        idx = [i for i, v in enumerate(self.row_multipliers) if v]
        if self.eta_multiplier:
            idx.append(len(self.row_multipliers))
        return tuple(idx)


@dataclass(frozen=True)
class Cut:
    """Halfspace coef_x . x + coef_eta . eta <= rhs in master-epigraph space."""

    coef_x: Vector
    coef_eta: Fraction
    rhs: Fraction

    def __post_init__(self):
        coef_x = as_vector(self.coef_x)
        coef_eta = as_fraction(self.coef_eta)
        if not any(coef_x) and not coef_eta:
            raise ZeroCertificate("a cut needs a nonzero normal")
        if coef_eta > 0:
            raise PreconditionViolated("the eta coefficient of a cut is never positive")
        object.__setattr__(self, "coef_x", coef_x)
        object.__setattr__(self, "coef_eta", coef_eta)
        object.__setattr__(self, "rhs", as_fraction(self.rhs))

    def value_at(self, point: EpiPoint) -> Fraction:
        return dot(self.coef_x, point.x) + self.coef_eta * point.eta

    def holds_at(self, point: EpiPoint) -> bool:
        return self.value_at(point) <= self.rhs


IN_EPIGRAPH = "in_epigraph"
SEPARATED = "separated"


@dataclass(frozen=True)
class SeparationResult:
    kind: str
    cut: Optional[Cut] = None
    certificate: Optional[Certificate] = None
    cglp_value: Optional[Fraction] = None
    instance: Optional[Instance] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.cut is not None and self.instance is None:
            raise PreconditionViolated("a result with a cut needs the instance it was cut from")

    @cached_property
    def supporting(self) -> Optional[bool]:
        """Whether the cut touches epi(z): one support-function solve, on first read."""
        cut = self.cut
        if cut is None:
            return None
        return support_function(self.instance, cut.coef_x, cut.coef_eta) == cut.rhs


class DirectionClass(str, Enum):
    IN_SET = "in_set"
    IN_CLOSED_CONE = "in_closed_cone"
    OUTSIDE = "outside"


def certificate_to_cut(instance: Instance, cert: Certificate) -> Cut:
    """Map a certificate to its cut: coefficients H'u, -u_eta, right side u.b."""
    if not any(cert.row_multipliers) and not cert.eta_multiplier:
        raise ZeroCertificate("all multipliers are zero")
    coef_x = tuple(
        sum((instance.H[i][j] * cert.row_multipliers[i] for i in range(instance.m)), _ZERO)
        for j in range(instance.n)
    )
    return Cut(
        coef_x=coef_x,
        coef_eta=-cert.eta_multiplier,
        rhs=dot(cert.row_multipliers, instance.b),
    )


def canonical_cut(cut: Cut) -> Cut:
    """Scale so the first nonzero of (coef_x, coef_eta) has absolute value 1."""
    leading = next(v for v in cut.coef_x + (cut.coef_eta,) if v)
    s = 1 / abs(leading)
    return Cut(
        coef_x=tuple(s * v for v in cut.coef_x),
        coef_eta=s * cut.coef_eta,
        rhs=s * cut.rhs,
    )


def _certificate_from_duals(dual: Vector, m: int, t_star: Fraction) -> Certificate:
    return Certificate(
        row_multipliers=tuple(-dual[i] / t_star for i in range(m)),
        eta_multiplier=-dual[m] / t_star,
    )


def _push_to_vertex(rows, weights: Vector, weight_eta: Fraction, value: Fraction) -> Certificate:
    """Lexicographically minimize inside the optimal face of the relaxed system.

    rows are the relaxed certificate polyhedron in <=-form; the face is where
    weights . (u, u_eta) reaches value.  Coordinate-by-coordinate minimization
    pins the face down to a single point, which is then a vertex; Bland's rule
    keeps every step deterministic.
    """
    nvars = len(weights) + 1
    rows = list(rows)
    rows.append((weights + (weight_eta,), EQ, value))
    for j in range(nvars):
        unit = tuple(_ONE if i == j else _ZERO for i in range(nvars))
        out = solve(LinearProgram("min", unit, tuple(rows)))
        rows.append((unit, EQ, out.objective_value))
    coords = tuple(r[2] for r in rows[-nvars:])
    return Certificate(row_multipliers=coords[:-1], eta_multiplier=coords[-1])


def separate(instance: Instance, point: EpiPoint, strategy: ObjectiveSpec) -> SeparationResult:
    """Run a strategy's CGLP against a point and return the selected cut.

    InEpigraph when no certificate exists; otherwise the CGLP's basic dual
    certificate, its cut and the CGLP value (always negative).  Whether the
    cut touches epi(z) is left to the result's `supporting`, which runs its
    independent support-function solve only when it is read.
    """
    weights, weight_eta = strategy_weights(instance, strategy)
    out = solve(build_cglp_relaxed_subproblem(instance, point, weights, weight_eta))
    if out.status == LpStatus.INFEASIBLE:
        if epi_is_empty(instance):
            raise EmptyEpigraph("the epigraph is empty; nothing to separate from")
        raise StrategyUnbounded("no relaxation along these weights reaches the epigraph")
    t_star = out.objective_value
    if t_star == 0:
        return SeparationResult(kind=IN_EPIGRAPH)
    cert = _certificate_from_duals(out.dual, instance.m, t_star)
    return SeparationResult(
        kind=SEPARATED,
        cut=certificate_to_cut(instance, cert),
        certificate=cert,
        cglp_value=-1 / t_star,
        instance=instance,
    )


def tighten_rhs(instance: Instance, coef_x: Sequence, coef_eta) -> Fraction:
    """Smallest right-hand side keeping the halfspace valid for epi(z)."""
    h = support_function(instance, coef_x, coef_eta)
    if h == math.inf:
        raise UnboundedDirection("the epigraph is unbounded along this normal")
    return h


def boundedness_check(instance: Instance, point: EpiPoint, direction: Sequence,
                      direction_eta) -> DirectionClass:
    """Classify a direction against the cone spanned by epi(z) - point.

    IN_SET: point + direction lies in epi(z), so the CGLP value is at most -1.
    IN_CLOSED_CONE: some positive stretch reaches epi(z) (or its recession),
    keeping the CGLP bounded.  OUTSIDE: the CGLP is unbounded.
    """
    direction = as_vector(direction)
    direction_eta = as_fraction(direction_eta)
    shifted = EpiPoint(
        x=tuple(a + b for a, b in zip(point.x, direction)),
        eta=point.eta + direction_eta,
    )
    if epi_contains(instance, shifted):
        return DirectionClass.IN_SET
    weights, weight_eta = lift_objective(instance, direction, direction_eta)
    rows = tuple((coeffs + (-rhs,), rel, -w)
                 for (coeffs, rel, rhs), w in zip(feasibility_rows(instance, point),
                                                  weights + (weight_eta,)))
    k = instance.k
    lp = LinearProgram("min", (_ZERO,) * (k + 1), rows,
                       lower=(None,) * k + (_ZERO,))
    if solve(lp).status == LpStatus.OPTIMAL:
        return DirectionClass.IN_CLOSED_CONE
    return DirectionClass.OUTSIDE


def exposed_point(instance: Instance, point: EpiPoint, direction: Sequence,
                  direction_eta) -> EpiPoint:
    """Epigraph point where every optimal cut for this direction is tight.

    It sits at point + t* . direction, t* being the optimal relaxation amount;
    requires the direction to actually reach epi(z) under positive stretch.
    """
    direction = as_vector(direction)
    direction_eta = as_fraction(direction_eta)
    weights, weight_eta = lift_objective(instance, direction, direction_eta)
    out = solve(build_cglp_relaxed_subproblem(instance, point, weights, weight_eta))
    if out.status != LpStatus.OPTIMAL or out.objective_value == 0:
        raise PreconditionViolated("the direction does not reach the epigraph"
                                   " under positive stretch")
    t_star = out.objective_value
    return EpiPoint(
        x=tuple(a + t_star * w for a, w in zip(point.x, direction)),
        eta=point.eta + t_star * direction_eta,
    )
