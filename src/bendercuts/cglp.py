"""Constructors for every cut-generating LP in the toolkit.

All of them live in or next to the certificate space: nonnegative multipliers
(u, u_eta) on the m linking rows and on the epigraph row d.y <= eta.  A
multiplier vector with u'A + u_eta d' = 0 and u'(b - Hx*) + u_eta eta* = -1
proves (x*, eta*) outside epi(z) and induces the cut (H'u).x - u_eta.eta <= u.b.

The alternative polyhedron collects exactly those normalized certificates.
The reverse-polar LP optimizes over cut normals (coef_x, coef_eta) directly,
with the certificate as a witness.  The two CGLP variants trade the ambient
space for the subproblem's: one swaps the normalization row into the
constraint set, the other relaxes the subproblem along a lifted direction and
recovers the certificate from its duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import DimensionError
from .linalg import Vector, as_fraction, as_vector, dot
from .model import EpiPoint, Instance, feasibility_rows
from .simplex import EQ, GE, LE, LinearProgram

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class MisOnes:
    """Select the certificate of minimum weighted 1-norm (unit row weights)."""


@dataclass(frozen=True)
class Directional:
    """Aim the cut search along a direction in master-epigraph space."""

    direction: Vector
    direction_eta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "direction", as_vector(self.direction))
        object.__setattr__(self, "direction_eta", as_fraction(self.direction_eta))


@dataclass(frozen=True)
class Custom:
    """Explicit row weights in certificate space, one per linking row."""

    weights: Vector
    weight_eta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weights", as_vector(self.weights))
        object.__setattr__(self, "weight_eta", as_fraction(self.weight_eta))


ObjectiveSpec = Union[MisOnes, Directional, Custom]


def _column(rows, j: int) -> Vector:
    return tuple(r[j] for r in rows)


def certificate_rows(instance: Instance) -> tuple:
    """The k rows u'A + u_eta d' = 0 over (u, u_eta): multipliers that cancel y."""
    return tuple((_column(instance.A, j) + (instance.d[j],), EQ, _ZERO)
                 for j in range(instance.k))


def build_alt_polyhedron(instance: Instance, point: EpiPoint, relaxed: bool = False) -> LinearProgram:
    """Normalized certificates (u_1 .. u_m, u_eta) >= 0 for one point, zero objective.

    Nonempty exactly when the point lies outside epi(z); relaxed=True turns the
    -1 level into an upper bound, which keeps the vertex set."""
    level = instance.linking_rhs(point.x) + (point.eta,)
    rows = certificate_rows(instance) + ((level, LE if relaxed else EQ, Fraction(-1)),)
    nvars = instance.m + 1
    return LinearProgram("min", (_ZERO,) * nvars, rows, lower=(_ZERO,) * nvars)


def lift_objective(instance: Instance, direction: Sequence, direction_eta) -> tuple[Vector, Fraction]:
    """Transport a master-space direction to certificate-space row weights.

    The weight on linking row i is H_i . direction; the epigraph row gets
    -direction_eta.  Optimizing either version gives the same value.
    """
    direction = as_vector(direction)
    if len(direction) != instance.n:
        raise DimensionError(f"direction has {len(direction)} entries, expected {instance.n}")
    weights = tuple(dot(hrow, direction) for hrow in instance.H)
    return weights, -as_fraction(direction_eta)


def mis_objective(instance: Instance) -> tuple[Vector, Fraction]:
    """Row weights whose optimum is the minimum weighted 1-norm certificate.

    Rows that do not touch the master variables (all-zero rows of H) get
    weight 0, every other row and the epigraph row get -1; maximizing these
    weights over the certificate polyhedron minimizes the 1-norm over the
    touched rows.
    """
    weights = tuple(-_ONE if any(hrow) else _ZERO for hrow in instance.H)
    return weights, -_ONE


def strategy_weights(instance: Instance, strategy: ObjectiveSpec) -> tuple[Vector, Fraction]:
    """Certificate-space weights for a strategy, lifting directional ones."""
    if isinstance(strategy, MisOnes):
        return mis_objective(instance)
    if isinstance(strategy, Directional):
        return lift_objective(instance, strategy.direction, strategy.direction_eta)
    if isinstance(strategy, Custom):
        if len(strategy.weights) != instance.m:
            raise DimensionError(f"weights have {len(strategy.weights)} entries, expected {instance.m}")
        return strategy.weights, strategy.weight_eta
    raise DimensionError(f"unknown strategy {strategy!r}")


def build_reverse_polar_lp(instance: Instance, point: EpiPoint, direction: Sequence,
                           direction_eta) -> LinearProgram:
    """LP over separating cut normals, maximizing progress along a direction.

    Variables are (coef_x, coef_eta, u): the cut normal in master-epigraph
    space plus its certificate witness.  Constraints force the normal to cut
    the point off by at least one unit and tie it to the witness; coef_eta
    stays nonpositive and u nonnegative.
    """
    direction = as_vector(direction)
    if len(direction) != instance.n:
        raise DimensionError(f"direction has {len(direction)} entries, expected {instance.n}")
    n, k, m = instance.n, instance.k, instance.m
    nvars = n + 1 + m
    rows = [(point.x + (point.eta,) + tuple(-v for v in instance.b), GE, _ONE)]
    for j in range(k):
        rows.append(((_ZERO,) * n + (-instance.d[j],) + _column(instance.A, j), EQ, _ZERO))
    for j in range(n):
        unit = tuple(-_ONE if i == j else _ZERO for i in range(n))
        rows.append((unit + (_ZERO,) + _column(instance.H, j), EQ, _ZERO))
    objective = direction + (as_fraction(direction_eta),) + (_ZERO,) * m
    lower = (None,) * (n + 1) + (_ZERO,) * m
    upper = (None,) * n + (_ZERO,) + (None,) * m
    assert len(objective) == nvars
    return LinearProgram("max", objective, tuple(rows), lower=lower, upper=upper)


def build_cglp_normalized(instance: Instance, point: EpiPoint, weights: Sequence,
                          weight_eta) -> LinearProgram:
    """Certificate search with the weight row swapped in as the normalization.

    Maximizes u'(Hx* - b) - u_eta.eta* subject to u'A + u_eta.d' = 0 and
    weights.u + weight_eta.u_eta = -1.  A positive optimum xi scales by 1/xi
    to an optimal certificate at the usual -1 level, with value -1/xi there.
    """
    weights = as_vector(weights)
    if len(weights) != instance.m:
        raise DimensionError(f"weights have {len(weights)} entries, expected {instance.m}")
    normalization = (weights + (as_fraction(weight_eta),), EQ, Fraction(-1))
    rows = certificate_rows(instance) + (normalization,)
    level = instance.linking_rhs(point.x) + (point.eta,)
    objective = tuple(-v for v in level)
    nvars = instance.m + 1
    return LinearProgram("max", objective, rows, lower=(_ZERO,) * nvars)


def build_cglp_relaxed_subproblem(instance: Instance, point: EpiPoint, weights: Sequence,
                                  weight_eta) -> LinearProgram:
    """Minimal relaxation of the subproblem rows along the weight direction.

    Variables (y, t): minimize t subject to Ay <= b - Hx* - t.weights and
    d.y <= eta* - t.weight_eta.  t is kept nonnegative so that t* = 0 holds
    exactly when the point already lies in epi(z); for t* > 0 the row duals
    scaled by 1/t* form an optimal certificate with value -1/t*.
    """
    weights = as_vector(weights)
    if len(weights) != instance.m:
        raise DimensionError(f"weights have {len(weights)} entries, expected {instance.m}")
    column = weights + (as_fraction(weight_eta),)
    rows = tuple((coeffs + (w,), rel, rhs)
                 for (coeffs, rel, rhs), w in zip(feasibility_rows(instance, point), column))
    k = instance.k
    objective = (_ZERO,) * k + (_ONE,)
    lower = (None,) * k + (_ZERO,)
    return LinearProgram("min", objective, rows, lower=lower)
