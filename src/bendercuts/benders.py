"""The cutting-plane decomposition loop.

Each round solves the relaxed master over (x, eta) and runs one LP that
decides whether the master point already sits in epi(z): the strategy's
relaxed-subproblem CGLP, whose optimum t* = 0 means membership and t* > 0
yields the cut, or, under TrackIncumbent, the subproblem LP z(x) that also
feeds the incumbent, with z(x) <= eta meaning membership. Only the converged
point pays one more LP, for the d-minimizing y.
Every iteration is recorded so a finished run can be replayed and re-verified
from its trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .cglp import Directional, MisOnes, ObjectiveSpec
from .errors import NoIncumbent, PreconditionViolated, StrategyUnbounded, EmptyEpigraph
from .linalg import Vector, as_fraction, dot
from .model import EpiPoint, Instance, PolyhedralDomain, feasibility_rows, subproblem_value
from .separation import IN_EPIGRAPH, Certificate, Cut, separate
from .simplex import LE, LinearProgram, LpStatus, solve as solve_lp
from .verify import FaceReport, face_report

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FixedCore:
    """Re-aim every iteration at one fixed master-epigraph point."""

    point: EpiPoint


@dataclass(frozen=True)
class TrackIncumbent:
    """Blend the core point toward each new incumbent feasible point."""

    blend: Fraction

    def __post_init__(self):
        blend = as_fraction(self.blend)
        if not 0 < blend < 1:
            raise PreconditionViolated("blend must lie strictly between 0 and 1")
        object.__setattr__(self, "blend", blend)


CoreMode = Union[FixedCore, TrackIncumbent]


@dataclass(frozen=True)
class SolverConfig:
    strategy: ObjectiveSpec = MisOnes()
    max_iterations: int = 50
    core_point_mode: Optional[CoreMode] = None
    verify_each_cut: bool = False

    def __post_init__(self):
        if self.max_iterations < 1:
            raise PreconditionViolated("max_iterations must be at least 1")
        if self.core_point_mode is not None and not isinstance(self.strategy, Directional):
            raise PreconditionViolated("core point modes only steer directional strategies")


CONVERGED = "converged"
CUT_ADDED = "cut_added"


@dataclass(frozen=True)
class IterationRecord:
    index: int
    master_point: EpiPoint
    master_value: Fraction
    outcome: str
    cut: Optional[Cut] = None
    certificate: Optional[Certificate] = None
    cglp_value: Optional[Fraction] = None
    face: Optional[FaceReport] = None
    fallback: bool = False


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"
    INFEASIBLE = "infeasible"
    ILL_POSED = "ill_posed"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    x: Optional[Vector] = None
    y: Optional[Vector] = None
    value: Optional[Fraction] = None
    reason: Optional[str] = None
    trace: tuple[IterationRecord, ...] = ()


def subproblem_check(instance: Instance, point: EpiPoint) -> Optional[Vector]:
    """The d-minimizing y at a point of epi(z), or None when d.y is unbounded below.

    The loop calls it once, at the converged point; outside epi(z) it raises.
    """
    out = solve_lp(LinearProgram("min", instance.d, feasibility_rows(instance, point)))
    if out.status == LpStatus.INFEASIBLE:
        raise PreconditionViolated("the point lies outside epi(z)")
    return out.primal if out.status == LpStatus.OPTIMAL else None


def _blend_points(a: EpiPoint, b: EpiPoint, blend: Fraction) -> EpiPoint:
    keep = 1 - blend
    return EpiPoint(
        x=tuple(blend * u + keep * v for u, v in zip(a.x, b.x)),
        eta=blend * a.eta + keep * b.eta,
    )


def next_core_objective(config: SolverConfig, incumbent: Optional[EpiPoint],
                        current_master: EpiPoint,
                        previous_core: Optional[EpiPoint] = None) -> tuple[Vector, Fraction]:
    """The direction a directional strategy should use this iteration."""
    mode = config.core_point_mode
    if mode is None:
        strategy = config.strategy
        if not isinstance(strategy, Directional):
            raise PreconditionViolated("no core mode set and the strategy carries no direction")
        return strategy.direction, strategy.direction_eta
    if isinstance(mode, FixedCore):
        target = mode.point
    else:
        if incumbent is None:
            raise NoIncumbent("no feasible point seen yet")
        target = _blend_points(previous_core or incumbent, incumbent, mode.blend)
    return (
        tuple(t - m for t, m in zip(target.x, current_master.x)),
        target.eta - current_master.eta,
    )


def _master_lp(instance: Instance, dom: PolyhedralDomain, cuts) -> LinearProgram:
    n = instance.n
    rows = [(tuple(grow) + (_ZERO,), LE, gi) for grow, gi in zip(dom.G, dom.g)]
    for cut in cuts:
        rows.append((cut.coef_x + (cut.coef_eta,), LE, cut.rhs))
    return LinearProgram(
        "min",
        instance.c + (_ONE,),
        tuple(rows),
        lower=(None,) * n + (instance.eta_lower_bound,),
    )


def _solve_master(instance: Instance, cuts) -> Union[str, tuple[EpiPoint, Fraction]]:
    """Master optimum as (point, value), or 'infeasible' / 'unbounded'."""
    dom = instance.master_domain
    if isinstance(dom, PolyhedralDomain):
        out = solve_lp(_master_lp(instance, dom, cuts))
        if out.status != LpStatus.OPTIMAL:
            return "infeasible" if out.status == LpStatus.INFEASIBLE else "unbounded"
        point = EpiPoint(x=out.primal[:instance.n], eta=out.primal[instance.n])
        return point, out.objective_value
    best = None
    for p in dom.points:
        eta = instance.eta_lower_bound
        ok = True
        for cut in cuts:
            level = dot(cut.coef_x, p)
            if cut.coef_eta == 0:
                if level > cut.rhs:
                    ok = False
                    break
            else:
                bound = (level - cut.rhs) / (-cut.coef_eta)
                if bound > eta:
                    eta = bound
        if not ok:
            continue
        value = dot(instance.c, p) + eta
        if best is None or value < best[1]:
            best = (EpiPoint(x=p, eta=eta), value)
    return best if best is not None else "infeasible"


def _record(trace, **kw):
    trace.append(IterationRecord(**kw))


def _converged(instance: Instance, trace: list, index: int, point: EpiPoint,
               master_value: Fraction) -> SolveResult:
    """The one exit for a master point inside epi(z); its LP gives y."""
    _record(trace, index=index, master_point=point, master_value=master_value,
            outcome=CONVERGED)
    y = subproblem_check(instance, point)
    if y is None:
        return SolveResult(status=SolveStatus.ILL_POSED,
                           reason="subproblem unbounded below at the converged point",
                           trace=tuple(trace))
    if point.eta == instance.eta_lower_bound:
        return SolveResult(status=SolveStatus.ILL_POSED,
                           reason="eta converged onto its lower bound; the bound may"
                                  " be hiding the true optimum",
                           trace=tuple(trace))
    value = dot(instance.c, point.x) + dot(instance.d, y)
    return SolveResult(status=SolveStatus.OPTIMAL, x=point.x, y=y, value=value,
                       trace=tuple(trace))


def solve(instance: Instance, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Run the decomposition until the master point enters epi(z).

    Directional strategies whose CGLP comes back unbounded fall back to the
    minimum-1-norm selection for that iteration, marked in the trace.
    """
    cuts: list[Cut] = []
    trace: list[IterationRecord] = []
    incumbent: Optional[EpiPoint] = None
    incumbent_value: Optional[Fraction] = None
    previous_core: Optional[EpiPoint] = None
    track = isinstance(config.core_point_mode, TrackIncumbent)

    for index in range(1, config.max_iterations + 1):
        master = _solve_master(instance, cuts)
        if master == "infeasible":
            return SolveResult(status=SolveStatus.INFEASIBLE,
                               reason="master problem infeasible", trace=tuple(trace))
        if master == "unbounded":
            return SolveResult(status=SolveStatus.ILL_POSED,
                               reason="master relaxation unbounded", trace=tuple(trace))
        point, master_value = master

        if track:
            z = subproblem_value(instance, point.x)
            if z <= point.eta:
                return _converged(instance, trace, index, point, master_value)
            if isinstance(z, Fraction):
                candidate_value = dot(instance.c, point.x) + z
                if incumbent_value is None or candidate_value < incumbent_value:
                    incumbent = EpiPoint(x=point.x, eta=z)
                    incumbent_value = candidate_value

        strategy: ObjectiveSpec = config.strategy
        fallback = False
        if isinstance(strategy, Directional):
            try:
                direction, direction_eta = next_core_objective(config, incumbent, point,
                                                               previous_core)
                strategy = Directional(direction=direction, direction_eta=direction_eta)
                if track:
                    # the blend the direction aims at, recovered exactly
                    previous_core = EpiPoint(x=tuple(p + d for p, d in zip(point.x, direction)),
                                             eta=point.eta + direction_eta)
            except NoIncumbent:
                strategy = MisOnes()
                fallback = True

        try:
            result = separate(instance, point, strategy)
        except StrategyUnbounded:
            if isinstance(strategy, MisOnes):
                return SolveResult(status=SolveStatus.ILL_POSED,
                                   reason="cut search unbounded for every strategy",
                                   trace=tuple(trace))
            fallback = True
            try:
                result = separate(instance, point, MisOnes())
            except StrategyUnbounded:
                return SolveResult(status=SolveStatus.ILL_POSED,
                                   reason="cut search unbounded for every strategy",
                                   trace=tuple(trace))
        except EmptyEpigraph:
            return SolveResult(status=SolveStatus.INFEASIBLE,
                               reason="no master point has a feasible subproblem",
                               trace=tuple(trace))

        if result.kind == IN_EPIGRAPH:
            return _converged(instance, trace, index, point, master_value)
        face = face_report(instance, result.cut) if config.verify_each_cut else None
        cuts.append(result.cut)
        _record(trace, index=index, master_point=point, master_value=master_value,
                outcome=CUT_ADDED, cut=result.cut, certificate=result.certificate,
                cglp_value=result.cglp_value, face=face, fallback=fallback)

    return SolveResult(status=SolveStatus.ITERATION_LIMIT, trace=tuple(trace))
