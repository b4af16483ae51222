"""The cutting-plane decomposition loop.

Each round solves the relaxed master over (x, eta) and runs one LP that
decides whether the master point already sits in epi(z): the strategy's
relaxed-subproblem CGLP, whose optimum t* = 0 means membership and t* > 0
yields the cut, or, under TrackIncumbent, the subproblem LP z(x) that also
feeds the incumbent, with z(x) <= eta meaning membership. That LP also holds
the d-minimizing y of a converged point (see `converged_exit`); only a point
on the eta floor pays more LPs.

A core-point mode steers a directional strategy (Magnanti-Wong; Papadakos
moves the core toward the incumbent). The loop keeps the core point itself:
FixedCore's point from the start, or under TrackIncumbent the blend of the
previous core (the incumbent, the first time) toward the best feasible point
seen so far, renewed every round once an incumbent exists. Each round aims
Directional(core - master point); a round with a mode but no core yet
separates with MisOnes and is marked as a fallback.  `round_strategy` states
that rule once, for the loop and for trace replay.

Every iteration is recorded so a finished run can be replayed and re-verified
from its trace alone.  `run_ending` is the one rule for how a run ends, which
`solve` and replay both apply to their records: `converged_exit` for a master
point inside epi(z), `MASTER_EXITS` for a master with no optimum.  The loop
only makes cuts; the oracles of `verify` that judge them stay independent of
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Union

from .cglp import Custom, Directional, MisOnes, ObjectiveSpec
from .errors import PreconditionViolated, StrategyUnbounded, EmptyEpigraph
from .linalg import Vector, as_fraction, dot, sized
from .model import EpiPoint, FiniteDomain, Instance, PolyhedralDomain, _subproblem, epi_is_empty
from .separation import IN_EPIGRAPH, Certificate, Cut, separate
from .simplex import LE, LinearProgram, LpStatus, solve as solve_lp

_ONE = Fraction(1)


@dataclass(frozen=True)
class FixedCore:
    """Re-aim every iteration at one fixed master-epigraph point."""

    point: EpiPoint

    def __post_init__(self):
        if not isinstance(self.point, EpiPoint):
            raise PreconditionViolated("a fixed core's point must be an EpiPoint")


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

    def __post_init__(self):
        limit, mode = self.max_iterations, self.core_point_mode
        if not isinstance(self.strategy, (MisOnes, Directional, Custom)):
            raise PreconditionViolated("strategy must be MisOnes, Directional or Custom")
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise PreconditionViolated("max_iterations must be an integer of at least 1")
        if mode is not None and not isinstance(mode, (FixedCore, TrackIncumbent)):
            raise PreconditionViolated("core_point_mode must be None, FixedCore or TrackIncumbent")
        if mode is not None and not isinstance(self.strategy, Directional):
            raise PreconditionViolated("core point modes only steer directional strategies")


CONVERGED = "converged"
CUT_ADDED = "cut_added"


# Results and their records have slots: callers keep whole traces, and a
# record without a __dict__ is about half the size.
@dataclass(frozen=True, slots=True)
class IterationRecord:
    index: int
    master_point: EpiPoint
    master_value: Fraction
    outcome: str
    cut: Optional[Cut] = None
    certificate: Optional[Certificate] = None
    cglp_value: Optional[Fraction] = None
    fallback: bool = False


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"
    INFEASIBLE = "infeasible"
    ILL_POSED = "ill_posed"


MASTER_INFEASIBLE = "master problem infeasible"
NO_RECOURSE = "no master point has a feasible subproblem"
MASTER_UNBOUNDED = "master relaxation unbounded"
SUBPROBLEM_UNBOUNDED = "subproblem unbounded below at the converged point"
FLOOR_BINDS = "eta converged onto its lower bound; the bound may be hiding the true optimum"
HIDDEN_POINT = "the eta lower bound hides a master point below the converged value"
MASTER_EXITS = {"infeasible": (SolveStatus.INFEASIBLE, MASTER_INFEASIBLE),
                "unbounded": (SolveStatus.ILL_POSED, MASTER_UNBOUNDED)}
"""The (status, reason) a run ends with when `_solve_master` finds no optimum."""


@dataclass(frozen=True, slots=True)
class SolveResult:
    status: SolveStatus
    x: Optional[Vector] = None
    y: Optional[Vector] = None
    value: Optional[Fraction] = None
    reason: Optional[str] = None
    trace: tuple[IterationRecord, ...] = ()


def subproblem_check(instance: Instance, point: EpiPoint) -> Optional[Vector]:
    """The d-minimizing y at a point of epi(z), or None when d.y is unbounded below.

    `converged_exit` calls it at a point that converged onto the eta floor;
    outside epi(z), where z(x) > eta, it raises.
    """
    z, y = _subproblem(instance, point.x)
    if z > point.eta:
        raise PreconditionViolated("the point lies outside epi(z)")
    return y


def _blend_points(a: EpiPoint, b: EpiPoint, blend: Fraction) -> EpiPoint:
    keep = 1 - blend
    return EpiPoint(
        x=tuple(blend * u + keep * v for u, v in zip(a.x, b.x)),
        eta=blend * a.eta + keep * b.eta,
    )


def round_strategy(config: SolverConfig, core: Optional[EpiPoint], point: EpiPoint,
                   fallback: bool) -> ObjectiveSpec:
    """The strategy a round separates with: MisOnes on a fallback, else
    Directional(core - point) when there is a core point, else the configured
    strategy."""
    if fallback:
        return MisOnes()
    if core is None:
        return config.strategy
    return Directional(direction=tuple(c - p for c, p in zip(core.x, point.x)),
                       direction_eta=core.eta - point.eta)


def _master_lp(instance: Instance, dom: PolyhedralDomain, cuts, floor: Optional[Fraction]
               ) -> LinearProgram:
    rows = dom.rows(1) + tuple((cut.coef_x + (cut.coef_eta,), LE, cut.rhs) for cut in cuts)
    return LinearProgram("min", instance.c + (_ONE,), rows, lower=(None,) * instance.n + (floor,))


def _eta_bounds(dom: FiniteDomain, cuts) -> Iterator[tuple[Vector, Optional[Fraction]]]:
    """Each point of a finite master set that no feasibility cut removes, with
    the largest of its cut bounds on eta: None when no cut bounds eta there.

    A cut reads coef_x.x + coef_eta eta <= rhs with coef_eta <= 0, so at x = p
    it bounds eta below by gap / -coef_eta, gap = coef_x.p - rhs, or, with
    coef_eta = 0, removes p when gap > 0.
    """
    for p in dom.points:
        gaps = [(dot(cut.coef_x, p) - cut.rhs, cut.coef_eta) for cut in cuts]
        if all(gap <= 0 for gap, coef in gaps if coef == 0):
            yield p, max((gap / -coef for gap, coef in gaps if coef != 0), default=None)


def _solve_master(instance: Instance, cuts, floored: bool = True
                  ) -> Union[str, tuple[EpiPoint, Fraction, tuple]]:
    """Master optimum as (point, value, on_floor), or 'infeasible' / 'unbounded'.

    eta is bounded below by the instance's eta_lower_bound, or not at all
    when floored is False.  on_floor is empty for a polyhedral master; a
    finite one lists each point whose eta the floor sets, with its cut bound
    (None when no cut bounds eta there), which `converged_exit` reads.
    """
    floor = instance.eta_lower_bound if floored else None
    dom = instance.master_domain
    if isinstance(dom, PolyhedralDomain):
        out = solve_lp(_master_lp(instance, dom, cuts, floor))
        if out.status != LpStatus.OPTIMAL:
            return "infeasible" if out.status == LpStatus.INFEASIBLE else "unbounded"
        point = EpiPoint(x=out.primal[:instance.n], eta=out.primal[instance.n])
        return point, out.objective_value, ()
    best, on_floor = None, []
    for p, bound in _eta_bounds(dom, cuts):
        eta = floor if bound is None or (floor is not None and bound < floor) else bound
        if eta is None:  # neither a cut nor the floor bounds eta at this point
            return "unbounded"
        if eta == floor:
            on_floor.append((p, bound))
        value = dot(instance.c, p) + eta
        if best is None or value < best[1]:
            best = (EpiPoint(x=p, eta=eta), value)
    return best + (tuple(on_floor),) if best is not None else "infeasible"


def converged_exit(instance: Instance, cuts, master, y: Optional[Vector] = None
                   ) -> tuple[Optional[str], Optional[Vector]]:
    """Why a master optimum over cuts, whose point lies inside epi(z), is not
    proven optimal, or None with its d-minimizing y; master is the
    `_solve_master` outcome and y its point's membership LP's y, if it has one.

    Off the eta floor that y is d-minimizing.  Lemma: for fixed x*, the master
    optimum sets eta* to the largest of the floor and the cut bounds at x*
    (eta costs 1, and the finite master takes that largest bound).  Every cut
    is valid for epi(z), so each cut bound is at most z(x*); eta* above the
    floor is one of them, so eta* <= z(x*), and membership gives z(x*) <= eta*.
    So eta* = z(x*), and any y with A y <= b - H x* and d.y <= eta* has
    d.y = z(x*).

    That makes V = c.x* + eta* a value the problem attains; it is the optimum
    when no x in the master set has c.x + z(x) < V.
    - Polyhedral master: the master is an LP, and its optimum (x*, eta*)
      leaves the floor row slack.  Were a point q of the floor-free master
      cheaper, the points of the segment from (x*, eta*) towards q close
      enough to (x*, eta*) would meet the floor row and be cheaper too.  So V
      is the floor-free master optimum, at most c.x + z(x) for every x with
      z(x) finite, since (x, z(x)) meets every valid cut.  Nothing more runs.
    - Finite master: no convexity, so the floor can price a point p at
      c.p + floor >= V while c.p + z(p) < V.  Take p's floor-free cut bound
      e(p) (None when no cut bounds eta at p); e(p) <= z(p).  A feasibility
      cut removes only points with z(p) = +inf, and a point with
      c.p + e(p) >= V has c.p + z(p) >= V.  Each other point gets its
      subproblem LP.  One with c.p + z(p) < V ends the run ill_posed; when
      there is none, V is the optimum.  Only points whose eta the floor sets
      can be such points: elsewhere the master prices p at c.p + e(p), which
      is at least its minimum V.  So the master hands over those points with
      e(p), and no cut is read again here.

    A point with eta on its lower bound gets y from `subproblem_check`, and is
    proven optimal only by one more master LP, over the same cuts without the
    eta floor.  Lemma: let V be the master value at (x*, eta*),
    eta* = eta_lower_bound, and V' the floor-free master optimum.  Every cut
    is valid for epi(z), so each (x, z(x)) with x in the master set and z(x)
    finite is feasible for the floor-free master, and V' <= min c.x + z(x).
    The point lies in epi(z), so z(x*) <= eta* and
    min c.x + z(x) <= c.x* + z(x*) <= c.x* + eta* = V.  Hence V' == V forces
    equality throughout: z(x*) = eta*, and (x*, y) is optimal at V.  When
    V' < V, or the floor-free master is unbounded, the floor may be binding and
    the run stays ill_posed (which can also happen at a true optimum V: the
    rule is sound, not complete).  The rule holds on both domains.

    Replay calls it without y; outside epi(z) on the floor it raises, as
    `subproblem_check` does.
    """
    point, master_value, on_floor = master
    if point.eta == instance.eta_lower_bound:
        y = subproblem_check(instance, point)
        if y is None:
            return SUBPROBLEM_UNBOUNDED, None
        free = _solve_master(instance, cuts, floored=False)
        # a relaxation of a feasible master is feasible, so free is not 'infeasible'
        return (FLOOR_BINDS if free == "unbounded" or free[1] != master_value else None), y
    for p, eta in on_floor:
        base = dot(instance.c, p)
        if ((eta is None or base + eta < master_value)
                and base + _subproblem(instance, p)[0] < master_value):
            return HIDDEN_POINT, None
    return None, y


def run_ending(instance: Instance, config: SolverConfig, trace, master=None,
               y: Optional[Vector] = None
               ) -> Optional[tuple[SolveStatus, Optional[str], Optional[Vector]]]:
    """How a run whose rounds left these records ends, as (status, reason, y),
    with y only on `optimal`; None when `solve` would go on.

    In the loop's order: a converged last record gets `converged_exit`, with
    y its membership LP's y if it has one; else max_iterations records mean
    iteration_limit; else a master over the recorded cuts with no optimum
    gives its `MASTER_EXITS` entry; else an empty epi(z) means NO_RECOURSE.
    master is the `_solve_master` outcome over the recorded cuts, solved here
    when None; a converged last record's point and value are that master's.
    Raises PreconditionViolated, as `converged_exit` does, for a converged
    point on the floor outside epi(z).
    """
    cuts = [r.cut for r in trace if r.cut is not None]
    if trace and trace[-1].outcome == CONVERGED:
        reason, y = converged_exit(instance, cuts, master or _solve_master(instance, cuts), y)
        return (SolveStatus.ILL_POSED, reason, None) if reason else (SolveStatus.OPTIMAL, None, y)
    if len(trace) == config.max_iterations:
        return SolveStatus.ITERATION_LIMIT, None, None
    if master is None:
        master = _solve_master(instance, cuts)
    if isinstance(master, str):
        return *MASTER_EXITS[master], None
    if epi_is_empty(instance):
        return SolveStatus.INFEASIBLE, NO_RECOURSE, None
    return None


def solve(instance: Instance, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Run the decomposition until the master point enters epi(z).

    A round whose directional CGLP comes back unbounded, or that has a core
    mode but no core point yet, uses the minimum-1-norm selection instead,
    marked in the trace.
    """
    cuts: list[Cut] = []
    trace: list[IterationRecord] = []
    mode = config.core_point_mode
    core: Optional[EpiPoint] = mode.point if isinstance(mode, FixedCore) else None
    if core is not None:
        sized(core.x, instance.n, "core point x")
    best: Optional[tuple[EpiPoint, Fraction]] = None  # the incumbent and its value

    y: Optional[Vector] = None  # the membership LP's y of a converged point
    for index in range(1, config.max_iterations + 1):
        master = _solve_master(instance, cuts)
        if isinstance(master, str):
            break
        point, master_value, _ = master

        if isinstance(mode, TrackIncumbent):
            z, y = _subproblem(instance, point.x)
            if z <= point.eta:
                trace.append(IterationRecord(index, point, master_value, CONVERGED))
                break
            if isinstance(z, Fraction):
                value = dot(instance.c, point.x) + z
                if best is None or value < best[1]:
                    best = (EpiPoint(x=point.x, eta=z), value)
            if best is not None:
                core = _blend_points(core or best[0], best[0], mode.blend)

        fallback = core is None and mode is not None
        try:
            result = separate(instance, point, round_strategy(config, core, point, fallback))
        except StrategyUnbounded:
            # MIS leaves only H_i = 0 rows unrelaxed and epi(z) meets those: no StrategyUnbounded
            fallback = True
            result = separate(instance, point, round_strategy(config, core, point, fallback))
        except EmptyEpigraph:
            break  # separate has read epi_is_empty, so run_ending reads it for free

        if result.kind == IN_EPIGRAPH:
            y = result.y
            trace.append(IterationRecord(index, point, master_value, CONVERGED))
            break
        cuts.append(result.cut)
        trace.append(IterationRecord(index, point, master_value, CUT_ADDED, result.cut,
                                     result.certificate, result.cglp_value, fallback))

    status, reason, y = run_ending(instance, config, trace, master, y)
    if status != SolveStatus.OPTIMAL:
        return SolveResult(status, reason=reason, trace=tuple(trace))
    x = trace[-1].master_point.x
    return SolveResult(status, x, y, dot(instance.c, x) + dot(instance.d, y), trace=tuple(trace))
