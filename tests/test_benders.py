import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from bendercuts import benders, simplex
from bendercuts.benders import (CONVERGED, CUT_ADDED, FixedCore, SolveStatus,
                                SolverConfig, TrackIncumbent, solve,
                                subproblem_check)
from bendercuts.cglp import Directional, MisOnes
from bendercuts.errors import PreconditionViolated
from bendercuts.instance_io import replay_trace, trace_document
from bendercuts.linalg import dot
from bendercuts.model import (EpiPoint, FiniteDomain, Instance, PolyhedralDomain,
                              subproblem_value, undecomposed_value)
from bendercuts.randgen import random_instance
from bendercuts.separation import Cut, canonical_cut
from bendercuts.verify import FaceClass, face_report

from conftest import EX1_KW, P1_CUT, P2_CUT, P3_CUT, same_cut


def test_mis_run(ex1):
    result = solve(ex1, SolverConfig(strategy=MisOnes()))
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == F(11, 3)
    assert result.x == (F(4, 3),)
    assert result.y == (F(7, 3),)
    assert len(result.trace) == 4
    assert same_cut(result.trace[0].cut, P3_CUT)
    assert result.trace[0].cglp_value == F(-5, 14)
    assert result.trace[-1].outcome == CONVERGED
    assert result.trace[-1].cut is None
    assert not any(r.fallback for r in result.trace)


def test_directional_run(ex1):
    config = SolverConfig(strategy=Directional((F(2),), F(3)))
    result = solve(ex1, config)
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == F(11, 3)
    assert len(result.trace) == 3
    assert same_cut(result.trace[0].cut, P2_CUT)
    assert result.trace[0].cglp_value == F(-4, 3)
    assert face_report(ex1, result.trace[0].cut).classification == FaceClass.FACET_DEFINING
    assert same_cut(result.trace[1].cut, P1_CUT)
    assert result.trace[-1].master_point == EpiPoint((F(4, 3),), F(7, 3))
    assert result.trace[-1].master_value == result.value


def test_mis_first_cut_misses_the_epigraph(ex1):
    result = solve(ex1, SolverConfig(strategy=MisOnes()))
    assert face_report(ex1, result.trace[0].cut).classification == FaceClass.NON_SUPPORTING


def test_finite_run(ex1_finite):
    result = solve(ex1_finite, SolverConfig(strategy=MisOnes()))
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == F(4)
    assert result.x[0] in (F(1), F(2))
    assert result.value == dot(ex1_finite.c, result.x) + dot(ex1_finite.d, result.y)


def test_iteration_limit(ex1):
    result = solve(ex1, SolverConfig(strategy=MisOnes(), max_iterations=1))
    assert result.status == SolveStatus.ITERATION_LIMIT
    assert result.value is None and result.x is None
    assert len(result.trace) == 1
    assert result.trace[0].outcome == CUT_ADDED


def test_master_infeasible():
    kw = dict(EX1_KW)
    kw["master_domain"] = PolyhedralDomain(G=((F(1),), (F(-1),)), g=(F(-1), F(0)))
    result = solve(Instance(**kw))
    assert result.status == SolveStatus.INFEASIBLE
    assert result.reason == "master problem infeasible"
    assert result.trace == ()


def test_master_unbounded():
    kw = dict(EX1_KW)
    kw["c"] = (F(-1),)
    kw["master_domain"] = PolyhedralDomain(G=((F(-1),),), g=(F(0),))
    result = solve(Instance(**kw))
    assert result.status == SolveStatus.ILL_POSED
    assert result.reason == "master relaxation unbounded"


def test_eta_floor_is_reported():
    kw = dict(EX1_KW)
    kw["eta_lower_bound"] = F(10)
    kw["master_domain"] = PolyhedralDomain(G=((F(-1),),), g=(F(0),))
    result = solve(Instance(**kw))
    assert result.status == SolveStatus.ILL_POSED
    assert "lower bound" in result.reason
    assert result.trace[-1].outcome == CONVERGED


def _floor_instance():
    """min x/2 + z(x) over 0 <= x <= 2, z(x) = min {y : y >= 0, y >= 2 - x},
    eta >= 0.  Every master optimum on the way is unique, so the run does not
    depend on simplex tie-breaks: the floor master stops at (0, 0), one cut
    eta >= 2 - x follows, and the next master stops at (2, 0), on the floor."""
    return Instance(n=1, k=1, m=2, c=(F(1, 2),), d=(F(1),),
                    H=((F(0),), (F(-1),)), A=((F(-1),), (F(-1),)), b=(F(0), F(-2)),
                    master_domain=PolyhedralDomain(G=((F(-1),), (F(1),)), g=(F(0), F(2))),
                    eta_lower_bound=F(0))


def test_optimum_on_the_eta_floor_is_proven():
    """The run converges with eta on its floor, and the master without the
    floor has the same value, so the run is optimal at the true optimum."""
    inst = _floor_instance()
    config = SolverConfig(strategy=MisOnes())
    result = solve(inst, config)
    assert result.trace[-1].outcome == CONVERGED
    assert result.trace[-1].master_point.eta == inst.eta_lower_bound
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == F(1) == undecomposed_value(inst)
    assert replay_trace(inst, trace_document(inst, config, result)) == []


def test_floor_free_finite_master(ex1_finite):
    """Without the floor, a point that no cut bounds in eta makes the finite
    master unbounded; once every point is bounded it has an optimum."""
    assert benders._solve_master(ex1_finite, [], floored=False) == "unbounded"
    assert benders._solve_master(ex1_finite, [P2_CUT], floored=False) == (
        EpiPoint(x=(F(0),), eta=F(3)), F(3), ())
    # with eta_lower_bound 3 the run converges at (1, 3), on the floor, at the
    # true optimum 4; the floor-free master leaves eta unbounded at x = 3, so
    # the run cannot be proven optimal
    result = solve(replace(ex1_finite, eta_lower_bound=F(3)))
    assert result.status == SolveStatus.ILL_POSED and "lower bound" in result.reason
    assert result.trace[-1].master_point == EpiPoint(x=(F(1),), eta=F(3))


@pytest.mark.parametrize("strategy", [MisOnes(), Directional((F(0),), F(1))],
                         ids=["mis", "directional_up"])
def test_finite_master_feasibility_cut(strategy):
    """z(x) = 0 for x <= 1 and +inf beyond, so the master point x = 2 takes a
    feasibility cut (coef_eta 0), which the finite master then enforces by
    dropping x = 2; undecomposed_value skips that point too."""
    inst = Instance(n=1, k=1, m=2, c=(F(-1),), d=(F(1),),
                    H=((F(0),), (F(1),)), A=((F(-1),), (F(1),)), b=(F(0), F(1)),
                    master_domain=FiniteDomain(points=((F(0),), (F(1),), (F(2),))),
                    eta_lower_bound=F(-10))
    config = SolverConfig(strategy=strategy)
    result = solve(inst, config)
    feasibility = [r.cut for r in result.trace if r.cut is not None and r.cut.coef_eta == 0]
    assert [canonical_cut(cut) for cut in feasibility] == [Cut((F(1),), F(0), F(1))]
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == F(-1) == undecomposed_value(inst)
    assert result.x == (F(1),)
    assert replay_trace(inst, trace_document(inst, config, result)) == []


def _hidden_point_instance():
    """z(x) = -45 - 20x on the master set {0, 1}, with c = 8: the optimum is
    -57 at x = 1.  Every run's one cut is eta >= -45 - 20x, but the floor -50
    lifts its bound -65 at x = 1, so the master prices x = 1 at 8 - 50 = -42
    and stops at x = 0."""
    return Instance(n=1, k=1, m=1, c=(F(8),), d=(F(1),), H=((F(-20),),), A=((F(-1),),),
                    b=(F(45),), master_domain=FiniteDomain(points=((F(0),), (F(1),))),
                    eta_lower_bound=F(-50))


_UP = Directional((F(0),), F(1))


@pytest.mark.parametrize("config", [
    SolverConfig(strategy=MisOnes()), SolverConfig(strategy=_UP),
    SolverConfig(strategy=_UP, core_point_mode=TrackIncumbent(F(1, 2)))],
    ids=["mis", "directional_up", "track"])
def test_finite_master_floor_hides_a_point(config):
    """The run converges at (0, -45), above the floor, with master value -45;
    z(0) = -45 proves the point, not its optimality: the floor-free cut bound
    prices x = 1 at -57 < -45, its subproblem LP confirms c.1 + z(1) = -57, so
    the run is ill_posed, and replays clean.  The master hands x = 1 over
    with its cut bound, because the floor sets its eta, and not x = 0."""
    inst = _hidden_point_instance()
    assert undecomposed_value(inst) == F(-57)
    result = solve(inst, config)
    assert result.trace[-1].outcome == CONVERGED
    assert result.trace[-1].master_point == EpiPoint((F(0),), F(-45))
    cuts = [r.cut for r in result.trace if r.cut is not None]
    assert benders._solve_master(inst, cuts) == (EpiPoint((F(0),), F(-45)), F(-45),
                                                 (((F(1),), F(-65)),))
    assert result.status == SolveStatus.ILL_POSED and result.reason == benders.HIDDEN_POINT
    doc = trace_document(inst, config, result)
    assert replay_trace(inst, doc) == []
    # relabelled optimal, (x, y) = (0, -45) passes every arithmetic check
    forged = dict(doc, status="optimal", reason=None, x=[0], y=[-45], value=-45)
    assert replay_trace(inst, forged) == [
        f"status optimal: replay ends ill_posed, reason {benders.HIDDEN_POINT!r}"]


def test_finite_masters_that_reach_infeasible():
    """Finite master sets of three random points, drawn after each instance
    from its own rng, need not meet dom z: some runs end infeasible.  Every
    ending agrees with the undecomposed model, and every trace replays."""
    ends = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        inst = random_instance(rng, finite=True)
        points = tuple(tuple(F(rng.randint(0, 4)) for _ in range(inst.n)) for _ in range(3))
        inst = replace(inst, master_domain=FiniteDomain(points=points))
        for strategy in (MisOnes(), Directional((F(0),) * inst.n, F(1))):
            config = SolverConfig(strategy=strategy)
            result = solve(inst, config)
            ends[result.status] += 1
            if result.status == SolveStatus.INFEASIBLE:
                assert undecomposed_value(inst) == math.inf, seed
            if result.status == SolveStatus.OPTIMAL:
                assert result.value == undecomposed_value(inst), seed
            assert replay_trace(inst, trace_document(inst, config, result)) == [], seed
    assert ends[SolveStatus.INFEASIBLE] > 0


def test_subproblem_unbounded_below():
    inst = Instance(n=1, k=1, m=1, c=(F(1),), d=(F(1),),
                    H=((F(-1),),), A=((F(1),),), b=(F(0),),
                    master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
                    eta_lower_bound=F(-5))
    result = solve(inst)
    assert result.status == SolveStatus.ILL_POSED
    assert "unbounded below" in result.reason


def test_nowhere_feasible_subproblem():
    inst = Instance(n=1, k=1, m=2, c=(F(1),), d=(F(1),),
                    H=((F(0),), (F(0),)), A=((F(1),), (F(-1),)),
                    b=(F(-1), F(0)),
                    master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
                    eta_lower_bound=F(0))
    result = solve(inst)
    assert result.status == SolveStatus.INFEASIBLE
    assert result.reason == "no master point has a feasible subproblem"


def _gated_instance():
    """min x + z(x) over x >= 0, z(x) = min {y : y >= 0} when x >= 1 and
    empty below, eta >= -2.  x < 1 leaves the subproblem empty, so the first
    iterations have no incumbent to track.  Every master optimum and every
    MIS certificate on the way is unique, so the run does not depend on
    simplex tie-breaks: at (0, -2) the MIS optimum is u = (0, 1/2),
    u_eta = 1/2 (the cut eta >= 0), at (0, 0) it is u = (1, 0), u_eta = 0
    (the cut x >= 1), and the master then stops at (1, 0)."""
    return Instance(n=1, k=1, m=2, c=(F(1),), d=(F(1),),
                    H=((F(-1),), (F(0),)), A=((F(0),), (F(-1),)),
                    b=(F(-1), F(0)),
                    master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
                    eta_lower_bound=F(-2))


def test_incumbent_fallback():
    config = SolverConfig(strategy=Directional((F(0),), F(1)),
                          core_point_mode=TrackIncumbent(F(1, 2)))
    result = solve(_gated_instance(), config)
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == F(1)
    assert result.trace[0].fallback is True


def test_unbounded_direction_falls_back_to_mis():
    """Straight up misses epi(z) from some master points of this draw (seed 7 of
    scripts/result_digest.py, c and d made nonnegative there): those rounds
    separate with MisOnes, are marked, and the run still reaches the optimum."""
    inst = random_instance(random.Random(7))
    inst = replace(inst, c=tuple(abs(v) for v in inst.c), d=tuple(abs(v) for v in inst.d))
    result = solve(inst, SolverConfig(strategy=Directional((F(0),) * inst.n, F(1))))
    assert any(r.fallback for r in result.trace)
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == undecomposed_value(inst)


def test_track_incumbent_on_ex1(ex1):
    config = SolverConfig(strategy=Directional((F(0),), F(1)),
                          core_point_mode=TrackIncumbent(F(1, 2)))
    result = solve(ex1, config)
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == F(11, 3)
    assert not any(r.fallback for r in result.trace)
    for record in result.trace[:-1]:
        assert face_report(ex1, record.cut).classification == FaceClass.FACET_DEFINING


def test_subproblem_check_payloads(ex1, origin):
    assert subproblem_check(ex1, EpiPoint((F(2),), F(3))) == (F(2),)
    # only converged points are asked for y; outside epi(z) there is none
    with pytest.raises(PreconditionViolated):
        subproblem_check(ex1, origin)


@pytest.mark.parametrize("config, on_floor, tail", [
    (SolverConfig(strategy=MisOnes()), False, ["master", "separate"]),
    (SolverConfig(strategy=Directional((F(2),), F(3))), False, ["master", "separate"]),
    (SolverConfig(strategy=Directional((F(0),), F(1)),
                  core_point_mode=TrackIncumbent(F(1, 2))), False, ["separate", "master"]),
    # on the floor: y from the check, then the floor-free master
    (SolverConfig(strategy=MisOnes()), True, ["master", "separate", "check", "master"]),
], ids=["mis", "directional", "track", "mis_on_floor"])
def test_one_membership_lp_per_iteration(ex1, monkeypatch, config, on_floor, tail):
    """Membership comes from the iteration's CGLP (or z(x) under TrackIncumbent),
    and that LP's y is the converged point's; subproblem_check runs only for a
    point on the eta floor, once."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(benders, "subproblem_check",
                        counted("check", benders.subproblem_check))
    monkeypatch.setattr(benders, "separate", counted("separate", benders.separate))
    monkeypatch.setattr(benders, "_solve_master",
                        counted("master", benders._solve_master))
    result = solve(_floor_instance() if on_floor else ex1, config)
    assert result.status == SolveStatus.OPTIMAL
    assert calls.count("check") == on_floor
    assert calls[-len(tail):] == tail


def _aim(x, eta):
    return Directional((F(x),), F(eta))


@pytest.mark.parametrize("gated,mode,expected", [
    # no mode: the configured direction every round
    (False, None, [_aim(0, 1)] * 3),
    # each round aims at the fixed core (2, 3) from its master point
    (False, FixedCore(EpiPoint((F(2),), F(3))), [_aim(2, 3), _aim(2, 0), _aim(F(2, 3), F(2, 3))]),
    # round 1: core = incumbent (0, 5) seen at master (0, 0); round 2 at
    # (5/2, 0) blends that core halfway toward the new incumbent (5/2, 7/4)
    (False, TrackIncumbent(F(1, 2)), [_aim(0, 5), _aim(F(-5, 4), F(27, 8))]),
    # no incumbent in the first two rounds: MIS, marked as a fallback
    (True, TrackIncumbent(F(1, 2)), [MisOnes(), MisOnes()]),
])
def test_core_point_steering(monkeypatch, ex1, gated, mode, expected):
    strategies = []
    separate = benders.separate

    def recording(instance, point, strategy):
        strategies.append(strategy)
        return separate(instance, point, strategy)

    monkeypatch.setattr(benders, "separate", recording)
    config = SolverConfig(strategy=_aim(0, 1), core_point_mode=mode)
    result = solve(_gated_instance() if gated else ex1, config)
    assert result.status == SolveStatus.OPTIMAL
    assert strategies == expected
    assert {r.fallback for r in result.trace[:-1]} == {gated}


def test_config_validation():
    with pytest.raises(PreconditionViolated):
        TrackIncumbent(F(0))
    with pytest.raises(PreconditionViolated):
        TrackIncumbent(F(1))
    with pytest.raises(PreconditionViolated):
        SolverConfig(strategy=MisOnes(), core_point_mode=FixedCore(EpiPoint((F(2),), F(3))))
    with pytest.raises(PreconditionViolated):
        SolverConfig(max_iterations=0)
    # a strategy that is not one of the three kinds is refused up front, not by
    # the trace writer of a run that ends before its first separation
    with pytest.raises(PreconditionViolated):
        SolverConfig(strategy="mis")


@given(st.integers(0, 100_000))
def test_solve_invariants(seed):
    """Master values never decrease, added cuts cut off their own master point
    while keeping the value function's graph, and the converged value matches
    the final master bound."""
    rng = random.Random(seed)
    inst = random_instance(rng)
    result = solve(inst, SolverConfig(strategy=MisOnes(), max_iterations=30))
    values = [r.master_value for r in result.trace]
    assert values == sorted(values)
    for record in result.trace:
        if record.outcome != CUT_ADDED:
            continue
        cut = record.cut
        assert cut.value_at(record.master_point) > cut.rhs
        for _ in range(3):
            x = tuple(F(rng.randint(0, 4)) for _ in range(inst.n))
            z = subproblem_value(inst, x)
            if isinstance(z, F):
                assert cut.holds_at(EpiPoint(x=x, eta=z))
    if result.status == SolveStatus.OPTIMAL:
        assert result.value == dot(inst.c, result.x) + dot(inst.d, result.y)
        assert subproblem_value(inst, result.x) == dot(inst.d, result.y)
        assert result.value == result.trace[-1].master_value


@pytest.mark.parametrize("finite, config", [
    (False, SolverConfig(strategy=MisOnes())),
    (True, SolverConfig(strategy=_UP, core_point_mode=TrackIncumbent(F(1, 2)))),
], ids=["mis_cglp", "track_subproblem"])
def test_a_run_reuses_its_starts(ex1, ex1_finite, finite, config):
    """A run is one simplex session: the MIS CGLP, whose right side alone
    moves, and the TrackIncumbent subproblem, whose b - Hx alone moves, reuse
    their first start.  The run gives the result of a run without a session,
    with fewer pivots, and its trace replays."""
    inst = ex1_finite if finite else ex1
    pivot, counts = simplex._Tableau._pivot, []

    def counted(self, r, c):
        counts[-1] += 1
        return pivot(self, r, c)

    with mock.patch.object(simplex._Tableau, "_pivot", counted):
        results = []
        for run in (solve, solve.__wrapped__):
            counts.append(0)
            results.append(run(inst, config))
    assert results[0] == results[1] and results[0].status == SolveStatus.OPTIMAL
    assert counts[0] < counts[1]
    assert replay_trace(inst, trace_document(inst, config, results[0])) == []
