import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bendercuts import benders
from bendercuts.benders import (CONVERGED, CUT_ADDED, FixedCore, SolveStatus,
                                SolverConfig, TrackIncumbent,
                                next_core_objective, solve, subproblem_check)
from bendercuts.cglp import Directional, MisOnes
from bendercuts.errors import NoIncumbent, PreconditionViolated
from bendercuts.linalg import dot
from bendercuts.model import (EpiPoint, Instance, PolyhedralDomain,
                              subproblem_value)
from bendercuts.randgen import random_instance
from bendercuts.verify import FaceClass

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
    config = SolverConfig(strategy=Directional((F(2),), F(3)), verify_each_cut=True)
    result = solve(ex1, config)
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == F(11, 3)
    assert len(result.trace) == 3
    assert same_cut(result.trace[0].cut, P2_CUT)
    assert result.trace[0].cglp_value == F(-4, 3)
    assert result.trace[0].face.classification == FaceClass.FACET_DEFINING
    assert same_cut(result.trace[1].cut, P1_CUT)
    assert result.trace[-1].master_point == EpiPoint((F(4, 3),), F(7, 3))
    assert result.trace[-1].master_value == result.value


def test_mis_first_cut_misses_the_epigraph(ex1):
    result = solve(ex1, SolverConfig(strategy=MisOnes(), verify_each_cut=True))
    assert result.trace[0].face.classification == FaceClass.NON_SUPPORTING


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
    # x < 1 leaves the subproblem empty, so the first iterations have no
    # incumbent to track
    return Instance(n=1, k=1, m=2, c=(F(1),), d=(F(1),),
                    H=((F(-1),), (F(0),)), A=((F(0),), (F(-1),)),
                    b=(F(-1), F(0)),
                    master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
                    eta_lower_bound=F(-1))


def test_incumbent_fallback():
    config = SolverConfig(strategy=Directional((F(0),), F(1)),
                          core_point_mode=TrackIncumbent(F(1, 2)))
    result = solve(_gated_instance(), config)
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == F(1)
    assert result.trace[0].fallback is True


def test_track_incumbent_on_ex1(ex1):
    config = SolverConfig(strategy=Directional((F(0),), F(1)),
                          core_point_mode=TrackIncumbent(F(1, 2)),
                          verify_each_cut=True)
    result = solve(ex1, config)
    assert result.status == SolveStatus.OPTIMAL
    assert result.value == F(11, 3)
    assert not any(r.fallback for r in result.trace)
    for record in result.trace[:-1]:
        assert record.face.classification == FaceClass.FACET_DEFINING


def test_subproblem_check_payloads(ex1, origin):
    assert subproblem_check(ex1, EpiPoint((F(2),), F(3))) == (F(2),)
    # only converged points are asked for y; outside epi(z) there is none
    with pytest.raises(PreconditionViolated):
        subproblem_check(ex1, origin)


@pytest.mark.parametrize("config", [
    SolverConfig(strategy=MisOnes()),
    SolverConfig(strategy=Directional((F(2),), F(3))),
    SolverConfig(strategy=Directional((F(0),), F(1)),
                 core_point_mode=TrackIncumbent(F(1, 2))),
], ids=["mis", "directional", "track"])
def test_one_membership_lp_per_iteration(ex1, monkeypatch, config):
    """Membership comes from the iteration's CGLP (or z(x) under TrackIncumbent);
    subproblem_check runs once, at the converged point, for y."""
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(benders, "subproblem_check",
                        counted("check", benders.subproblem_check))
    monkeypatch.setattr(benders, "separate", counted("separate", benders.separate))
    monkeypatch.setattr(benders, "_solve_master",
                        counted("master", benders._solve_master))
    result = solve(ex1, config)
    assert result.status == SolveStatus.OPTIMAL
    assert calls.count("check") == 1
    assert calls[-1] == "check"
    final = calls[len(calls) - 1 - calls[::-1].index("master"):]
    if config.core_point_mode is None:
        assert final == ["master", "separate", "check"]
    else:
        assert final == ["master", "check"]


def test_next_core_objective_modes(ex1):
    master = EpiPoint((F(0),), F(1))
    fixed = SolverConfig(strategy=Directional((F(9),), F(9)),
                         core_point_mode=FixedCore(EpiPoint((F(2),), F(3))))
    assert next_core_objective(fixed, None, master) == ((F(2),), F(2))

    tracking = SolverConfig(strategy=Directional((F(9),), F(9)),
                            core_point_mode=TrackIncumbent(F(1, 2)))
    incumbent = EpiPoint((F(4),), F(2))
    previous = EpiPoint((F(2),), F(4))
    assert next_core_objective(tracking, incumbent, master, previous) == ((F(3),), F(2))
    assert next_core_objective(tracking, incumbent, master) == ((F(4),), F(1))
    with pytest.raises(NoIncumbent):
        next_core_objective(tracking, None, master)

    plain = SolverConfig(strategy=Directional((F(2),), F(3)))
    assert next_core_objective(plain, None, master) == ((F(2),), F(3))
    with pytest.raises(PreconditionViolated):
        next_core_objective(SolverConfig(strategy=MisOnes()), None, master)


def test_config_validation():
    with pytest.raises(PreconditionViolated):
        TrackIncumbent(F(0))
    with pytest.raises(PreconditionViolated):
        TrackIncumbent(F(1))
    with pytest.raises(PreconditionViolated):
        SolverConfig(strategy=MisOnes(), core_point_mode=FixedCore(EpiPoint((F(2),), F(3))))
    with pytest.raises(PreconditionViolated):
        SolverConfig(max_iterations=0)


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
