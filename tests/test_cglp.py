import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bendercuts.cglp import (Custom, Directional, MisOnes, build_alt_polyhedron,
                             build_cglp_normalized, build_cglp_relaxed_subproblem,
                             build_reverse_polar_lp, lift_objective, mis_objective,
                             strategy_weights)
from bendercuts.errors import DimensionError
from bendercuts.linalg import dot
from bendercuts.model import EpiPoint, Instance, PolyhedralDomain
from bendercuts.randgen import random_instance, separable_point
from bendercuts.simplex import LpStatus, solve

from conftest import P1, P2, P3


def feasible_in(poly, candidate) -> bool:
    for coeffs, rel, rhs in poly.normalized_rows:
        v = dot(coeffs, candidate)
        if rel == "=" and v != rhs:
            return False
        if rel == "<=" and v > rhs:
            return False
    return True


def test_alt_polyhedron_members(ex1, origin):
    poly = build_alt_polyhedron(ex1, origin)
    assert poly.num_vars == 4
    for p in (P1, P2, P3):
        assert feasible_in(poly, p)
    # positive combinations break the exact normalization level
    double = tuple(2 * v for v in P1)
    assert not feasible_in(poly, double)
    relaxed = build_alt_polyhedron(ex1, origin, relaxed=True)
    for p in (P1, P2, P3, double):
        assert feasible_in(relaxed, p)


def test_alt_polyhedron_empty_inside_epi(ex1):
    poly = build_alt_polyhedron(ex1, EpiPoint((F(2),), F(3)))
    out = solve(poly)
    assert out.status == LpStatus.INFEASIBLE


def test_lift_objective_values(ex1):
    assert lift_objective(ex1, (F(2),), F(3)) == ((F(-4), F(-1), F(-8)), F(-3))
    assert lift_objective(ex1, (F(4, 3),), F(7, 3)) == \
        ((F(-8, 3), F(-2, 3), F(-16, 3)), F(-7, 3))


def test_mis_objective_marks_interacting_rows(ex1):
    assert mis_objective(ex1) == ((F(-1), F(-1), F(-1)), F(-1))
    # rows that do not touch the master variables get weight zero
    inst = Instance(n=1, k=1, m=2, c=(F(1),), d=(F(1),),
                    H=((F(0),), (F(3),)), A=((F(-1),), (F(1),)),
                    b=(F(0), F(5)),
                    master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
                    eta_lower_bound=F(0))
    assert mis_objective(inst) == ((F(0), F(-1)), F(-1))


def test_strategy_weights_dispatch(ex1):
    assert strategy_weights(ex1, MisOnes()) == mis_objective(ex1)
    assert strategy_weights(ex1, Directional((F(2),), F(3))) == \
        lift_objective(ex1, (F(2),), F(3))
    custom = Custom(weights=(F(-1), F(0), F(-2)), weight_eta=F(-1))
    assert strategy_weights(ex1, custom) == ((F(-1), F(0), F(-2)), F(-1))


def test_reverse_polar_optimum(ex1, origin):
    out = solve(build_reverse_polar_lp(ex1, origin, (F(2),), F(3)))
    assert out.status == LpStatus.OPTIMAL
    assert out.objective_value == F(-4, 3)
    # optimal normal: the x/2 + eta >= 3 facet in <=-form
    assert out.primal[:2] == (F(-1, 6), F(-1, 3))


def test_reverse_polar_boundary_and_unbounded(ex1, origin):
    out = solve(build_reverse_polar_lp(ex1, origin, (F(4, 3),), F(7, 3)))
    assert out.status == LpStatus.OPTIMAL
    assert out.objective_value == F(-1)
    out = solve(build_reverse_polar_lp(ex1, origin, (F(-1),), F(0)))
    assert out.status == LpStatus.UNBOUNDED
    with pytest.raises(DimensionError, match="point.x has 2 entries, expected 1"):
        build_reverse_polar_lp(ex1, EpiPoint((F(0), F(0)), F(0)), (F(1),), F(0))


def test_normalized_cglp_scales_to_vertex(ex1, origin):
    weights, weight_eta = lift_objective(ex1, (F(2),), F(3))
    out = solve(build_cglp_normalized(ex1, origin, weights, weight_eta))
    assert out.status == LpStatus.OPTIMAL
    xi = out.objective_value
    assert xi == F(3, 4)
    assert tuple(v / xi for v in out.primal) == P2

    weights, weight_eta = mis_objective(ex1)
    out = solve(build_cglp_normalized(ex1, origin, weights, weight_eta))
    assert out.objective_value == F(14, 5)
    assert tuple(v / out.objective_value for v in out.primal) == P3


def test_relaxed_subproblem_cglp(ex1, origin):
    weights, weight_eta = lift_objective(ex1, (F(2),), F(3))
    out = solve(build_cglp_relaxed_subproblem(ex1, origin, weights, weight_eta))
    assert out.status == LpStatus.OPTIMAL
    assert out.objective_value == F(3, 4)
    assert out.primal[0] == F(9, 4)  # the witness y at the relaxed system

    inside = EpiPoint((F(2),), F(3))
    out = solve(build_cglp_relaxed_subproblem(ex1, inside, weights, weight_eta))
    assert out.status == LpStatus.OPTIMAL
    assert out.objective_value == F(0)


@given(st.integers(0, 100_000))
def test_formulations_agree(seed):
    """The extended formulation, the relaxed polyhedron, the relaxation LP and
    the normalized selection LP all report the same optimum."""
    rng = random.Random(seed)
    inst = random_instance(rng)
    point = separable_point(rng, inst)
    if point is None:
        return
    direction = tuple(F(rng.randint(-3, 3)) for _ in range(inst.n))
    direction_eta = F(rng.randint(-3, 3))
    if not any(direction) and direction_eta == 0:
        direction_eta = F(1)

    rp = solve(build_reverse_polar_lp(inst, point, direction, direction_eta))
    weights, weight_eta = lift_objective(inst, direction, direction_eta)
    relaxed = build_alt_polyhedron(inst, point, relaxed=True)
    ple = solve(replace(relaxed, sense="max", objective=weights + (weight_eta,)))
    mint = solve(build_cglp_relaxed_subproblem(inst, point, weights, weight_eta))
    norm = solve(build_cglp_normalized(inst, point, weights, weight_eta))

    assert rp.status == ple.status
    separating = rp.status == LpStatus.OPTIMAL and rp.objective_value < 0
    if rp.status == LpStatus.OPTIMAL:
        assert rp.objective_value == ple.objective_value
    if separating:
        assert mint.status == LpStatus.OPTIMAL
        assert mint.objective_value == -1 / rp.objective_value
        assert norm.status == LpStatus.OPTIMAL
        assert norm.objective_value == -1 / rp.objective_value
    else:
        # no relaxation amount reaches the epigraph along these weights; the
        # =-normalized selection LP is a face restriction of its dual and may
        # land on any status here, so nothing more is pinned down
        assert mint.status == LpStatus.INFEASIBLE
