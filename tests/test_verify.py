import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bendercuts import model, verify
from bendercuts.cglp import MisOnes, build_alt_polyhedron
from bendercuts.errors import DominanceUndefined, InfeasibleCandidate, TooLarge
from bendercuts.instance_io import parse_instance, serialize_instance
from bendercuts.model import (EpiPoint, Instance, PolyhedralDomain, _affine_dimension,
                              epi_contains, epi_face_dimension, epigraph_rows,
                              subproblem_value, support_function)
from bendercuts.randgen import random_instance, separable_point
from bendercuts.separation import Certificate, Cut, SEPARATED, separate
from bendercuts.simplex import LE, LinearProgram
from bendercuts.verify import (FaceClass, ParetoKind, core_point, dominates,
                               enumerate_vertices, face_report, is_mis_certificate,
                               is_vertex, pareto_verdict, relative_interior_point)

from conftest import P1, P2, P3, P1_CUT, P2_CUT, P3_CUT, ge_cut


def _cert(v):
    return Certificate(row_multipliers=v[:3], eta_multiplier=v[3])


def test_enumerate_vertices_ex1(ex1, origin):
    exact = build_alt_polyhedron(ex1, origin)
    relaxed = build_alt_polyhedron(ex1, origin, relaxed=True)
    assert set(enumerate_vertices(exact)) == {P1, P2, P3}
    assert set(enumerate_vertices(relaxed)) == {P1, P2, P3}


def test_enumerate_vertices_limits():
    wide = LinearProgram("min", (F(0),) * 13, (((F(1),) * 13, LE, F(0)),))
    with pytest.raises(TooLarge):
        enumerate_vertices(wide)
    rows = tuple(((F(1), F(0), F(0), F(0), F(0)), LE, F(i)) for i in range(32))
    many = LinearProgram("min", (F(0),) * 5, rows)
    with pytest.raises(TooLarge):
        enumerate_vertices(many)


def test_is_vertex(ex1, origin):
    exact = build_alt_polyhedron(ex1, origin)
    relaxed = build_alt_polyhedron(ex1, origin, relaxed=True)
    assert is_vertex(exact, P1)
    midpoint = tuple((a + b) / 2 for a, b in zip(P1, P2))
    assert not is_vertex(exact, midpoint)
    doubled = tuple(2 * v for v in P1)
    assert not is_vertex(relaxed, doubled)
    with pytest.raises(InfeasibleCandidate):
        is_vertex(exact, doubled)
    with pytest.raises(InfeasibleCandidate):
        is_vertex(exact, (F(1), F(0), F(0), F(0)))


def test_face_report_ex1(ex1):
    facet = face_report(ex1, P1_CUT)
    assert facet.classification == FaceClass.FACET_DEFINING
    assert (facet.face_dimension, facet.epi_dimension) == (1, 2)

    missed = face_report(ex1, P3_CUT)
    assert missed.classification == FaceClass.NON_SUPPORTING
    assert missed.face_dimension == -1

    tightened = Cut(coef_x=(F(-2, 7),), coef_eta=F(-2, 7), rhs=F(-22, 21))
    point_face = face_report(ex1, tightened)
    assert point_face.classification == FaceClass.SUPPORTING
    assert point_face.face_dimension == 0


def _pinned_instance():
    # subproblem rows force y = x and y = 0, so epi(z) is the ray x=0, eta>=0
    return Instance(n=1, k=1, m=4, c=(F(1),), d=(F(1),),
                    H=((F(-1),), (F(1),), (F(0),), (F(0),)),
                    A=((F(1),), (F(-1),), (F(1),), (F(-1),)),
                    b=(F(0),) * 4,
                    master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
                    eta_lower_bound=F(-10))


def test_face_report_flat_epigraph():
    inst = _pinned_instance()
    whole = face_report(inst, Cut(coef_x=(F(1),), coef_eta=F(0), rhs=F(0)))
    assert whole.classification == FaceClass.CONTAINS_EPI
    assert (whole.face_dimension, whole.epi_dimension) == (1, 1)
    floor = face_report(inst, Cut(coef_x=(F(0),), coef_eta=F(-1), rhs=F(0)))
    assert floor.classification == FaceClass.FACET_DEFINING
    assert (floor.face_dimension, floor.epi_dimension) == (0, 1)


def test_is_mis_certificate(ex1, origin):
    assert is_mis_certificate(ex1, origin, _cert(P1))
    assert is_mis_certificate(ex1, origin, _cert(P3))
    midpoint = tuple((a + b) / 2 for a, b in zip(P1, P2))
    assert not is_mis_certificate(ex1, origin, _cert(midpoint))
    # feasible support is not an infeasible subsystem at all
    assert not is_mis_certificate(ex1, origin,
                                  Certificate(row_multipliers=(F(0),) * 3,
                                              eta_multiplier=F(1)))


def test_pareto_over_nonnegative_x(ex1):
    verdict = pareto_verdict(ex1, P1_CUT)
    assert verdict.kind == ParetoKind.PARETO
    assert verdict.witness is not None
    assert P1_CUT.value_at(verdict.witness) == P1_CUT.rhs
    assert verdict.witness.x[0] > 0

    assert pareto_verdict(ex1, P3_CUT).kind == ParetoKind.NOT_PARETO
    bound_only = Cut(coef_x=(F(-1),), coef_eta=F(0), rhs=F(0))
    assert pareto_verdict(ex1, bound_only).kind == ParetoKind.NOT_APPLICABLE


def test_pareto_shifted_domain(ex1_shifted):
    # over x >= 2 the shallow bound is the binding one
    assert pareto_verdict(ex1_shifted, P2_CUT).kind == ParetoKind.PARETO
    assert pareto_verdict(ex1_shifted, P1_CUT).kind == ParetoKind.NOT_PARETO


def test_pareto_finite_domain(ex1_finite):
    verdict = pareto_verdict(ex1_finite, P2_CUT)
    assert verdict.kind == ParetoKind.PARETO
    assert P2_CUT.value_at(verdict.witness) == P2_CUT.rhs
    assert pareto_verdict(ex1_finite, P3_CUT).kind == ParetoKind.NOT_PARETO


def test_dominates(ex1):
    raw = ge_cut((F(1),), F(1), F(7, 2))
    tightened = ge_cut((F(1),), F(1), F(11, 3))
    assert dominates(ex1, tightened, raw)
    assert not dominates(ex1, raw, tightened)
    assert not dominates(ex1, P1_CUT, P2_CUT)
    assert not dominates(ex1, P2_CUT, P1_CUT)
    assert not dominates(ex1, P1_CUT, P1_CUT)
    with pytest.raises(DominanceUndefined):
        dominates(ex1, Cut(coef_x=(F(-1),), coef_eta=F(0), rhs=F(0)), P1_CUT)


def test_dominates_finite(ex1_finite):
    raw = ge_cut((F(1),), F(1), F(7, 2))
    tightened = ge_cut((F(1),), F(1), F(11, 3))
    assert dominates(ex1_finite, tightened, raw)
    assert not dominates(ex1_finite, P1_CUT, P2_CUT)


def test_relative_interior_point():
    segment = (((F(-1),), LE, F(0)), ((F(1),), LE, F(1)))
    assert relative_interior_point(segment, 1) == (F(1, 2),)
    pinned = (((F(1),), LE, F(0)), ((F(-1),), LE, F(0)))
    assert relative_interior_point(pinned, 1) == (F(0),)
    empty = (((F(1),), LE, F(-1)), ((F(-1),), LE, F(0)))
    assert relative_interior_point(empty, 1) is None


def test_core_point(ex1, ex1_finite):
    core = core_point(ex1)
    assert core is not None
    assert core.x[0] > 0
    assert subproblem_value(ex1, core.x) < core.eta
    assert core_point(ex1_finite) == EpiPoint((F(3, 2),), F(31, 8))


@given(st.integers(0, 100_000))
def test_min_support_certificates_are_minimal(seed):
    """The unit-weight selection returns a vertex, and vertex supports name
    minimal infeasible subsystems."""
    rng = random.Random(seed)
    inst = random_instance(rng)
    point = separable_point(rng, inst)
    if point is None:
        return
    result = separate(inst, point, MisOnes())
    assert result.kind == SEPARATED
    assert is_mis_certificate(inst, point, result.certificate)


@given(st.integers(0, 100_000))
def test_relaxation_keeps_vertices(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    point = separable_point(rng, inst)
    if point is None:
        return
    exact = build_alt_polyhedron(inst, point)
    relaxed = build_alt_polyhedron(inst, point, relaxed=True)
    exact_vertices = enumerate_vertices(exact)
    assert set(exact_vertices) == set(enumerate_vertices(relaxed))
    for v in exact_vertices:
        assert is_vertex(exact, v)


def _oracle_cases():
    """Seeded draws on both domain kinds, each with its MIS cut at a separable
    point, that cut moved into epi(z), and a random normal tightened onto
    epi(z); plus the flat epigraph's cuts."""
    cases = [(_pinned_instance(), [Cut(coef_x=(F(1),), coef_eta=F(0), rhs=F(0)),
                                   Cut(coef_x=(F(0),), coef_eta=F(-1), rhs=F(0))])]
    for finite in (False, True):
        rng = random.Random(2024 + finite)
        for _ in range(16):
            inst = random_instance(rng, finite=finite)
            point = separable_point(rng, inst)
            if point is None:
                continue
            cut = separate(inst, point, MisOnes()).cut
            cuts = [cut, Cut(coef_x=cut.coef_x, coef_eta=cut.coef_eta, rhs=cut.rhs - 1)]
            normal = tuple(F(rng.randint(-3, 3)) for _ in range(inst.n))
            h = support_function(inst, normal, F(-1))
            if h != math.inf:
                cuts.append(Cut(coef_x=normal, coef_eta=F(-1), rhs=h))
            cases.append((inst, cuts))
    return cases


def test_cached_oracles_match_fresh_copies():
    """Reports on an instance queried before equal those on a fresh copy, and
    the bounded face search finds the dimension the unbounded growth finds."""
    cases = _oracle_cases()
    assert {isinstance(inst.master_domain, PolyhedralDomain) for inst, _ in cases} == {True, False}
    for inst, cuts in cases:
        for cut in cuts:
            face_report(inst, cut)
            pareto_verdict(inst, cut)
        for cut in cuts:
            fresh = parse_instance(serialize_instance(inst))
            assert face_report(inst, cut) == face_report(fresh, cut)
            fresh = parse_instance(serialize_instance(inst))
            assert pareto_verdict(inst, cut) == pareto_verdict(fresh, cut)
            tight = (cut.coef_x, cut.coef_eta, cut.rhs)
            assert epi_face_dimension(inst, *tight) == _affine_dimension(inst, tight=tight)


def test_second_report_skips_instance_lps(ex1, monkeypatch):
    """The epigraph's dimension and the box's implicit equalities are solved once."""
    solved = []

    def counting(lp):
        solved.append(lp)
        return real_solve(lp)

    real_solve = model.solve
    monkeypatch.setattr(model, "solve", counting)
    monkeypatch.setattr(verify, "solve", counting)

    def epi_dimension_lps():
        return sum(lp.rows == epigraph_rows(ex1) for lp in solved)

    first = face_report(ex1, P1_CUT)
    assert epi_dimension_lps() > 0
    solved.clear()
    assert face_report(ex1, P1_CUT) == first
    assert solved and epi_dimension_lps() == 0

    first = pareto_verdict(ex1, P1_CUT)
    solved.clear()
    assert pareto_verdict(ex1, P1_CUT) == first
    assert len(solved) == 1
