import ast
import math
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bendercuts import model, verify
from bendercuts.cglp import MisOnes, build_alt_polyhedron
from bendercuts.errors import DominanceUndefined, InfeasibleCandidate, TooLarge, UnboundedDirection
from bendercuts.instance_io import parse_instance, serialize_instance
from bendercuts.linalg import dot, matrix_rank, rref
from bendercuts.model import (EpiPoint, FiniteDomain, Instance, PolyhedralDomain, _affine_dimension,
                              _implicit_mask, epi_contains, epi_dimension, epi_face_dimension,
                              feasibility_rows, subproblem_value, support_function, tight_rows,
                              undecomposed_value)
from bendercuts.randgen import random_instance, separable_point
from bendercuts.separation import Certificate, Cut, SEPARATED, separate, tighten_rhs
from bendercuts.simplex import EQ, LE, LinearProgram, LpStatus, solve
from bendercuts.verify import (FaceClass, FaceReport, ParetoKind, core_point, dominates,
                               enumerate_vertices, face_report, is_mis_certificate,
                               is_vertex, pareto_verdict, relative_interior_point)

from conftest import (P1, P2, P3, P1_CUT, P2_CUT, P3_CUT, empty_epigraph, epigraph_rows,
                      ge_cut, lifted, pin_to_hyperplane)

# x <= -1 and x >= 0: no master point at all
_NO_MASTER_POINT = PolyhedralDomain(G=((F(1),), (F(-1),)), g=(F(-1), F(0)))


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
    # an empty support picks no subsystem
    assert not is_mis_certificate(ex1, origin, _cert((F(0),) * 4))


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


def test_pareto_over_an_empty_master_set(ex1):
    empty = replace(ex1, master_domain=_NO_MASTER_POINT)
    assert pareto_verdict(empty, P1_CUT).kind == ParetoKind.NOT_PARETO


def _reference_pareto_verdict(instance, cut):
    """The shared-slack LP over (x, y, eta) that `pareto_verdict` slims: eta is
    a column and the cut an `=` row, a finite master keeps x as columns tied
    to the mix weights by n `=` rows, and the epigraph rows come first."""
    if cut.coef_eta >= 0:
        return verify.ParetoVerdict(ParetoKind.NOT_APPLICABLE)
    n, k = instance.n, instance.k
    dom = instance.master_domain
    s = 0 if isinstance(dom, PolyhedralDomain) else len(dom.points)
    pad = (F(0),) * s
    rows = [(c + pad, rel, rhs) for c, rel, rhs in epigraph_rows(instance)]
    rows.append((lifted(instance, cut.coef_x, cut.coef_eta) + pad, EQ, cut.rhs))
    slacked = [False] * len(rows)
    if isinstance(dom, PolyhedralDomain):
        mask = dom.implicit_mask
        if mask is None:
            return verify.ParetoVerdict(ParetoKind.NOT_PARETO)
        for (coeffs, _, gi), implicit in zip(dom.rows(k + 1), mask):
            rows.append((coeffs, EQ if implicit else LE, gi))
            slacked.append(not implicit)
    else:
        nvars = n + k + 1 + s
        for j in range(n):
            coeffs = [F(0)] * nvars
            coeffs[j] = F(1)
            for i, p in enumerate(dom.points):
                coeffs[n + k + 1 + i] = -p[j]
            rows.append((tuple(coeffs), EQ, F(0)))
        rows.append(((F(0),) * (n + k + 1) + (F(1),) * s, EQ, F(1)))
        slacked = [False] * len(rows)
        for i in range(s):
            coeffs = [F(0)] * nvars
            coeffs[n + k + 1 + i] = F(-1)
            rows.append((tuple(coeffs), LE, F(0)))
            slacked.append(True)
    sol = verify._max_shared_slack(rows, slacked, (None,) * (n + k + 1) + pad)
    if sol is None:
        return verify.ParetoVerdict(ParetoKind.NOT_PARETO)
    return verify.ParetoVerdict(ParetoKind.PARETO, witness=EpiPoint(x=sol[:n], eta=sol[n + k]))


def _box(n):
    """0 <= x <= 4: no row of it is implicit."""
    unit = [tuple(F(1 if i == j else 0) for j in range(n)) for i in range(n)]
    return PolyhedralDomain(G=tuple(tuple(-v for v in row) for row in unit) + tuple(unit),
                            g=(F(0),) * n + (F(4),) * n)


def _pareto_cases():
    """Seeded draws on each master kind (x >= 0, finite, the box 0 <= x <= 4),
    each with its MIS cut at a separable point, that cut moved into epi(z)
    and away from it, and a random normal tightened onto epi(z)."""
    rng = random.Random(5)
    for kind in ("polyhedral", "finite", "box"):
        for _ in range(40):
            inst = random_instance(rng, finite=kind == "finite")
            if kind == "box":
                inst = replace(inst, master_domain=_box(inst.n))
            point = separable_point(rng, inst)
            if point is None:
                continue
            cut = separate(inst, point, MisOnes()).cut
            cuts = [Cut(coef_x=cut.coef_x, coef_eta=cut.coef_eta, rhs=cut.rhs + shift)
                    for shift in (0, -1, 1)]
            normal = tuple(F(rng.randint(-3, 3)) for _ in range(inst.n))
            h = support_function(inst, normal, F(-1))
            if h != math.inf:
                cuts.append(Cut(coef_x=normal, coef_eta=F(-1), rhs=h))
            yield kind, inst, cuts


def test_pareto_verdict_matches_the_lifted_reference(monkeypatch):
    """Substituting eta (and x on a finite master) keeps every verdict kind.
    A witness lies on the cut and in epi(z), and on a polyhedral master
    strictly inside every row that is not implicit.  On the box the LP has
    no eta column and no `=` row, and its master rows come first."""
    solved = []
    real_solve = verify.solve
    monkeypatch.setattr(verify, "solve", lambda lp: solved.append(lp) or real_solve(lp))
    seen = set()
    for kind, inst, cuts in _pareto_cases():
        dom = inst.master_domain
        for cut in cuts:
            solved.clear()
            verdict = pareto_verdict(inst, cut)
            lps = list(solved)
            assert verdict.kind == _reference_pareto_verdict(inst, cut).kind, (inst, cut)
            seen.add((kind, verdict.kind))
            if verdict.kind == ParetoKind.PARETO:
                witness = verdict.witness
                assert cut.value_at(witness) == cut.rhs
                assert epi_contains(inst, witness)
                if isinstance(dom, PolyhedralDomain):
                    for grow, gi, implicit in zip(dom.G, dom.g, dom.implicit_mask):
                        assert implicit or dot(grow, witness.x) < gi
            if kind == "box" and lps:
                (lp,) = lps
                assert lp.num_vars == inst.n + inst.k + 1  # x, y and the shared slack
                assert all(rel == LE for _, rel, _ in lp.rows)
                slacked_row = (F(0),) * inst.k + (F(1),)  # zero on y, 1 on s
                assert [(c[:inst.n], c[inst.n:], r) for c, _, r in lp.rows[:len(dom.G)]] == [
                    (grow, slacked_row, gi) for grow, gi in zip(dom.G, dom.g)]
    assert seen == {(kind, verdict) for kind in ("polyhedral", "finite", "box")
                    for verdict in ParetoKind}


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
    # no master point, so nowhere strictly better
    assert not dominates(replace(ex1, master_domain=_NO_MASTER_POINT), tightened, raw)
    # eta >= 1 + x over eta >= 1: the gap x is 0 at x = 0 and grows without bound
    assert dominates(ex1, ge_cut((F(-1),), F(1), F(1)), ge_cut((F(0),), F(1), F(1)))


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


def test_rowless_polyhedral_master(ex1):
    """A master set with no rows is all of R^n; ex1's oracles read the same on it."""
    free = replace(ex1, master_domain=PolyhedralDomain(G=(), g=()))
    assert free.master_domain.implicit_mask == ()
    assert relative_interior_point((), 2) == (F(0), F(0))
    # the core is one of many optima of the implicit-equality LP; what it
    # promises is a point strictly above the value function
    core = core_point(free)
    assert subproblem_value(free, core.x) < core.eta
    # P1_CUT's face is a segment, and the Pareto LPs differ (ex1's starts with
    # its row x >= 0), so Bland's rule picks another optimal vertex on it
    low, high = EpiPoint((F(1),), F(3)), EpiPoint((F(4, 3),), F(7, 3))
    for cut, witness, free_witness in ((P1_CUT, low, high), (P2_CUT, high, high),
                                       (P3_CUT, None, None)):
        assert face_report(free, cut) == face_report(ex1, cut)
        assert pareto_verdict(free, cut).kind == pareto_verdict(ex1, cut).kind
        assert pareto_verdict(ex1, cut).witness == witness
        assert pareto_verdict(free, cut).witness == free_witness


def test_core_point(ex1, ex1_finite):
    core = core_point(ex1)
    assert core is not None
    assert core.x[0] > 0
    assert subproblem_value(ex1, core.x) < core.eta
    assert core_point(ex1_finite) == EpiPoint((F(3, 2),), F(31, 8))
    assert core_point(replace(ex1, master_domain=_NO_MASTER_POINT)) is None
    # every master point has an infeasible subproblem
    no_recourse = replace(empty_epigraph(), master_domain=FiniteDomain(points=((F(0),), (F(1),))))
    assert core_point(no_recourse) is None


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
    epi(z); the same draws pinned to a hyperplane, with the cut that contains
    their epi(z) and a normal tightened onto it; plus the flat epigraph's cuts.
    Also returns each (draw, pinned draw, containing cut)."""
    cases = [(_pinned_instance(), [Cut(coef_x=(F(1),), coef_eta=F(0), rhs=F(0)),
                                   Cut(coef_x=(F(0),), coef_eta=F(-1), rhs=F(0))])]
    pinned = []
    pins = random.Random(7)
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
            flat, wall = pin_to_hyperplane(pins, inst)
            pinned.append((inst, flat, wall))
            flat_cuts = [wall]
            normal = tuple(F(pins.randint(-3, 3)) for _ in range(inst.n))
            h = support_function(flat, normal, F(-1))
            if h != math.inf:
                flat_cuts.append(Cut(coef_x=normal, coef_eta=F(-1), rhs=h))
            cases.append((flat, flat_cuts))
    return cases, pinned


def _lifted_support_function(instance, pi, pi0):
    """The support LP over (x, y, eta) that `support_function` projects eta
    out of: max pi.x + pi0*eta over `epigraph_rows`; None when infeasible."""
    out = solve(LinearProgram("max", lifted(instance, pi, pi0), epigraph_rows(instance)))
    if out.status == LpStatus.INFEASIBLE:
        return None
    return math.inf if out.status == LpStatus.UNBOUNDED else out.objective_value


def test_support_function_matches_the_lifted_reference():
    """Projecting eta out keeps every support value, for each oracle case's
    cut normals with pi0 in {-1, 0, 1}: finite and +inf values for pi0 <= 0,
    and +inf for pi0 > 0."""
    cases, _ = _oracle_cases()
    seen = set()
    for inst, cuts in cases:
        for cut in cuts:
            for pi0 in (F(-1), F(0), F(1)):
                h = support_function(inst, cut.coef_x, pi0)
                assert h == _lifted_support_function(inst, cut.coef_x, pi0), (inst, cut, pi0)
                seen.add((pi0, h == math.inf))
    assert seen == {(F(-1), False), (F(-1), True), (F(0), False), (F(0), True), (F(1), True)}


def _core_cases():
    """Seeded draws on x >= 0, on the box 0 <= x <= 4, on the box with x_1
    pinned to 0 (an implicit pair of rows), and on the rowless master; and
    each draw with d = 0 on x >= 0, where z is 0 wherever it is finite."""
    rng = random.Random(11)
    for _ in range(12):
        inst = random_instance(rng)
        unit = tuple(F(1 if j == 0 else 0) for j in range(inst.n))
        pinned = PolyhedralDomain(G=_box(inst.n).G + (unit,), g=_box(inst.n).g + (F(0),))
        for dom in (inst.master_domain, _box(inst.n), pinned, PolyhedralDomain(G=(), g=())):
            yield replace(inst, master_domain=dom)
        yield replace(inst, d=(F(0),) * inst.k)


def test_core_point_is_strictly_inside_and_above():
    """On a polyhedral master the core point lies on every implicit master
    row, strictly inside every other one and strictly above z(x); it is None
    exactly when no master point has a feasible subproblem."""
    seen = set()
    for inst in _core_cases():
        dom = inst.master_domain
        core = core_point(inst)
        if core is None:
            assert undecomposed_value(inst) == math.inf
            seen.add("none")
            continue
        for grow, gi, implicit in zip(dom.G, dom.g, dom.implicit_mask):
            assert dot(grow, core.x) == gi if implicit else dot(grow, core.x) < gi
            seen.add("implicit" if implicit else "strict")
        assert subproblem_value(inst, core.x) < core.eta
        seen.add("rowless" if not dom.G else "rows")
    assert seen == {"none", "implicit", "strict", "rowless", "rows"}


def test_cached_oracles_match_fresh_copies():
    """Reports on an instance queried before equal those on a fresh copy, and
    the face dimension equals the sliced affine dimension.
    Pinning a draw to a hyperplane through relint drops a full epi(z) by one
    dimension, and the cut along that hyperplane contains the pinned epi(z)."""
    cases, pinned = _oracle_cases()
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
    full = 0
    for inst, flat, wall in pinned:
        if epi_dimension(inst) == inst.n + 1:
            full += 1
            assert epi_dimension(flat) == epi_dimension(inst) - 1
        assert face_report(flat, wall).classification == FaceClass.CONTAINS_EPI
    assert full > 0


def test_second_report_skips_instance_lps(ex1, monkeypatch):
    """The epigraph's dimension and the box's implicit equalities are solved once."""
    solved, epi_dimensions = [], []

    def counting(lp):
        solved.append(lp)
        return real_solve(lp)

    def spy(instance, tight=None):
        if tight is None:
            epi_dimensions.append(instance)
        return real_affine_dimension(instance, tight=tight)

    real_solve, real_affine_dimension = model.solve, model._affine_dimension
    monkeypatch.setattr(model, "solve", counting)
    monkeypatch.setattr(verify, "solve", counting)
    monkeypatch.setattr(model, "_affine_dimension", spy)

    first = face_report(ex1, P1_CUT)
    assert epi_dimensions == [ex1]
    solved.clear()
    epi_dimensions.clear()
    assert face_report(ex1, P1_CUT) == first
    assert solved and not epi_dimensions

    first = pareto_verdict(ex1, P1_CUT)
    solved.clear()
    assert pareto_verdict(ex1, P1_CUT) == first
    assert len(solved) == 1


def test_warm_face_report_solves_one_lp(monkeypatch):
    """With dim epi(z) cached, a face report is one implicit-equality LP,
    whatever the dimension of the face."""
    # z(x) = x1 + x2 + x3 where that sum is at most 10: dim epi(z) = 4
    inst = Instance(n=3, k=1, m=2, c=(0, 0, 0), d=(1,), H=((1, 1, 1), (0, 0, 0)),
                    A=((-1,), (1,)), b=(0, 10), eta_lower_bound=0,
                    master_domain=PolyhedralDomain(G=((-1, 0, 0),), g=(0,)))
    facet = Cut(coef_x=(1, 1, 1), coef_eta=-1, rhs=0)
    report = FaceReport(3, 4, FaceClass.FACET_DEFINING)
    assert face_report(inst, facet) == report
    solved = []
    real_solve = model.solve
    monkeypatch.setattr(model, "solve", lambda lp: solved.append(lp) or real_solve(lp))
    assert face_report(inst, facet) == report
    assert len(solved) == 1


def test_relative_interior_point_solves_one_lp(monkeypatch):
    solved = []
    real_solve = model.solve
    monkeypatch.setattr(model, "solve", lambda lp: solved.append(lp) or real_solve(lp))
    segment = (((F(-1),), LE, F(0)), ((F(1),), LE, F(1)))
    assert relative_interior_point(segment, 1) == (F(1, 2),)
    assert len(solved) == 1


def _rows_feasible(rows, num_vars):
    return solve(LinearProgram("min", (F(0),) * num_vars, tuple(rows))).status == LpStatus.OPTIMAL


def _deletion_filter(instance, point, support):
    """The reference MIS test: the support's rows are infeasible, and dropping
    any one of them makes them feasible (1 + |S| LPs)."""
    rows = feasibility_rows(instance, point)
    picked = [rows[i] for i in support]
    return (bool(picked) and not _rows_feasible(picked, instance.k)
            and all(_rows_feasible(picked[:i] + picked[i + 1:], instance.k)
                    for i in range(len(picked))))


def _cert_on(inst, chosen, rng):
    """A certificate with random positive multipliers on the chosen rows (m is the eta row)."""
    values = [F(rng.randint(1, 4)) if i in chosen else F(0) for i in range(inst.m + 1)]
    return Certificate(row_multipliers=tuple(values[:-1]), eta_multiplier=values[-1])


def test_mis_rank_test_matches_the_deletion_filter():
    """One RREF agrees with the deletion filter on seeded random supports and
    on the MIS CGLP's vertex certificates; every kind of support is seen."""
    rng = random.Random(31)
    seen = set()
    for _ in range(150):
        inst = random_instance(rng)
        point = separable_point(rng, inst)
        if point is None:
            continue
        certs = [separate(inst, point, MisOnes()).certificate]
        for _ in range(4):
            chosen = [i for i in range(inst.m + 1) if rng.random() < 0.5]
            certs.append(_cert_on(inst, chosen, rng))
        rows = feasibility_rows(inst, point)
        for number, cert in enumerate(certs):
            minimal = _deletion_filter(inst, point, cert.support)
            assert is_mis_certificate(inst, point, cert) == minimal, (inst, point, cert)
            picked = [rows[i][0] + (rows[i][2],) for i in cert.support]
            if number == 0:
                seen.add("vertex")
            elif not cert.support:
                seen.add("empty")
            elif _rows_feasible([rows[i] for i in cert.support], inst.k):
                seen.add("feasible")
            elif not minimal:
                seen.add("not_minimal")
            else:
                seen.add("minimal")
            if matrix_rank(picked) < len(picked):
                seen.add("dependent")
    assert seen == {"vertex", "empty", "feasible", "not_minimal", "minimal", "dependent"}


def _slice_dimension(inst, cut):
    """Dimension of epi(z) sliced by the cut's hyperplane, -1 when empty: the
    implicit equalities of the lifted epigraph with the cut as a `=` row, then
    rank([E; P]) - rank(E) from one RREF with the y columns first."""
    n, k = inst.n, inst.k
    rows = epigraph_rows(inst) + ((lifted(inst, cut.coef_x, cut.coef_eta), EQ, cut.rhs),)
    mask = _implicit_mask(rows)
    if mask is None:
        return -1
    y_first = [c[n:n + k] + c[:n] + c[n + k:] for (c, _, _), holds in zip(rows, mask) if holds]
    return n + 1 - sum(col >= k for col in rref(y_first)[1])


def _two_lp_face_report(inst, cut):
    """The reference face report: the support LP decides whether the cut
    touches epi(z), then the `=`-row slice gives the face's dimension."""
    epi_dim = epi_dimension(inst)
    if support_function(inst, cut.coef_x, cut.coef_eta) != cut.rhs:
        return FaceReport(-1, epi_dim, FaceClass.NON_SUPPORTING)
    face_dim = _slice_dimension(inst, cut)
    cls = (FaceClass.CONTAINS_EPI if face_dim == epi_dim else
           FaceClass.FACET_DEFINING if face_dim == epi_dim - 1 else FaceClass.SUPPORTING)
    return FaceReport(face_dim, epi_dim, cls)


def test_face_report_matches_the_two_lp_reference():
    """One implicit-equality LP per report agrees with the support LP and the
    sliced dimension, at each case's right side and one above and below it."""
    cases, _ = _oracle_cases()
    seen = set()
    for inst, cuts in cases:
        for cut in cuts:
            for shift in (0, 1, -1):
                moved = Cut(coef_x=cut.coef_x, coef_eta=cut.coef_eta, rhs=cut.rhs + shift)
                report = face_report(inst, moved)
                assert report == _two_lp_face_report(inst, moved), (inst, moved)
                seen.add(report.classification)
    assert seen == set(FaceClass)


def _lifted_affine_dimension(instance, tight=None):
    """The dimension oracle over (x, y, eta) that `_affine_dimension` projects
    eta out of: the implicit equalities of `epigraph_rows`, plus the reversed
    row -pi.x - pi0*eta <= -alpha for a candidate, then
    n + 1 - (rank E - rank E_y) from one RREF with the y columns first."""
    n, k = instance.n, instance.k
    rows = epigraph_rows(instance)
    if tight is not None:
        pi, pi0, alpha = tight
        rows += ((lifted(instance, tuple(-v for v in pi), -pi0), LE, -alpha),)
    mask = _implicit_mask(rows)
    if mask is None or (tight is not None and not mask[-1]):
        return -1
    y_first = [coeffs[n:n + k] + coeffs[:n] + coeffs[n + k:]
               for (coeffs, _, _), holds in zip(rows, mask) if holds]
    return n + 1 - sum(col >= k for col in rref(y_first)[1])


def _face_candidates(rng, inst, cuts):
    """(pi, pi0, alpha) of each cut and, when it bounds eta, of the cut with
    pi0 flipped above 0; a random normal with pi0 = 0 (a feasibility cut) and
    with pi0 = -1, each tightened onto epi(z); and that normal with pi0 > 0 at
    the top of pi.x + pi0 d.y over Hx + Ay <= b, where the projected row
    -pi.x - pi0 d.y <= -alpha would be implicit."""
    tights = [(cut.coef_x, cut.coef_eta, cut.rhs) for cut in cuts]
    tights += [(cut.coef_x, -cut.coef_eta, cut.rhs) for cut in cuts if cut.coef_eta < 0]
    normal = tuple(F(rng.randint(-3, 3)) for _ in range(inst.n))
    for pi0 in (F(0), F(-1)):
        try:
            tights.append((normal, pi0, tighten_rhs(inst, normal, pi0)))
        except UnboundedDirection:
            pass
    pi0 = F(rng.randint(1, 3))
    top = solve(LinearProgram("max", normal + tuple(pi0 * v for v in inst.d),
                              tight_rows(inst)))
    if top.status == LpStatus.OPTIMAL:
        tights.append((normal, pi0, top.objective_value))
    return tights


def test_face_lp_over_x_y_matches_the_lifted_reference(monkeypatch):
    """Projecting eta out keeps every dimension, with and without a tight row,
    on seeded draws of each master kind and on an empty epigraph.  The face
    LP has n + k sign-free columns and m + 1 rows (m with no tight row);
    pi0 > 0 gives -1 with no LP, also where the projected row is implicit."""
    solved = []
    real_solve = model.solve
    monkeypatch.setattr(model, "solve", lambda lp: solved.append(lp) or real_solve(lp))
    rng = random.Random(8)
    cases = [(inst, _face_candidates(rng, inst, cuts)) for _, inst, cuts in _pareto_cases()]
    cases.append((empty_epigraph(), [((F(-1),), F(-1), F(0)), ((F(1),), F(0), F(0)),
                                     ((F(1),), F(1), F(0))]))
    seen = set()
    for inst, tights in cases:
        n, k, m = inst.n, inst.k, inst.m
        for tight in [None] + tights:
            solved.clear()
            dim = _affine_dimension(inst, tight=tight)
            lps = list(solved)
            assert dim == _lifted_affine_dimension(inst, tight=tight), (inst, tight)
            sign = ("none" if tight is None else
                    "<0" if tight[1] < 0 else "=0" if tight[1] == 0 else ">0")
            seen.add((sign, dim >= 0))
            if sign == ">0":
                assert lps == []
                mask = _implicit_mask(tight_rows(inst, tight))
                if mask is not None and mask[-1]:
                    seen.add((sign, "implicit projected row"))
                continue
            (lp,) = lps
            rows = m + (tight is not None)
            assert len(lp.rows) == rows and lp.num_vars == n + k + 1 + rows
            assert lp.lower[:n + k] == (None,) * (n + k)
    assert seen == {("none", True), ("none", False), ("<0", True), ("<0", False),
                    ("=0", True), ("=0", False), (">0", False),
                    (">0", "implicit projected row")}


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bendercuts"


def _imports_verify(tree: ast.Module) -> bool:
    """Does the module import bendercuts.verify, or a name from it, in any spelling?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "bendercuts.verify" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            package = node.module in (None, "") if node.level else node.module == "bendercuts"
            if (node.module == ("verify" if node.level else "bendercuts.verify")
                    or (package and any(alias.name == "verify" for alias in node.names))):
                return True
    return False


def test_only_the_cli_and_the_package_import_verify():
    """The oracles judge what the loop makes, so the loop, replay and the
    layers below them never import them: verify is a leaf of the package."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in modules} >= {"benders", "cli", "instance_io", "verify"}
    importers = {path.stem for path in modules
                 if _imports_verify(ast.parse(path.read_text(encoding="utf-8")))}
    assert importers == {"__init__", "cli"}
