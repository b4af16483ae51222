import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bendercuts import linalg, separation
from bendercuts.cglp import (Custom, Directional, MisOnes, build_alt_polyhedron,
                             build_cglp_relaxed_subproblem, strategy_weights)
from bendercuts.errors import (EmptyEpigraph, PreconditionViolated,
                               StrategyUnbounded, UnboundedDirection,
                               ZeroCertificate)
from bendercuts.model import (EpiPoint, FiniteDomain, Instance, PolyhedralDomain,
                              epi_contains, subproblem_value)
from bendercuts.randgen import interior_epi_point, random_instance, separable_point
from bendercuts.separation import (Certificate, Cut, DirectionClass, IN_EPIGRAPH,
                                   SEPARATED, _certificate_from_duals,
                                   _push_to_vertex, boundedness_check, canonical_cut,
                                   certificate_to_cut, exposed_point, separate, tighten_rhs)
from bendercuts.simplex import solve
from bendercuts.verify import FaceClass, face_report, is_vertex

from conftest import P1, P2, P3, P1_CUT, P2_CUT, P3_CUT, same_cut


def test_certificate_validation():
    with pytest.raises(PreconditionViolated):
        Certificate(row_multipliers=(F(-1),), eta_multiplier=F(0))
    cert = Certificate(row_multipliers=(F(0), F(2)), eta_multiplier=F(1))
    assert cert.as_tuple() == (F(0), F(2), F(1))
    assert cert.support == (1, 2)


def test_cut_validation():
    with pytest.raises(ZeroCertificate):
        Cut(coef_x=(F(0),), coef_eta=F(0), rhs=F(1))
    with pytest.raises(PreconditionViolated):
        Cut(coef_x=(F(1),), coef_eta=F(1), rhs=F(0))


def test_certificate_to_cut_vertices(ex1):
    for vertex, cut in ((P1, P1_CUT), (P2, P2_CUT), (P3, P3_CUT)):
        cert = Certificate(row_multipliers=vertex[:3], eta_multiplier=vertex[3])
        assert same_cut(certificate_to_cut(ex1, cert), cut)


def test_canonical_cut_scale_invariance():
    a = Cut(coef_x=(F(-2, 7),), coef_eta=F(-2, 7), rhs=F(-1))
    b = Cut(coef_x=(F(-2),), coef_eta=F(-2), rhs=F(-7))
    assert canonical_cut(a) == canonical_cut(b)


def test_mis_selection(ex1, origin):
    result = separate(ex1, origin, MisOnes())
    assert result.kind == SEPARATED
    assert same_cut(result.cut, P3_CUT)
    assert result.supporting is False
    assert result.cglp_value == F(-5, 14)
    assert result.certificate.as_tuple() == P3


def test_directional_selection(ex1, origin):
    result = separate(ex1, origin, Directional((F(2),), F(3)))
    assert result.kind == SEPARATED
    assert same_cut(result.cut, P2_CUT)
    assert result.supporting is True
    assert result.cglp_value == F(-4, 3)
    assert result.certificate.as_tuple() == P2


def test_supporting_is_read_lazily(ex1, ex1_finite, origin, monkeypatch):
    """separate solves no support LP; the first read of supporting solves one."""
    calls = []
    real = separation.support_function

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(separation, "support_function", counting)
    result = separate(ex1, origin, MisOnes())
    assert calls == []
    assert result.supporting is False
    assert len(calls) == 1
    assert result.supporting is False
    assert len(calls) == 1
    assert separate(ex1, EpiPoint((F(2),), F(3)), MisOnes()).supporting is None
    assert len(calls) == 1
    twin = dataclasses.replace(result, instance=ex1_finite)
    assert twin == result and hash(twin) == hash(result)
    with pytest.raises(PreconditionViolated):
        dataclasses.replace(result, instance=None)


@given(st.integers(0, 100_000))
def test_supporting_matches_face_report(seed):
    """The lazy flag agrees with the face oracle for MIS and directional cuts,
    and for each such cut moved off epi(z) by raising its right-hand side."""
    rng = random.Random(seed)
    inst = random_instance(rng)
    point = separable_point(rng, inst)
    if point is None:
        return
    direction = tuple(F(rng.randint(-3, 3)) for _ in range(inst.n))
    for strategy in (MisOnes(), Directional(direction, F(rng.randint(0, 3)))):
        try:
            result = separate(inst, point, strategy)
        except StrategyUnbounded:
            continue
        cut = result.cut
        loose = dataclasses.replace(result, cut=Cut(cut.coef_x, cut.coef_eta, cut.rhs + 1))
        for res in (result, loose):
            face = face_report(inst, res.cut)
            assert res.supporting == (face.classification != FaceClass.NON_SUPPORTING)


def test_push_to_vertex(ex1, origin):
    """Weights tying P1 and P2 at -1 leave an optimal edge; the push picks P2."""
    relaxed = build_alt_polyhedron(ex1, origin, relaxed=True)
    midpoint = tuple((a + b) / 2 for a, b in zip(P1, P2))
    assert not is_vertex(relaxed, midpoint)
    cert = _push_to_vertex(relaxed.normalized_rows, (F(-5), F(-3), F(-100)), F(0), F(-1))
    assert cert.as_tuple() == P2
    assert is_vertex(relaxed, cert.as_tuple())


def _no_linear_algebra(*args):
    raise AssertionError("separate ran linear algebra or the vertex push")


def test_separate_is_one_lp(ex1, origin, monkeypatch):
    """MIS, directional and custom separations solve the CGLP once and run no
    rank test, push or other linear algebra: the basic dual is the answer."""
    calls = []
    real = separation.solve

    def counting(lp):
        calls.append(lp)
        return real(lp)

    monkeypatch.setattr(separation, "solve", counting)
    monkeypatch.setattr(linalg, "rref", _no_linear_algebra)
    monkeypatch.setattr(separation, "_push_to_vertex", _no_linear_algebra)
    cases = [(ex1, origin, (MisOnes(), Directional((F(2),), F(3)),
                            Custom((F(-5), F(-3), F(-100)), F(0))))]
    for seed in range(40):
        rng = random.Random(seed)
        inst = random_instance(rng)
        point = separable_point(rng, inst)
        if point is not None:
            cases.append((inst, point, (
                MisOnes(),
                Directional(tuple(F(rng.randint(-3, 3)) for _ in range(inst.n)),
                            F(rng.randint(0, 3))),
                Custom(tuple(-F(rng.randint(0, 1)) for _ in range(inst.m)),
                       -F(rng.randint(0, 1))))))
    separated = 0
    for inst, point, strategies in cases:
        for strategy in strategies:
            calls.clear()
            try:
                result = separate(inst, point, strategy)
            except StrategyUnbounded:
                continue
            assert result.kind == SEPARATED
            assert len(calls) == 1
            separated += 1
    assert separated >= 40


@given(st.integers(0, 100_000))
def test_mis_never_unbounded(seed):
    """MIS relaxes every row that meets x, and a point of epi(z) satisfies the
    rest, so MIS separation raises EmptyEpigraph or nothing, at any point."""
    rng = random.Random(seed)
    inst = random_instance(rng)
    point = EpiPoint(x=tuple(F(rng.randint(-4, 4)) for _ in range(inst.n)),
                     eta=F(rng.randint(-10, 10)))
    for query in (point, separable_point(rng, inst)):
        if query is None:
            continue
        try:
            separate(inst, query, MisOnes())
        except EmptyEpigraph:
            pass


def test_mis_keeps_zero_rows(ex1, origin):
    """ex1 plus y <= 4, a row without x: MIS leaves it unrelaxed and still
    separates, since epi(z) satisfies it."""
    inst = dataclasses.replace(ex1, m=4, H=ex1.H + ((F(0),),), A=ex1.A + ((F(1),),),
                               b=ex1.b + (F(4),))
    assert strategy_weights(inst, MisOnes()) == ((F(-1),) * 3 + (F(0),), F(-1))
    result = separate(inst, origin, MisOnes())
    assert result.kind == SEPARATED
    assert result.cut.value_at(origin) > result.cut.rhs


def test_point_inside_epigraph(ex1):
    result = separate(ex1, EpiPoint((F(2),), F(3)), MisOnes())
    assert result.kind == IN_EPIGRAPH
    assert result.cut is None


def test_strategy_unbounded(ex1, origin):
    with pytest.raises(StrategyUnbounded):
        separate(ex1, origin, Directional((F(-1),), F(0)))


def test_empty_epigraph_error(origin):
    inst = Instance(n=1, k=1, m=2, c=(F(1),), d=(F(1),),
                    H=((F(0),), (F(0),)), A=((F(1),), (F(-1),)),
                    b=(F(-1), F(0)),
                    master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
                    eta_lower_bound=F(0))
    with pytest.raises(EmptyEpigraph):
        separate(inst, origin, MisOnes())


def test_tighten_rhs(ex1):
    # the redundant-row cut pulls tight onto the epigraph
    assert tighten_rhs(ex1, (F(-2, 7),), F(-2, 7)) == F(-22, 21)
    # already supporting cuts stay put
    assert tighten_rhs(ex1, (F(-2, 5),), F(-1, 5)) == F(-1)
    with pytest.raises(UnboundedDirection):
        tighten_rhs(ex1, (F(1),), F(0))


def test_boundedness_trichotomy(ex1, origin):
    assert boundedness_check(ex1, origin, (F(2),), F(3)) == DirectionClass.IN_SET
    assert boundedness_check(ex1, origin, (F(-1),), F(0)) == DirectionClass.OUTSIDE
    small = boundedness_check(ex1, origin, (F(2, 100),), F(3, 100))
    assert small in (DirectionClass.IN_SET, DirectionClass.IN_CLOSED_CONE)
    assert small == DirectionClass.IN_CLOSED_CONE  # too short to reach epi(z)


def test_exposed_point(ex1, origin):
    p = exposed_point(ex1, origin, (F(2),), F(3))
    assert p == EpiPoint((F(3, 2),), F(9, 4))
    cut = separate(ex1, origin, Directional((F(2),), F(3))).cut
    assert cut.value_at(p) == cut.rhs
    # a boundary point of epi(z) is its own exposed point
    assert exposed_point(ex1, origin, (F(4, 3),), F(7, 3)) == EpiPoint((F(4, 3),), F(7, 3))
    with pytest.raises(PreconditionViolated):
        exposed_point(ex1, EpiPoint((F(2),), F(3)), (F(2),), F(3))
    with pytest.raises(PreconditionViolated):
        exposed_point(ex1, origin, (F(-1),), F(0))


@given(st.integers(0, 100_000))
def test_separation_soundness(seed):
    """For MIS, directional and {-1, 0}-weighted custom strategies, any
    returned cut cuts the query point off and never cuts a sampled value
    function point, its certificate is the relaxed CGLP's dual over t* as the
    simplex returns it and a vertex of the relaxed polyhedron without any
    push, and a directional cut touches epi(z)."""
    rng = random.Random(seed)
    inst = random_instance(rng)
    point = separable_point(rng, inst)
    if point is None:
        return
    relaxed = build_alt_polyhedron(inst, point, relaxed=True)
    strategies = (
        MisOnes(),
        Directional(tuple(F(rng.randint(-3, 3)) for _ in range(inst.n)), F(rng.randint(0, 3))),
        Custom(tuple(-F(rng.randint(0, 1)) for _ in range(inst.m)), -F(rng.randint(0, 1))),
    )
    for strategy in strategies:
        try:
            result = separate(inst, point, strategy)
        except StrategyUnbounded:
            continue
        assert result.kind == SEPARATED
        cut = result.cut
        assert cut.value_at(point) > cut.rhs
        for _ in range(4):
            x = tuple(F(rng.randint(0, 4)) for _ in range(inst.n))
            z = subproblem_value(inst, x)
            if isinstance(z, F):
                assert cut.holds_at(EpiPoint(x=x, eta=z))
                assert cut.holds_at(EpiPoint(x=x, eta=z + 5))
        weights, weight_eta = strategy_weights(inst, strategy)
        out = solve(build_cglp_relaxed_subproblem(inst, point, weights, weight_eta))
        assert result.certificate == _certificate_from_duals(out.dual, inst.m, out.objective_value)
        assert is_vertex(relaxed, result.certificate.as_tuple())
        if isinstance(strategy, Directional):
            assert result.supporting is True


@given(st.integers(0, 100_000))
def test_directional_value_matches_membership(seed):
    """Directions that land in epi(z) give selection values of at most -1."""
    rng = random.Random(seed)
    inst = random_instance(rng)
    point = separable_point(rng, inst)
    if point is None:
        return
    target = interior_epi_point(rng, inst)
    if target is None:
        return
    direction = tuple(t - p for t, p in zip(target.x, point.x))
    direction_eta = target.eta - point.eta
    result = separate(inst, point, Directional(direction, direction_eta))
    assert result.kind == SEPARATED
    assert result.cglp_value <= -1
    assert boundedness_check(inst, point, direction, direction_eta) == DirectionClass.IN_SET
