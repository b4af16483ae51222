import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bendercuts.errors import DimensionError, EmptyEpigraph
from bendercuts.linalg import dot
from bendercuts.model import (EpiPoint, FiniteDomain, Instance, PolyhedralDomain, _implicit_mask,
                              _relative_interior, epi_contains, epi_dimension, epi_face_dimension,
                              epi_is_empty, subproblem_value, support_function,
                              undecomposed_value)
from bendercuts.randgen import random_instance
from bendercuts.simplex import EQ, LE, LinearProgram, LpStatus, solve

from conftest import empty_epigraph


def test_value_function_samples(ex1):
    assert subproblem_value(ex1, (F(4, 3),)) == F(7, 3)
    assert subproblem_value(ex1, (F(0),)) == F(5)
    assert subproblem_value(ex1, (F(2),)) == F(2)


def test_epi_membership(ex1, origin):
    assert not epi_contains(ex1, origin)
    assert epi_contains(ex1, EpiPoint((F(4, 3),), F(7, 3)))
    assert epi_contains(ex1, EpiPoint((F(2),), F(3)))
    assert not epi_is_empty(ex1)


def test_value_function_infinite_cases():
    # first row reads 0*y <= -1 + x: no y works until x reaches 1
    inst = Instance(n=1, k=1, m=2, c=(F(1),), d=(F(1),),
                    H=((F(-1),), (F(0),)), A=((F(0),), (F(-1),)),
                    b=(F(-1), F(0)),
                    master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
                    eta_lower_bound=F(0))
    assert subproblem_value(inst, (F(0),)) == math.inf
    assert subproblem_value(inst, (F(2),)) == F(0)
    # no lower bound at all: minimizing y runs off to -infinity
    free = Instance(n=1, k=1, m=1, c=(F(1),), d=(F(1),),
                    H=((F(0),),), A=((F(0),),), b=(F(1),),
                    master_domain=PolyhedralDomain(G=(), g=()),
                    eta_lower_bound=F(0))
    assert subproblem_value(free, (F(0),)) == -math.inf


def test_support_function_samples(ex1):
    assert support_function(ex1, (F(-2),), F(-1)) == F(-5)
    assert support_function(ex1, (F(-2, 7),), F(-2, 7)) == F(-22, 21)
    assert support_function(ex1, (F(1),), F(0)) == math.inf
    # positive eta coefficient can never be valid on an epigraph
    assert support_function(ex1, (F(0),), F(1)) == math.inf


def test_epi_dimension(ex1):
    assert epi_dimension(ex1) == 2
    assert epi_face_dimension(ex1, (F(-2, 5),), F(-1, 5), F(-1)) == 1
    assert epi_face_dimension(ex1, (F(-2, 7),), F(-2, 7), F(-1)) == -1


def _one_row(master, b) -> Instance:
    """One linking row 0 x + 0 y <= b: every x has recourse when b >= 0, and
    min y then runs off to -infinity; none has when b < 0."""
    return Instance(n=1, k=1, m=1, c=(F(1),), d=(F(1),), H=((F(0),),), A=((F(0),),),
                    b=(b,), master_domain=master, eta_lower_bound=F(0))


def test_undecomposed_value(ex1, ex1_finite):
    assert undecomposed_value(ex1) == F(11, 3)
    assert undecomposed_value(ex1_finite) == F(4)
    box = PolyhedralDomain(G=((F(-1),), (F(1),)), g=(F(0), F(1)))
    assert undecomposed_value(_one_row(FiniteDomain(points=((F(0),),)), F(1))) == -math.inf
    assert undecomposed_value(_one_row(box, F(1))) == -math.inf
    assert undecomposed_value(_one_row(box, F(-1))) == math.inf


def test_instance_validation():
    with pytest.raises(DimensionError):
        Instance(n=1, k=1, m=1, c=(F(1), F(2)), d=(F(1),),
                 H=((F(1),),), A=((F(1),),), b=(F(1),),
                 master_domain=PolyhedralDomain(G=(), g=()),
                 eta_lower_bound=F(0))
    with pytest.raises(DimensionError):
        Instance(n=1, k=1, m=2, c=(F(1),), d=(F(1),),
                 H=((F(1),),), A=((F(1),), (F(1),)), b=(F(1), F(1)),
                 master_domain=PolyhedralDomain(G=(), g=()),
                 eta_lower_bound=F(0))


def test_empty_epigraph_instance():
    inst = empty_epigraph()
    assert epi_is_empty(inst)
    with pytest.raises(EmptyEpigraph):
        epi_dimension(inst)
    with pytest.raises(EmptyEpigraph):
        support_function(inst, (F(1),), F(-1))


@pytest.mark.parametrize("pi0", [F(0), F(1), F(7, 2)])
def test_support_function_on_an_empty_epigraph_raises_for_every_eta_coefficient(pi0):
    """pi0 >= 0 still needs a feasible point: an empty epi(z) has no support
    value, not +inf."""
    with pytest.raises(EmptyEpigraph):
        support_function(empty_epigraph(), (F(1),), pi0)


def _implicit_reference(rows):
    """Row by row: row i is implicit when min a_i.z over the rows reaches r_i."""
    mask = []
    for coeffs, _, rhs in rows:
        out = solve(LinearProgram("min", coeffs, tuple(rows)))
        if out.status == LpStatus.INFEASIBLE:
            return None
        mask.append(out.status == LpStatus.OPTIMAL and out.objective_value == rhs)
    return tuple(mask)


def _seeded_systems():
    """300 seeded `<=`/`=` systems as (dim, all rows `=`, rows); some are empty."""
    rng = random.Random(17)
    for _ in range(300):
        dim, all_eq = rng.randint(1, 3), rng.random() < 0.15
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            rhs = F(rng.randint(-2, 2))
            rows.append((coeffs, EQ if all_eq or rng.random() < 0.2 else LE, rhs))
            if rng.random() < 0.3:  # the opposite row: pins this one, or empties the set
                rows.append((tuple(-c for c in coeffs), LE, -rhs - rng.choice((0, 0, 1))))
        yield dim, all_eq, rows


def test_implicit_mask_matches_a_per_row_reference():
    """The one implicit-equality LP agrees with one min LP per row on seeded
    `<=`/`=` systems, empty and all-`=` ones among them; no rows, no mask."""
    assert _implicit_mask(()) == ()
    seen = set()
    for dim, all_eq, rows in _seeded_systems():
        mask = _implicit_mask(rows)
        assert mask == _implicit_reference(rows), rows
        if mask is None:
            seen.add("empty")
        elif all_eq:
            seen.add("all_eq")
        else:
            seen.update("implicit_le" if implicit else "loose_le"
                        for (_, rel, _), implicit in zip(rows, mask) if rel == LE)
    assert seen == {"empty", "all_eq", "implicit_le", "loose_le"}


def test_relative_interior_point_is_on_the_implicit_rows_and_inside_the_others():
    """The implicit-equality LP's point z/t lies on every implicit row and
    strictly inside every other row of the seeded systems; no rows, the origin."""
    assert _relative_interior((), 2) == ((), (F(0), F(0)))
    for dim, _, rows in _seeded_systems():
        found = _relative_interior(rows, dim)
        if found is None:  # the per-row reference test checks the empty systems
            continue
        mask, point = found
        for (coeffs, _, rhs), implicit in zip(rows, mask):
            assert (dot(coeffs, point) == rhs) if implicit else (dot(coeffs, point) < rhs), rows


def test_epi_face_dimension_of_empty_sets(ex1):
    """-1, never EmptyEpigraph, when the slice or the whole epigraph is empty,
    also as the first query on a fresh instance."""
    assert epi_face_dimension(ex1, (F(-2, 7),), F(-2, 7), F(-1)) == -1
    assert epi_face_dimension(empty_epigraph(), (F(-1),), F(-1), F(0)) == -1


@given(st.integers(0, 10_000))
def test_value_function_point_is_in_epi(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    x = tuple(F(rng.randint(0, 3)) for _ in range(inst.n))
    z = subproblem_value(inst, x)
    if isinstance(z, F):
        assert epi_contains(inst, EpiPoint(x=x, eta=z))
        assert not epi_contains(inst, EpiPoint(x=x, eta=z - 1))


@given(st.integers(0, 10_000), st.integers(1, 9))
def test_support_function_positively_homogeneous(seed, scale):
    rng = random.Random(seed)
    inst = random_instance(rng)
    pi = tuple(F(rng.randint(-3, 3)) for _ in range(inst.n))
    h = support_function(inst, pi, F(-1))
    hs = support_function(inst, tuple(scale * v for v in pi), F(-scale))
    if isinstance(h, F):
        assert hs == scale * h
    else:
        assert hs == h
