import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bendercuts.errors import DimensionError, EmptyEpigraph
from bendercuts.model import (EpiPoint, FiniteDomain, Instance, PolyhedralDomain,
                              epi_contains, epi_dimension, epi_face_dimension,
                              epi_is_empty, subproblem_value, support_function,
                              undecomposed_value)
from bendercuts.randgen import random_instance


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


def test_undecomposed_value(ex1, ex1_finite):
    assert undecomposed_value(ex1) == F(11, 3)
    assert undecomposed_value(ex1_finite) == F(4)


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


def _empty_epigraph() -> Instance:
    # rows y <= -1 and -y <= 0 can never hold together, for any x
    return Instance(n=1, k=1, m=2, c=(F(1),), d=(F(1),),
                    H=((F(0),), (F(0),)), A=((F(1),), (F(-1),)),
                    b=(F(-1), F(0)),
                    master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
                    eta_lower_bound=F(0))


def test_empty_epigraph_instance():
    inst = _empty_epigraph()
    assert epi_is_empty(inst)
    with pytest.raises(EmptyEpigraph):
        epi_dimension(inst)


def test_epi_face_dimension_of_empty_sets(ex1):
    """-1, never EmptyEpigraph, when the slice or the whole epigraph is empty,
    also as the first query on a fresh instance."""
    assert epi_face_dimension(ex1, (F(-2, 7),), F(-2, 7), F(-1)) == -1
    assert epi_face_dimension(_empty_epigraph(), (F(-1),), F(-1), F(0)) == -1


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
