import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, settings

from bendercuts.linalg import dot
from bendercuts.model import EpiPoint, FiniteDomain, Instance, PolyhedralDomain, tight_rows
from bendercuts.separation import Cut, canonical_cut
from bendercuts.simplex import LE
from bendercuts.verify import relative_interior_point

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# worked example used throughout: one master variable, one subproblem variable,
# three linking rows, the third of which is redundant for the value function
EX1_KW = dict(
    n=1, k=1, m=3,
    c=(F(1),), d=(F(1),),
    H=((F(-2),), (F(-1, 2),), (F(-4),)),
    A=((F(-1),), (F(-1),), (F(-4),)),
    b=(F(-5), F(-3), F(-14)),
    eta_lower_bound=F(0),
)

# vertices of the certificate polyhedron at the origin query point
P1 = (F(1, 5), F(0), F(0), F(1, 5))
P2 = (F(0), F(1, 3), F(0), F(1, 3))
P3 = (F(0), F(0), F(1, 14), F(2, 7))


def ge_cut(coef_x, coef_eta, rhs) -> Cut:
    """Build a Cut from its human >=-form coefficients."""
    return Cut(coef_x=tuple(-F(v) for v in coef_x), coef_eta=-F(coef_eta), rhs=-F(rhs))


# 2x + eta >= 5, x/2 + eta >= 3, x + eta >= 7/2 (from P1, P2, P3)
P1_CUT = ge_cut((2,), 1, 5)
P2_CUT = ge_cut((F(1, 2),), 1, 3)
P3_CUT = ge_cut((1,), 1, F(7, 2))


def same_cut(a: Cut, b: Cut) -> bool:
    return canonical_cut(a) == canonical_cut(b)


def empty_epigraph() -> Instance:
    """No x has a feasible subproblem (y <= -1 and -y <= 0), so epi(z) is empty."""
    kw = dict(EX1_KW, m=2, H=((F(0),), (F(0),)), A=((F(1),), (F(-1),)), b=(F(-1), F(0)))
    return Instance(master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)), **kw)


@pytest.fixture
def ex1() -> Instance:
    return Instance(master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)), **EX1_KW)


@pytest.fixture
def ex1_shifted() -> Instance:
    """Same data with the master set pushed to x >= 2."""
    return Instance(master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(-2),)), **EX1_KW)


@pytest.fixture
def ex1_finite() -> Instance:
    pts = ((F(0),), (F(1),), (F(2),), (F(3),))
    return Instance(master_domain=FiniteDomain(points=pts), **EX1_KW)


@pytest.fixture
def origin() -> EpiPoint:
    return EpiPoint(x=(F(0),), eta=F(0))


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def lifted(instance: Instance, x, eta) -> tuple:
    """An (x, eta)-space row or objective on the lifted columns (x, y, eta): zero on y."""
    return tuple(x) + (F(0),) * instance.k + (eta,)


def epigraph_rows(instance: Instance) -> tuple:
    """Rows of the lifted epigraph {(x, y, eta) : Hx + Ay <= b, d.y - eta <= 0}.

    The reference description of epi(z) that the lifted oracles of the tests
    solve over; the package itself projects eta out (`model.tight_rows`).
    """
    epi = ((F(0),) * instance.n + instance.d + (F(-1),), LE, F(0))
    return tuple((coeffs + (F(0),), LE, bi) for coeffs, _, bi in tight_rows(instance)) + (epi,)


def pin_to_hyperplane(rng: random.Random, inst: Instance) -> tuple[Instance, Cut]:
    """The instance with epi(z) cut by a hyperplane h.x = h.x* through relint.

    x* is the x-part of a relative-interior point of the lifted epigraph and h
    a nonzero integer vector.  The two opposite linking rows h.x <= h.x* and
    -h.x <= -h.x* (zero A-part) do the pinning, so the lifted epigraph gains an
    implicit equality.  Returns the pinned instance and the cut h.x <= h.x*,
    which holds with equality on all of its epi(z).
    """
    n, k = inst.n, inst.k
    relint = relative_interior_point(epigraph_rows(inst), n + k + 1)
    h = (F(0),) * n
    while not any(h):
        h = tuple(F(rng.randint(-3, 3)) for _ in range(n))
    level = dot(h, relint[:n])
    flat = replace(inst, m=inst.m + 2, H=inst.H + (h, tuple(-v for v in h)),
                   A=inst.A + ((F(0),) * k,) * 2, b=inst.b + (level, -level))
    return flat, Cut(coef_x=h, coef_eta=F(0), rhs=level)


_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
