"""Random desk-scale instances for property tests and experiments.

All generators take a random.Random so runs are reproducible from a seed.
Instances are anchored on a known feasible (x0, y0), which keeps epi(z)
nonempty without biasing the row data.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from .linalg import dot
from .model import (EpiPoint, FiniteDomain, Instance, PolyhedralDomain,
                    subproblem_value)


def _coeff(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi))


def random_instance(rng: random.Random, *, n_max: int = 3, k_max: int = 3,
                    m_max: int = 5, lo: int = -5, hi: int = 5,
                    finite: bool = False) -> Instance:
    n = rng.randint(1, n_max)
    k = rng.randint(1, k_max)
    m = rng.randint(1, m_max)
    H = tuple(tuple(_coeff(rng, lo, hi) for _ in range(n)) for _ in range(m))
    A = tuple(tuple(_coeff(rng, lo, hi) for _ in range(k)) for _ in range(m))
    x0 = tuple(Fraction(rng.randint(0, 3)) for _ in range(n))
    y0 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(k))
    b = tuple(dot(H[i], x0) + dot(A[i], y0) + rng.randint(0, 3) for i in range(m))
    c = tuple(_coeff(rng, lo, hi) for _ in range(n))
    d = tuple(_coeff(rng, lo, hi) for _ in range(k))
    if finite:
        points = {x0}
        while len(points) < rng.randint(2, 4):
            points.add(tuple(Fraction(rng.randint(0, 4)) for _ in range(n)))
        master = FiniteDomain(points=tuple(sorted(points)))
    else:
        identity = tuple(tuple(Fraction(-1 if i == j else 0) for j in range(n))
                         for i in range(n))
        master = PolyhedralDomain(G=identity, g=(Fraction(0),) * n)
    return Instance(n=n, k=k, m=m, c=c, d=d, H=H, A=A, b=b,
                    master_domain=master, eta_lower_bound=Fraction(-50))


def separable_point(rng: random.Random, instance: Instance, *,
                    tries: int = 40) -> Optional[EpiPoint]:
    """A point strictly outside epi(z), or None if none was found."""
    for _ in range(tries):
        x = tuple(Fraction(rng.randint(0, 4)) for _ in range(instance.n))
        z = subproblem_value(instance, x)
        if z == math.inf:
            return EpiPoint(x=x, eta=Fraction(rng.randint(-3, 3)))
        if z == -math.inf:
            continue
        return EpiPoint(x=x, eta=z - rng.randint(1, 3))
    return None


def interior_epi_point(rng: random.Random, instance: Instance, *,
                       tries: int = 40) -> Optional[EpiPoint]:
    """A point strictly above the value function, or None."""
    for _ in range(tries):
        x = tuple(Fraction(rng.randint(0, 4)) for _ in range(instance.n))
        z = subproblem_value(instance, x)
        if isinstance(z, Fraction):
            return EpiPoint(x=x, eta=z + rng.randint(1, 3))
    return None


def scale_rows(instance: Instance, factors) -> Instance:
    """Same feasible set, each linking row multiplied by a positive factor."""
    factors = tuple(Fraction(f) for f in factors)
    if len(factors) != instance.m or any(f <= 0 for f in factors):
        raise ValueError("need one positive factor per linking row")
    return Instance(
        n=instance.n, k=instance.k, m=instance.m, c=instance.c, d=instance.d,
        H=tuple(tuple(f * v for v in row) for f, row in zip(factors, instance.H)),
        A=tuple(tuple(f * v for v in row) for f, row in zip(factors, instance.A)),
        b=tuple(f * v for f, v in zip(factors, instance.b)),
        master_domain=instance.master_domain,
        eta_lower_bound=instance.eta_lower_bound,
    )
