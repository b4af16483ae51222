"""Independent oracles for every cut property the toolkit claims.

Nothing in here trusts the separation machinery: face dimensions come from
rank growth over the epigraph, the minimal-infeasible-subsystem test deletes
rows one at a time, vertices are enumerated by brute force over row subsets,
and Pareto verdicts follow the tight-point characterization over the relative
interior of the master set.  These run the acceptance suite and double as
regression oracles, so they favor being obviously correct over being fast.

Two facts depend on the instance alone and are computed once per instance:
the affine dimension of epi(z) (`Instance.epi_affine_dimension`, which also
bounds the face search) and the implicit equalities of a polyhedral master
set (`PolyhedralDomain.implicit_mask`).  Each is cached on the frozen object
that determines it, so repeated reports on one instance skip those LPs.  They
stay independent of the separation code: both come from rank growth and LP
probes over the instance's own rows, never from a cut, a certificate or a
separation result, and the cache changes when they are computed, not what.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import DimensionError, DominanceUndefined, InfeasibleCandidate, TooLarge
from .linalg import Vector, as_vector, dot, matrix_rank, solve_square
from .model import (EpiPoint, FiniteDomain, Instance, PolyhedralDomain, _implicit_mask,
                    epi_dimension, epi_face_dimension, epigraph_rows, feasibility_rows,
                    subproblem_value, support_function)
from .separation import Certificate, Cut
from .simplex import EQ, LE, LinearProgram, LpStatus, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)

_VERTEX_VAR_LIMIT = 12
_VERTEX_BASIS_LIMIT = 200_000


class FaceClass(str, Enum):
    NON_SUPPORTING = "non_supporting"
    SUPPORTING = "supporting"
    FACET_DEFINING = "facet_defining"
    CONTAINS_EPI = "contains_epi"


@dataclass(frozen=True)
class FaceReport:
    face_dimension: int
    epi_dimension: int
    classification: FaceClass


class ParetoKind(str, Enum):
    PARETO = "pareto"
    NOT_PARETO = "not_pareto"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class ParetoVerdict:
    kind: ParetoKind
    witness: Optional[EpiPoint] = None


def face_report(instance: Instance, cut: Cut) -> FaceReport:
    """Dimension of the face the cut exposes, against the epigraph's own.

    A cut whose right-hand side differs from the support function value gets
    face dimension -1: either it misses epi(z) or it slices into it.
    """
    epi_dim = epi_dimension(instance)
    h = support_function(instance, cut.coef_x, cut.coef_eta)
    if h != cut.rhs:
        return FaceReport(-1, epi_dim, FaceClass.NON_SUPPORTING)
    face_dim = epi_face_dimension(instance, cut.coef_x, cut.coef_eta, cut.rhs)
    if face_dim == epi_dim:
        cls = FaceClass.CONTAINS_EPI
    elif face_dim == epi_dim - 1:
        cls = FaceClass.FACET_DEFINING
    else:
        cls = FaceClass.SUPPORTING
    return FaceReport(face_dim, epi_dim, cls)


def _rows_feasible(rows, num_vars: int) -> bool:
    lp = LinearProgram("min", (_ZERO,) * num_vars, tuple(rows))
    return solve(lp).status == LpStatus.OPTIMAL


def is_mis_certificate(instance: Instance, point: EpiPoint, cert: Certificate) -> bool:
    """Does the certificate's support pick out a minimal infeasible subsystem?

    The subsystem of the point's feasibility rows indexed by the nonzero
    multipliers must be infeasible, and dropping any single row of it must
    restore feasibility.
    """
    rows = feasibility_rows(instance, point)
    support = cert.support
    if not support:
        return False
    picked = [rows[i] for i in support]
    if _rows_feasible(picked, instance.k):
        return False
    for drop in range(len(picked)):
        rest = picked[:drop] + picked[drop + 1:]
        if not _rows_feasible(rest, instance.k):
            return False
    return True


def enumerate_vertices(lp: LinearProgram) -> tuple[Vector, ...]:
    """All vertices of the feasible set, by exhaustive row-subset enumeration."""
    rows, dim = lp.normalized_rows, lp.num_vars
    if dim > _VERTEX_VAR_LIMIT:
        raise TooLarge(f"vertex enumeration is capped at {_VERTEX_VAR_LIMIT} variables")
    if math.comb(len(rows), dim) > _VERTEX_BASIS_LIMIT:
        raise TooLarge("too many row subsets to enumerate")
    found = set()
    for subset in combinations(range(len(rows)), dim):
        sol = solve_square([rows[i][0] for i in subset], [rows[i][2] for i in subset])
        if sol is None:
            continue
        ok = True
        for coeffs, rel, rhs in rows:
            v = dot(coeffs, sol)
            if v > rhs or (rel == EQ and v != rhs):
                ok = False
                break
        if ok:
            found.add(sol)
    return tuple(sorted(found))


def is_vertex(lp: LinearProgram, candidate) -> bool:
    """Feasible and with tight rows of full rank."""
    rows, dim = lp.normalized_rows, lp.num_vars
    candidate = as_vector(candidate)
    if len(candidate) != dim:
        raise DimensionError(f"candidate has {len(candidate)} entries, expected {dim}")
    tight = []
    for coeffs, rel, rhs in rows:
        v = dot(coeffs, candidate)
        if v > rhs or (rel == EQ and v != rhs):
            raise InfeasibleCandidate("candidate violates the system")
        if v == rhs:
            tight.append(coeffs)
    return matrix_rank(tight) == dim


def _max_shared_slack(rows, slacked, lower) -> Optional[Vector]:
    """Maximize one slack s in [0, 1] that every slacked row must leave.

    Slacked rows read coeffs . v + s <= rhs, the others stay as given; the
    slack is the last column, after the len(lower) columns of v.  Returns v,
    or None when no positive slack fits.
    """
    dim = len(lower)
    lp = LinearProgram(
        "max",
        (_ZERO,) * dim + (_ONE,),
        tuple((coeffs + (_ONE if slack else _ZERO,), rel, rhs)
              for (coeffs, rel, rhs), slack in zip(rows, slacked)),
        lower=lower + (_ZERO,),
        upper=(None,) * dim + (_ONE,),
    )
    out = solve(lp)
    if out.status != LpStatus.OPTIMAL or out.objective_value == 0:
        return None
    return out.primal[:dim]


def relative_interior_point(rows, dim: int) -> Optional[Vector]:
    """A point in the relative interior of the rows' solution set.

    Implicit equalities are pinned, every other inequality gets one shared
    positive slack, and the slack is maximized (capped at 1).  None when the
    set is empty.
    """
    rows = LinearProgram("min", (_ZERO,) * dim, tuple(rows)).normalized_rows
    mask = _implicit_mask(rows)
    if mask is None:
        return None
    pinned = [(coeffs, EQ if implicit else LE, rhs)
              for (coeffs, _, rhs), implicit in zip(rows, mask)]
    return _max_shared_slack(pinned, [not implicit for implicit in mask], (None,) * dim)


def core_point(instance: Instance) -> Optional[EpiPoint]:
    """A relative-interior point of the feasible master-epigraph set.

    For a polyhedral master set this is relint of epi(z) restricted to it; for
    a finite one, an equal-weight mix of the reachable points pushed strictly
    above the value function.  None when nothing is feasible.
    """
    n, k = instance.n, instance.k
    dom = instance.master_domain
    if isinstance(dom, PolyhedralDomain):
        rows = [(tuple(grow) + (_ZERO,) * (k + 1), LE, gi) for grow, gi in zip(dom.G, dom.g)]
        rows.extend(epigraph_rows(instance))
        sol = relative_interior_point(rows, n + k + 1)
        if sol is None:
            return None
        return EpiPoint(x=sol[:n], eta=sol[n + k])
    reachable = []
    for p in dom.points:
        z = subproblem_value(instance, p)
        if z == math.inf:
            continue
        reachable.append((p, instance.eta_lower_bound if z == -math.inf else z))
    if not reachable:
        return None
    s = Fraction(1, len(reachable))
    x = tuple(sum((s * p[j] for p, _ in reachable), _ZERO) for j in range(n))
    eta = sum((s * z for _, z in reachable), _ZERO) + _ONE
    return EpiPoint(x=x, eta=eta)


def _tight_cut_row(instance: Instance, cut: Cut, extra: int):
    coeffs = cut.coef_x + (_ZERO,) * instance.k + (cut.coef_eta,) + (_ZERO,) * extra
    return (coeffs, EQ, cut.rhs)


def pareto_verdict(instance: Instance, cut: Cut) -> ParetoVerdict:
    """Pareto test: is the cut tight somewhere over relint of the master set?

    Only cuts that actually bound eta qualify; anything with a zero eta
    coefficient is out of scope for domination comparisons.
    """
    if cut.coef_eta >= 0:
        return ParetoVerdict(ParetoKind.NOT_APPLICABLE)
    n, k = instance.n, instance.k
    dom = instance.master_domain
    lift = epigraph_rows(instance)
    if isinstance(dom, PolyhedralDomain):
        mask = dom.implicit_mask
        if mask is None:
            return ParetoVerdict(ParetoKind.NOT_PARETO)
        rows = list(lift)
        rows.append(_tight_cut_row(instance, cut, extra=0))
        slacked = [False] * len(rows)
        for grow, gi, implicit in zip(dom.G, dom.g, mask):
            rows.append((grow + (_ZERO,) * (k + 1), EQ if implicit else LE, gi))
            slacked.append(not implicit)
        lower = (None,) * (n + k + 1)
    else:
        points = dom.points
        s = len(points)
        # variables: (x, y, eta, mix weights), then the shared slack
        nvars = n + k + 1 + s
        rows = [(tuple(c) + (_ZERO,) * s, rel, rhs) for c, rel, rhs in lift]
        rows.append(_tight_cut_row(instance, cut, extra=s))
        for j in range(n):
            coeffs = [_ZERO] * nvars
            coeffs[j] = _ONE
            for i, p in enumerate(points):
                coeffs[n + k + 1 + i] = -p[j]
            rows.append((tuple(coeffs), EQ, _ZERO))
        rows.append(((_ZERO,) * (n + k + 1) + (_ONE,) * s, EQ, _ONE))
        slacked = [False] * len(rows)
        for i in range(s):
            coeffs = [_ZERO] * nvars
            coeffs[n + k + 1 + i] = -_ONE
            rows.append((tuple(coeffs), LE, _ZERO))
            slacked.append(True)
        lower = (None,) * (n + k + 1) + (_ZERO,) * s
    sol = _max_shared_slack(rows, slacked, lower)
    if sol is None:
        return ParetoVerdict(ParetoKind.NOT_PARETO)
    return ParetoVerdict(ParetoKind.PARETO, witness=EpiPoint(x=sol[:n], eta=sol[n + k]))


def _eta_bound_gap(a: Cut, b: Cut) -> tuple[Vector, Fraction]:
    """Affine map x -> bound_a(x) - bound_b(x) of the implied eta bounds."""
    sa, sb = -a.coef_eta, -b.coef_eta
    coeffs = tuple(va / sa - vb / sb for va, vb in zip(a.coef_x, b.coef_x))
    offset = -a.rhs / sa + b.rhs / sb
    return coeffs, offset


def dominates(instance: Instance, a: Cut, b: Cut) -> bool:
    """Does cut a imply an eta bound at least b's everywhere on the master set,
    and strictly better somewhere on it?"""
    if a.coef_eta >= 0 or b.coef_eta >= 0:
        raise DominanceUndefined("domination compares eta bounds; both cuts"
                                 " need a negative eta coefficient")
    coeffs, offset = _eta_bound_gap(a, b)
    dom = instance.master_domain
    if isinstance(dom, FiniteDomain):
        gaps = [dot(coeffs, p) + offset for p in dom.points]
        return all(g >= 0 for g in gaps) and any(g > 0 for g in gaps)
    rows = tuple((g, LE, gi) for g, gi in zip(dom.G, dom.g))
    low = solve(LinearProgram("min", coeffs, rows))
    if low.status == LpStatus.INFEASIBLE:
        return False
    if low.status == LpStatus.UNBOUNDED or low.objective_value + offset < 0:
        return False
    high = solve(LinearProgram("max", coeffs, rows))
    if high.status == LpStatus.UNBOUNDED:
        return True
    return high.objective_value + offset > 0
