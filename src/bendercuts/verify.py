"""Independent oracles for every cut property the toolkit claims.

Nothing in here trusts the separation machinery: face dimensions come from
the implicit equalities of the instance's rows and the cut's, the
minimal-infeasible-subsystem test is one exact rank test on the support's
rows, vertices are enumerated by brute force over row subsets, and Pareto
verdicts follow the tight-point characterization over the relative interior
of the master set.
Each oracle is one LP or one RREF, and each rests on a theorem its docstring
proves.  These run the acceptance suite and double as regression oracles, so
they favor being obviously correct over being fast.

The face LP, the Pareto LP and the core-point LP solve over (x, y) on the
rows of one builder, `model.tight_rows`: Hx + Ay <= b, then, for a cut with
a = -coef_eta >= 0, the epigraph row d.y - eta <= 0 times a plus the cut's
reversed row, which projects eta out: -coef_x.x + a d.y <= -rhs.  The face
LP finds the implicit equalities of those rows; `_affine_dimension` proves
that they give the face dimension the lifted rows over (x, y, eta) give, and
that a cut with coef_eta > 0 exposes no face.  The Pareto LP maximizes one shared slack s
over the cut's tight points with x in the master set.  There eta comes from
the cut's own equation, eta = (coef_x.x - rhs) / a, which turns the epigraph
row into the same projected row, and on a finite master x comes from the
mix, x = sum lambda_i p_i.  Its master rows, or mix rows, come first, so the
free-column start pivots each x_j into its own master row.  Both
substitutions are bijections between the feasible sets that keep s, so s*,
and with it every verdict, is the one the LP over (x, y, eta) gives; only
the witness, the optimal vertex Bland's rule picks, may differ
(`pareto_verdict` proves this).  The core-point LP finds a relative-interior
point (x*, y*) of the master rows and Hx + Ay <= b, and eta = d.y* + 1 lifts
it into the relative interior of the master-epigraph set (`core_point`
proves this).

Two facts depend on the instance alone and are computed once per instance:
the affine dimension of epi(z) (`Instance.epi_affine_dimension`) and the
implicit equalities of a polyhedral master set
(`PolyhedralDomain.implicit_mask`).  Each is cached on the frozen object that
determines it, so repeated reports on one instance skip those LPs.  They stay
independent of the separation code: both come from one implicit-equality LP
over the instance's own rows (and, for the dimension, two ranks), never from
a cut, a certificate or a separation result, and the cache changes when they
are computed, not what.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import DominanceUndefined, InfeasibleCandidate, TooLarge
from .linalg import Vector, as_vector, dot, matrix_rank, rref, sized, solve_square
from .model import (EpiPoint, FiniteDomain, Instance, PolyhedralDomain, _relative_interior,
                    epi_dimension, epi_face_dimension, feasibility_rows, subproblem_value,
                    tight_rows)
from .separation import Certificate, Cut
from .simplex import EQ, LE, LinearProgram, LpStatus, solve, violated_row

_ZERO = Fraction(0)
_ONE = Fraction(1)

_VERTEX_VAR_LIMIT = 12
_VERTEX_BASIS_LIMIT = 200_000


class FaceClass(str, Enum):
    NON_SUPPORTING = "non_supporting"
    SUPPORTING = "supporting"
    FACET_DEFINING = "facet_defining"
    CONTAINS_EPI = "contains_epi"


@dataclass(frozen=True, slots=True)
class FaceReport:
    face_dimension: int
    epi_dimension: int
    classification: FaceClass


class ParetoKind(str, Enum):
    PARETO = "pareto"
    NOT_PARETO = "not_pareto"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True, slots=True)
class ParetoVerdict:
    kind: ParetoKind
    witness: Optional[EpiPoint] = None


def face_report(instance: Instance, cut: Cut) -> FaceReport:
    """Dimension of the face the cut exposes, against the epigraph's own.

    A cut whose right-hand side differs from the support function value gets
    face dimension -1: either it misses epi(z) or it slices into it.  One
    implicit-equality LP tells both apart from a face and measures the face
    (`epi_face_dimension`), so no support LP runs.
    """
    epi_dim = epi_dimension(instance)
    face_dim = epi_face_dimension(instance, cut.coef_x, cut.coef_eta, cut.rhs)
    if face_dim < 0:
        return FaceReport(-1, epi_dim, FaceClass.NON_SUPPORTING)
    if face_dim == epi_dim:
        cls = FaceClass.CONTAINS_EPI
    elif face_dim == epi_dim - 1:
        cls = FaceClass.FACET_DEFINING
    else:
        cls = FaceClass.SUPPORTING
    return FaceReport(face_dim, epi_dim, cls)


def is_mis_certificate(instance: Instance, point: EpiPoint, cert: Certificate) -> bool:
    """Does the certificate's support pick out a minimal infeasible subsystem?

    The subsystem S of the point's feasibility rows a_i . y <= r_i indexed by
    the nonzero multipliers must be infeasible, and dropping any single row of
    it must restore feasibility.  That holds exactly when the rows [a_i | r_i],
    i in S, are linearly independent and the unique u with
    u'[A_S | r_S] = (0, -1) is positive, so one RREF of that transposed system
    decides it (the vertices of the alternative polyhedron have exactly the
    minimal infeasible subsystems as supports: Gleeson and Ryan, 1990).

    Proof.  Such a u is a Farkas vector of S, so S is infeasible.  A proper
    subset T infeasible would have a Farkas vector v >= 0 on T, scaled to
    v'[A_S | r_S] = (0, -1) with zeros off T; that is a second solution, as u
    has no zero.  Conversely, let S be minimal infeasible.  Any Farkas vector
    v of S, scaled as above, is positive on S, since its support certifies an
    infeasible subset.  A nonzero w with w'[A_S | r_S] = 0 would let v + e w,
    for some real e, reach a zero entry while staying a nonnegative Farkas
    vector, so the rows are independent and v is the unique u.
    """
    sized(cert.row_multipliers, instance.m, "certificate.row_multipliers")
    rows = feasibility_rows(instance, point)
    support = cert.support
    if not support:
        return False
    width = len(support)
    # column i holds row support[i] of S; the last column is the right side (0, -1)
    system = [[rows[i][0][j] for i in support] + [_ZERO] for j in range(instance.k)]
    system.append([rows[i][2] for i in support] + [-_ONE])
    reduced, pivots = rref(system)
    return pivots == list(range(width)) and all(row[width] > 0 for row in reduced)


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
        if sol is not None and violated_row(rows, sol) is None:
            found.add(sol)
    return tuple(sorted(found))


def is_vertex(lp: LinearProgram, candidate) -> bool:
    """Feasible and with tight rows of full rank."""
    rows, dim = lp.normalized_rows, lp.num_vars
    candidate = sized(as_vector(candidate), dim, "candidate")
    if violated_row(rows, candidate) is not None:
        raise InfeasibleCandidate("candidate violates the system")
    tight = [coeffs for coeffs, _, rhs in rows if dot(coeffs, candidate) == rhs]
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
    """A point in the relative interior of the rows' solution set: on every
    implicit equality and strictly inside every other row.

    The implicit-equality LP ends at such a point (see `_relative_interior`).
    None when the set is empty.
    """
    rows = LinearProgram("min", (_ZERO,) * dim, tuple(rows)).normalized_rows
    found = _relative_interior(rows, dim)
    return None if found is None else found[1]


def core_point(instance: Instance) -> Optional[EpiPoint]:
    """A relative-interior point of the feasible master-epigraph set.

    For a polyhedral master set this is relint of epi(z) restricted to it:
    (x*, d.y* + 1), with (x*, y*) a relative-interior point of the master
    rows and the rows of `tight_rows` over (x, y).  Proof: that restriction
    is the (x, eta) projection of the lifted set of those rows and
    d.y - eta <= 0 over (x, y, eta).  Only the last row reads eta, which is
    free upwards, so it is never implicit and the other rows' implicit ones
    are those over (x, y).  So (x*, y*, d.y* + 1) lies on every implicit row
    and strictly inside every other one: it is in the lifted set's relative
    interior, and a linear image of a relative interior is the relative
    interior of the image (Rockafellar, Convex Analysis, Thms 6.5-6.6).  For
    a finite master, an equal-weight mix of the reachable points pushed 1
    above the value function.  None when nothing is feasible.
    """
    n, k = instance.n, instance.k
    dom = instance.master_domain
    if isinstance(dom, PolyhedralDomain):
        sol = relative_interior_point(dom.rows(k) + tight_rows(instance), n + k)
        if sol is None:
            return None
        return EpiPoint(x=sol[:n], eta=dot(instance.d, sol[n:]) + _ONE)
    reachable = []
    for p in dom.points:
        z = subproblem_value(instance, p)
        if z == math.inf:
            continue
        reachable.append((p, instance.eta_lower_bound if z == -math.inf else z))
    if not reachable:
        return None
    mix = (Fraction(1, len(reachable)),) * len(reachable)
    points, values = zip(*reachable)
    return EpiPoint(x=tuple(dot(mix, column) for column in zip(*points)),
                    eta=dot(mix, values) + _ONE)


def pareto_verdict(instance: Instance, cut: Cut) -> ParetoVerdict:
    """Pareto test: is the cut tight somewhere over relint of the master set?

    Only cuts that actually bound eta qualify; anything with a zero eta
    coefficient is out of scope for domination comparisons.

    The cut is Pareto when the system Hx + Ay <= b, d.y - eta <= 0,
    coef_x.x + coef_eta eta = rhs, with x in the master set, has a solution
    whose x leaves every master row that is not implicit by some s > 0: for a
    finite master, x = sum lambda_i p_i with sum lambda = 1 and every
    lambda_i >= s.  One LP maximizes s in [0, 1] (`_max_shared_slack`), over
    the system with two substitutions:

    * with a = -coef_eta > 0 the cut's equation reads
      eta = (coef_x.x - rhs) / a, so eta and that equation go, and the
      epigraph row times a reads -coef_x.x + a d.y <= -rhs, the row that
      `tight_rows` appends to Hx + Ay <= b, as it does for the face LP;
    * on a finite master x = sum lambda_i p_i, so x and its n `=` rows go,
      and each row's x part c.x reads sum lambda_i c.p_i.

    The columns are (x, y), or (lambda, y), then s.  The master rows, or the
    mix rows, come first, as in the master LP and `core_point`, so the
    free-column start pivots each x_j into its own master row rather than
    into an epigraph row.

    The LP's s* is the system's.  Proof: dropping eta, and on a finite
    master x, maps the system's solutions onto the LP's feasible set, and
    setting x = sum lambda_i p_i and eta = (coef_x.x - rhs) / a maps back.
    The cut's equation holds exactly at that eta, as a != 0; the epigraph row
    holds exactly when a times it does, as a > 0; the `=` rows of x hold
    exactly at that x; and no other row reads eta, or on a finite master x.
    So the map is a bijection that keeps s: both reach the same s*, or are
    both infeasible, and rows and columns in another order bound the same
    set.  Only the optimal vertex that Bland's rule picks may differ.  The
    witness is (x, (coef_x.x - rhs) / a) at that vertex: on the cut by
    construction, and in epi(z), since z(x) <= d.y <= eta at the LP's y.
    """
    sized(cut.coef_x, instance.n, "cut.coef_x")
    if cut.coef_eta >= 0:
        return ParetoVerdict(ParetoKind.NOT_APPLICABLE)
    n, k, a = instance.n, instance.k, -cut.coef_eta
    dom = instance.master_domain
    epi = tight_rows(instance, (cut.coef_x, cut.coef_eta, cut.rhs))
    if isinstance(dom, PolyhedralDomain):
        mask = dom.implicit_mask
        if mask is None:
            return ParetoVerdict(ParetoKind.NOT_PARETO)
        rows = [(coeffs, EQ if implicit else LE, gi)
                for (coeffs, _, gi), implicit in zip(dom.rows(k), mask)]
        slacked = [not implicit for implicit in mask]
        rows += epi
        lower = (None,) * (n + k)
    else:
        points, y0 = dom.points, (_ZERO,) * k
        # sum lambda = 1, then lambda_i >= s
        rows = [((_ONE,) * len(points) + y0, EQ, _ONE)]
        rows += [(tuple(-_ONE if i == j else _ZERO for j in range(len(points))) + y0, LE, _ZERO)
                 for i in range(len(points))]
        slacked = [False] + [True] * len(points)
        rows += [(tuple(dot(c[:n], p) for p in points) + c[n:], LE, r) for c, _, r in epi]
        lower = (_ZERO,) * len(points) + (None,) * k
    sol = _max_shared_slack(rows, slacked + [False] * len(epi), lower)
    if sol is None:
        return ParetoVerdict(ParetoKind.NOT_PARETO)
    x = (sol[:n] if isinstance(dom, PolyhedralDomain) else
         tuple(dot(sol[:len(dom.points)], column) for column in zip(*dom.points)))
    return ParetoVerdict(ParetoKind.PARETO,
                         witness=EpiPoint(x=x, eta=(dot(cut.coef_x, x) - cut.rhs) / a))


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
    sized(a.coef_x, instance.n, "cut a.coef_x")
    sized(b.coef_x, instance.n, "cut b.coef_x")
    coeffs, offset = _eta_bound_gap(a, b)
    dom = instance.master_domain
    if isinstance(dom, FiniteDomain):
        gaps = [dot(coeffs, p) + offset for p in dom.points]
        return all(g >= 0 for g in gaps) and any(g > 0 for g in gaps)
    rows = dom.rows()
    low = solve(LinearProgram("min", coeffs, rows))
    if low.status == LpStatus.INFEASIBLE:
        return False
    if low.status == LpStatus.UNBOUNDED or low.objective_value + offset < 0:
        return False
    high = solve(LinearProgram("max", coeffs, rows))
    if high.status == LpStatus.UNBOUNDED:
        return True
    return high.objective_value + offset > 0
