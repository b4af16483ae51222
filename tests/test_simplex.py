from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from bendercuts import benders
from bendercuts.cglp import build_cglp_relaxed_subproblem, mis_objective
from bendercuts.linalg import SMALL, dot
from bendercuts.model import EpiPoint, _subproblem
from bendercuts.simplex import (_STARTS, EQ, GE, LE, LinearProgram, LpOutcome, LpStatus,
                                _Tableau, check_outcome, session, solve)

from conftest import P1_CUT

ints = st.integers(-5, 5)


# max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
TWO_VAR_MAX = LinearProgram("max", (F(1), F(1)),
                            (((F(1), F(2)), LE, F(4)), ((F(3), F(1)), LE, F(6))),
                            lower=(F(0), F(0)))


def test_two_var_optimum():
    out = solve(TWO_VAR_MAX)
    assert out.status == LpStatus.OPTIMAL
    assert out.primal == (F(8, 5), F(6, 5))
    assert out.objective_value == F(14, 5)


def test_equality_and_ge_rows():
    lp = LinearProgram("min", (F(1), F(0)),
                       (((F(1), F(1)), EQ, F(3)), ((F(1), F(-1)), GE, F(1))),
                       lower=(F(0), F(0)))
    out = solve(lp)
    assert out.status == LpStatus.OPTIMAL
    assert out.primal == (F(2), F(1))


def test_free_variables():
    lp = LinearProgram("min", (F(1),), (((F(1),), GE, F(-7)),))
    out = solve(lp)
    assert out.status == LpStatus.OPTIMAL
    assert out.primal == (F(-7),)


# Every "<=" row of this LP has a negative right side after normalization
# except the second, so two of the three rows are sigma-flipped, and the
# Farkas vector is read from flipped and unflipped slacks alike.
FLIPPED_LE_ROWS = LinearProgram(
    "min", (F(2), F(1)),
    (((F(-2), F(-1)), LE, F(-1)), ((F(-1), F(-2)), LE, F(2)), ((F(2), F(2)), LE, F(-3))))

# min x1 over x1 - x2 <= 2, x2 <= 5, x2 >= 0: the start holds x1 in the first
# row, at 2, and x1 runs off to -inf as that row's slack grows.
HELD_FREE_BASIC_RUNS_DOWN = LinearProgram("min", (F(1), F(0)),
                                          (((F(1), F(-1)), LE, F(2)), ((F(0), F(1)), LE, F(5))),
                                          lower=(None, F(0)))


@pytest.mark.parametrize("lp", [
    pytest.param(LinearProgram("min", (F(0),), (((F(1),), LE, F(-1)), ((F(-1),), LE, F(0)))),
                 id="one_var"),
    pytest.param(FLIPPED_LE_ROWS, id="flipped_le_rows"),
])
def test_infeasible_gives_farkas(lp):
    out = solve(lp)
    assert out.status == LpStatus.INFEASIBLE
    f = out.farkas
    assert f is not None and all(v >= 0 for v in f)
    # multipliers kill the coefficients and expose a negative right-hand side
    norm = lp.normalized_rows
    combo = [sum(f[i] * norm[i][0][j] for i in range(len(norm))) for j in range(lp.num_vars)]
    assert combo == [F(0)] * lp.num_vars
    assert sum(f[i] * norm[i][2] for i in range(len(norm))) < 0


@pytest.mark.parametrize("lp", [
    pytest.param(LinearProgram("max", (F(1),), (((F(-1),), LE, F(0)),)), id="one_var"),
    # the id names the direction of x1's ray, as in test_free_column_zero_on_every_row
    pytest.param(HELD_FREE_BASIC_RUNS_DOWN, id="ray_along_x_minus"),
])
def test_unbounded_gives_ray(lp):
    out = solve(lp)
    assert out.status == LpStatus.UNBOUNDED
    assert out.ray is not None
    gain = dot(lp.objective, out.ray)
    assert (gain > 0) if lp.sense == "max" else (gain < 0)
    assert all(dot(coeffs, out.ray) <= 0 for coeffs, _, _ in lp.normalized_rows)


# The tableau stores one column per variable and walks a sign-free column
# with a positive reduced cost downwards, it reads a "<=" row's multiplier
# from its slack, and it shifts a lower-bounded x_j by its bound and reads the
# bound's multiplier from x_j's reduced cost.  Each LP below makes Bland's
# rule enter, leave or read one of those columns; the outcomes are pinned
# exactly, and their certificates checked.
@pytest.mark.parametrize("lp, expected, phases", [
    pytest.param(  # the start holds x1 in the row, where it ends at a negative value;
        # x2 rests on its lower bound -1, whose dual -1 is read off x2's reduced cost
        LinearProgram("min", (F(1), F(2)), (((F(1), F(1)), GE, F(-4)),), lower=(None, F(-1))),
        LpOutcome(LpStatus.OPTIMAL, primal=(F(-3), F(-1)), objective_value=F(-5),
                  dual=(F(-1), F(-1))),
        None, id="held_free_basic_ends_negative"),
    pytest.param(HELD_FREE_BASIC_RUNS_DOWN,
                 LpOutcome(LpStatus.UNBOUNDED, primal=(F(2), F(0)), ray=(F(-1), F(0))),
                 None, id="held_free_basic_runs_down"),
    pytest.param(  # min x2 over x1 <= 5, x1 >= 0, x2 free: x2 is zero on every row,
        # so no row holds it; its reduced cost 1 walks it downwards
        LinearProgram("min", (F(0), F(1)), (((F(1), F(0)), LE, F(5)),), lower=(F(0), None)),
        LpOutcome(LpStatus.UNBOUNDED, primal=(F(0), F(0)), ray=(F(0), F(-1))),
        None, id="free_column_walks_down"),
    pytest.param(  # min x2 over x1 + x2 = 0, both free: the start holds x1 in the row,
        # x2's reduced cost 1 walks it downwards, and the held x1 moves up with it
        LinearProgram("min", (F(0), F(1)), (((F(1), F(1)), EQ, F(0)),)),
        LpOutcome(LpStatus.UNBOUNDED, primal=(F(0), F(0)), ray=(F(1), F(-1))),
        None, id="downward_ray_moves_a_held_basic"),
    pytest.param(  # x1 + x2 >= 2 normalizes to a negative right side (sigma = -1); its
        # artificial is still basic, at 0, when phase one ends, and phase two's
        # entering slack of the first row is -1 on it, so it leaves at ratio 0
        LinearProgram("min", (F(1), F(3)), (((F(1), F(1)), LE, F(2)), ((F(1), F(1)), GE, F(2))),
                      lower=(F(0), F(0))),
        LpOutcome(LpStatus.OPTIMAL, primal=(F(2), F(0)), objective_value=F(2),
                  dual=(F(0), F(-1), F(0), F(-2))),
        None, id="ge_row_sigma_minus_driven_out"),
    pytest.param(  # the "<=" row is twice the equality row, so the dual of the
        # degenerate optimum may weigh either of the two
        LinearProgram("max", (F(1), F(2)),
                      (((F(1), F(1)), EQ, F(3)), ((F(2), F(2)), LE, F(6)), ((F(1), F(0)), GE, F(1))),
                      lower=(F(0), F(0))),
        LpOutcome(LpStatus.OPTIMAL, primal=(F(1), F(2)), objective_value=F(5),
                  dual=(F(0), F(-1), F(-1), F(0), F(0))),
        None, id="redundant_le_row"),
    # the second row starts with its slack basic; the Farkas vector is 2/3 of
    # (1, 1, 3/2), the one an artificial start gives: the same ray of the cone
    pytest.param(FLIPPED_LE_ROWS,
                 LpOutcome(LpStatus.INFEASIBLE, farkas=(F(2, 3), F(2, 3), F(1))),
                 None, id="farkas_reads_le_slacks"),
    pytest.param(  # min 2 x1 + x2 over x1 + x2 >= 1, x1 >= 1, x2 >= -2: x1 rests on
        # its bound, whose dual -1 is minus x1's reduced cost; x2's bound is slack
        LinearProgram("min", (F(2), F(1)), (((F(1), F(1)), GE, F(1)),), lower=(F(1), F(-2))),
        LpOutcome(LpStatus.OPTIMAL, primal=(F(1), F(0)), objective_value=F(2),
                  dual=(F(-1), F(-1), F(0))),
        None, id="dual_on_an_active_lower_bound"),
    pytest.param(  # x1 - x2 <= -1 with x1 >= -1 and x2 <= -3: the row, the lower
        # bound (its entry is x1's reduced cost) and the upper bound sum to 0 <= -3
        LinearProgram("min", (F(1), F(0)), (((F(1), F(-1)), LE, F(-1)),),
                      lower=(F(-1), None), upper=(None, F(-3))),
        LpOutcome(LpStatus.INFEASIBLE, farkas=(F(1), F(1), F(1))),
        None, id="farkas_on_bound_rows"),
    pytest.param(  # max x1 + x2 over x1 - x2 <= 1, x1 >= -3, x2 >= 2: the point has l
        # added back, and the ray along both shifted columns is as found
        LinearProgram("max", (F(1), F(1)), (((F(1), F(-1)), LE, F(1)),), lower=(F(-3), F(2))),
        LpOutcome(LpStatus.UNBOUNDED, primal=(F(3), F(2)), ray=(F(1), F(1))),
        None, id="ray_over_shifted_columns"),
    pytest.param(  # min -x3 over x1 + x2 = 2, x1 + x2 - x3 = 2, x >= 0: phase one
        # enters x1 into the first row, whose artificial wins the tie at ratio 2 by
        # its lower index, and leaves the second row as -x3 = 0 with its artificial
        # basic at 0; no column is positive on that row, so none prices below 0 and
        # phase one ends.  Phase two enters x3, which is -1 on that row, and the
        # row leaves at ratio 0
        LinearProgram("min", (F(0), F(0), F(-1)),
                      (((F(1), F(1), F(0)), EQ, F(2)), ((F(1), F(1), F(-1)), EQ, F(2))),
                      lower=(F(0), F(0), F(0))),
        LpOutcome(LpStatus.OPTIMAL, primal=(F(2), F(0), F(0)), objective_value=F(0),
                  dual=(F(-1), F(1), F(0), F(0), F(0))),
        [F(1), F(0)], id="zero_artificial_leaves_at_ratio_0"),
    pytest.param(  # min -x4 over x1 + x2 - x4 = 2, x1 + x2 - x3 - x4 = 2, x >= 0: phase
        # one leaves the second row as -x3 = 0, its artificial basic at 0, as above.
        # Phase two enters x4, which is -1 on x1's row and 0 on that one, so no row
        # bounds it: the artificial stays basic to the end, and the ray, which
        # moves x1 and x4 together, is 0 on its row
        LinearProgram("min", (F(0), F(0), F(0), F(-1)),
                      (((F(1), F(1), F(0), F(-1)), EQ, F(2)),
                       ((F(1), F(1), F(-1), F(-1)), EQ, F(2))), lower=(F(0),) * 4),
        LpOutcome(LpStatus.UNBOUNDED, primal=(F(2), F(0), F(0), F(0)),
                  ray=(F(1), F(0), F(0), F(1))),
        [F(1)], id="unbounded_past_a_zero_artificial"),
])
def test_free_slack_and_shifted_column_outcomes(lp, expected, phases):
    """phases, where a case pins it, is the art_cost of each pivot, as
    ``_phases`` reads it."""
    out, made = _phases(solve, lp)
    assert out == expected
    assert check_outcome(lp, out) is None
    assert phases is None or made == phases


def _feasible(lp, x):
    return all(dot(coeffs, x) <= rhs if rel == LE else dot(coeffs, x) == rhs
               for coeffs, rel, rhs in lp.normalized_rows)


def _phases(run, *args):
    """run(*args)'s result, and the art_cost of each pivot it made: 1 in
    phase one, 0 in phase two and at the free-column start."""
    phases = []
    pivot = _Tableau._pivot

    def counted(self, r, c):
        phases.append(self.art_cost)
        return pivot(self, r, c)

    with mock.patch.object(_Tableau, "_pivot", counted):
        return run(*args), phases


def test_slack_feasible_rows_need_no_phase_one_pivot():
    """Every normalized row is "<=" with a nonnegative right side, so phase
    one starts, and ends, at the slack basis; only phase two pivots."""
    lp = replace(TWO_VAR_MAX, upper=(F(3), None))
    assert all(rel == LE and rhs >= 0 for _, rel, rhs in lp.normalized_rows)
    out, phases = _phases(solve, lp)
    assert out.objective_value == F(14, 5) and check_outcome(lp, out) is None
    assert phases and F(1) not in phases


@pytest.mark.parametrize("run, expected, feasible_start", [
    pytest.param(lambda ex1: solve(build_cglp_relaxed_subproblem(
        ex1, EpiPoint((F(0),), F(0)), *mis_objective(ex1))),
        LpOutcome(LpStatus.OPTIMAL, primal=(F(14, 5), F(14, 5)), objective_value=F(14, 5),
                  dual=(F(0), F(0), F(-1, 5), F(-4, 5), F(0))),
        False, id="mis_cglp_at_the_origin"),
    pytest.param(lambda ex1: benders._solve_master(ex1, [P1_CUT]),
                 (EpiPoint((F(5, 2),), F(0)), F(5, 2), ()), False, id="master_after_one_cut"),
    # y is -1, -1 and -4 on the rows, whose right sides are all negative at x = 0
    pytest.param(lambda ex1: _subproblem(ex1, (F(0),)), (F(5), (F(5),)), True,
                 id="subproblem_at_x_0"),
])
def test_loop_lps_keep_their_pinned_results(ex1, run, expected, feasible_start):
    """The relaxed CGLP under MIS weights, the master after one cut and the
    subproblem keep their pinned results, which no change of start has moved.
    The subproblem's free y enters its first row, y >= 5, which binds, so the
    other rows start feasible and phase one makes no pivot."""
    result, phases = _phases(run, ex1)
    assert result == expected
    if feasible_start:
        assert phases and F(1) not in phases


def test_phase_one_repairs_a_short_row_without_free_columns():
    """min x1 + x2 over x1 >= 4, x1 - x2 <= 1, x >= 0: no column is free, so
    the short row starts on its artificial, and phase one pivots to a
    feasible basis, from which phase two finds the optimum."""
    lp = LinearProgram("min", (F(1), F(1)), (((F(-1), F(0)), LE, F(-4)),
                                             ((F(1), F(-1)), LE, F(1))),
                       lower=(F(0), F(0)))
    out, phases = _phases(solve, lp)
    assert F(1) in phases
    assert out == LpOutcome(LpStatus.OPTIMAL, primal=(F(4), F(3)), objective_value=F(7),
                            dual=(F(-2), F(-1), F(0), F(0)))
    assert check_outcome(lp, out) is None


def test_free_column_absorbs_an_equality_row():
    """min x1 + 2 x2 over x1 + x2 = 3, x1 - x2 <= 5, x2 >= 0, x1 free: x1 is
    pivoted into the "=" row, so no artificial is basic, the second row's
    right side stays 2 >= 0, and phase one makes no pivot."""
    lp = LinearProgram("min", (F(1), F(2)), (((F(1), F(1)), EQ, F(3)),
                                             ((F(1), F(-1)), LE, F(5))), lower=(None, F(0)))
    out, phases = _phases(solve, lp)
    assert phases == [F(0)]
    assert out == LpOutcome(LpStatus.OPTIMAL, primal=(F(3), F(0)), objective_value=F(3),
                            dual=(F(1), F(0), F(-1)))
    assert check_outcome(lp, out) is None


@pytest.mark.parametrize("cost, expected", [
    pytest.param(F(1), LpOutcome(LpStatus.UNBOUNDED, primal=(F(0), F(1), F(1)),
                                 ray=(F(-1), F(0), F(0))), id="ray_along_x_minus"),
    pytest.param(F(-1), LpOutcome(LpStatus.UNBOUNDED, primal=(F(0), F(1), F(1)),
                                  ray=(F(1), F(0), F(0))), id="ray_along_x_plus"),
    pytest.param(F(0), LpOutcome(LpStatus.OPTIMAL, primal=(F(0), F(1), F(1)),
                                 objective_value=F(1), dual=(F(-1), F(-1), F(0))),
                 id="no_cost"),
])
def test_free_column_zero_on_every_row(cost, expected):
    """min cost x1 + x3 over x2 = 1, x2 + x3 >= 2, x2 >= 0, x1 and x3 free:
    x3 is pivoted into the second row, and x1, zero on every row, finds no
    row and stays nonbasic; so it enters phase two only to prove the LP
    unbounded, and never when it costs nothing."""
    lp = LinearProgram("min", (cost, F(0), F(1)),
                       (((F(0), F(1), F(0)), EQ, F(1)), ((F(0), F(1), F(1)), GE, F(2))),
                       lower=(None, F(0), None))
    out = solve(lp)
    assert out == expected
    assert check_outcome(lp, out) is None


def test_infeasible_with_free_columns_gives_farkas():
    """x1 + x2 <= 1 and x1 >= 3 with x2 >= 0, x1 free: x1 is pivoted into the
    first row, the second then reads x2 + s1 + s2 = -2 and is flipped onto
    its artificial, which phase one cannot drive to 0.  The Farkas vector
    sums the two rows and the bound x2 >= 0 into 0 <= -2."""
    lp = LinearProgram("min", (F(0), F(1)), (((F(1), F(1)), LE, F(1)),
                                             ((F(-1), F(0)), LE, F(-3))), lower=(None, F(0)))
    out = solve(lp)
    assert out == LpOutcome(LpStatus.INFEASIBLE, farkas=(F(1), F(1), F(1)))
    assert check_outcome(lp, out) is None


def test_restated_equality_with_a_new_right_side_is_infeasible():
    """max x + y over x + y = 2 stated twice is optimal; with the second right
    side set to 3 it is infeasible, and its Farkas vector proves it."""
    rows = (((F(1), F(1)), EQ, F(2)), ((F(1), F(1)), EQ, F(2)))
    lp = LinearProgram("max", (F(1), F(1)), rows)
    assert solve(lp).status == LpStatus.OPTIMAL
    lp = replace(lp, rows=(rows[0], (rows[1][0], EQ, F(3))))
    out = solve(lp)
    assert out.status == LpStatus.INFEASIBLE
    assert check_outcome(lp, out) is None


@pytest.mark.parametrize("lp", [
    pytest.param(HELD_FREE_BASIC_RUNS_DOWN, id="ray_along_x_minus"),
    # max x over x - y <= 1, y >= 2: the ray leaves from a point with y > 0
    pytest.param(LinearProgram("max", (F(1), F(0)), (((F(1), F(-1)), LE, F(1)),),
                               lower=(None, F(2))), id="ray_off_the_origin"),
])
def test_unbounded_outcome_carries_a_feasible_point(lp):
    out = solve(lp)
    assert out.status == LpStatus.UNBOUNDED and check_outcome(lp, out) is None
    for t in (0, 1, 10):
        assert _feasible(lp, tuple(p + t * r for p, r in zip(out.primal, out.ray)))


_BY_STATUS = {"optimal": TWO_VAR_MAX, "infeasible": FLIPPED_LE_ROWS,
              "unbounded": HELD_FREE_BASIC_RUNS_DOWN}


@pytest.mark.parametrize("status, corrupt, problem", [
    pytest.param("optimal", lambda o: replace(o, dual=(-o.dual[0],) + o.dual[1:]),
                 "dual[0] = 2/5 has the wrong sign on a <= row", id="dual_sign"),
    pytest.param("optimal", lambda o: replace(o, primal=(o.primal[0] + 1, o.primal[1])),
                 "primal violates row 0: 5 <= 4 fails", id="primal_row"),
    pytest.param("optimal", lambda o: replace(o, objective_value=o.objective_value + 1),
                 "objective_value is not objective . primal", id="objective_value"),
    pytest.param("optimal", lambda o: replace(o, dual=o.dual[:-1]), "dual has 3 entries",
                 id="dual_length"),
    pytest.param("optimal", lambda o: replace(o, ray=o.primal), "optimal outcome carries ray",
                 id="extra_field"),
    pytest.param("infeasible", lambda o: replace(o, farkas=(o.farkas[0] * 2,) + o.farkas[1:]),
                 "farkas' A is not 0", id="farkas_aggregate"),
    pytest.param("infeasible", lambda o: replace(o, farkas=None),
                 "infeasible outcome lacks farkas", id="missing_field"),
    # the zero vector has the right signs and aggregates to 0 . x <= 0
    pytest.param("infeasible", lambda o: replace(o, farkas=(F(0),) * len(o.farkas)),
                 "farkas . rhs is not negative", id="farkas_rhs"),
    # a feasible point below the optimum keeps the dual's signs and y'A = c
    pytest.param("optimal", lambda o: replace(o, primal=(F(0), F(0))),
                 "dual . rhs is not the optimum", id="dual_rhs"),
    pytest.param("unbounded", lambda o: replace(o, ray=(F(0), F(0))),
                 "ray does not improve the objective", id="zero_ray"),
    pytest.param("unbounded", lambda o: replace(o, ray=(F(0), F(1))),
                 "ray leaves row 1: a . ray = 1", id="ray_leaves"),
    pytest.param("unbounded", lambda o: replace(o, primal=(F(0), F(6))),
                 "primal violates row 1: 6 <= 5 fails", id="ray_base"),
])
def test_check_outcome_names_the_broken_part(status, corrupt, problem):
    lp = _BY_STATUS[status]
    out = solve(lp)
    assert check_outcome(lp, out) is None
    assert check_outcome(lp, corrupt(out)) == problem


def test_zero_rows_lp():
    lp = LinearProgram("min", (F(1),), (), lower=(F(2),))
    out = solve(lp)
    assert out.status == LpStatus.OPTIMAL and out.primal == (F(2),)


def test_bounds_both_sides():
    lp = LinearProgram("max", (F(1), F(-1)), (), lower=(F(-1), F(2)), upper=(F(5), F(9)))
    out = solve(lp)
    assert out.primal == (F(5), F(2))


bounds = st.one_of(st.none(), ints.map(F))


@given(st.lists(st.tuples(st.lists(ints.map(F), min_size=3, max_size=3),
                          st.sampled_from([LE, GE, EQ]), ints.map(F)), max_size=3),
       st.lists(ints.map(F), min_size=3, max_size=3), st.sampled_from(["min", "max"]),
       st.lists(ints.map(F), min_size=3, max_size=3), st.lists(bounds, min_size=3, max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3))
def test_lower_bounds_as_shifts_agree_with_bounds_as_rows(rows, obj, sense, lower, upper, free):
    """The tableau shifts each finite lower bound into its column; the same LP
    with every bound written as a row of its own, over free columns, has the
    same status and optimum, and both outcomes carry valid certificates."""
    lower = [None if f else l for l, f in zip(lower, free)]
    lp = LinearProgram(sense, obj, tuple(rows), lower=lower, upper=upper)
    unit = [tuple(F(int(i == j)) for i in range(3)) for j in range(3)]
    explicit = LinearProgram(sense, obj, tuple(rows) + tuple(
        (unit[j], rel, v) for j in range(3)
        for rel, v in ((GE, lower[j]), (LE, upper[j])) if v is not None))
    shifted, as_rows = solve(lp), solve(explicit)
    assert check_outcome(lp, shifted) is None and check_outcome(explicit, as_rows) is None
    assert shifted.status == as_rows.status
    assert shifted.objective_value == as_rows.objective_value


@given(st.lists(st.tuples(st.lists(ints.map(F), min_size=3, max_size=3), ints.map(F)),
                min_size=1, max_size=4),
       st.integers(0, 2), st.lists(ints.map(F), min_size=3, max_size=3),
       st.sampled_from(["min", "max"]), st.lists(st.booleans(), min_size=3, max_size=3),
       st.lists(st.one_of(st.none(), st.integers(0, 5).map(F)), min_size=3, max_size=3))
def test_a_zero_equality_row_changes_no_outcome(rows, j, obj, sense, free, upper):
    """Column j is negative on every "<=" row with a negative right side and
    at most 0 on the others, so one column could repair every short row.  A
    redundant 0 = 0 row sends the same LP through phase one even when every
    right side is nonnegative.  Both give the same status and optimum, with
    valid certificates."""
    rows = tuple((tuple(-1 - abs(a) if i == j and (rhs < 0 or a > 0) else a
                        for i, a in enumerate(coeffs)), LE, rhs) for coeffs, rhs in rows)
    upper = [None if i == j else u for i, u in enumerate(upper)]
    lower = [None if f else F(0) for f in free]
    lp = LinearProgram(sense, obj, rows, lower=lower, upper=upper)
    out = solve(lp)
    padded = replace(lp, rows=rows + (((F(0),) * 3, EQ, F(0)),))
    padded_out = solve(padded)
    assert check_outcome(lp, out) is None and check_outcome(padded, padded_out) is None
    assert out.status == padded_out.status
    assert out.objective_value == padded_out.objective_value


@given(st.lists(st.tuples(st.lists(ints.map(F), min_size=3, max_size=3),
                          st.sampled_from([LE, GE, EQ]), ints.map(F)), min_size=1, max_size=4),
       st.lists(ints.map(F), min_size=3, max_size=3), st.sampled_from(["min", "max"]),
       st.lists(st.booleans(), min_size=2, max_size=2),
       st.lists(st.one_of(st.none(), st.integers(0, 5).map(F)), min_size=3, max_size=3))
def test_free_column_start_agrees_with_split_columns(rows, obj, sense, free, upper):
    """The free-column start pivots the free columns (x1 always, x2 and x3
    when drawn free) into the basis, whatever the rows' relations and right
    sides, where they stay: no held row ever leaves, and no pivot after a
    row's own pivot rewrites it, not even the start's later ones.  Writing
    each free x_j as p_j - q_j with p_j, q_j >= 0 gives an LP with no free
    column, whose start pivots nothing; both have the same status and
    optimum, and both outcomes carry valid certificates."""
    free = [True, *free]
    lower = [None if f else F(0) for f in free]
    upper = [None if f else u for f, u in zip(free, upper)]
    lp = LinearProgram(sense, obj, tuple(rows), lower=lower, upper=upper)

    def split(vector):
        return tuple(v for j, a in enumerate(vector) for v in ((a, -a) if free[j] else (a,)))

    columns = len(split(obj))
    split_lp = LinearProgram(sense, split(obj),
                             tuple((split(coeffs), rel, rhs) for coeffs, rel, rhs in rows),
                             lower=(F(0),) * columns,
                             upper=tuple(v for f, u in zip(free, upper)
                                         for v in ((None, None) if f else (u,))))
    pivot = _Tableau._pivot
    own = {}  # each row as the last pivot on it left it

    def held_rows_stay(self, r, c):
        assert not self.held[r], "a pivot left from a held row"
        pivot(self, r, c)
        own[r] = list(self.tab[r])
        assert all(row == own[i] for i, row in enumerate(self.tab) if self.held[i]), \
            "a pivot rewrote a held row"

    with mock.patch.object(_Tableau, "_pivot", held_rows_stay):
        out = solve(lp)
    as_split = solve(split_lp)
    assert check_outcome(lp, out) is None and check_outcome(split_lp, as_split) is None
    assert out.status == as_split.status
    assert out.objective_value == as_split.objective_value


# x2 - 2 x3 = 1 and x1 + x2 - x3 = 0: x1 enters the second row and then x2
# the first, which leaves the second, held, with its x2 entry
_TRIANGLE = ((((F(0), F(1), F(-2)), EQ, F(1)), ((F(1), F(1), F(-1)), EQ, F(0))),
             (None, None, F(0)))
# x1, x2 and x3 enter the third, first and second rows in turn; the third row
# keeps its x2 and x3 entries and the first its x3 entry
_STAIRS = ((((F(0), F(1), F(1), F(-1)), EQ, F(1)), ((F(0), F(1), F(2), F(1)), EQ, F(0)),
            ((F(1), F(1), F(1), F(1)), EQ, F(0))),
           (None, None, None, F(0)))


@pytest.mark.parametrize("lp, expected, phases, held, artificial", [
    pytest.param(LinearProgram("min", (F(0), F(0), F(-1)), *_TRIANGLE),
                 LpOutcome(LpStatus.UNBOUNDED, primal=(F(-1), F(1), F(0)),
                           ray=(F(-1), F(2), F(1))),
                 [0, 0], [True, True], [], id="ray_moves_two_held_basics"),
    pytest.param(LinearProgram("min", (F(1), F(3), F(1)), *_TRIANGLE),
                 LpOutcome(LpStatus.OPTIMAL, primal=(F(-1), F(1), F(0)), objective_value=F(2),
                           dual=(F(2), F(1), F(-6))),
                 [0, 0], [True, True], [], id="negative_basic_reads_a_later_held_one"),
    pytest.param(LinearProgram("min", (F(-1), F(2), F(4), F(-1)), *_STAIRS),
                 LpOutcome(LpStatus.UNBOUNDED, primal=(F(-1), F(2), F(-1), F(0)),
                           ray=(F(-2), F(3), F(-2), F(1))),
                 [0, 0, 0], [True, True, True], [], id="ray_moves_three_stairs"),
    pytest.param(LinearProgram("min", (F(-1), F(2), F(4), F(3)), *_STAIRS),
                 LpOutcome(LpStatus.OPTIMAL, primal=(F(-1), F(2), F(-1), F(0)),
                           objective_value=F(1), dual=(F(1), F(2), F(-1), F(-3))),
                 [0, 0, 0], [True, True, True], [], id="negative_basics_read_down_the_stairs"),
    pytest.param(LinearProgram("min", (F(3), F(1)), (((F(0), F(1)), GE, F(1)),
                                                     ((F(1), F(1)), EQ, F(2)),
                                                     ((F(2), F(2)), EQ, F(4))),
                               lower=(None, F(0)), upper=(None, F(3))),
                 LpOutcome(LpStatus.OPTIMAL, primal=(F(-1), F(3)), objective_value=F(0),
                           dual=(F(0), F(3), F(0), F(0), F(-2))),
                 [0, 1, 0], [False, True, False, False], [2],
                 id="redundant_row_keeps_its_artificial"),
])
def test_frozen_rows_read_back(lp, expected, phases, held, artificial):
    """The pricing and the readouts solve the held rows as the start left
    them: each is held from its own pivot, so a row held earlier keeps its
    entries in the free columns pivoted after it.  An unbounded ray: x3
    enters, no row that is not held bounds it, and the rows give x2 = 2 and
    then x1 = -1 per unit of x3.  An optimum: x1 = -1 and x2 = 1, with the
    duals of both held rows.  On the stairs the third row, held first, reads
    x1 through x2 and x3, and the first reads x2 through x3: along the ray
    x4 = 1 gives x3 = -2, x2 = 3 and x1 = -2, and at the optimum, with the
    costs y'A for y = (1, 2, -1) plus 3 on x4, x3 = -1, x2 = 2 and x1 = -1,
    and the dual is y with -3 on the bound of x4.  A redundant "=" row:
    x1 (cost 3) holds the second row, and the third becomes 0 = 0 with its
    artificial basic at 0 in phase two; phase one puts x2 in the first row,
    x2 >= 1, which comes before the held row but is priced after it, at
    x2's folded cost 1 - 3; x2 then rises to its upper bound.  Each LP makes
    the pivots the slack start's conventions make: the start's (art_cost 0),
    then phase one's and phase two's."""
    tableaux = []
    init = _Tableau.__init__

    def kept(self, lp):
        init(self, lp)
        tableaux.append(self)

    with mock.patch.object(_Tableau, "__init__", kept):
        out, made = _phases(solve, lp)
    assert out == expected and check_outcome(lp, out) is None
    assert made == phases
    [t] = tableaux
    assert t.held == held
    assert [i for i, b in enumerate(t.basis) if b >= t.art0] == artificial


def random_lp(draw_rows, draw_obj):
    rows = tuple((tuple(r[:-1]), LE, r[-1]) for r in draw_rows)
    return LinearProgram("min", tuple(draw_obj), rows, lower=(F(0), F(0)))


@given(st.lists(st.lists(ints.map(F), min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(ints.map(F), min_size=2, max_size=2))
def test_duality_and_feasibility(rows, obj):
    lp = random_lp(rows, obj)
    pivot = _Tableau._pivot

    def no_artificial_enters(self, r, c):
        assert c < self.art0, "an artificial entered the basis"
        return pivot(self, r, c)

    with mock.patch.object(_Tableau, "_pivot", no_artificial_enters):
        out = solve(lp)
    assert check_outcome(lp, out) is None
    if out.status == LpStatus.OPTIMAL:
        for coeffs, rel, rhs in lp.rows:
            assert dot(coeffs, out.primal) <= rhs
        assert all(v >= 0 for v in out.primal)
        assert dot(lp.objective, out.primal) == out.objective_value
        assert dot(out.dual, [r[2] for r in lp.normalized_rows]) == out.objective_value
    elif out.status == LpStatus.UNBOUNDED:
        ray = out.ray
        norm = lp.normalized_rows
        assert dot(lp.objective, ray) < 0  # min problem: improving ray
        for coeffs, rel, rhs in norm:
            assert dot(coeffs, ray) <= 0
    else:
        f = out.farkas
        norm = lp.normalized_rows
        assert all(v >= 0 for v in f)
        combo = [sum(f[i] * norm[i][0][j] for i in range(len(norm))) for j in range(2)]
        assert combo == [F(0), F(0)]
        assert sum(f[i] * norm[i][2] for i in range(len(norm))) < 0


def test_small_integer_primal_entries_are_shared():
    """min x1 - x2 - x3 over 2 x3 <= 1, x4 = 5, x1 >= -7, 0 <= x2 <= 300, x3 >= 0,
    x4 free: x1 comes back through its shift, x4 off its held row, and both
    are linalg's shared Fractions; 300 and 1/2 are not in the table."""
    lp = LinearProgram("min", (F(1), F(-1), F(-1), F(0)),
                       (((F(0), F(0), F(2), F(0)), LE, F(1)), ((F(0), F(0), F(0), F(1)), EQ, F(5))),
                       lower=(F(-7), F(0), F(0), None), upper=(None, F(300), None, None))
    out = solve(lp)
    assert out.primal == (F(-7), F(300), F(1, 2), F(5))
    assert out.primal[0] is SMALL[-7] and out.primal[3] is SMALL[5]
    assert check_outcome(lp, out) is None


# max x + y over x + y = 2 stated twice, x and y free: x is placed in the first
# row, which leaves the second 0 = 0 on its artificial
RESTATED = LinearProgram("max", (F(1), F(1)), (((F(1), F(1)), EQ, F(2)),) * 2)


def _start_pivots(lps):
    """Each lp's outcome, and the pivots each one's ``_Tableau.__init__`` made."""
    init, pivot = _Tableau.__init__, _Tableau._pivot
    made, starting = [], [False]

    def counting_init(self, lp):
        made.append(0)
        starting[0] = True
        try:
            init(self, lp)
        finally:
            starting[0] = False

    def counting_pivot(self, r, c):
        made[-1] += starting[0]
        return pivot(self, r, c)

    with mock.patch.object(_Tableau, "__init__", counting_init), \
            mock.patch.object(_Tableau, "_pivot", counting_pivot):
        return [solve(lp) for lp in lps], made


@given(st.lists(st.tuples(st.lists(ints.map(F), min_size=3, max_size=3),
                          st.sampled_from([LE, GE, EQ])), min_size=1, max_size=4),
       st.lists(st.lists(ints.map(F), min_size=7, max_size=7), min_size=2, max_size=3),
       st.lists(ints.map(F), min_size=3, max_size=3), st.sampled_from(["min", "max"]),
       st.lists(st.booleans(), min_size=2, max_size=2),
       st.lists(st.booleans(), min_size=3, max_size=3))
def test_a_session_reuses_the_start_for_new_right_sides(matrix, sides, obj, sense, free, bounded):
    """LPs that share their rows' coefficients and relations, their free
    columns and which columns have an upper bound, but not their right sides
    or bound values, give inside one session the outcomes of cold solves,
    and every one after the first makes no pivot while its tableau is built."""
    free = [True, *free]
    lps = [LinearProgram(sense, obj,
                         tuple((coeffs, rel, side[i]) for i, (coeffs, rel) in enumerate(matrix)),
                         lower=[None if f else side[4 + j] for j, f in enumerate(free)],
                         upper=[side[4 + j] + 2 if u else None for j, u in enumerate(bounded)])
           for side in sides]
    with session() as starts:
        warm, made = _start_pivots(lps)
    assert warm == [solve(lp) for lp in lps]
    assert all(check_outcome(lp, out) is None for lp, out in zip(lps, warm))
    assert not any(made[1:])
    assert len(starts) == (made[0] > 0)


def test_a_start_is_reused_only_under_its_own_key():
    """LPs that share their coefficients but not their relations, or not
    their sign-free columns, each build and store their own start inside one
    session, and each gives its cold outcome."""
    coeffs = ((F(1), F(1)), (F(1), F(-1)))
    lps = [LinearProgram("max", (F(1), F(-2)), tuple(zip(coeffs, rels, (F(2), F(0)))), lower=lower)
           for rels in ((EQ, EQ), (LE, LE), (EQ, LE)) for lower in ((None, None), (None, F(0)))]
    with session() as starts:
        warm = [solve(lp) for lp in lps]
    assert warm == [solve(lp) for lp in lps]
    assert len(starts) == len(lps)


def test_nothing_is_stored_outside_a_session():
    assert _STARTS.get() is None
    _, made = _start_pivots([RESTATED, RESTATED])
    assert made == [1, 1] and _STARTS.get() is None


def test_sessions_share_no_start():
    """Each session starts empty; an inner one hides the outer one's starts
    until it ends, and the outer one then reuses its own."""
    for _ in range(2):
        with session() as starts:
            assert _start_pivots([RESTATED])[1] == [1] and len(starts) == 1
    with session() as outer:
        _, made = _start_pivots([RESTATED])
        with session() as inner:
            made += _start_pivots([RESTATED])[1]
            assert len(inner) == 1 and inner is not outer
        made += _start_pivots([RESTATED])[1]
    assert made == [1, 1, 0] and _STARTS.get() is None


def test_a_session_ends_when_its_body_raises():
    with pytest.raises(RuntimeError):
        with session():
            solve(RESTATED)
            raise RuntimeError("body failed")
    assert _STARTS.get() is None


def test_restated_equality_with_a_new_right_side_is_infeasible_inside_a_session():
    """The second LP reuses the first one's start: the restated row, the
    second row minus the first, gets the right side 3 - 2 = 1 on its
    artificial, which phase one cannot clear."""
    with session():
        test_restated_equality_with_a_new_right_side_is_infeasible()
        _, made = _start_pivots([RESTATED, replace(RESTATED, rows=(RESTATED.rows[0],
                                                                    ((F(1), F(1)), EQ, F(3))))])
    assert made == [0, 0]
