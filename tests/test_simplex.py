from fractions import Fraction as F

from hypothesis import given, strategies as st

from bendercuts.linalg import dot
from bendercuts.simplex import (EQ, GE, LE, LinearProgram, LpStatus,
                                dual_objective_value, solve)

ints = st.integers(-5, 5)


def test_two_var_optimum():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
    lp = LinearProgram("max", (F(1), F(1)),
                       (((F(1), F(2)), LE, F(4)), ((F(3), F(1)), LE, F(6))),
                       lower=(F(0), F(0)))
    out = solve(lp)
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


def test_infeasible_gives_farkas():
    rows = (((F(1),), LE, F(-1)), ((F(-1),), LE, F(0)))
    lp = LinearProgram("min", (F(0),), rows)
    out = solve(lp)
    assert out.status == LpStatus.INFEASIBLE
    f = out.farkas
    assert f is not None and all(v >= 0 for v in f)
    # multipliers kill the coefficients and expose a negative right-hand side
    norm = lp.normalized_rows
    combo = [sum(f[i] * norm[i][0][j] for i in range(len(norm))) for j in range(1)]
    assert combo == [F(0)]
    assert sum(f[i] * norm[i][2] for i in range(len(norm))) < 0


def test_unbounded_gives_ray():
    lp = LinearProgram("max", (F(1),), (((F(-1),), LE, F(0)),))
    out = solve(lp)
    assert out.status == LpStatus.UNBOUNDED
    assert out.ray is not None
    assert dot(lp.objective, out.ray) > 0


def test_zero_rows_lp():
    lp = LinearProgram("min", (F(1),), (), lower=(F(2),))
    out = solve(lp)
    assert out.status == LpStatus.OPTIMAL and out.primal == (F(2),)


def test_bounds_both_sides():
    lp = LinearProgram("max", (F(1), F(-1)), (), lower=(F(-1), F(2)), upper=(F(5), F(9)))
    out = solve(lp)
    assert out.primal == (F(5), F(2))


def random_lp(draw_rows, draw_obj):
    rows = tuple((tuple(r[:-1]), LE, r[-1]) for r in draw_rows)
    return LinearProgram("min", tuple(draw_obj), rows, lower=(F(0), F(0)))


@given(st.lists(st.lists(ints.map(F), min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(ints.map(F), min_size=2, max_size=2))
def test_duality_and_feasibility(rows, obj):
    lp = random_lp(rows, obj)
    out = solve(lp)
    if out.status == LpStatus.OPTIMAL:
        for coeffs, rel, rhs in lp.rows:
            assert dot(coeffs, out.primal) <= rhs
        assert all(v >= 0 for v in out.primal)
        assert dot(lp.objective, out.primal) == out.objective_value
        assert dual_objective_value(lp, out) == out.objective_value
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
