"""Acceptance gate: ten checks, every comparison an exact rational equality.

Each test prints one pass/fail line into the terminal summary via
record_acceptance, so a full run ends with a ten-line report.  Random checks
use fixed seeds; counts are part of the contract, not tuning knobs.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

from bendercuts.benders import SolverConfig, SolveStatus, solve as benders_solve
from bendercuts.cglp import (Directional, MisOnes, build_alt_polyhedron,
                             build_cglp_normalized, build_cglp_relaxed_subproblem,
                             build_reverse_polar_lp, lift_objective)
from bendercuts.linalg import dot
from bendercuts.model import (EpiPoint, epi_dimension, feasibility_rows,
                              subproblem_value, undecomposed_value)
from bendercuts.randgen import (interior_epi_point, random_instance, scale_rows,
                                separable_point)
from bendercuts.separation import SEPARATED, Certificate, exposed_point, separate
from bendercuts.simplex import LinearProgram, LpStatus, solve as lp_solve
from bendercuts.verify import (FaceClass, ParetoKind, core_point, enumerate_vertices,
                               face_report, is_mis_certificate, pareto_verdict)

from conftest import P1, P2, P3, P1_CUT, P2_CUT, P3_CUT, record_acceptance, same_cut


def _finish(num: int, description: str, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    record_acceptance(f"criterion {num:02d} [{status}] {description}")
    assert not problems, f"criterion {num:02d}: " + "; ".join(str(p) for p in problems)


def _guard(problems: list, body) -> None:
    try:
        body()
    except Exception as exc:  # the report line must appear even on a crash
        problems.append(f"raised {type(exc).__name__}: {exc}")


def test_criterion_01_certificate_vertices(ex1, origin):
    problems: list = []

    def body():
        found = set(enumerate_vertices(build_alt_polyhedron(ex1, origin)))
        if found != {P1, P2, P3}:
            problems.append(f"vertex set was {sorted(found)}")

    _guard(problems, body)
    _finish(1, "certificate polyhedron at the origin has exactly three vertices",
            problems)


def test_criterion_02_min_support_selection(ex1, origin):
    problems: list = []

    def body():
        result = separate(ex1, origin, MisOnes())
        if result.kind != SEPARATED:
            problems.append(f"kind {result.kind}")
            return
        if not same_cut(result.cut, P3_CUT):
            problems.append(f"cut {result.cut}")
        if result.supporting is not False:
            problems.append(f"supporting {result.supporting}")

    _guard(problems, body)
    _finish(2, "smallest-multiplier selection yields x + eta >= 7/2, not supporting",
            problems)


def test_criterion_03_directional_selection(ex1, origin):
    problems: list = []

    def body():
        result = separate(ex1, origin, Directional((F(2),), F(3)))
        if result.cglp_value != F(-4, 3):
            problems.append(f"value {result.cglp_value}")
        if not same_cut(result.cut, P2_CUT):
            problems.append(f"cut {result.cut}")
        if result.supporting is not True:
            problems.append(f"supporting {result.supporting}")
        face = face_report(ex1, result.cut)
        if face.classification != FaceClass.FACET_DEFINING:
            problems.append(f"classification {face.classification}")

    _guard(problems, body)
    _finish(3, "directional selection: value -4/3, cut x/2 + eta >= 3, facet",
            problems)


def _agreement_problems(inst, point, direction, direction_eta, label) -> list:
    out = []
    rp = lp_solve(build_reverse_polar_lp(inst, point, direction, direction_eta))
    weights, weight_eta = lift_objective(inst, direction, direction_eta)
    ple = lp_solve(replace(build_alt_polyhedron(inst, point, relaxed=True),
                           sense="max", objective=weights + (weight_eta,)))
    mint = lp_solve(build_cglp_relaxed_subproblem(inst, point, weights, weight_eta))
    norm = lp_solve(build_cglp_normalized(inst, point, weights, weight_eta))
    if rp.status != ple.status:
        return [f"{label}: statuses {rp.status} vs {ple.status}"]
    if rp.status == LpStatus.OPTIMAL and rp.objective_value != ple.objective_value:
        return [f"{label}: values {rp.objective_value} vs {ple.objective_value}"]
    if rp.status == LpStatus.OPTIMAL and rp.objective_value < 0:
        want = -1 / rp.objective_value
        if mint.status != LpStatus.OPTIMAL or mint.objective_value != want:
            out.append(f"{label}: relaxation amount {mint.status} "
                       f"{mint.objective_value} != {want}")
        if norm.status != LpStatus.OPTIMAL or norm.objective_value != want:
            out.append(f"{label}: pinned-weight value {norm.status} "
                       f"{norm.objective_value} != {want}")
    elif mint.status != LpStatus.INFEASIBLE:
        out.append(f"{label}: relaxation feasible without a separating value")
    return out


def test_criterion_04_formulations_agree(ex1, origin):
    problems: list = []

    def body():
        problems.extend(_agreement_problems(ex1, origin, (F(2),), F(3), "worked example"))
        rng = random.Random(40004)
        done = 0
        while done < 200:
            inst = random_instance(rng)
            point = separable_point(rng, inst)
            if point is None:
                continue
            done += 1
            direction = tuple(F(rng.randint(-3, 3)) for _ in range(inst.n))
            direction_eta = F(rng.randint(-3, 3))
            if not any(direction) and direction_eta == 0:
                direction_eta = F(1)
            problems.extend(_agreement_problems(inst, point, direction, direction_eta,
                                                f"sample {done}"))

    _guard(problems, body)
    _finish(4, "all four cut-generating formulations agree on 200 random queries",
            problems)


def test_criterion_05_exposed_point(ex1, origin):
    problems: list = []

    def body():
        direction, direction_eta = (F(2),), F(3)
        hit = exposed_point(ex1, origin, direction, direction_eta)
        if hit != EpiPoint((F(3, 2),), F(9, 4)):
            problems.append(f"exposed point {hit}")
        weights, weight_eta = lift_objective(ex1, direction, direction_eta)
        mint = lp_solve(build_cglp_relaxed_subproblem(ex1, origin, weights, weight_eta))
        stretch = mint.objective_value
        reached = EpiPoint(
            x=tuple(p + stretch * v for p, v in zip(origin.x, direction)),
            eta=origin.eta + stretch * direction_eta,
        )
        if reached != hit:
            problems.append(f"stretch {stretch} lands on {reached}")
        cut = separate(ex1, origin, Directional(direction, direction_eta)).cut
        if cut.value_at(hit) != cut.rhs:
            problems.append("directional cut is not tight at the exposed point")

    _guard(problems, body)
    _finish(5, "exposed point (3/2, 9/4) equals point + stretch * direction, cut tight",
            problems)


def _rows_feasible(rows, num_vars: int) -> bool:
    lp = LinearProgram("min", (F(0),) * num_vars, tuple(rows))
    return lp_solve(lp).status == LpStatus.OPTIMAL


def _minimal_infeasible_supports(rows, num_vars: int) -> set:
    found: list = []
    for size in range(1, len(rows) + 1):
        for subset in combinations(range(len(rows)), size):
            chosen = set(subset)
            if any(small <= chosen for small in found):
                continue
            if not _rows_feasible([rows[i] for i in subset], num_vars):
                found.append(frozenset(subset))
    return set(found)


def test_criterion_06_vertices_name_minimal_subsystems():
    problems: list = []

    def body():
        rng = random.Random(60006)
        done = 0
        while done < 100:
            inst = random_instance(rng)
            point = separable_point(rng, inst)
            if point is None:
                continue
            done += 1
            vertices = enumerate_vertices(build_alt_polyhedron(inst, point))
            supports = [frozenset(i for i, v in enumerate(vec) if v) for vec in vertices]
            if len(set(supports)) != len(vertices):
                problems.append(f"sample {done}: two vertices share a support")
            subsystems = _minimal_infeasible_supports(
                feasibility_rows(inst, point), inst.k)
            if set(supports) != subsystems:
                problems.append(f"sample {done}: supports "
                                f"{sorted(map(sorted, supports))} != subsystems "
                                f"{sorted(map(sorted, subsystems))}")
            for vec in vertices:
                cert = Certificate(row_multipliers=vec[:inst.m],
                                   eta_multiplier=vec[inst.m])
                if not is_mis_certificate(inst, point, cert):
                    problems.append(f"sample {done}: vertex support not minimal")

    _guard(problems, body)
    _finish(6, "vertex supports are exactly the minimal infeasible subsystems (100 runs)",
            problems)


def test_criterion_07_unique_vertex_gives_facet():
    problems: list = []

    def body():
        rng = random.Random(70007)
        done = 0
        while done < 100:
            inst = random_instance(rng)
            if epi_dimension(inst) != inst.n + 1:
                continue
            point = separable_point(rng, inst)
            if point is None:
                continue
            target = interior_epi_point(rng, inst)
            if target is None:
                continue
            direction = tuple(t - p for t, p in zip(target.x, point.x))
            direction_eta = target.eta - point.eta
            result = separate(inst, point, Directional(direction, direction_eta))
            if result.kind != SEPARATED:
                continue
            done += 1
            weights, weight_eta = lift_objective(inst, direction, direction_eta)
            objective = weights + (weight_eta,)
            poly = build_alt_polyhedron(inst, point)
            best = lp_solve(replace(poly, sense="max", objective=objective))
            if best.status != LpStatus.OPTIMAL:
                problems.append(f"sample {done}: selection LP {best.status}")
                continue
            optimal = [v for v in enumerate_vertices(poly)
                       if dot(objective, v) == best.objective_value]
            face = face_report(inst, result.cut)
            if len(optimal) == 1 and face.classification not in (
                    FaceClass.FACET_DEFINING, FaceClass.CONTAINS_EPI):
                problems.append(f"sample {done}: unique vertex but "
                                f"{face.classification}")
            if face.classification == FaceClass.FACET_DEFINING \
                    and not is_mis_certificate(inst, point, result.certificate):
                problems.append(f"sample {done}: facet cut without a minimal support")

    _guard(problems, body)
    _finish(7, "unique optimal certificate vertices give facet or full-face cuts "
               "(100 runs)", problems)


def test_criterion_08_never_dominated_cuts(ex1_shifted):
    problems: list = []

    def body():
        if pareto_verdict(ex1_shifted, P2_CUT).kind != ParetoKind.PARETO:
            problems.append("x/2 + eta >= 3 should be undominated on x >= 2")
        if pareto_verdict(ex1_shifted, P1_CUT).kind != ParetoKind.NOT_PARETO:
            problems.append("2x + eta >= 5 should be dominated on x >= 2")
        rng = random.Random(80008)
        collected = 0
        while collected < 50:
            inst = random_instance(rng)
            point = separable_point(rng, inst)
            if point is None:
                continue
            core = core_point(inst)
            if core is None:
                continue
            # the guarantee aims at relint(conv(epi_S)); it only transfers to
            # domination over S when that interior sits strictly inside S,
            # so skip cores pinned to the master set's boundary
            dom = inst.master_domain
            if not all(dot(grow, core.x) < gi for grow, gi in zip(dom.G, dom.g)):
                continue
            direction = tuple(cv - pv for cv, pv in zip(core.x, point.x))
            direction_eta = core.eta - point.eta
            result = separate(inst, point, Directional(direction, direction_eta))
            if result.kind != SEPARATED or result.cut.coef_eta >= 0:
                continue
            collected += 1
            verdict = pareto_verdict(inst, result.cut)
            if verdict.kind != ParetoKind.PARETO:
                problems.append(f"sample {collected}: {verdict.kind.value}")

    _guard(problems, body)
    _finish(8, "undominated verdicts on the shifted domain plus 50 core-aimed cuts",
            problems)


def test_criterion_09_row_scaling(ex1, origin):
    problems: list = []

    def body():
        scaled = scale_rows(ex1, (F(1), F(1), F(1, 10)))
        before = separate(ex1, origin, MisOnes())
        after = separate(scaled, origin, MisOnes())
        if not same_cut(before.cut, P3_CUT):
            problems.append(f"unscaled pick {before.cut}")
        if not same_cut(after.cut, P1_CUT):
            problems.append(f"scaled pick {after.cut}")
        if same_cut(before.cut, after.cut):
            problems.append("scaling did not move the smallest-multiplier pick")
        steered = separate(scaled, origin, Directional((F(2),), F(3)))
        if not same_cut(steered.cut, P2_CUT):
            problems.append(f"directional pick moved to {steered.cut}")

        rng = random.Random(90009)
        done = 0
        while done < 50:
            inst = random_instance(rng)
            point = separable_point(rng, inst)
            if point is None:
                continue
            done += 1
            direction = tuple(F(rng.randint(-3, 3)) for _ in range(inst.n))
            direction_eta = F(rng.randint(-3, 3))
            if not any(direction) and direction_eta == 0:
                direction_eta = F(1)
            factors = tuple(F(rng.randint(1, 4), rng.randint(1, 4))
                            for _ in range(inst.m))
            a = lp_solve(build_reverse_polar_lp(inst, point, direction, direction_eta))
            b = lp_solve(build_reverse_polar_lp(scale_rows(inst, factors), point,
                                                direction, direction_eta))
            if a.status != b.status:
                problems.append(f"sample {done}: {a.status} vs {b.status}")
            elif a.status == LpStatus.OPTIMAL and a.objective_value != b.objective_value:
                problems.append(f"sample {done}: {a.objective_value} vs "
                                f"{b.objective_value}")

    _guard(problems, body)
    _finish(9, "row scaling reroutes the smallest-multiplier pick, never the "
               "search values", problems)


def test_criterion_10_end_to_end(ex1, ex1_finite):
    problems: list = []

    def body():
        run = benders_solve(ex1, SolverConfig(strategy=MisOnes()))
        if run.status != SolveStatus.OPTIMAL or run.value != F(11, 3):
            problems.append(f"continuous run {run.status} value {run.value}")
        if run.value != undecomposed_value(ex1):
            problems.append("continuous value disagrees with the joint model")

        finite = benders_solve(ex1_finite, SolverConfig(strategy=MisOnes()))
        if finite.status != SolveStatus.OPTIMAL or finite.value != F(4):
            problems.append(f"finite run {finite.status} value {finite.value}")
        brute = min(dot(ex1_finite.c, p) + subproblem_value(ex1_finite, p)
                    for p in ex1_finite.master_domain.points)
        if finite.value != brute or brute != undecomposed_value(ex1_finite):
            problems.append("finite value disagrees with brute force")

    _guard(problems, body)
    _finish(10, "decomposition optimum matches the undecomposed model on both domains",
            problems)
