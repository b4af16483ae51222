"""The three benchmark workloads: their input pools, their op and its exact check.

Each workload cycles through a fixed pool that its seed generates. Inputs
reach the package only as `Instance`s parsed by `instance_io.parse_instance`
from the JSON text of a `gen` document. Package functions are always looked up
through their module at call time, so the tracer's replacements take effect.
Why each workload exists, and what it should show, is in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

from bendercuts import benders, instance_io, model, separation, verify
from bendercuts.cglp import Directional, MisOnes

import gen

MAX_ITERATIONS = 100
# Pool items per workload: at least 100, so that p90 over items has 10 beyond it.
POOL = 100


def parse(doc: dict):
    return instance_io.parse_instance(json.dumps(doc))


def bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def cut_bits(cut) -> int:
    return max(bits(v) for v in cut.coef_x + (cut.coef_eta, cut.rhs))


@dataclass(frozen=True)
class SolveItem:
    instance: Any
    config: Any


@dataclass(frozen=True)
class CertifyItem:
    instance: Any
    point: Any
    separation: Any


@dataclass
class Pool:
    items: list
    problems: list  # set-up draws that were not well posed


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    # build(seed, size) yields the pool draw by draw: the items and problems of each
    build: Callable[[int, int], Iterator[Pool]]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any, dict], list]
    iterations: Callable[[Any, Any], int]
    bits: Callable[[Any, Any], int]

    def pool(self, seed: int, size: int) -> Pool:
        """The whole pool of one build."""
        pool = Pool([], [])
        for draw in self.build(seed, size):
            pool.items += draw.items
            pool.problems += draw.problems
        return pool


def _mis_config():
    return benders.SolverConfig(strategy=MisOnes(), max_iterations=MAX_ITERATIONS)


def _track_config(n: int):
    return benders.SolverConfig(strategy=Directional((0,) * n, 1),
                                max_iterations=MAX_ITERATIONS,
                                core_point_mode=benders.TrackIncumbent(Fraction(1, 2)))


def _solve_problems(item: SolveItem, result, reference: dict) -> list:
    key = id(item)
    if key not in reference:
        reference[key] = model.undecomposed_value(item.instance)
    if result.status != benders.SolveStatus.OPTIMAL:
        return [f"status {result.status.value}: {result.reason}"]
    if result.value != reference[key]:
        return [f"value {result.value} != undecomposed {reference[key]}"]
    return []


def _solve_iterations(item, result) -> int:
    return len(result.trace)


def _solve_bits(item, result) -> int:
    return max((cut_bits(rec.cut) for rec in result.trace if rec.cut is not None), default=0)


# -- solve-poly-mis -----------------------------------------------------------

POLY_SHAPE = (4, 6, 8)


def _build_poly(seed: int, size: int) -> Iterator[Pool]:
    config = _mis_config()
    for doc in gen.instance_documents(seed, size, *POLY_SHAPE):
        yield Pool([SolveItem(parse(doc), config)], [])


def _solve_op(item: SolveItem):
    return benders.solve(item.instance, item.config)


# -- solve-finite-track -------------------------------------------------------

FINITE_SHAPE = (3, 6, 8)
FINITE_POINTS = 6


def _build_finite(seed: int, size: int) -> Iterator[Pool]:
    for doc in gen.instance_documents(seed, size, *FINITE_SHAPE, finite_points=FINITE_POINTS):
        instance = parse(doc)
        yield Pool([SolveItem(instance, _track_config(instance.n))], [])


def _track_op(item: SolveItem):
    result = benders.solve(item.instance, item.config)
    text = instance_io.trace_to_json(item.instance, item.config, result)
    return result, instance_io.replay_trace(item.instance, text)


def _track_check(item: SolveItem, outcome, reference: dict) -> list:
    result, replay = outcome
    return _solve_problems(item, result, reference) + [f"replay: {p}" for p in replay]


# -- certify ------------------------------------------------------------------

CERTIFY_SHAPE = (3, 3, 5)
CUTS_PER_DRAW = 2


def _build_certify(seed: int, size: int) -> Iterator[Pool]:
    """Cuts of MIS solves, each with the separation result that produced it.

    At most CUTS_PER_DRAW cuts come from one draw: the cost of the dimension
    oracles is mostly set by the instance, so more draws make a steadier pool.
    The solves stop after CUTS_PER_DRAW iterations, which give those cuts.
    """
    rng = random.Random(seed)
    config = benders.SolverConfig(strategy=MisOnes(), max_iterations=CUTS_PER_DRAW)
    made = 0
    for _ in range(4 * size):
        if made >= size:
            return
        draw = Pool([], [])
        instance = parse(gen.instance_document(rng, *CERTIFY_SHAPE))
        result = benders.solve(instance, config)
        if result.status not in (benders.SolveStatus.OPTIMAL, benders.SolveStatus.ITERATION_LIMIT):
            draw.problems.append(f"set-up solve: status {result.status.value}: {result.reason}")
            yield draw
            continue
        for rec in [rec for rec in result.trace if rec.cut is not None][:CUTS_PER_DRAW]:
            if made >= size:
                break
            sep = separation.separate(instance, rec.master_point, MisOnes())
            if sep.cut != rec.cut or sep.certificate != rec.certificate:
                draw.problems.append("set-up: separate disagrees with the solve trace")
                continue
            draw.items.append(CertifyItem(instance, rec.master_point, sep))
            made += 1
        yield draw
    if made < size:
        yield Pool([], [f"set-up: only {made} of {size} cuts"])


def _certify_op(item: CertifyItem):
    cut = item.separation.cut
    return (verify.face_report(item.instance, cut),
            verify.pareto_verdict(item.instance, cut),
            verify.is_mis_certificate(item.instance, item.point, item.separation.certificate))


def _certify_check(item: CertifyItem, outcome, reference: dict) -> list:
    face, pareto, mis = outcome
    cut = item.separation.cut
    problems = []
    if not mis:
        problems.append("certificate of a vertex cut is not MIS")
    if pareto.kind == verify.ParetoKind.PARETO:
        witness = pareto.witness
        if not model.epi_contains(item.instance, witness):
            problems.append("Pareto witness is not in epi(z)")
        if cut.value_at(witness) != cut.rhs:
            problems.append("Pareto witness is not on the cut")
    elif (pareto.kind == verify.ParetoKind.NOT_APPLICABLE) != (cut.coef_eta == 0):
        problems.append(f"Pareto verdict {pareto.kind.value} with eta coefficient {cut.coef_eta}")
    if (face.classification == verify.FaceClass.NON_SUPPORTING) == item.separation.supporting:
        problems.append(f"face {face.classification.value} but supporting={item.separation.supporting}")
    return problems


def _certify_iterations(item, outcome) -> int:
    return 1


def _certify_bits(item, outcome) -> int:
    return cut_bits(item.separation.cut)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="solve-poly-mis",
        pool_size=POOL, build=_build_poly, op=_solve_op,
        check=_solve_problems,
        iterations=_solve_iterations, bits=_solve_bits),
    Workload(
        name="solve-finite-track",
        pool_size=POOL, build=_build_finite, op=_track_op, check=_track_check,
        iterations=lambda item, out: len(out[0].trace),
        bits=lambda item, out: _solve_bits(item, out[0])),
    Workload(
        name="certify",
        pool_size=POOL, build=_build_certify, op=_certify_op, check=_certify_check,
        iterations=_certify_iterations, bits=_certify_bits),
)}
