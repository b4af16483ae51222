"""Instance and trace files.

Instances are JSON documents whose numbers are either integers or "p/q"
strings; floats are rejected rather than rounded, so a file that parses is
exact by construction.  Traces record every iteration of a solve in enough
detail to be replayed: feeding the recorded cuts back into fresh master
solves must reproduce the recorded master values, and re-running the face
classification must reproduce the recorded reports.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Optional, Union

from .benders import (CONVERGED, CoreMode, FixedCore, IterationRecord, SolveResult,
                      SolverConfig, _solve_master)
from .cglp import Directional, MisOnes, ObjectiveSpec
from .errors import (DimensionError, EmptyEpigraph, ParseError, PreconditionViolated,
                     ZeroCertificate)
from .linalg import Vector
from .model import EpiPoint, FiniteDomain, Instance, PolyhedralDomain
from .separation import Cut, canonical_cut
from .verify import FaceReport, face_report

_TRACE_FORMAT = "bendercuts-trace/1"

_INSTANCE_KEYS = ("n", "k", "m", "c", "d", "H", "A", "b", "master", "eta_lower_bound")


def _num(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{where}: expected an integer or 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if any(ch in value for ch in ".eE"):
            raise ParseError(f"{where}: non-integer literals are not accepted: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {value!r}: {exc}") from None
    raise ParseError(f"{where}: expected an integer or 'p/q' string, got {type(value).__name__}")


def _vec(value: Any, where: str, length: Optional[int] = None) -> Vector:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    if length is not None and len(value) != length:
        raise DimensionError(f"{where}: expected {length} entries, got {len(value)}")
    return tuple(_num(v, f"{where}[{i}]") for i, v in enumerate(value))


def _mat(value: Any, where: str, rows: int, cols: int) -> tuple[Vector, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of rows")
    if len(value) != rows:
        raise DimensionError(f"{where}: expected {rows} rows, got {len(value)}")
    return tuple(_vec(r, f"{where}[{i}]", cols) for i, r in enumerate(value))


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer")
    return value


def _parse_master(doc: Any, n: int) -> Union[PolyhedralDomain, FiniteDomain]:
    if not isinstance(doc, dict):
        raise ParseError("master: expected an object")
    kind = doc.get("type")
    if kind == "polyhedron":
        extra = set(doc) - {"type", "G", "g"}
        if extra:
            raise ParseError(f"master: unknown keys {sorted(extra)}")
        if "G" not in doc or "g" not in doc:
            raise ParseError("master: polyhedron needs both G and g")
        g = _vec(doc["g"], "master.g")
        G = _mat(doc["G"], "master.G", len(g), n)
        return PolyhedralDomain(G=G, g=g)
    if kind == "finite":
        extra = set(doc) - {"type", "points"}
        if extra:
            raise ParseError(f"master: unknown keys {sorted(extra)}")
        pts = doc.get("points")
        if not isinstance(pts, list) or not pts:
            raise ParseError("master: finite needs a nonempty points list")
        return FiniteDomain(points=tuple(
            _vec(p, f"master.points[{i}]", n) for i, p in enumerate(pts)))
    raise ParseError(f"master.type must be 'polyhedron' or 'finite', got {kind!r}")


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    missing = [key for key in _INSTANCE_KEYS if key not in doc]
    if missing:
        raise ParseError(f"missing keys {missing}")
    extra = set(doc) - set(_INSTANCE_KEYS)
    if extra:
        raise ParseError(f"unknown keys {sorted(extra)}")
    n = _int(doc["n"], "n")
    k = _int(doc["k"], "k")
    m = _int(doc["m"], "m")
    return Instance(
        n=n, k=k, m=m,
        c=_vec(doc["c"], "c", n),
        d=_vec(doc["d"], "d", k),
        H=_mat(doc["H"], "H", m, n),
        A=_mat(doc["A"], "A", m, k),
        b=_vec(doc["b"], "b", m),
        master_domain=_parse_master(doc["master"], n),
        eta_lower_bound=_num(doc["eta_lower_bound"], "eta_lower_bound"),
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    return parse_instance(text)


def _enc(value: Fraction) -> Union[int, str]:
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _enc_vec(vec) -> list:
    return [_enc(v) for v in vec]


def _enc_mat(mat) -> list:
    return [_enc_vec(row) for row in mat]


def instance_document(instance: Instance) -> dict:
    dom = instance.master_domain
    if isinstance(dom, PolyhedralDomain):
        master = {"type": "polyhedron", "G": _enc_mat(dom.G), "g": _enc_vec(dom.g)}
    else:
        master = {"type": "finite", "points": _enc_mat(dom.points)}
    return {
        "n": instance.n, "k": instance.k, "m": instance.m,
        "c": _enc_vec(instance.c), "d": _enc_vec(instance.d),
        "H": _enc_mat(instance.H), "A": _enc_mat(instance.A),
        "b": _enc_vec(instance.b),
        "master": master,
        "eta_lower_bound": _enc(instance.eta_lower_bound),
    }


def serialize_instance(instance: Instance) -> str:
    return json.dumps(instance_document(instance), indent=2) + "\n"


def instance_digest(instance: Instance) -> str:
    canon = json.dumps(instance_document(instance), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _strategy_document(strategy: ObjectiveSpec) -> dict:
    if isinstance(strategy, MisOnes):
        return {"kind": "mis"}
    if isinstance(strategy, Directional):
        return {"kind": "directional", "direction": _enc_vec(strategy.direction),
                "direction_eta": _enc(strategy.direction_eta)}
    return {"kind": "custom", "weights": _enc_vec(strategy.weights),
            "weight_eta": _enc(strategy.weight_eta)}


def _core_mode_document(mode: Optional[CoreMode]) -> Optional[dict]:
    if mode is None:
        return None
    if isinstance(mode, FixedCore):
        return {"kind": "fixed_core", "x": _enc_vec(mode.point.x), "eta": _enc(mode.point.eta)}
    return {"kind": "track_incumbent", "blend": _enc(mode.blend)}


def _cut_document(cut: Cut) -> dict:
    canon = canonical_cut(cut)
    return {"coef_x": _enc_vec(canon.coef_x), "coef_eta": _enc(canon.coef_eta),
            "rhs": _enc(canon.rhs)}


def _face_document(face: Optional[FaceReport]) -> Optional[dict]:
    if face is None:
        return None
    return {"face_dimension": face.face_dimension, "epi_dimension": face.epi_dimension,
            "classification": face.classification.value}


def _record_document(rec: IterationRecord) -> dict:
    doc: dict = {
        "index": rec.index,
        "master_point": {"x": _enc_vec(rec.master_point.x), "eta": _enc(rec.master_point.eta)},
        "master_value": _enc(rec.master_value),
        "outcome": rec.outcome,
    }
    if rec.outcome != CONVERGED:
        doc["cut"] = _cut_document(rec.cut)
        doc["certificate"] = {"row_multipliers": _enc_vec(rec.certificate.row_multipliers),
                              "eta_multiplier": _enc(rec.certificate.eta_multiplier)}
        doc["cglp_value"] = _enc(rec.cglp_value)
        doc["face"] = _face_document(rec.face)
        doc["fallback"] = rec.fallback
    return doc


def trace_document(instance: Instance, config: SolverConfig, result: SolveResult) -> dict:
    return {
        "format": _TRACE_FORMAT,
        "instance_digest": instance_digest(instance),
        "config": {
            "strategy": _strategy_document(config.strategy),
            "max_iterations": config.max_iterations,
            "core_point_mode": _core_mode_document(config.core_point_mode),
            "verify_each_cut": config.verify_each_cut,
        },
        "iterations": [_record_document(r) for r in result.trace],
        "status": result.status.value,
        "value": None if result.value is None else _enc(result.value),
        "x": None if result.x is None else _enc_vec(result.x),
        "y": None if result.y is None else _enc_vec(result.y),
        "reason": result.reason,
    }


def trace_to_json(instance: Instance, config: SolverConfig, result: SolveResult) -> str:
    return json.dumps(trace_document(instance, config, result), indent=2) + "\n"


def _field(doc: Any, key: str, where: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: expected an object with {key!r}")
    return doc[key]


def _cut_from_document(doc: Any, n: int) -> Cut:
    return Cut(coef_x=_vec(_field(doc, "coef_x", "cut"), "cut.coef_x", n),
               coef_eta=_num(_field(doc, "coef_eta", "cut"), "cut.coef_eta"),
               rhs=_num(_field(doc, "rhs", "cut"), "cut.rhs"))


def replay_trace(instance: Instance, trace: Union[str, dict]) -> list[str]:
    """Check a trace against fresh computation; the mismatch list is empty iff it replays.

    Master values are recomputed with the recorded cut prefixes, and recorded
    face reports are recomputed from the recorded cuts.  A malformed document
    comes back as messages too, never as an exception.
    """
    try:
        doc = json.loads(trace) if isinstance(trace, str) else trace
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"]
    except RecursionError:
        return ["JSON nested too deeply"]
    if not isinstance(doc, dict):
        return [f"a trace is a JSON object, not {type(doc).__name__}"]
    problems: list[str] = []
    if doc.get("format") != _TRACE_FORMAT:
        return [f"unknown trace format {doc.get('format')!r}"]
    digest = instance_digest(instance)
    if doc.get("instance_digest") != digest:
        problems.append("instance digest does not match")
    iterations = doc.get("iterations", [])
    if not isinstance(iterations, list):
        return problems + ["iterations: expected a list"]
    cuts: list[Cut] = []
    for position, rec in enumerate(iterations, start=1):
        where = f"iteration {rec.get('index') if isinstance(rec, dict) else position}"
        try:
            point = _field(rec, "master_point", "record")
            recorded = EpiPoint(x=_vec(_field(point, "x", "master_point"), "master_point.x",
                                       instance.n),
                                eta=_num(_field(point, "eta", "master_point"), "master_point.eta"))
            recorded_value = _num(_field(rec, "master_value", "record"), "master_value")
            converged = _field(rec, "outcome", "record") == CONVERGED
            cut = None if converged else _cut_from_document(rec.get("cut"), instance.n)
        except (ParseError, DimensionError, ZeroCertificate, PreconditionViolated) as exc:
            problems.append(f"{where}: {exc}")
            break
        master = _solve_master(instance, cuts)
        if isinstance(master, str):
            problems.append(f"{where}: master became {master} on replay")
            break
        _, value = master
        if value != recorded_value:
            problems.append(f"{where}: master value {value} != recorded {recorded_value}")
        if cut is None:
            continue
        if cut.holds_at(recorded):
            problems.append(f"{where}: recorded cut does not cut off its master point")
        if rec.get("face") is not None:
            try:
                fresh = _face_document(face_report(instance, cut))
            except EmptyEpigraph as exc:
                problems.append(f"{where}: no face report on replay: {exc}")
                break
            if fresh != rec["face"]:
                problems.append(f"{where}: face report changed on replay: {fresh} != {rec['face']}")
        cuts.append(cut)
    return problems
