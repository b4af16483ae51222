"""Instance and trace files.

Instances are JSON documents whose numbers are integers or `linalg.LITERAL`
strings: an optional sign, ASCII digits, and optionally "/" and ASCII digits.
Floats are rejected rather than rounded, so a file that parses is exact by
construction.  Every string is read by `linalg.as_fraction`, which refuses a
numerator or denominator past `linalg.MAX_DIGITS` digits (also importable from
here) with ParseError; the CLI reads every number argument, integer options
included, with the same `_num`.  Sizes are checked by the constructors.
Traces record every iteration of a solve in enough detail to be replayed:
feeding the recorded cuts back into fresh master solves must reproduce the
recorded master points and values, and the run must end as `solve` ends it
from the replayed state.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional, Union

from .benders import (CONVERGED, CUT_ADDED, CoreMode, FixedCore, IterationRecord, SolveResult,
                      SolveStatus, SolverConfig, TrackIncumbent, _solve_master, round_strategy,
                      run_ending)
from .cglp import Custom, Directional, MisOnes, ObjectiveSpec, certificate_rows, strategy_weights
from .errors import DimensionError, ParseError, PreconditionViolated, TooLarge, ZeroCertificate
from .linalg import MAX_DIGITS, Vector, as_fraction, dot, sized, too_long
from .model import EpiPoint, FiniteDomain, Instance, PolyhedralDomain, feasibility_rows, level
from .separation import Certificate, Cut, canonical_cut, certificate_to_cut
from .simplex import violated_row

# The interpreter's builtin SHA-256, as the stdlib's random takes _sha512:
# hashlib would map OpenSSL's libcrypto, about 3 MB resident, for one digest.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

_TRACE_FORMAT = "bendercuts-trace/2"

_INSTANCE_KEYS = ("n", "k", "m", "c", "d", "H", "A", "b", "master", "eta_lower_bound")

_SMALL = {v: Fraction(v) for v in range(-256, 257)}
"""One shared Fraction per small integer: instance data are mostly small
integers, and a parsed instance keeps every entry."""


def _num(value: Any, where: str) -> Fraction:
    """A JSON integer or a `LITERAL` string as a Fraction, or ParseError.

    `as_fraction` reads it; this adds only what JSON needs: the refusal of
    other JSON values, shared small integers, and `where` in the message.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        got = repr(value) if isinstance(value, float) else type(value).__name__
        raise ParseError(f"{where}: expected an integer or a 'p/q' literal, got {got}")
    if isinstance(value, int) and -256 <= value <= 256:
        return _SMALL[value]
    try:
        return as_fraction(value)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _vec(value: Any, where: str, length: Optional[int] = None) -> Vector:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    if length is not None:
        sized(value, length, where)
    return tuple(_num(v, f"{where}[{i}]") for i, v in enumerate(value))


def _mat(value: Any, where: str) -> tuple[Vector, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of rows")
    return tuple(_vec(r, f"{where}[{i}]") for i, r in enumerate(value))


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer")
    return value


def _parse_master(doc: Any) -> Union[PolyhedralDomain, FiniteDomain]:
    if not isinstance(doc, dict):
        raise ParseError("master: expected an object")
    kind = doc.get("type")
    if kind == "polyhedron":
        extra = set(doc) - {"type", "G", "g"}
        if extra:
            raise ParseError(f"master: unknown keys {sorted(extra)}")
        if "G" not in doc or "g" not in doc:
            raise ParseError("master: polyhedron needs both G and g")
        return PolyhedralDomain(G=_mat(doc["G"], "master.G"), g=_vec(doc["g"], "master.g"))
    if kind == "finite":
        extra = set(doc) - {"type", "points"}
        if extra:
            raise ParseError(f"master: unknown keys {sorted(extra)}")
        pts = doc.get("points")
        if not isinstance(pts, list) or not pts:
            raise ParseError("master: finite needs a nonempty points list")
        return FiniteDomain(points=_mat(pts, "master.points"))
    raise ParseError(f"master.type must be 'polyhedron' or 'finite', got {kind!r}")


def _decode(text: str) -> Any:
    """json.loads, with every way it refuses a text mapped to ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})") from None
    except ValueError as exc:  # an integer literal past the int conversion limit
        raise ParseError(f"not readable JSON: {exc}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def parse_instance(text: str) -> Instance:
    doc = _decode(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    missing = [key for key in _INSTANCE_KEYS if key not in doc]
    if missing:
        raise ParseError(f"missing keys {missing}")
    extra = set(doc) - set(_INSTANCE_KEYS)
    if extra:
        raise ParseError(f"unknown keys {sorted(extra)}")
    return Instance(
        n=_int(doc["n"], "n"), k=_int(doc["k"], "k"), m=_int(doc["m"], "m"),
        c=_vec(doc["c"], "c"),
        d=_vec(doc["d"], "d"),
        H=_mat(doc["H"], "H"),
        A=_mat(doc["A"], "A"),
        b=_vec(doc["b"], "b"),
        master_domain=_parse_master(doc["master"]),
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
    if too_long(value):
        raise TooLarge(f"a number has more than {MAX_DIGITS} digits; documents hold at most that")
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
    return "sha256:" + sha256(canon.encode("utf-8")).hexdigest()


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


def _strategy_from_document(doc: Any, instance: Instance) -> ObjectiveSpec:
    kind = _field(doc, "kind", "config.strategy")
    if kind == "mis":
        return MisOnes()
    if kind == "directional":
        return Directional(_vec(_field(doc, "direction", "config.strategy"),
                                "config.strategy.direction", instance.n),
                           _num(_field(doc, "direction_eta", "config.strategy"),
                                "config.strategy.direction_eta"))
    if kind == "custom":
        return Custom(_vec(_field(doc, "weights", "config.strategy"), "config.strategy.weights",
                           instance.m),
                      _num(_field(doc, "weight_eta", "config.strategy"),
                           "config.strategy.weight_eta"))
    raise ParseError(f"config.strategy: unknown kind {kind!r}")


def _core_mode_from_document(doc: Any, instance: Instance) -> Optional[CoreMode]:
    if doc is None:
        return None
    kind = _field(doc, "kind", "config.core_point_mode")
    if kind == "fixed_core":
        return FixedCore(EpiPoint(
            x=_vec(_field(doc, "x", "config.core_point_mode"), "config.core_point_mode.x",
                   instance.n),
            eta=_num(_field(doc, "eta", "config.core_point_mode"), "config.core_point_mode.eta")))
    if kind == "track_incumbent":
        return TrackIncumbent(_num(_field(doc, "blend", "config.core_point_mode"),
                                   "config.core_point_mode.blend"))
    raise ParseError(f"config.core_point_mode: unknown kind {kind!r}")


def _config_from_document(doc: Any, instance: Instance) -> SolverConfig:
    """A trace's `config` echo read back, sized against the instance; raises
    ParseError or DimensionError, with the config's own refusals as ParseError."""
    try:
        return SolverConfig(
            strategy=_strategy_from_document(_field(doc, "strategy", "config"), instance),
            max_iterations=_int(_field(doc, "max_iterations", "config"), "config.max_iterations"),
            core_point_mode=_core_mode_from_document(_field(doc, "core_point_mode", "config"),
                                                     instance))
    except PreconditionViolated as exc:
        raise ParseError(f"config: {exc}") from None


def _cut_from_document(doc: Any, n: int) -> Cut:
    return Cut(coef_x=_vec(_field(doc, "coef_x", "cut"), "cut.coef_x", n),
               coef_eta=_num(_field(doc, "coef_eta", "cut"), "cut.coef_eta"),
               rhs=_num(_field(doc, "rhs", "cut"), "cut.rhs"))


def _certificate_from_document(doc: Any, m: int) -> Certificate:
    """Raises PreconditionViolated when a multiplier is negative."""
    return Certificate(
        row_multipliers=_vec(_field(doc, "row_multipliers", "certificate"),
                             "certificate.row_multipliers", m),
        eta_multiplier=_num(_field(doc, "eta_multiplier", "certificate"),
                            "certificate.eta_multiplier"))


def _certificate_problem(instance: Instance, cert: Certificate, cut: Cut,
                         point: EpiPoint) -> Optional[str]:
    """Does a nonnegative certificate cancel y, map to the recorded cut and
    price the master point at -1, as every CGLP certificate does by strong
    duality?"""
    u = cert.as_tuple()
    if violated_row(certificate_rows(instance), u) is not None:
        return "recorded certificate does not cancel y: u'A + u_eta d' != 0"
    try:
        derived = certificate_to_cut(instance, cert)
    except ZeroCertificate:
        return "recorded certificate maps to no cut"
    if canonical_cut(derived) != canonical_cut(cut):
        return "recorded cut is not the cut of its recorded certificate"
    priced = dot(u, level(instance, point))
    if priced != -1:
        return f"recorded certificate prices its master point at {priced}, not -1"
    return None


def _point_text(point: EpiPoint) -> str:
    return f"({', '.join(map(str, point.x + (point.eta,)))})"


def replay_trace(instance: Instance, trace: Union[str, dict]) -> list[str]:
    """Check a trace against fresh computation; the mismatch list is empty iff it replays.

    Master points and values are recomputed with the recorded cut prefixes.
    Each record's index must be its position.  Every cut record must carry a
    negative CGLP value and a certificate, which must be nonnegative, cancel y
    (u'A + u_eta d' = 0), map to the recorded cut up to scale and price the
    replayed master point at -1 (u'(b - Hx*) + u_eta eta* = -1), checked by
    arithmetic.  The trace's config is read back and gives the round's CGLP
    weights w, those of `benders.round_strategy` with FixedCore's point as the
    core; then the CGLP value must be w . u exactly.  The relaxed CGLP's t
    column is basic at t* > 0, so its row duals y have y'w = 1, and
    u = -y/t* gives w . u = -1/t*, the value.  Records under TrackIncumbent
    that are not fallbacks keep only the sign check: that core blends the
    incumbents of the earlier rounds, each from a subproblem LP, and replay
    does not rebuild it.  MisOnes never falls back, so a fallback record
    under it is refused.

    Only the last record may be converged, and a run has at most
    max_iterations records.  The status must be a `SolveStatus` value, and
    the status and reason those `solve` ends with: `benders.run_ending`, the
    loop's own exit rule, applied to the replayed records.  An ending it
    does not give is refused.  An optimum is checked by arithmetic against
    its converged record.  A malformed document comes back as messages too,
    never as an exception.
    """
    try:
        doc = _decode(trace) if isinstance(trace, str) else trace
    except ParseError as exc:
        return [str(exc)]
    if not isinstance(doc, dict):
        return [f"a trace is a JSON object, not {type(doc).__name__}"]
    problems: list[str] = []
    if doc.get("format") != _TRACE_FORMAT:
        return [f"unknown trace format {doc.get('format')!r}"]
    digest = instance_digest(instance)
    if doc.get("instance_digest") != digest:
        problems.append("instance digest does not match")
    try:
        config = _config_from_document(doc.get("config"), instance)
    except (ParseError, DimensionError) as exc:
        return problems + [str(exc)]
    mode = config.core_point_mode
    core = mode.point if isinstance(mode, FixedCore) else None
    iterations = doc.get("iterations")
    if not isinstance(iterations, list):
        return problems + ["iterations: expected a list"]
    cuts: list[Cut] = []
    records: list[IterationRecord] = []  # the replayed master points and values
    master = None
    for position, rec in enumerate(iterations, start=1):
        where = f"iteration {rec.get('index') if isinstance(rec, dict) else position}"
        try:
            point = _field(rec, "master_point", "record")
            recorded = EpiPoint(x=_vec(_field(point, "x", "master_point"), "master_point.x",
                                       instance.n),
                                eta=_num(_field(point, "eta", "master_point"), "master_point.eta"))
            recorded_value = _num(_field(rec, "master_value", "record"), "master_value")
            index = _int(_field(rec, "index", "record"), "index")
            converged = _field(rec, "outcome", "record") == CONVERGED
            cut = None if converged else _cut_from_document(rec.get("cut"), instance.n)
            cglp_value = None if converged else _num(rec.get("cglp_value"), "cglp_value")
            fallback = None if converged else rec.get("fallback")
            if not converged and not isinstance(fallback, bool):
                raise ParseError("fallback: expected true or false")
            cert = (None if converged or rec.get("certificate") is None
                    else _certificate_from_document(rec["certificate"], instance.m))
        except (ParseError, DimensionError, ZeroCertificate, PreconditionViolated) as exc:
            return problems + [f"{where}: {exc}"]
        if index != position:
            problems.append(f"{where}: recorded at position {position}")
        master = _solve_master(instance, cuts)
        if isinstance(master, str):
            return problems + [f"{where}: master became {master} on replay"]
        replayed, value, _ = master
        if replayed != recorded:
            problems.append(f"{where}: master point {_point_text(replayed)}"
                            f" != recorded {_point_text(recorded)}")
        if value != recorded_value:
            problems.append(f"{where}: master value {value} != recorded {recorded_value}")
        records.append(IterationRecord(position, replayed, value,
                                       CONVERGED if cut is None else CUT_ADDED, cut))
        if cut is None:
            if position < len(iterations):
                problems.append(f"{where}: a converged record before the last")
            continue
        if cut.holds_at(recorded):
            problems.append(f"{where}: recorded cut does not cut off its master point")
        if fallback and isinstance(config.strategy, MisOnes):
            problems.append(f"{where}: a fallback record under MisOnes, which never falls back")
        if cglp_value >= 0:
            problems.append(f"{where}: recorded cglp_value {cglp_value} is not negative")
        wrong = ("recorded cut has no certificate" if cert is None
                 else _certificate_problem(instance, cert, cut, replayed))
        if wrong is None and cglp_value < 0 and (fallback or not isinstance(mode, TrackIncumbent)):
            weights, weight_eta = strategy_weights(
                instance, round_strategy(config, core, replayed, fallback))
            priced = dot(weights + (weight_eta,), cert.as_tuple())
            if priced != cglp_value:
                wrong = f"recorded cglp_value {cglp_value} is not weights . certificate {priced}"
        if wrong is not None:
            problems.append(f"{where}: {wrong}")
        cuts.append(cut)
    status, reason = doc.get("status"), doc.get("reason")
    if status not in list(SolveStatus):
        return problems + [f"unknown status {status!r}"]
    limit = config.max_iterations
    if len(iterations) > limit:
        return problems + [f"status {status}: {len(iterations)} records under"
                           f" max_iterations {limit}"]
    try:
        # a converged last record's master is the master over every recorded cut
        ending = run_ending(instance, config, records,
                            master if records and records[-1].outcome == CONVERGED else None)
    except PreconditionViolated:
        return problems + [f"status {status}: the converged point lies outside epi(z)"]
    if ending is None:
        return problems + [f"status {status}: solve goes on after {len(iterations)} records:"
                           " the master over their cuts has an optimum, and epi(z) is not empty"]
    if (status, reason) != ending[:2]:
        return problems + [f"status {status}: replay ends {ending[0].value}, reason {ending[1]!r}"]
    if status != "optimal":
        return problems
    try:
        x, y = _vec(doc.get("x"), "x", instance.n), _vec(doc.get("y"), "y", instance.k)
        reported = _num(doc.get("value"), "value")
    except (ParseError, DimensionError) as exc:
        return problems + [f"status optimal: {exc}"]
    point, value = records[-1].master_point, records[-1].master_value
    if x != point.x or violated_row(feasibility_rows(instance, point), y) is not None:
        problems.append("status optimal: (x, y) does not solve the converged subproblem")
    objective = dot(instance.c, x) + dot(instance.d, y)
    if not reported == objective == value:
        problems.append(f"status optimal: value {reported}, c.x + d.y {objective} and"
                        f" master value {value} differ")
    return problems
