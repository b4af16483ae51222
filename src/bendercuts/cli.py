"""Command-line surface: solve, separate, verify, enumerate, bench.

Output is line oriented key=value text with exact rationals throughout.
Every number argument is a literal of the instance files' grammar; an
integer option such as --max-iter must also be a whole number.
Exit codes: 0 success, 2 infeasible, 3 unbounded or ill-posed, 4 input
error, 5 iteration limit reached.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .benders import (FixedCore, SolveStatus, SolverConfig, TrackIncumbent, _solve_master,
                      solve)
from .cglp import Custom, Directional, MisOnes, ObjectiveSpec, build_alt_polyhedron
from .errors import (DimensionError, EmptyEpigraph, ParseError,
                     PreconditionViolated, StrategyUnbounded, TooLarge,
                     UnboundedDirection, ZeroCertificate)
from .instance_io import _num, load_instance, trace_to_json
from .linalg import LITERAL, sized
from .model import EpiPoint, Instance
from .separation import Cut, SEPARATED, certificate_for_cut, separate
from .verify import enumerate_vertices, face_report, is_mis_certificate, pareto_verdict

_ZERO = Fraction(0)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_INPUT = 4
EXIT_ITERATIONS = 5

_STATUS_EXIT = {
    SolveStatus.OPTIMAL: EXIT_OK,
    SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
    SolveStatus.ILL_POSED: EXIT_UNBOUNDED,
    SolveStatus.ITERATION_LIMIT: EXIT_ITERATIONS,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParseError instead of exiting."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # lets tokens like -2/7 pass as values rather than option names
        self._negative_number_matcher = LITERAL

    def error(self, message):
        raise ParseError(message)


def _rational(text: str) -> Fraction:
    """The literals of instance files; argparse puts the option name in front."""
    try:
        return _num(text, "value")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _whole(text: str) -> int:
    """A `_rational` that is a whole number, as an int."""
    value = _rational(text)
    if value.denominator != 1:
        raise argparse.ArgumentTypeError(f"value: expected a whole number, got {text!r}")
    return int(value)


def _var_name(i: int, n: int) -> str:
    return "x" if n == 1 else f"x{i + 1}"


def format_cut(cut: Cut) -> str:
    """Human form of the cut as a >= inequality, eta coefficient scaled to 1."""
    ge_x = tuple(-v for v in cut.coef_x)
    ge_eta = -cut.coef_eta
    ge_rhs = -cut.rhs
    scale = 1 / ge_eta if ge_eta else 1 / abs(next(v for v in ge_x if v))
    ge_x = tuple(scale * v for v in ge_x)
    ge_eta = scale * ge_eta
    ge_rhs = scale * ge_rhs
    n = len(ge_x)
    terms = [(v, _var_name(i, n)) for i, v in enumerate(ge_x) if v]
    if ge_eta:
        terms.append((ge_eta, "eta"))
    parts: list[str] = []
    for coef, name in terms:
        if not parts:
            parts.append(name if coef == 1 else f"-{name}" if coef == -1 else f"{coef} {name}")
        else:
            sign = "+" if coef > 0 else "-"
            mag = abs(coef)
            parts.append(f"{sign} {name}" if mag == 1 else f"{sign} {mag} {name}")
    return f"{' '.join(parts)} >= {ge_rhs}"


def _vec_str(vec) -> str:
    return " ".join(str(v) for v in vec)


def _build_strategy(args, instance: Instance, has_core_mode: bool) -> ObjectiveSpec:
    name = args.strategy
    aimed = args.omega is not None or args.omega0 is not None
    if aimed and (name != "directional" or has_core_mode):
        raise ParseError("--omega/--omega0 need --strategy directional without --core-point/--blend")
    if (args.omega_tilde is not None or args.omega_tilde0 is not None) and name != "custom":
        raise ParseError("--omega-tilde/--omega-tilde0 need --strategy custom")
    if name == "mis":
        return MisOnes()
    if name == "directional":
        if has_core_mode:
            return Directional(direction=(_ZERO,) * instance.n, direction_eta=Fraction(1))
        if args.omega is None or args.omega0 is None:
            raise ParseError("--strategy directional needs --omega and --omega0")
        return Directional(direction=tuple(sized(args.omega, instance.n, "--omega")),
                           direction_eta=args.omega0)
    if args.omega_tilde is None:
        raise ParseError("--strategy custom needs --omega-tilde")
    weight_eta = args.omega_tilde0 if args.omega_tilde0 is not None else Fraction(-1)
    return Custom(weights=tuple(sized(args.omega_tilde, instance.m, "--omega-tilde")),
                  weight_eta=weight_eta)


def _parse_point(values: Sequence[Fraction], instance: Instance) -> EpiPoint:
    sized(values, instance.n + 1, "--point")
    return EpiPoint(x=tuple(values[:-1]), eta=values[-1])


def _cmd_solve(args) -> int:
    instance = load_instance(args.file)
    mode = None
    if args.core_point is not None and args.blend is not None:
        raise ParseError("--core-point and --blend are mutually exclusive")
    if args.core_point is not None:
        mode = FixedCore(_parse_point(args.core_point, instance))
    elif args.blend is not None:
        mode = TrackIncumbent(args.blend)
    strategy = _build_strategy(args, instance, mode is not None)
    config = SolverConfig(strategy=strategy, max_iterations=args.max_iter,
                          core_point_mode=mode)
    result = solve(instance, config)
    # classified before anything is written: an empty epi(z) raises here
    faces = [face_report(instance, rec.cut) for rec in result.trace
             if args.verify and rec.cut is not None]
    if args.trace is not None:
        Path(args.trace).write_text(trace_to_json(instance, config, result), encoding="utf-8")
    print(f"status={result.status.value}")
    print(f"iterations={len(result.trace)}")
    if result.value is not None:
        print(f"value={result.value}")
        print(f"x={_vec_str(result.x)}")
        print(f"y={_vec_str(result.y)}")
    if result.reason is not None:
        print(f"reason={result.reason}")
    for face in faces:
        print(f"cut_classification={face.classification.value}")
    return _STATUS_EXIT[result.status]


def _cmd_separate(args) -> int:
    instance = load_instance(args.file)
    point = _parse_point(args.point, instance)
    strategy = _build_strategy(args, instance, False)
    result = separate(instance, point, strategy)
    print(f"kind={result.kind}")
    if result.kind == SEPARATED:
        print(f"cut={format_cut(result.cut)}")
        print(f"supporting={'true' if result.supporting else 'false'}")
        print(f"cglp_value={result.cglp_value}")
        print(f"certificate={_vec_str(result.certificate.as_tuple())}")
    return EXIT_OK


def _root_master_point(instance: Instance) -> Optional[EpiPoint]:
    master = _solve_master(instance, ())
    return None if isinstance(master, str) else master[0]


def _cmd_verify(args) -> int:
    instance = load_instance(args.file)
    values = sized(args.cut, instance.n + 2, "--cut")
    cut = Cut(coef_x=tuple(values[:instance.n]), coef_eta=values[instance.n],
              rhs=values[instance.n + 1])
    report = face_report(instance, cut)
    print(f"face_dimension={report.face_dimension}")
    print(f"epi_dimension={report.epi_dimension}")
    print(f"classification={report.classification.value}")
    point = _parse_point(args.point, instance) if args.point is not None \
        else _root_master_point(instance)
    cert = certificate_for_cut(instance, cut)
    if point is None or cert is None:
        print("mis=unknown")
    else:
        print(f"mis={'true' if is_mis_certificate(instance, point, cert) else 'false'}")
    verdict = pareto_verdict(instance, cut)
    print(f"pareto={verdict.kind.value}")
    if verdict.witness is not None:
        print(f"witness_x={_vec_str(verdict.witness.x)}")
        print(f"witness_eta={verdict.witness.eta}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    instance = load_instance(args.file)
    point = _parse_point(args.point, instance)
    for label, relaxed in (("alt", False), ("relaxed", True)):
        poly = build_alt_polyhedron(instance, point, relaxed=relaxed)
        vertices = enumerate_vertices(poly)
        print(f"{label}_vertex_count={len(vertices)}")
        for v in vertices:
            print(f"{label}_vertex={_vec_str(v)}")
    return EXIT_OK


_BENCH_STRATEGIES = {
    "mis": lambda instance: MisOnes(),
    "directional": lambda instance: Directional(direction=(_ZERO,) * instance.n,
                                                direction_eta=Fraction(1)),
}


def _cmd_bench(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise ParseError(f"not a directory: {args.dir}")
    files = sorted(root.glob("*.json"))
    if not files:
        raise ParseError(f"no .json instances under {args.dir}")
    names = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not names:
        raise ParseError("--strategies names no strategy")
    for name in names:
        if name not in _BENCH_STRATEGIES:
            raise ParseError(f"unknown strategy {name!r} (expected mis or directional)")
    instances = [(path.name, load_instance(path)) for path in files]
    for filename, instance in instances:
        for name in names:
            config = SolverConfig(strategy=_BENCH_STRATEGIES[name](instance),
                                  max_iterations=args.max_iter)
            result = solve(instance, config)
            value = str(result.value) if result.value is not None else "-"
            print(f"instance={filename} strategy={name} status={result.status.value} "
                  f"iterations={len(result.trace)} value={value}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="bendercuts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_strategy(p):
        p.add_argument("--strategy", choices=("mis", "directional", "custom"), default="mis")
        p.add_argument("--omega", nargs="+", type=_rational, default=None,
                       help="master-space direction (n rationals, directional strategy)")
        p.add_argument("--omega0", type=_rational, default=None,
                       help="eta component of the direction")
        p.add_argument("--omega-tilde", nargs="+", type=_rational, default=None,
                       help="row weights (m rationals, custom strategy)")
        p.add_argument("--omega-tilde0", type=_rational, default=None,
                       help="eta-row weight for the custom strategy (default -1)")

    p = sub.add_parser("solve", help="run the decomposition loop")
    p.add_argument("file")
    common_strategy(p)
    p.add_argument("--max-iter", type=_whole, default=50)
    p.add_argument("--verify", action="store_true",
                   help="classify every emitted cut with the face oracle")
    p.add_argument("--trace", default=None, help="write a replayable trace file")
    p.add_argument("--core-point", nargs="+", type=_rational, default=None,
                   help="fixed core point (n+1 rationals); aims each cut at it")
    p.add_argument("--blend", type=_rational, default=None,
                   help="blend factor in (0,1); tracks the incumbent as core point")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("separate", help="one separation query at a point")
    p.add_argument("file")
    p.add_argument("--point", nargs="+", type=_rational, required=True,
                   help="query point (n+1 rationals: x then eta)")
    common_strategy(p)
    p.set_defaults(handler=_cmd_separate)

    p = sub.add_parser("verify", help="classify a cut: face, MIS, Pareto")
    p.add_argument("file")
    p.add_argument("--cut", nargs="+", type=_rational, required=True,
                   help="cut in <=-form (n+2 rationals: coef_x, coef_eta, rhs)")
    p.add_argument("--point", nargs="+", type=_rational, default=None,
                   help="separation point for the MIS check (default: root master optimum)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enumerate", help="vertices of the certificate polyhedra at a point")
    p.add_argument("file")
    p.add_argument("--point", nargs="+", type=_rational, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("bench", help="iteration counts per strategy over a directory")
    p.add_argument("dir")
    p.add_argument("--strategies", default="mis,directional")
    p.add_argument("--max-iter", type=_whole, default=50)
    p.set_defaults(handler=_cmd_bench)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except EmptyEpigraph as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (StrategyUnbounded, UnboundedDirection) as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except (ParseError, DimensionError, PreconditionViolated, TooLarge,
            ZeroCertificate, OSError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))
