"""Exact cut generation and selection for linear two-stage decompositions.

Everything runs over rational arithmetic: LP solves, certificates, cuts,
and the verification oracles are all tolerance-free.
"""

from .benders import (FixedCore, IterationRecord, SolveResult, SolveStatus,
                      SolverConfig, TrackIncumbent, solve, subproblem_check)
from .cglp import (Custom, Directional, MisOnes, ObjectiveSpec,
                   build_alt_polyhedron, build_cglp_normalized,
                   build_cglp_relaxed_subproblem, build_reverse_polar_lp,
                   lift_objective, mis_objective)
from .errors import (DimensionError, DominanceUndefined, EmptyEpigraph,
                     InfeasibleCandidate, ParseError, PreconditionViolated,
                     StrategyUnbounded, TooLarge, ToolkitError,
                     UnboundedDirection, ZeroCertificate)
from .instance_io import (instance_digest, load_instance, parse_instance,
                          replay_trace, serialize_instance, trace_document,
                          trace_to_json)
from .model import (EpiPoint, FiniteDomain, Instance, PolyhedralDomain,
                    epi_contains, epi_dimension, epi_face_dimension,
                    epi_is_empty, subproblem_value, support_function,
                    undecomposed_value)
from .separation import (Certificate, Cut, DirectionClass, SeparationResult,
                         boundedness_check, canonical_cut, certificate_for_cut,
                         certificate_to_cut, exposed_point, separate, tighten_rhs)
from .verify import (FaceClass, FaceReport, ParetoKind, ParetoVerdict,
                     core_point, dominates, enumerate_vertices, face_report,
                     is_mis_certificate, is_vertex, pareto_verdict,
                     relative_interior_point)

__version__ = "0.1.0"
