"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class DimensionError(ToolkitError):
    """Vector or matrix dimensions do not line up."""


class ParseError(ToolkitError):
    """An instance or trace document could not be parsed."""


class EmptyEpigraph(ToolkitError):
    """No master point yields a feasible subproblem."""


class ZeroCertificate(ToolkitError):
    """An all-zero multiplier vector carries no cut."""


class StrategyUnbounded(ToolkitError):
    """The cut-generating LP for the chosen objective is unbounded."""


class UnboundedDirection(ToolkitError):
    """The support function is +infinity in the requested direction."""


class PreconditionViolated(ToolkitError):
    """The queried direction does not admit the requested construction."""


class TooLarge(ToolkitError):
    """Refused for size: brute-force enumeration past its cap, or a number
    past the digit limit of instance and trace documents."""


class InfeasibleCandidate(ToolkitError):
    """The candidate point is not feasible for the system."""


class DominanceUndefined(ToolkitError):
    """Cut domination is only defined for cuts with a negative eta coefficient."""
