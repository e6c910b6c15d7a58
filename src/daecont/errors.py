"""Exception hierarchy shared by all daecont modules."""


class DaecontError(Exception):
    """Base class for every error raised by this package."""


class SingularMatrixError(DaecontError):
    """A pivot fell below the singularity threshold during a linear solve."""


class NoConvergenceError(DaecontError):
    """An iteration exhausted its budget without meeting its tolerance."""


class SingularJacobianError(DaecontError):
    """Newton's linear subproblem is singular."""


class EvaluationError(DaecontError):
    """A user-supplied function produced a non-finite or mis-shaped value."""


class HypothesisViolatedError(DaecontError):
    """A structural hypothesis (orthogonality, constancy, commutation) failed its audit."""


class RankMismatchError(DaecontError):
    """Numerical rank of the mass matrix is not half its dimension."""


class ConditionsViolatedError(DaecontError):
    """Kernel/image alignment conditions for the semi-linear reduction failed."""


class SingularBlockError(DaecontError):
    """A transformed block that must be invertible is numerically singular."""


class DegenerateZeroError(DaecontError):
    """A located zero has a (near-)singular Jacobian; its sign is undefined."""


class BoundaryZeroError(DaecontError):
    """The map vanishes on (or too close to) the boundary of the box."""


class SuspectIncompleteError(DaecontError):
    """Sign pattern suggests an unlocated zero; refusing to certify a degree."""


class SingularMonodromyError(DaecontError):
    """The shooting Jacobian is singular at the requested point."""


class SeedRejectedError(DaecontError):
    """Continuation seed is not a zero of the seeding map."""


class ExpressionSyntaxError(DaecontError):
    """Malformed expression text.

    Carries the byte offset of the failure and the set of tokens that
    would have been accepted there.
    """

    def __init__(self, offset, expected, message=None):
        self.offset = offset
        self.expected = tuple(expected)
        super().__init__(
            message or f"syntax error at offset {offset}: expected one of {sorted(self.expected)}"
        )


class UnknownIdentifierError(DaecontError):
    """Identifier is neither a known function nor an allowed variable."""


class UnboundVariableError(DaecontError):
    """Expression evaluated with a variable missing from the environment."""


class NonfiniteResultError(DaecontError):
    """Expression evaluation produced inf or NaN."""


class SchemaError(DaecontError):
    """Problem file violates the documented format (keys, shapes, kinds)."""
