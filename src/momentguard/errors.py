"""Semantic exception hierarchy.

Every failure mode raised by the library derives from :class:`MomentGuardError`,
so callers can catch one base class. The CLI maps subfamilies to exit codes:
validation errors exit 2, numerical failures exit 3, dimension/feasibility
errors exit 4.
"""


class MomentGuardError(Exception):
    """Base class for all errors raised by momentguard."""


class ValidationError(MomentGuardError, ValueError):
    """Inputs violate a documented contract (domain, rank, range)."""


class NumericalError(MomentGuardError, ArithmeticError):
    """A solver or numerical routine failed to produce a reliable answer."""


class FeasibilityError(MomentGuardError):
    """The requested computation is structurally impossible for these inputs."""


# -- validation ---------------------------------------------------------------

class DimensionMismatch(ValidationError):
    """Array shapes are inconsistent; the message names the offending field."""


class SingularSigma(ValidationError):
    """The moment variance matrix is not (numerically) positive definite."""


class RankDeficientGamma(ValidationError):
    """The moment Jacobian does not have full column rank."""


class ZeroH(ValidationError):
    """The derivative of the target functional is identically zero."""


class InvalidBias(ValidationError):
    """Worst-case bias argument is negative or non-finite."""


class OutOfRange(ValidationError):
    """A scalar outside its admissible interval, or a non-finite array entry."""


class EmptySuspectSet(ValidationError):
    """No suspect instrument indices were supplied."""


class ConstraintViolated(ValidationError):
    """A supplied sensitivity does not satisfy the estimating-equation constraint."""


# -- numerical ----------------------------------------------------------------

class SingularSystem(NumericalError):
    """A linear system that should be well posed turned out singular."""


class SolverFailure(NumericalError):
    """An iterative solver exceeded its budget or lost its bracket."""


class DegeneratePath(NumericalError):
    """The homotopy hit an unresolvable tie or stalled before termination."""


class NoValidS(NumericalError):
    """No weighting-matrix factor reproduces the requested sensitivity."""


class SingularW1(ValidationError):
    """The inner weighting block is singular."""


class InfeasibleDelta(ValidationError):
    """The modulus radius must be strictly positive."""


# -- dimension / feasibility --------------------------------------------------

class RankDeficiency(FeasibilityError):
    """A working matrix lost rank where full rank is required."""


class JustIdentified(FeasibilityError):
    """The model has no overidentifying restrictions; the test is undefined."""


class TooManyInvalidMoments(FeasibilityError):
    """More suspect directions than overidentifying restrictions."""


class VertexEnumerationTooLarge(FeasibilityError):
    """Exact sign enumeration would exceed the supported dimension cap."""


class CNotInSet(FeasibilityError):
    """The supplied perturbation is not a member of the misspecification set."""


class EmptyFrontier(ValidationError):
    """A sensitivity frontier with no knots was supplied."""
