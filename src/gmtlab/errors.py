"""Exception taxonomy shared across the package.

Two families matter to callers: precondition failures (bad inputs or
configuration, CLI exit code 2) and invariant violations (a computed
result failed one of its own postcondition checks, CLI exit code 3).
"""


class GmtlabError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(GmtlabError, ValueError):
    """An operation was called with inputs outside its contract."""


class InvariantViolation(GmtlabError, RuntimeError):
    """A computed result failed a structural self-check."""


class DegeneratePair(PreconditionError):
    """Two points too close together to span a line."""


class TooManyPoints(PreconditionError):
    """A generator would emit more points than the hard cap."""


class TooFewPoints(PreconditionError):
    """An operation needs more input points than were supplied."""


class ScaleRangeTooNarrow(PreconditionError):
    """A regression was requested over fewer than the minimum dyadic levels."""


class EmptyInput(PreconditionError):
    """An operation received an empty collection."""


class AllMassAtCenter(PreconditionError):
    """Every positive-weight point sits at the projection center."""


class AllCollinear(PreconditionError):
    """Input points all lie on a single line."""


class SeparationViolated(PreconditionError):
    """Two measures are closer together than the audit requires."""


class CollinearX(PreconditionError):
    """The center set is contained in a single line."""


class LowDimY(PreconditionError):
    """The target set's dimension is below the experiment's threshold."""


class ConfigInvalid(PreconditionError):
    """A CLI or experiment configuration failed validation."""
