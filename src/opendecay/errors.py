"""Exception taxonomy.

Everything raised on purpose derives from :class:`OpenDecayError` so the
command line wrapper can map failures onto its exit codes (configuration
problems are reported separately from physics/accuracy problems).
"""


class OpenDecayError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OpenDecayError):
    """Bad user input: unknown key, wrong type, missing required value."""


class ValidationError(OpenDecayError, ValueError):
    """A value lies outside its domain, or a model object failed its checks."""


class DegenerateSystemError(ValidationError):
    """Both the bias and the tunneling element vanish: no two-level splitting."""


class AccuracyError(OpenDecayError):
    """A quadrature or grid refinement failed to converge to tolerance."""


class OverdampedRenormalizationError(OpenDecayError):
    """Bath-induced frequency shift drove the squared frequency non-positive."""


class StiffnessError(OpenDecayError):
    """The problem is too stiff for its budget.

    Adaptive step-size control underflowed or ran out of steps, or a
    constant generator's Taylor plan needs more substeps than its budget.
    """


class IntegratorAccuracyError(OpenDecayError):
    """A propagated state was not finite or violated trace/positivity bounds."""


class ConventionMismatchError(OpenDecayError):
    """Two independent evolution routes disagree far beyond their tolerances."""


class StructuralError(OpenDecayError):
    """A superoperator lacks required structure (e.g. does not preserve trace)."""


class NodeSingularityError(OpenDecayError):
    """Coefficient extraction requested too close to a node of the propagator."""


class InversionError(OpenDecayError):
    """Numerical inverse Laplace transform failed its self-consistency check."""


class TruncationError(OpenDecayError):
    """Truncated-basis propagation leaked population into the boundary state."""
