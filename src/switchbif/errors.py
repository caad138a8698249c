"""Exception hierarchy shared by all switchbif modules.

Every error carries the CLI exit code of its family in the class
attribute ``exit_code``, set once per family and inherited:

- 1, UserError: a bad configuration or argument (ParseError,
  ValidationError, DomainError, OriginError, SideError);
- 2, NumericalError: the integration failures, IntegrationError
  (TangencyError, BudgetError, StiffnessError, EscapeError), and the
  solver and estimator failures, DegenerateError among them;
- 3, any other SwitchBifError: an internal error.
"""


class SwitchBifError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class UserError(SwitchBifError):
    """A bad configuration or argument."""

    exit_code = 1


class NumericalError(SwitchBifError):
    """A numerical method failed on a well-formed input."""

    exit_code = 2


class IntegrationError(NumericalError):
    """An integration did not complete: no return map exists from its start."""


# -- configuration / model construction ------------------------------------

class ParseError(UserError):
    """A configuration document could not be parsed.

    The message starts with a human-readable location (JSON path or
    line/column) when one is given.
    """

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{location}: {message}")


class ValidationError(UserError):
    """A system definition violates the standing assumptions.  The message
    joins the violations of the ValidationReport, separated by "; "."""


# -- domain / argument errors -----------------------------------------------

class DomainError(UserError):
    """A parameter value lies outside the system's parameter interval or where
    b or c is not positive, or a computed value leaves the float range."""


class OriginError(UserError):
    """A state is the origin, where the switching law is undefined, or is
    indistinguishable from it at float resolution."""


class SideError(UserError):
    """A section-map entry point lies on the wrong semi-axis."""


# -- integration failures ----------------------------------------------------

class TangencyError(IntegrationError):
    """A switching-manifold crossing is not transversal.

    Raised when the normal velocity at a located crossing is too small,
    or when the fields on both sides of an axis disagree about the
    crossing direction (sliding / grazing contact).
    """


class BudgetError(IntegrationError):
    """An integration exhausted its switching-event or per-arc time budget."""


class StiffnessError(IntegrationError):
    """The adaptive step size underflowed."""


class EscapeError(IntegrationError):
    """The start or a trial state lies outside the bounding box, max-norm 1e6, or is
    NaN, or an arc grew over 10-fold (the growth rule of ``numeric.integrate``)."""


# -- solver / estimator failures ----------------------------------------------

class NoBracketError(NumericalError):
    """No sign change was found over the supplied bracket."""


class DegenerateError(NumericalError):
    """A nondegeneracy hypothesis fails (e.g. vanishing derivative)."""


class NoOrbitError(NumericalError):
    """No periodic-orbit residual sign change exists in the scan range."""


class PerturbationTooSmallError(NumericalError):
    """Return-map residuals sit below the integrator noise floor."""


class InsufficientDataError(NumericalError):
    """Too few data points for the requested fit."""
