"""Exception hierarchy shared by all switchbif modules.

Every error carries the CLI exit code of its family in the class
attribute ``exit_code``:

- 1, user errors: a bad configuration or argument (ParseError,
  ValidationError, DomainError, OriginError, SideError);
- 2, numerical failures: the integrator failures (TangencyError,
  BudgetError, StiffnessError, EscapeError) and the solver and
  estimator failures, DegenerateError among them;
- 3, any other SwitchBifError: an internal error.
"""


class SwitchBifError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


# -- configuration / model construction ------------------------------------

class ParseError(SwitchBifError):
    """A configuration document could not be parsed.

    Carries a human-readable location (JSON path or line/column) in
    ``location`` when one is available.
    """

    exit_code = 1

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location


class ValidationError(SwitchBifError):
    """A system definition violates the standing assumptions.

    ``report`` holds the full ValidationReport when the error was
    produced from one.
    """

    exit_code = 1

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# -- domain / argument errors -----------------------------------------------

class DomainError(SwitchBifError):
    """A parameter value lies outside the system's parameter interval."""

    exit_code = 1


class OriginError(SwitchBifError):
    """A state is the origin, where the switching law is undefined, or is
    indistinguishable from it at float resolution."""

    exit_code = 1


class SideError(SwitchBifError):
    """A section-map entry point lies on the wrong semi-axis."""

    exit_code = 1


# -- integration failures ----------------------------------------------------

class TangencyError(SwitchBifError):
    """A switching-manifold crossing is not transversal.

    Raised when the normal velocity at a located crossing is too small,
    or when the fields on both sides of an axis disagree about the
    crossing direction (sliding / grazing contact).
    """

    exit_code = 2


class BudgetError(SwitchBifError):
    """An integration exhausted its switching-event or per-arc time budget."""

    exit_code = 2


class StiffnessError(SwitchBifError):
    """The adaptive step size underflowed."""

    exit_code = 2


class EscapeError(SwitchBifError):
    """A state lies outside the bounding box, max-norm 1e6."""

    exit_code = 2


# -- solver / estimator failures ----------------------------------------------

class NoBracketError(SwitchBifError):
    """No sign change was found over the supplied bracket."""

    exit_code = 2


class DegenerateError(SwitchBifError):
    """A nondegeneracy hypothesis fails (e.g. vanishing derivative)."""

    exit_code = 2


class NoOrbitError(SwitchBifError):
    """No periodic-orbit residual sign change exists in the scan range."""

    exit_code = 2


class PerturbationTooSmallError(SwitchBifError):
    """Return-map residuals sit below the integrator noise floor."""

    exit_code = 2


class InsufficientDataError(SwitchBifError):
    """Too few data points for the requested fit."""

    exit_code = 2
