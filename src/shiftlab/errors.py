"""Exception types shared across the package."""


class ShiftLabError(Exception):
    pass


class DomainMismatchError(ShiftLabError, ValueError):
    """Operands live over different index domains (unilateral vs bilateral)."""


class UnsupportedOperationError(ShiftLabError, ValueError):
    """Operation not defined for the given space (e.g. a norm on a weak* space)."""


class InvalidArgumentError(ShiftLabError, ValueError):
    pass


class ResourceLimitError(ShiftLabError, RuntimeError):
    """A prefix index past ``shiftops.EXACT_INDEX`` (2^53), an anchor with
    |P| >= ``shiftops.ANCHOR_LOGMAG`` (2^27) or an orbit term past double
    range was asked for."""


class ConstructionRefusedError(ShiftLabError, RuntimeError):
    """Vector construction refused because the convergence criterion failed.

    Carries the failing report in ``.report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
