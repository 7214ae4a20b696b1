"""Exception types shared across the package."""


class ReescalcError(Exception):
    """Base class for all package errors."""


class ContextMismatchError(ReescalcError):
    """Operands live in different ring contexts."""


class RankMismatchError(ReescalcError):
    """Vector length does not match the ambient free-module rank."""


class ParseError(ReescalcError):
    """Syntax error in a polynomial or problem file, with position info."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class InputError(ReescalcError):
    """Malformed problem file or invalid operation arguments."""


class UnstableChainError(ReescalcError):
    """A colon chain failed to stabilize within the step budget.

    Carries the last chain value, and the colengths of the chain's
    values from value_0 on, so callers can inspect them.
    """

    def __init__(self, message, last_value=None, colengths=()):
        super().__init__(message)
        self.last_value = last_value
        self.colengths = colengths


class DeadlineExceeded(ReescalcError):
    """A cooperative deadline was hit inside a long-running computation."""


class SoundnessAlert(ReescalcError):
    """A theorem-guaranteed implication failed at runtime.

    This always indicates either a bug or an uncertified heuristic closure
    and must never be reported as an ordinary mathematical result.
    """
