"""Exception types shared across the package, and an integer check."""

import operator


def indices(values, error, what):
    """``values`` as a tuple of ints, or ``error`` naming ``what``: a float
    or other non-integer is refused where ``int()`` would truncate it."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise error(f"{what} must be integers") from None


class GraphError(ValueError):
    """Invalid graph construction or graph operation."""


class FormatError(GraphError):
    """Malformed graph file or string.

    Carries an optional 1-based line number and file path for diagnostics;
    the message leads with the path, then the line, then ``reason``.
    """

    def __init__(self, message, line=None, path=None):
        self.reason = message
        self.line = line
        self.path = path
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class SpectralError(RuntimeError):
    """Spectral computation could not be performed as requested."""


class SeriesError(ValueError):
    """Series evaluation outside its certified domain."""


class HypothesisNotMet(SeriesError):
    """A theorem hypothesis (spectral radius above max host degree) fails.

    Distinguished from plain failures so callers can report 'inapplicable'
    rather than 'wrong'.
    """
