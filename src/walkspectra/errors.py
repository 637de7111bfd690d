"""Exception types shared across the package, an integer check, the one
reader of integer text from outside, and the bounded quote of refused input."""

import operator


def indices(values, error, what):
    """``values`` as a tuple of ints, or ``error`` naming ``what``: a float
    or other non-integer is refused where ``int()`` would truncate it."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise error(f"{what} must be integers") from None


QUOTE_LIMIT = 80  # the characters of refused input an error message quotes


def quoted(text):
    """``text`` quoted, or its first ``QUOTE_LIMIT`` characters and its length."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"


def integer(text, error, what=None):
    """The int of ``text``, or ``error`` led by ``what``: the one grammar of
    integer text from outside is surrounding whitespace, an optional ``-``
    and ASCII digits, so ``int()``'s ``+7``, ``1_0`` and ``٣`` are refused;
    text with more digits than ``int()`` converts is named too long."""
    digits = text.strip().removeprefix("-")
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
        reason = f"{quoted(text)} is not an integer"
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        reason = f"an integer of {len(digits)} digits is too long"
    raise error(reason if what is None else f"{what}: {reason}")


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
