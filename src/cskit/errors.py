"""Exception types shared across the toolkit.

CLI exit-code mapping: InputError (and subclasses) -> 2,
WorkBoundExceeded -> 3, a negative verification result -> 1.
"""


class InputError(ValueError):
    """Malformed or inconsistent input: mixed alphabets, ragged rows, bad coefficients."""


class ParseError(InputError):
    """Malformed sequence-set file; carries the offending line and column (1-based)."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SeedError(RuntimeError):
    """A packaged seed failed to load or verify; names the offending seed file."""


class WorkBoundExceeded(RuntimeError):
    """A search exceeded its node budget or state bound, or a request is above its size cap.

    From `search_cs`, it says how far the search got: `nodes` visited,
    `depth` the deepest column whose slots were built, by its place in the
    fill order (column 0 is place 0), and `classes` found. Elsewhere these
    are None.
    """

    nodes = depth = classes = None
