"""Shared exception types.

Everything raised on purpose by this package derives from TentplaneError,
so callers can catch one type at the boundary.  Parsing problems carry
position info; depth-limited answers that would require extrapolating an
unvalidated symbol raise AmbiguousAtDepth instead of guessing.
"""
from __future__ import annotations


class TentplaneError(Exception):
    pass


class MalformedSequence(TentplaneError):
    """Sequence notation that does not parse or violates a structural rule."""


class MalformedStarPeriod(MalformedSequence):
    """Star-resolution input must be pure periodic with exactly one trailing star."""


class NotAdmissible(TentplaneError):
    """Sequence rejected by the kneading bounds."""


class AmbiguousAtDepth(TentplaneError):
    """The answer depends on symbols beyond the validated depth.

    Raised instead of silently extrapolating a truncated kneading sequence.
    """

    def __init__(self, msg: str, depth=None):
        super().__init__(msg)
        self.depth = depth


class ChartOverflow(TentplaneError):
    """Gluing chart has no room: a required margin came out non-positive."""


class WrongContext(TentplaneError):
    """Operation asked about a tail that is not the scene's left context."""


class ParseError(TentplaneError):
    """Config or scene input that does not parse.

    Carries the 1-based line and column when the input is text with a
    known position, else None for both.
    """

    def __init__(self, msg: str, line=None, col=None):
        super().__init__(msg if line is None else f"{msg} (line {line}, col {col})")
        self.line = line
        self.col = col


class ConflictError(TentplaneError):
    """Inputs that contradict each other: exclusive config keys, a slope and a nu."""
