"""Exception types shared across the toolkit."""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class IndexOutOfRangeError(ToolkitError):
    """A vertex index lies outside the host graph's range."""


class SelfLoopError(ToolkitError):
    """An edge or pair joins a vertex to itself."""


class ParseError(ToolkitError):
    """Malformed input text; carries the offending line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class DisconnectedError(ToolkitError):
    """An operation that needs a connected host (or pair) found no path."""


class DisconnectedPairError(DisconnectedError):
    """A required pair of vertices has no connecting path."""


class PathNotInGraphError(ToolkitError):
    """A vertex sequence is not a simple path of the host graph."""


class BudgetExceededError(ToolkitError):
    """A search exceeded its budget before reaching a verdict."""


class EmptyGraphError(ToolkitError):
    """The operation requires at least one vertex."""


class ImproperColoringError(ToolkitError):
    """A vertex coloring assigns equal colors to adjacent vertices."""


class NotSubsetRainbowConnectedError(ToolkitError):
    """The given edge coloring fails to rainbow-connect the required pairs."""


class NotAStarError(ToolkitError):
    """The graph is not a star with the expected center/leaf layout."""


class PairNotLeafPairError(ToolkitError):
    """A pair of a star instance involves the center vertex."""


class TooFewColorsError(ToolkitError):
    """The coloring does not provide enough color indices for the construction."""


class InvalidOrderError(ToolkitError):
    """Gadget order (color budget) outside the constructible range."""


class MissingLayerTagsError(ToolkitError):
    """The gadget lacks the layer bookkeeping needed to derive its coloring."""


class DomainMismatchError(ToolkitError):
    """Partial colorings do not tile the target edge set as required."""
