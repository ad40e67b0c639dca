"""Exception hierarchy shared by all teamlog modules."""


class TeamlogError(Exception):
    """Base class for all errors raised by teamlog."""


class FormulaSyntaxError(TeamlogError):
    """Malformed formula text; ``position`` is a character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityMismatchError(TeamlogError):
    """Inclusion atom with tuples of different lengths."""


class MixedAtomsError(TeamlogError):
    """Formula mixes dependency atoms of more than one kind."""


class UnknownVariableError(TeamlogError):
    """Formula mentions a variable outside the team's domain."""


class TeamFormatError(TeamlogError):
    """Malformed team text (bad row arity, non-bit value, duplicate row)."""


class EnumerationCapError(TeamlogError):
    """Team too large for exhaustive split / subteam enumeration."""


class ResourceBoundError(TeamlogError):
    """An explicit size or search-budget bound was exceeded."""


class EngineNotApplicableError(TeamlogError):
    """A SAT engine was asked to handle a logic it does not support."""

