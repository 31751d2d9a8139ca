"""Exception hierarchy shared across the package.

Every failure mode a caller may want to catch has its own class; CLI exit
codes are derived from these (see cli.py).
"""


class PhilabError(Exception):
    """Base class for all package errors."""


class StructureParseError(PhilabError):
    """A structure file violates the format; always names the line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownElementError(PhilabError):
    """An element identifier is not a row of the structure."""


class UnknownParameterError(PhilabError):
    """A parameter identifier is not a column of the structure."""


class LiteralClashError(PhilabError):
    """The same parameter was assigned both signs."""


class ArityMismatchError(PhilabError):
    """A tuple or sign vector does not match the family arity."""


class ResourceLimitError(PhilabError):
    """A configured size guard was exceeded; never a silent truncation."""


class PreconditionError(PhilabError):
    """A documented operation precondition does not hold."""


class InvariantError(PhilabError):
    """A certificate failed its own soundness check: a bug, not bad input."""
