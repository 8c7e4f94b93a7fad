"""Exception types shared across the package."""

from __future__ import annotations


class DenseRankError(Exception):
    """Base class for every error raised by this package."""


class InvalidConstraintError(DenseRankError):
    """Constraint data is malformed for its family (members, selected)."""


class DensityError(DenseRankError):
    """Instance is not dense: an r-subset is missing, duplicated, or foreign."""


class EmptyInstanceError(DenseRankError):
    """An operation would produce an instance with fewer vertices than the arity."""


class EnumerationCapError(DenseRankError):
    """The exact oracle was asked about more vertices than its engine's cap."""


class OracleError(DenseRankError):
    """The exact oracle reached a state its construction excludes."""


class SemanticsError(DenseRankError):
    """Operation applied to a constraint family it is not defined for."""


class PreconditionError(DenseRankError):
    """A documented operation precondition does not hold."""


class ConfigError(DenseRankError):
    """Generator or verification configuration is unusable."""


class RuleInapplicableError(DenseRankError):
    """A reduction rule was applied where its premise fails."""


class KernelDriverError(DenseRankError):
    """Kernelization reached a state its supporting guarantees exclude."""


class InstanceReadError(DenseRankError):
    """Instance file could not be read at all (missing, unreadable)."""


class ParseError(DenseRankError):
    """Instance file rejected; `line` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class HeaderError(ParseError):
    """Header line is malformed."""


class UnknownFamilyError(ParseError):
    """Header names a constraint family this package does not know."""


class RecordSyntaxError(ParseError):
    """Record line has the wrong shape or a non-integer token."""


class DuplicateRecordError(ParseError):
    """Two records describe the same r-subset."""


class SelectedValueError(ParseError):
    """Record's selected data falls outside its member set."""


class RecordCountError(ParseError):
    """File does not contain exactly one record per r-subset."""
