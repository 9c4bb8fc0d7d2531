"""Exception types shared across the toolkit."""


class TamecountError(Exception):
    """Base class for all toolkit errors."""


class ParseError(TamecountError):
    """Malformed cycle notation, group file, weight file, or profile file."""


class ValidationError(TamecountError):
    """Well-formed input violating a documented precondition."""


class ContractViolationError(TamecountError):
    """An operation was called outside its contract (e.g. non-normal kernel)."""


class ResourceCapError(TamecountError):
    """A configured resource cap (group element count, LP pivot count) was exceeded."""


class UnsupportedHypothesisError(TamecountError):
    """The operation is only proven under a hypothesis the input fails."""
