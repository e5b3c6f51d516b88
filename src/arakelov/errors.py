"""Exception types shared across the library."""


class ArakelovError(Exception):
    """Base class for all library-specific errors."""


class InvalidDescriptorError(ArakelovError):
    """Field descriptor outside the supported family."""


class ZeroElementError(ArakelovError):
    """Absolute value or divisor requested for the zero element."""


class InvalidMetricError(ArakelovError):
    """Gram data is not a valid positive-definite metric."""


class FieldMismatchError(ArakelovError):
    """Operands live over different base fields."""


class DependentGeneratorsError(ArakelovError):
    """Subbundle generators are linearly dependent over the base field."""


class UnsupportedFieldError(ArakelovError):
    """Operation not available over this base field at desk scale."""


class EnumerationCapError(ArakelovError):
    """Enumeration node budget exhausted; the result is indeterminate."""

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes


class ZetaDivergenceError(ArakelovError):
    """The zeta series diverges at this exponent: below full rank it
    converges only for s > rank."""


class InvalidCosetError(ArakelovError):
    """Congruence datum reduces to the zero coset."""


class NoSplitPrimeError(ArakelovError):
    """No split prime with a small generator was found below the search bound."""


class MonteCarloDiscardError(ArakelovError):
    """Too many trials were discarded for the estimate to be trusted."""


class BudgetExceededError(ArakelovError):
    """Requested instance exceeds the configured dimension budget."""


class GramFileError(ArakelovError):
    """Malformed Gram file; ``line`` is the 1-based offending line."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
