"""Exception types shared across the package."""


class DicboundError(Exception):
    """Base class for all errors raised by this package."""


class ChannelFormatError(DicboundError):
    """A channel table is structurally malformed (wrong size, symbol out of range).

    Distinct from a channel that is well-formed but fails the invertibility check.
    """


class DistributionError(DicboundError):
    """A source distribution is malformed or does not match the source set."""


class ChainValidationError(DicboundError):
    """A cut chain violates the nesting or membership rules."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class BudgetExceededError(DicboundError):
    """An evaluation would enumerate more source atoms, cut chains or sampled
    laws than its cap."""


class RecipeError(DicboundError):
    """A replication recipe is malformed or references unknown replicas."""


class UnsupportedBoundError(DicboundError):
    """The requested bound id has no built-in recipe."""


class ProverError(DicboundError):
    """A prover problem is malformed or exceeds the variable budget."""


class UsageError(DicboundError):
    """Bad command-line input: unknown reference, unreadable or malformed file."""
