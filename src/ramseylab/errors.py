"""Exception hierarchy shared across the library and the CLI."""

DEFAULT_BUDGET = 50_000_000  # DFS nodes a search may explore before BudgetExhaustedError


class RamseyLabError(Exception):
    """Base class for all library-specific errors."""


class BudgetExhaustedError(RamseyLabError):
    """A bounded search ran out of its node budget; the answer is unknown."""

    def __init__(self, message: str, nodes_explored: int = 0):
        super().__init__(message)
        self.nodes_explored = nodes_explored


class CapExceededError(RamseyLabError):
    """No value within the requested cap satisfied the query."""


class GraphTooLargeError(RamseyLabError):
    """An exact solver was asked for an instance beyond its cap."""


class InvariantViolationError(RamseyLabError):
    """An internal postcondition failed; indicates a bug or a bad instance."""
