"""Shared exception types."""


class BudgetError(RuntimeError):
    """A computation would exceed a configured size/time cap."""

