"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: 0 pass, 1 property failure,
2 parse error, 3 budget exceeded, 4 inference inconsistency.
"""

from __future__ import annotations


class TreePlanError(Exception):
    """Base class for all package errors."""


class DomainError(TreePlanError):
    """An argument is outside an operation's domain (unknown node, bad pair, ...)."""


class PlanSyntaxError(TreePlanError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class FormulaSyntaxError(TreePlanError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class BudgetError(TreePlanError):
    """A requested expansion or search exceeds the configured node budget."""


class CapacityError(TreePlanError):
    """An embedding extension needs a fresh sibling the target cannot supply."""


class InferenceError(TreePlanError):
    """Two-sample plan inference found no consistent reconstruction."""

    def __init__(self, message: str, offending: list | None = None):
        super().__init__(message)
        self.offending = offending or []


class UnboundVariableError(TreePlanError):
    """A formula was evaluated with a free variable that its ``env`` does not bind."""
