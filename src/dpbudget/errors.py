"""Exception types and the accumulated-violation report used by validators."""

from __future__ import annotations

from dataclasses import dataclass


class DPBudgetError(Exception):
    """Base class for every error raised by this package."""


@dataclass(frozen=True)
class ValidationIssue:
    """One constraint violation found in a document or allocation.

    Attributes:
        code: stable machine-readable name, e.g. "BudgetSumMismatch".
        message: human-readable explanation.
        subject: offending identifier, when one exists.
    """

    code: str
    message: str
    subject: str | None = None

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationError(DPBudgetError):
    """A document or allocation violates its constraints.

    Carries every violation found, not just the first, so a document can
    be fixed in one pass.
    """

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = list(issues)
        super().__init__("; ".join(str(issue) for issue in self.issues))

    def codes(self) -> set[str]:
        return {issue.code for issue in self.issues}

    def subjects(self, code: str) -> set[str | None]:
        return {issue.subject for issue in self.issues if issue.code == code}


class ExpressionParseError(DPBudgetError):
    """Syntax error in an equation expression.

    Attributes:
        offset: character offset of the failure in the source text.
        expected: token descriptions that would have been accepted there.
    """

    def __init__(self, offset: int, expected: tuple[str, ...], message: str):
        self.offset = offset
        self.expected = tuple(expected)
        super().__init__(f"at offset {offset}: {message} (expected {', '.join(expected)})")


class MissingValueError(DPBudgetError):
    """A referenced statistic id has no value in the supplied map."""

    def __init__(self, statistic_id: str):
        self.statistic_id = statistic_id
        super().__init__(f"MissingValue: no value for statistic {statistic_id!r}")


class DivisionNearZeroError(DPBudgetError):
    """A division was attempted with a denominator too close to zero."""


class NonFiniteError(DPBudgetError):
    """A value, amplitude or score overflows floating point (or is NaN); the inputs' magnitudes are too large."""


class HeavyTailWarning(DPBudgetError):
    """Too many sampled denominators were near zero; estimates would be meaningless."""


class NotSeparableError(DPBudgetError):
    """An equation couples two or more statistics, so no closed-form split exists."""


class TooManyStatisticsError(DPBudgetError):
    """The instance is too large for exhaustive grid search."""


class ResolutionTooCoarseError(DPBudgetError):
    """The requested grid resolution is below the supported minimum."""
