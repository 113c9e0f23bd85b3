"""Problem-instance model: statistics, equations, budgets, and validation.

A workload bundles everything needed to plan a release: the total privacy
budget, every statistic with its sensitivity and an up-front estimate of
its true value, and the equations an analyst is expected to compute from
the released values.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Collection, Mapping

from .errors import ValidationError, ValidationIssue
from .expressions import Expr, ExpressionParseError, free_statistics, format_expression, parse_expression

# Relative tolerance on |sum(budgets) - epsilon|.
BUDGET_SUM_RTOL = 1e-9

ESTIMATORS = ("analytic", "montecarlo")

# Fewest samples a Monte Carlo estimate accepts, and fewest lattice parts grid search accepts.
MIN_MC_SAMPLES = 1000
MIN_GRID_RESOLUTION = 10

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class StatisticSpec:
    """One releasable statistic.

    ``sensitivity`` is the worst-case change of the query answer when one
    record changes, in the answer's units. ``reference_value`` is the
    planning-time estimate of the true answer; it anchors linearization
    and simulation.
    """

    id: str
    sensitivity: float
    reference_value: float
    label: str = ""


@dataclass(frozen=True)
class EquationSpec:
    """A predicted analyst equation.

    ``sensitivity`` is what the sensitivity would be if the equation's
    result were fetched from the database as a single statistic instead
    of being assembled from released ones. It is used only to normalize
    scores, never to generate noise.
    """

    id: str
    expression: Expr
    sensitivity: float


@dataclass(frozen=True)
class MetricOptions:
    """Knobs for scoring.

    min_budget_fraction sets the positivity floor for optimizer outputs:
    every budget must stay at or above ``min_budget_fraction * epsilon``.
    """

    normalize_by_sensitivity: bool = True
    estimator: str = "analytic"
    mc_samples: int = 100_000
    min_budget_fraction: float = 1e-6

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


_OPTION_KEYS = frozenset(option.name for option in fields(MetricOptions))


@dataclass(frozen=True)
class Workload:
    """Immutable problem instance. Safe to share across threads."""

    epsilon: float
    statistics: tuple[StatisticSpec, ...]
    equations: tuple[EquationSpec, ...] = ()
    options: MetricOptions = field(default_factory=MetricOptions)

    def __post_init__(self):
        object.__setattr__(self, "statistics", tuple(self.statistics))
        object.__setattr__(self, "equations", tuple(self.equations))
        issues = _workload_issues(self.epsilon, self.statistics, self.equations, self.options)
        if issues:
            raise ValidationError(issues)

    @property
    def statistic_ids(self) -> tuple[str, ...]:
        return tuple(spec.id for spec in self.statistics)

    @property
    def min_budget(self) -> float:
        """Positivity floor for budgets: min_budget_fraction * epsilon."""
        return self.options.min_budget_fraction * self.epsilon

    def reference_values(self) -> dict[str, float]:
        return {spec.id: spec.reference_value for spec in self.statistics}

    def to_dict(self) -> dict[str, Any]:
        """Document form; feeding it back to load_workload reproduces the workload."""
        return {
            "epsilon": self.epsilon,
            "options": self.options.to_dict(),
            "statistics": [
                {
                    "id": spec.id,
                    "label": spec.label,
                    "sensitivity": spec.sensitivity,
                    "reference_value": spec.reference_value,
                }
                for spec in self.statistics
            ],
            "equations": [
                {
                    "id": spec.id,
                    "expression": format_expression(spec.expression),
                    "sensitivity": spec.sensitivity,
                }
                for spec in self.equations
            ],
        }


@dataclass(frozen=True)
class BudgetAllocation:
    """Per-statistic budgets. Treat as immutable once constructed."""

    budgets: dict[str, float]


def _as_number(value: Any) -> float | None:
    """Accepts real numbers only; bools, non-finite values and ints beyond float range are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        result = float(value)
    except OverflowError:
        return None
    return result if math.isfinite(result) else None


def _float_or_raw(value: Any) -> Any:
    """A valid number as a float; anything else unchanged, for the value checks to report."""
    number = _as_number(value)
    return value if number is None else number


def _shown(value: Any) -> str:
    """``repr(value)``, or the size of an integer past the interpreter's digit limit, whose repr raises."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return f"an integer of {value.bit_length()} bits"


def _check_number(
    issues: list[ValidationIssue],
    value: Any,
    what: str,
    subject: str | None = None,
    nonpositive_code: str | None = None,
) -> float | None:
    """Reports ``value`` unless it is a finite number (and positive, if ``nonpositive_code`` is given).

    A value of the wrong type, not finite or out of float range is
    MalformedDocument; a number <= 0 gets ``nonpositive_code``. Returns the
    number, or None when it is malformed.
    """
    number = _as_number(value)
    if number is None:
        message = f"{what} must be a finite number, got {_shown(value)}"
        issues.append(ValidationIssue("MalformedDocument", message, subject))
    elif nonpositive_code is not None and number <= 0:
        issues.append(ValidationIssue(nonpositive_code, f"{what} must be positive, got {number!r}", subject))
    return number


def _check_id(issues: list[ValidationIssue], kind: str, value: Any, seen: set[str]) -> bool:
    """Reports a malformed or repeated id; returns whether the entry's values can be checked."""
    if not isinstance(value, str) or not _ID_RE.match(value):
        issues.append(ValidationIssue("MalformedDocument", f"{kind} id {_shown(value)} is not a valid identifier"))
        return False
    if value in seen:
        issues.append(ValidationIssue("DuplicateId", f"{kind} id {value!r} appears more than once", value))
    seen.add(value)
    return True


def _workload_issues(
    epsilon: float,
    statistics: tuple[StatisticSpec, ...],
    equations: tuple[EquationSpec, ...],
    options: MetricOptions,
) -> list[ValidationIssue]:
    """Every value constraint of a workload. Documents and direct construction both end here."""
    issues: list[ValidationIssue] = []
    _check_number(issues, epsilon, "epsilon", nonpositive_code="NonPositiveEpsilon")
    if not statistics:
        issues.append(ValidationIssue("MalformedDocument", "at least one statistic is required"))

    statistic_ids: set[str] = set()
    for spec in statistics:
        if _check_id(issues, "statistic", spec.id, statistic_ids):
            what = f"statistic {spec.id!r}"
            _check_number(issues, spec.sensitivity, f"{what} sensitivity", spec.id, "NonPositiveSensitivity")
            _check_number(issues, spec.reference_value, f"{what} reference_value", spec.id)

    equation_ids: set[str] = set()
    for spec in equations:
        if _check_id(issues, "equation", spec.id, equation_ids):
            _check_number(
                issues, spec.sensitivity, f"equation {spec.id!r} sensitivity", spec.id, "NonPositiveSensitivity"
            )
            for ref in sorted(free_statistics(spec.expression)):
                if ref not in statistic_ids:
                    issues.append(
                        ValidationIssue(
                            "UnknownStatisticRef",
                            f"equation {spec.id!r} references unknown statistic {ref!r}",
                            ref,
                        )
                    )

    def malformed_option(name: str, rule: str) -> None:
        message = f"options.{name} must {rule}, got {_shown(getattr(options, name))}"
        issues.append(ValidationIssue("MalformedDocument", message))

    if not isinstance(options.normalize_by_sensitivity, bool):
        malformed_option("normalize_by_sensitivity", "be a boolean")
    if options.estimator not in ESTIMATORS:
        malformed_option("estimator", f"be one of {ESTIMATORS}")
    samples = options.mc_samples
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < MIN_MC_SAMPLES:
        malformed_option("mc_samples", f"be an integer of at least {MIN_MC_SAMPLES}")
    fraction = _as_number(options.min_budget_fraction)
    if fraction is None or fraction <= 0 or (statistics and fraction >= 1.0 / len(statistics)):
        malformed_option("min_budget_fraction", "satisfy 0 < fraction < 1/(number of statistics)")

    return issues


def _parse_document(document: str | Mapping[str, Any]) -> Mapping[str, Any]:
    if isinstance(document, str):
        # ValueError is also raised for an integer literal past the interpreter's digit
        # limit, and RecursionError for arrays or objects nested past the recursion limit.
        try:
            parsed = json.loads(document)
        except (ValueError, RecursionError) as exc:
            raise ValidationError([ValidationIssue("MalformedDocument", f"invalid JSON: {exc}")]) from None
    else:
        parsed = document
    if not isinstance(parsed, Mapping):
        raise ValidationError([ValidationIssue("MalformedDocument", "document root must be an object")])
    return parsed


def _check_keys(entry: Mapping[str, Any], allowed: Collection[str], where: str, issues: list[ValidationIssue]):
    for key in entry:
        if key not in allowed:
            issues.append(ValidationIssue("MalformedDocument", f"{where}: unknown key {key!r}"))


def _entries(raw: Mapping[str, Any], key: str, issues: list[ValidationIssue]) -> list[tuple[str, Mapping[str, Any]]]:
    """The objects of the array ``raw[key]`` (absent means empty), each with its location."""
    value = raw.get(key, [])
    if not isinstance(value, list):
        issues.append(ValidationIssue("MalformedDocument", f"{key!r} must be an array"))
        return []
    entries = []
    for index, entry in enumerate(value):
        if isinstance(entry, Mapping):
            entries.append((f"{key}[{index}]", entry))
        else:
            issues.append(ValidationIssue("MalformedDocument", f"{key}[{index}] must be an object"))
    return entries


def _subject(entry_id: Any) -> str | None:
    """An entry's id as an issue subject; an id that is not a string is reported by Workload."""
    return entry_id if isinstance(entry_id, str) else None


def _parse_options(raw: Any, issues: list[ValidationIssue]) -> MetricOptions:
    """Shape only: an object whose keys are MetricOptions fields. Workload checks the values."""
    if raw is None:
        return MetricOptions()
    if not isinstance(raw, Mapping):
        issues.append(ValidationIssue("MalformedDocument", "options must be an object"))
        return MetricOptions()
    _check_keys(raw, _OPTION_KEYS, "options", issues)
    return MetricOptions(**{key: value for key, value in raw.items() if key in _OPTION_KEYS})


def load_workload(document: str | Mapping[str, Any]) -> Workload:
    """Builds a Workload from a JSON document (text or parsed object).

    The document's shape is checked here and every value by Workload, so
    a document and direct construction report the same value faults.
    Every violation found is reported in one ValidationError; unknown keys
    are rejected everywhere.
    """
    raw = _parse_document(document)
    issues: list[ValidationIssue] = []
    _check_keys(raw, {"epsilon", "options", "statistics", "equations"}, "document", issues)
    options = _parse_options(raw.get("options"), issues)

    statistics: list[StatisticSpec] = []
    for where, entry in _entries(raw, "statistics", issues):
        _check_keys(entry, {"id", "label", "sensitivity", "reference_value"}, where, issues)
        stat_id = entry.get("id")
        label = entry.get("label", "")
        if not isinstance(label, str):
            issues.append(ValidationIssue("MalformedDocument", f"{where}: label must be a string", _subject(stat_id)))
            label = ""
        statistics.append(
            StatisticSpec(
                id=stat_id,
                sensitivity=_float_or_raw(entry.get("sensitivity")),
                reference_value=_float_or_raw(entry.get("reference_value")),
                label=label,
            )
        )

    equations: list[EquationSpec] = []
    for where, entry in _entries(raw, "equations", issues):
        _check_keys(entry, {"id", "expression", "sensitivity"}, where, issues)
        eq_id = entry.get("id")
        text = entry.get("expression")
        if not isinstance(text, str):
            issues.append(
                ValidationIssue("MalformedDocument", f"{where}: expression must be a string", _subject(eq_id))
            )
            continue
        try:
            expression = parse_expression(text)
        except ExpressionParseError as exc:
            issues.append(ValidationIssue("MalformedDocument", f"{where}: {exc}", _subject(eq_id)))
            continue
        equations.append(
            EquationSpec(id=eq_id, expression=expression, sensitivity=_float_or_raw(entry.get("sensitivity")))
        )

    try:
        workload = Workload(_float_or_raw(raw.get("epsilon")), tuple(statistics), tuple(equations), options)
    except ValidationError as exc:
        raise ValidationError(issues + exc.issues) from None
    if issues:
        raise ValidationError(issues)
    return workload


def validate_allocation(workload: Workload, budgets: Mapping[str, float] | BudgetAllocation) -> BudgetAllocation:
    """Checks a raw budget map against the workload's constraints.

    Every key must name a statistic, every budget must be present, a
    finite number and positive, and the total must equal the workload's
    epsilon within BUDGET_SUM_RTOL relative tolerance.
    Validating an already-valid allocation returns an equal one.
    """
    raw = budgets.budgets if isinstance(budgets, BudgetAllocation) else dict(budgets)
    issues: list[ValidationIssue] = []
    statistic_ids = workload.statistic_ids

    unknown = raw.keys() - set(statistic_ids)
    shown = {key: _shown(key) for key in unknown}
    for key in sorted(unknown, key=lambda key: (key if isinstance(key, str) else shown[key], shown[key])):
        issues.append(ValidationIssue("UnknownBudgetId", f"budget for unknown statistic {shown[key]}", key))

    complete = not unknown
    for stat_id in statistic_ids:
        if stat_id not in raw:
            issues.append(ValidationIssue("MissingBudget", f"no budget for statistic {stat_id!r}", stat_id))
            complete = False
        elif _check_number(issues, raw[stat_id], f"budget for {stat_id!r}", stat_id, "NonPositiveBudget") is None:
            complete = False

    if complete:
        total = math.fsum(float(raw[stat_id]) for stat_id in statistic_ids)
        if abs(total - workload.epsilon) > BUDGET_SUM_RTOL * workload.epsilon:
            issues.append(
                ValidationIssue(
                    "BudgetSumMismatch",
                    f"budgets sum to {total!r} but epsilon is {workload.epsilon!r}",
                )
            )

    if issues:
        raise ValidationError(issues)
    return BudgetAllocation(budgets={stat_id: float(raw[stat_id]) for stat_id in statistic_ids})


def load_allocation(document: str | Mapping[str, Any], workload: Workload) -> BudgetAllocation:
    """Parses an allocation document ({"budgets": {...}}) and validates it.

    The document's shape is checked here and every budget by
    validate_allocation; all violations are reported in one ValidationError.
    """
    raw = _parse_document(document)
    issues: list[ValidationIssue] = []
    _check_keys(raw, {"budgets"}, "document", issues)
    budgets = raw.get("budgets")
    if not isinstance(budgets, Mapping):
        raise ValidationError(issues + [ValidationIssue("MalformedDocument", "'budgets' must be an object")])
    try:
        allocation = validate_allocation(workload, budgets)
    except ValidationError as exc:
        raise ValidationError(issues + exc.issues) from None
    if issues:
        raise ValidationError(issues)
    return allocation


def allocation_to_dict(allocation: BudgetAllocation) -> dict[str, Any]:
    return {"budgets": dict(allocation.budgets)}

