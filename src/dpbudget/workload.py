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
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import ValidationError, ValidationIssue
from .expressions import Expr, ExpressionParseError, free_statistics, format_expression, parse_expression

# Relative tolerance on |sum(budgets) - epsilon|.
BUDGET_SUM_RTOL = 1e-9

ESTIMATORS = ("analytic", "montecarlo")

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
        return {
            "normalize_by_sensitivity": self.normalize_by_sensitivity,
            "estimator": self.estimator,
            "mc_samples": self.mc_samples,
            "min_budget_fraction": self.min_budget_fraction,
        }


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

    def sensitivities(self) -> dict[str, float]:
        return {spec.id: spec.sensitivity for spec in self.statistics}

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
    """Accepts real JSON numbers only; bools and non-finite values are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    result = float(value)
    return result if math.isfinite(result) else None


def _workload_issues(
    epsilon: float,
    statistics: tuple[StatisticSpec, ...],
    equations: tuple[EquationSpec, ...],
    options: MetricOptions,
) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []

    if _as_number(epsilon) is None or epsilon <= 0:
        issues.append(
            ValidationIssue("NonPositiveEpsilon", f"epsilon must be a positive number, got {epsilon!r}")
        )

    if len(statistics) < 1:
        issues.append(ValidationIssue("MalformedDocument", "at least one statistic is required"))

    seen: set[str] = set()
    for spec in statistics:
        if not isinstance(spec.id, str) or not _ID_RE.match(spec.id):
            issues.append(
                ValidationIssue("MalformedDocument", f"statistic id {spec.id!r} is not a valid identifier")
            )
            continue
        if spec.id in seen:
            issues.append(
                ValidationIssue("DuplicateId", f"statistic id {spec.id!r} appears more than once", spec.id)
            )
        seen.add(spec.id)
        sensitivity = _as_number(spec.sensitivity)
        if sensitivity is None or sensitivity <= 0:
            issues.append(
                ValidationIssue(
                    "NonPositiveSensitivity",
                    f"statistic {spec.id!r} needs a positive sensitivity, got {spec.sensitivity!r}",
                    spec.id,
                )
            )
        if _as_number(spec.reference_value) is None:
            issues.append(
                ValidationIssue(
                    "MalformedDocument",
                    f"statistic {spec.id!r} needs a finite reference_value, got {spec.reference_value!r}",
                    spec.id,
                )
            )

    eq_seen: set[str] = set()
    for spec in equations:
        if not isinstance(spec.id, str) or not _ID_RE.match(spec.id):
            issues.append(
                ValidationIssue("MalformedDocument", f"equation id {spec.id!r} is not a valid identifier")
            )
            continue
        if spec.id in eq_seen:
            issues.append(
                ValidationIssue("DuplicateId", f"equation id {spec.id!r} appears more than once", spec.id)
            )
        eq_seen.add(spec.id)
        sensitivity = _as_number(spec.sensitivity)
        if sensitivity is None or sensitivity <= 0:
            issues.append(
                ValidationIssue(
                    "NonPositiveSensitivity",
                    f"equation {spec.id!r} needs a positive sensitivity, got {spec.sensitivity!r}",
                    spec.id,
                )
            )
        for ref in sorted(free_statistics(spec.expression)):
            if ref not in seen:
                issues.append(
                    ValidationIssue(
                        "UnknownStatisticRef",
                        f"equation {spec.id!r} references unknown statistic {ref!r}",
                        ref,
                    )
                )

    if options.estimator not in ESTIMATORS:
        issues.append(
            ValidationIssue(
                "MalformedDocument",
                f"options.estimator must be one of {ESTIMATORS}, got {options.estimator!r}",
            )
        )
    if not isinstance(options.mc_samples, int) or isinstance(options.mc_samples, bool) or options.mc_samples < 1:
        issues.append(
            ValidationIssue(
                "MalformedDocument", f"options.mc_samples must be a positive integer, got {options.mc_samples!r}"
            )
        )
    fraction = _as_number(options.min_budget_fraction)
    if fraction is None or fraction <= 0 or (len(statistics) >= 1 and fraction >= 1.0 / len(statistics)):
        issues.append(
            ValidationIssue(
                "MalformedDocument",
                "options.min_budget_fraction must satisfy 0 < fraction < 1/(number of statistics), "
                f"got {options.min_budget_fraction!r}",
            )
        )

    return issues


def _parse_document(document: str | Mapping[str, Any]) -> Mapping[str, Any]:
    if isinstance(document, str):
        try:
            parsed = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError([ValidationIssue("MalformedDocument", f"invalid JSON: {exc}")]) from None
    else:
        parsed = document
    if not isinstance(parsed, Mapping):
        raise ValidationError([ValidationIssue("MalformedDocument", "document root must be an object")])
    return parsed


def _check_keys(entry: Mapping[str, Any], allowed: set[str], where: str, issues: list[ValidationIssue]):
    for key in entry:
        if key not in allowed:
            issues.append(ValidationIssue("MalformedDocument", f"{where}: unknown key {key!r}"))


def _parse_options(raw: Any, issues: list[ValidationIssue]) -> MetricOptions:
    defaults = MetricOptions()
    if raw is None:
        return defaults
    if not isinstance(raw, Mapping):
        issues.append(ValidationIssue("MalformedDocument", "options must be an object"))
        return defaults
    _check_keys(
        raw,
        {"normalize_by_sensitivity", "estimator", "mc_samples", "min_budget_fraction"},
        "options",
        issues,
    )
    normalize = raw.get("normalize_by_sensitivity", defaults.normalize_by_sensitivity)
    if not isinstance(normalize, bool):
        issues.append(
            ValidationIssue("MalformedDocument", f"options.normalize_by_sensitivity must be a boolean, got {normalize!r}")
        )
        normalize = defaults.normalize_by_sensitivity
    estimator = raw.get("estimator", defaults.estimator)
    if estimator not in ESTIMATORS:
        issues.append(
            ValidationIssue("MalformedDocument", f"options.estimator must be one of {ESTIMATORS}, got {estimator!r}")
        )
        estimator = defaults.estimator
    mc_samples = raw.get("mc_samples", defaults.mc_samples)
    if isinstance(mc_samples, bool) or not isinstance(mc_samples, int) or mc_samples < 1:
        issues.append(
            ValidationIssue("MalformedDocument", f"options.mc_samples must be a positive integer, got {mc_samples!r}")
        )
        mc_samples = defaults.mc_samples
    fraction = _as_number(raw.get("min_budget_fraction", defaults.min_budget_fraction))
    if fraction is None or fraction <= 0:
        issues.append(
            ValidationIssue(
                "MalformedDocument",
                f"options.min_budget_fraction must be a positive number, got {raw.get('min_budget_fraction')!r}",
            )
        )
        fraction = defaults.min_budget_fraction
    return MetricOptions(
        normalize_by_sensitivity=normalize,
        estimator=estimator,
        mc_samples=mc_samples,
        min_budget_fraction=fraction,
    )


def load_workload(document: str | Mapping[str, Any]) -> Workload:
    """Builds a Workload from a JSON document (text or parsed object).

    Every violation found is reported in one ValidationError; unknown keys
    are rejected everywhere.
    """
    raw = _parse_document(document)
    issues: list[ValidationIssue] = []
    _check_keys(raw, {"epsilon", "options", "statistics", "equations"}, "document", issues)

    epsilon = _as_number(raw.get("epsilon"))
    if "epsilon" not in raw:
        issues.append(ValidationIssue("MalformedDocument", "missing key 'epsilon'"))
    elif epsilon is None:
        issues.append(ValidationIssue("MalformedDocument", f"epsilon must be a number, got {raw['epsilon']!r}"))
    elif epsilon <= 0:
        issues.append(ValidationIssue("NonPositiveEpsilon", f"epsilon must be positive, got {epsilon!r}"))

    options = _parse_options(raw.get("options"), issues)

    statistics: list[StatisticSpec] = []
    raw_stats = raw.get("statistics")
    if not isinstance(raw_stats, list) or not raw_stats:
        issues.append(ValidationIssue("MalformedDocument", "'statistics' must be a non-empty array"))
        raw_stats = []
    seen_ids: set[str] = set()
    for index, entry in enumerate(raw_stats):
        where = f"statistics[{index}]"
        if not isinstance(entry, Mapping):
            issues.append(ValidationIssue("MalformedDocument", f"{where} must be an object"))
            continue
        _check_keys(entry, {"id", "label", "sensitivity", "reference_value"}, where, issues)
        stat_id = entry.get("id")
        if not isinstance(stat_id, str) or not _ID_RE.match(stat_id):
            issues.append(ValidationIssue("MalformedDocument", f"{where}: id must be an identifier, got {stat_id!r}"))
            continue
        if stat_id in seen_ids:
            issues.append(ValidationIssue("DuplicateId", f"statistic id {stat_id!r} appears more than once", stat_id))
            continue
        seen_ids.add(stat_id)
        label = entry.get("label", "")
        if not isinstance(label, str):
            issues.append(ValidationIssue("MalformedDocument", f"{where}: label must be a string", stat_id))
            label = ""
        sensitivity = _as_number(entry.get("sensitivity"))
        if sensitivity is None:
            issues.append(
                ValidationIssue(
                    "MalformedDocument",
                    f"{where}: sensitivity must be a finite number, got {entry.get('sensitivity')!r}",
                    stat_id,
                )
            )
            continue
        if sensitivity <= 0:
            issues.append(
                ValidationIssue(
                    "NonPositiveSensitivity",
                    f"statistic {stat_id!r} needs a positive sensitivity, got {sensitivity!r}",
                    stat_id,
                )
            )
            continue
        reference = _as_number(entry.get("reference_value"))
        if reference is None:
            issues.append(
                ValidationIssue(
                    "MalformedDocument",
                    f"{where}: reference_value must be a finite number, got {entry.get('reference_value')!r}",
                    stat_id,
                )
            )
            continue
        statistics.append(StatisticSpec(id=stat_id, sensitivity=sensitivity, reference_value=reference, label=label))

    equations: list[EquationSpec] = []
    raw_equations = raw.get("equations", [])
    if not isinstance(raw_equations, list):
        issues.append(ValidationIssue("MalformedDocument", "'equations' must be an array"))
        raw_equations = []
    eq_ids: set[str] = set()
    for index, entry in enumerate(raw_equations):
        where = f"equations[{index}]"
        if not isinstance(entry, Mapping):
            issues.append(ValidationIssue("MalformedDocument", f"{where} must be an object"))
            continue
        _check_keys(entry, {"id", "expression", "sensitivity"}, where, issues)
        eq_id = entry.get("id")
        if not isinstance(eq_id, str) or not _ID_RE.match(eq_id):
            issues.append(ValidationIssue("MalformedDocument", f"{where}: id must be an identifier, got {eq_id!r}"))
            continue
        if eq_id in eq_ids:
            issues.append(ValidationIssue("DuplicateId", f"equation id {eq_id!r} appears more than once", eq_id))
            continue
        eq_ids.add(eq_id)
        text = entry.get("expression")
        if not isinstance(text, str):
            issues.append(ValidationIssue("MalformedDocument", f"{where}: expression must be a string", eq_id))
            continue
        try:
            expression = parse_expression(text)
        except ExpressionParseError as exc:
            issues.append(ValidationIssue("MalformedDocument", f"{where}: {exc}", eq_id))
            continue
        sensitivity = _as_number(entry.get("sensitivity"))
        if sensitivity is None:
            issues.append(
                ValidationIssue(
                    "MalformedDocument",
                    f"{where}: sensitivity must be a finite number, got {entry.get('sensitivity')!r}",
                    eq_id,
                )
            )
            continue
        if sensitivity <= 0:
            issues.append(
                ValidationIssue(
                    "NonPositiveSensitivity",
                    f"equation {eq_id!r} needs a positive sensitivity, got {sensitivity!r}",
                    eq_id,
                )
            )
            continue
        for ref in sorted(free_statistics(expression)):
            if ref not in seen_ids:
                issues.append(
                    ValidationIssue(
                        "UnknownStatisticRef",
                        f"equation {eq_id!r} references unknown statistic {ref!r}",
                        ref,
                    )
                )
        equations.append(EquationSpec(id=eq_id, expression=expression, sensitivity=sensitivity))

    if "epsilon" in raw and epsilon is not None and epsilon > 0 and raw_stats:
        count = len(seen_ids) or 1
        if options.min_budget_fraction >= 1.0 / count:
            issues.append(
                ValidationIssue(
                    "MalformedDocument",
                    "options.min_budget_fraction must be below 1/(number of statistics), "
                    f"got {options.min_budget_fraction!r} with {count} statistics",
                )
            )

    if issues:
        raise ValidationError(issues)
    return Workload(epsilon=epsilon, statistics=tuple(statistics), equations=tuple(equations), options=options)


def validate_allocation(workload: Workload, budgets: Mapping[str, float] | BudgetAllocation) -> BudgetAllocation:
    """Checks a raw budget map against the workload's constraints.

    Every budget must be present, positive, and the total must equal the
    workload's epsilon within BUDGET_SUM_RTOL relative tolerance.
    Validating an already-valid allocation returns an equal one.
    """
    raw = budgets.budgets if isinstance(budgets, BudgetAllocation) else dict(budgets)
    issues: list[ValidationIssue] = []
    statistic_ids = workload.statistic_ids
    ids = set(statistic_ids)

    for key in sorted(raw.keys() - ids):
        issues.append(ValidationIssue("UnknownBudgetId", f"budget for unknown statistic {key!r}", key))

    complete = True
    for stat_id in statistic_ids:
        if stat_id not in raw:
            issues.append(ValidationIssue("MissingBudget", f"no budget for statistic {stat_id!r}", stat_id))
            complete = False
            continue
        value = _as_number(raw[stat_id])
        if value is None:
            issues.append(
                ValidationIssue(
                    "MalformedDocument", f"budget for {stat_id!r} must be a finite number, got {raw[stat_id]!r}", stat_id
                )
            )
            complete = False
        elif value <= 0:
            issues.append(
                ValidationIssue("NonPositiveBudget", f"budget for {stat_id!r} must be positive, got {value!r}", stat_id)
            )

    if complete and not (raw.keys() - ids):
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
    """Parses an allocation document ({"budgets": {...}}) and validates it."""
    raw = _parse_document(document)
    issues: list[ValidationIssue] = []
    _check_keys(raw, {"budgets"}, "document", issues)
    budgets = raw.get("budgets")
    if not isinstance(budgets, Mapping):
        issues.append(ValidationIssue("MalformedDocument", "'budgets' must be an object"))
    else:
        for key, value in budgets.items():
            if not isinstance(key, str):
                issues.append(ValidationIssue("MalformedDocument", f"budget key {key!r} must be a string"))
            elif _as_number(value) is None:
                issues.append(
                    ValidationIssue("MalformedDocument", f"budget for {key!r} must be a finite number, got {value!r}", key)
                )
    if issues:
        raise ValidationError(issues)
    return validate_allocation(workload, dict(budgets))


def allocation_to_dict(allocation: BudgetAllocation) -> dict[str, Any]:
    return {"budgets": dict(allocation.budgets)}

