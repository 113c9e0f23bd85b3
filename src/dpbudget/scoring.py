"""Allocation scoring: per-statistic and per-equation noise scores.

A score is the rmse of the noise a consumer sees; lower is better. With
normalization on (the default) each rmse is divided by the corresponding
sensitivity so that statistics of very different magnitudes weigh equally.
The overall metric for an allocation is the plain sum of all scores.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Sequence

from .errors import NonFiniteError, ValidationError
from .propagation import FirstOrderModel, _SquareSum, replay_montecarlo
from .workload import BudgetAllocation, MetricOptions, Workload, _option_issues, validate_allocation


@dataclass(frozen=True)
class UtilityReport:
    """Score breakdown for one allocation.

    metric is exactly the sum of us_terms and ue_terms. us_terms holds the
    per-statistic scores keyed by statistic id, ue_terms the per-equation
    scores keyed by equation id.
    """

    metric: float
    us_terms: dict[str, float]
    ue_terms: dict[str, float]
    options: MetricOptions

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class RankedAllocation:
    name: str
    rank: int
    report: UtilityReport

    def to_dict(self) -> dict[str, Any]:
        entry = self.report.to_dict()
        entry["name"] = self.name
        entry["rank"] = self.rank
        return entry


def score_allocation(
    workload: Workload,
    allocation: BudgetAllocation,
    options: MetricOptions | None = None,
    seed: int | None = None,
) -> UtilityReport:
    """Scores an allocation: sum of all statistic and equation scores.

    A statistic's score is sqrt(2) * sensitivity / budget, the rmse of its
    Laplace noise (sqrt(2) / budget with normalization on). Analytic
    equation scores come from one sparse first-order model, built once.
    Options (the workload's if None) are checked as a workload's are.
    """
    allocation = validate_allocation(workload, allocation)
    model, options = _scorer(workload, options)
    return score_validated(model, allocation, options, seed)


def _scorer(workload: Workload, options: MetricOptions | None) -> tuple[FirstOrderModel, MetricOptions]:
    """What score_validated reads: the options (the workload's if None), checked as a workload's are, and the
    first-order model for them, over no expression (no gradient) for Monte Carlo."""
    options = options if options is not None else workload.options
    if issues := _option_issues(options, len(workload.statistics)):
        raise ValidationError(issues)
    expressions = [] if options.estimator == "montecarlo" else None
    return FirstOrderModel(workload, options.normalize_by_sensitivity, expressions), options


def score_validated(
    model: FirstOrderModel,
    allocation: BudgetAllocation,
    options: MetricOptions,
    seed: int | None,
) -> UtilityReport:
    """score_allocation on a validated allocation, with the model and the checked options ``_scorer`` returns."""
    workload = model.workload
    budgets = model.units(allocation)
    if options.estimator == "montecarlo":
        if seed is None:
            raise ValueError("the montecarlo estimator requires an explicit seed")
        # The score reads only each rmse, so the kernel keeps only each sum of squares.
        expressions = [(f"equation {eq.id!r}", eq.expression, _SquareSum) for eq in workload.equations]
        kept = replay_montecarlo(workload, allocation, expressions, options.mc_samples, seed)
        statistic_part = model.statistic_terms(budgets).tolist()
        equation_part = [summary.rmse() / norm for summary, norm in zip(kept, model.norms.tolist())]
    else:
        statistic_part, equation_part = (terms.tolist() for terms in model.terms(budgets))
    us_terms = dict(zip(workload.statistic_ids, statistic_part))
    ue_terms = dict(zip([equation.id for equation in workload.equations], equation_part))
    try:
        metric = math.fsum(us_terms.values()) + math.fsum(ue_terms.values())
    except OverflowError:  # finite terms whose sum overflows
        metric = math.inf
    if not math.isfinite(metric):
        raise NonFiniteError(f"the metric overflows at this allocation ({metric!r}): its budgets are too small")
    return UtilityReport(metric=metric, us_terms=us_terms, ue_terms=ue_terms, options=options)


def compare_allocations(
    workload: Workload,
    allocations: Sequence[tuple[str, BudgetAllocation]],
    options: MetricOptions | None = None,
    seed: int | None = None,
) -> list[RankedAllocation]:
    """Ranks named allocations by metric, best (lowest) first.

    Ties keep their input order. At least two allocations are required.
    """
    if len(allocations) < 2:
        raise ValueError(f"need at least two allocations to compare, got {len(allocations)}")
    validated = [(name, validate_allocation(workload, allocation)) for name, allocation in allocations]
    model, options = _scorer(workload, options)
    scored = [(name, score_validated(model, allocation, options, seed)) for name, allocation in validated]
    order = sorted(range(len(scored)), key=lambda i: scored[i][1].metric)
    return [
        RankedAllocation(name=scored[i][0], rank=position + 1, report=scored[i][1])
        for position, i in enumerate(order)
    ]
