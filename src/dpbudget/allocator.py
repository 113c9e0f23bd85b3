"""Budget allocation strategies.

Four routes with different trade-offs:

* uniform_allocation: the neutral baseline, epsilon split evenly.
* sqrt_rule_allocation: exact closed form when no equation couples two or
  more statistics (the objective is then a sum of c_i / budget_i terms and
  the minimizer puts budgets proportional to sqrt(c_i)).
* grid_search: exhaustive enumeration on a lattice, small instances only;
  serves as the oracle the other optimizers are checked against.
* optimize_descent: mirror descent on the budget simplex with a monotone
  acceptance rule; handles coupled equations.

All strategies work with the closed-form estimator and return allocations
that satisfy the sum constraint and the positivity floor.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import NotSeparableError, ResolutionTooCoarseError, TooManyStatisticsError
from .expressions import free_statistics
from .propagation import FirstOrderModel, budget_vector
from .scoring import score_validated
from .workload import BudgetAllocation, MetricOptions, Workload, allocation_to_dict, validate_allocation

_GRID_MAX_STATISTICS = 5
_GRID_MIN_RESOLUTION = 10
_GRID_CHUNK = 1 << 18
# Mirror-descent step size at the first iteration; halved on each rejected step.
_DESCENT_STEP = 0.1


@dataclass(frozen=True)
class OptimizationResult:
    allocation: BudgetAllocation
    metric: float
    iterations: int
    converged: bool
    method: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "metric": self.metric,
            "iterations": self.iterations,
            "converged": self.converged,
            "allocation": allocation_to_dict(self.allocation),
        }


def _analytic_model(options: MetricOptions | None, workload: Workload) -> tuple[MetricOptions, FirstOrderModel]:
    options = options if options is not None else workload.options
    if options.estimator != "analytic":
        options = replace(options, estimator="analytic")
    return options, FirstOrderModel(workload, options.normalize_by_sensitivity)


def _result(
    workload: Workload, model: FirstOrderModel, options: MetricOptions, budgets: np.ndarray, **fields
) -> OptimizationResult:
    """Validates the optimizer's budgets and reports them with their scored metric."""
    allocation = validate_allocation(
        workload, {stat_id: float(b) for stat_id, b in zip(workload.statistic_ids, budgets)}
    )
    metric = score_validated(model, workload, allocation, options, None).metric
    return OptimizationResult(allocation=allocation, metric=metric, **fields)


def _floor_and_fill(budgets: np.ndarray, epsilon: float, floor: float) -> np.ndarray:
    """Scales to sum epsilon, then lifts entries below the floor.

    Entries at the floor are fixed and the remainder is redistributed
    proportionally; repeats until stable (at most one pass per entry).
    """
    budgets = np.maximum(np.asarray(budgets, dtype=float), 0.0)
    total = budgets.sum()
    if total <= 0:
        budgets = np.full(budgets.size, epsilon / budgets.size)
    else:
        budgets = budgets * (epsilon / total)
    for _ in range(budgets.size):
        low = budgets < floor
        if not low.any():
            return budgets
        budgets = budgets.copy()
        budgets[low] = floor
        remainder = epsilon - floor * int(low.sum())
        high = ~low
        budgets[high] *= remainder / budgets[high].sum()
    return budgets


def uniform_allocation(workload: Workload) -> BudgetAllocation:
    """Splits epsilon evenly across the statistics."""
    share = workload.epsilon / len(workload.statistics)
    return validate_allocation(workload, {stat_id: share for stat_id in workload.statistic_ids})


def sqrt_rule_allocation(workload: Workload, options: MetricOptions | None = None) -> OptimizationResult:
    """Closed-form optimum for separable workloads.

    Requires that no equation reference two or more statistics; the metric
    then collapses to sum(c_i / budget_i) and the exact minimizer is
    budget_i = epsilon * sqrt(c_i) / sum(sqrt(c_j)), floored at the
    positivity floor.

    Raises:
        NotSeparableError: some equation couples several statistics.
    """
    for equation in workload.equations:
        used = free_statistics(equation.expression)
        if len(used) > 1:
            raise NotSeparableError(
                f"equation {equation.id!r} couples statistics {sorted(used)}; no closed form applies"
            )
    options, model = _analytic_model(options, workload)
    # Every model row has at most one entry, so equation j adds
    # sqrt(weight_j) / norm_j to its statistic's c_i.
    coeff = model.us_coeff + np.bincount(
        model.cols, np.sqrt(model.weights) / model.norms[model.rows], minlength=model.us_coeff.size
    )
    roots = np.sqrt(coeff)
    budgets = workload.epsilon * roots / roots.sum()
    budgets = _floor_and_fill(budgets, workload.epsilon, workload.min_budget)
    return _result(workload, model, options, budgets, iterations=0, converged=True, method="sqrt_rule")


@functools.lru_cache(maxsize=8)
def _compositions(total: int, parts: int) -> np.ndarray:
    """All ways to write ``total`` as ``parts`` positive integers, in
    lexicographic order. Cached; callers must not mutate the result."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    cuts_per_row = parts - 1
    count = math.comb(total - 1, cuts_per_row)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(1, total), cuts_per_row)),
        dtype=np.int64,
        count=count * cuts_per_row,
    )
    cuts = flat.reshape(count, cuts_per_row)
    return np.concatenate([cuts[:, :1], np.diff(cuts, axis=1), total - cuts[:, -1:]], axis=1)


def grid_search(workload: Workload, resolution: int, options: MetricOptions | None = None) -> OptimizationResult:
    """Exhaustive search over all budget splits on a lattice.

    Enumerates every composition of ``resolution`` parts into one positive
    cell per statistic, scores each with the closed-form metric, and
    returns the best; exact ties go to the lexicographically smallest
    budget vector. Intended as an oracle for small instances.

    Raises:
        TooManyStatisticsError: more than 5 statistics.
        ResolutionTooCoarseError: resolution below 10.
    """
    count = len(workload.statistics)
    if count > _GRID_MAX_STATISTICS:
        raise TooManyStatisticsError(f"grid search supports at most {_GRID_MAX_STATISTICS} statistics, got {count}")
    if resolution < _GRID_MIN_RESOLUTION:
        raise ResolutionTooCoarseError(f"resolution must be at least {_GRID_MIN_RESOLUTION}, got {resolution}")
    options, model = _analytic_model(options, workload)
    unit = workload.epsilon / resolution
    floor = workload.min_budget
    compositions = _compositions(resolution, count)
    best_value = math.inf
    best_row: np.ndarray | None = None
    evaluated = 0
    for start in range(0, compositions.shape[0], _GRID_CHUNK):
        chunk = compositions[start : start + _GRID_CHUNK]
        budgets = chunk * unit
        if floor > unit:
            feasible = (budgets >= floor).all(axis=1)
            if not feasible.all():
                budgets = budgets[feasible]
                if budgets.size == 0:
                    continue
        values = model.metric_batch(budgets)
        evaluated += values.size
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value = float(values[i])
            best_row = budgets[i].copy()
    if best_row is None:
        raise ResolutionTooCoarseError("no lattice cell satisfies the positivity floor")
    return _result(workload, model, options, best_row, iterations=evaluated, converged=True, method="grid")


def objective_gradient(
    workload: Workload, allocation: BudgetAllocation, options: MetricOptions | None = None
) -> dict[str, float]:
    """Exact partial derivatives of the closed-form metric per budget."""
    allocation = validate_allocation(workload, allocation)
    _, model = _analytic_model(options, workload)
    gradient = model.gradient(budget_vector(workload, allocation))
    return {stat_id: float(g) for stat_id, g in zip(workload.statistic_ids, gradient)}


def optimize_descent(
    workload: Workload,
    options: MetricOptions | None = None,
    *,
    max_iters: int = 5000,
    tol: float = 1e-10,
) -> OptimizationResult:
    """Mirror descent on the budget simplex, starting from uniform.

    Each iteration proposes budget_i * exp(-step * gradient_i), rescaled
    to sum epsilon and floored; the step starts at _DESCENT_STEP.
    Proposals are accepted only when they improve the metric, otherwise
    the step is halved. Stops when an accepted improvement falls below
    ``tol`` (relative) or the step underflows; hitting ``max_iters`` first
    reports converged=False with the best allocation found.
    """
    options, model = _analytic_model(options, workload)
    epsilon = workload.epsilon
    floor = workload.min_budget
    count = len(workload.statistic_ids)
    budgets = np.full(count, epsilon / count)
    current = model.metric(budgets)
    eta = _DESCENT_STEP
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        gradient = model.gradient(budgets)
        exponent = -eta * gradient
        candidate = budgets * np.exp(exponent - exponent.max())
        candidate = _floor_and_fill(candidate, epsilon, floor)
        value = model.metric(candidate)
        if value < current:
            improvement = (current - value) / current
            budgets = candidate
            current = value
            if improvement < tol:
                converged = True
                break
        else:
            eta *= 0.5
            if eta < 1e-18:
                converged = True
                break
    return _result(workload, model, options, budgets, iterations=iterations, converged=converged, method="descent")
