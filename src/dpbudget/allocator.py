"""Budget allocation strategies, all on the closed-form metric.

* uniform_allocation: the neutral baseline, epsilon split evenly.
* sqrt_rule_allocation: the exact optimum when no equation couples two or
  more statistics: budgets proportional to sqrt(c_i), floored.
* grid_search: exhaustive lattice search, the oracle for small instances.
* optimize_descent: majorize-minimize from uniform, for coupled equations.

The square-root rule and descent share one solve (_surrogate_minimum). Each
result satisfies the sum constraint and the floor, and reports the
Frank-Wolfe gap, an upper bound on its metric's distance to the minimum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from .errors import NonFiniteError, NotSeparableError, ResolutionTooCoarseError, TooManyStatisticsError
from .expressions import free_statistics
from .propagation import FirstOrderModel, budget_vector
from .scoring import score_validated
from .workload import BudgetAllocation, MetricOptions, Workload, validate_allocation

_GRID_MAX_STATISTICS = 5
_GRID_MIN_RESOLUTION = 10
_GRID_CHUNK = 1 << 18


@dataclass(frozen=True)
class OptimizationResult:
    allocation: BudgetAllocation
    metric: float
    iterations: int
    converged: bool
    method: str
    gap: float

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


class _Objective:
    """The closed-form metric f(b) = sum_i c_i / b_i + sum_j sigma_j(b) / n_j under ``options``.

    sigma_j^2 = sum_i W_ji / b_i^2; one-statistic equations (sigma_j = sqrt(W_ji) / b_i) are
    folded into c. As sigma <= sigma^2 / (2t) + t / 2, equal at t = sigma, the surrogate
    sum_i c_i / b_i + d_i / b_i^2, d_i = sum_j W_ji / (2 sigma_j(b_k) n_j) over the coupled
    equations, lies above f (up to a constant) and touches it at b_k.
    """

    def __init__(self, workload: Workload, options: MetricOptions | None):
        self.options = replace(options if options is not None else workload.options, estimator="analytic")
        self.model = model = FirstOrderModel(workload, self.options.normalize_by_sensitivity)
        self.epsilon, self.floor = workload.epsilon, workload.min_budget
        single = np.bincount(model.rows, minlength=model.n_eq)[model.rows] == 1
        folded = np.sqrt(model.weights[single]) / model.norms[model.rows[single]]
        self.c = model.us_coeff + np.bincount(model.cols[single], folded, minlength=model.us_coeff.size)
        self.rows, self.cols, self.weights = model.rows[~single], model.cols[~single], model.weights[~single]

    def evaluate(self, budgets: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        """(metric, Frank-Wolfe gap, b * gradient, d) at budgets b summing to epsilon.

        g = -(c + 2d / b) / b^2, and b * g is finite where the metric is; a zero
        sigma (underflowed weights) adds nothing to d. The gap, g . b less the
        least g . s over the floored simplex, bounds f(b) - min f (f is convex):
        sum_i (b_i - floor)(g_i - min g), taken from epsilon g against overflow.
        """
        model = self.model
        statistic_part, equation_part = model.terms(budgets)
        sigma_norm = equation_part * model.norms * model.norms
        inverse = np.divide(0.5, sigma_norm, out=np.zeros_like(sigma_norm), where=sigma_norm > 0.0)
        d = np.bincount(self.cols, self.weights * inverse[self.rows], minlength=budgets.size)
        scaled = -(self.c + 2.0 * d / budgets) / budgets
        relative = scaled * (self.epsilon / budgets)
        gap = float(((budgets - self.floor) / self.epsilon) @ (relative - relative.min()))
        return float(np.add.reduce(statistic_part) + np.add.reduce(equation_part)), gap, scaled, d


def _result(workload: Workload, objective: _Objective, budgets: np.ndarray, **fields) -> OptimizationResult:
    """Validates the optimizer's budgets and reports them with their scored metric and gap."""
    allocation = validate_allocation(workload, dict(zip(workload.statistic_ids, budgets.tolist())))
    metric = score_validated(objective.model, workload, allocation, objective.options, None).metric
    with np.errstate(all="ignore"):  # overflow gives a non-finite gap, refused below
        gap = objective.evaluate(budgets)[1]
    if not math.isfinite(gap):
        raise NonFiniteError(f"the optimality gap overflows at this allocation ({gap!r}): its budgets are too small")
    return OptimizationResult(allocation=allocation, metric=metric, gap=gap, **fields)


def _cubic_root(x: np.ndarray) -> np.ndarray:
    """The root u >= sqrt(3) of u^3 - 3u = 2x, for x >= 0: 2 cos(arccos(x) / 3)
    up to x = 1 (three real roots) and 2 cosh(arccosh(x) / 3) above (one).
    Each form gets x clipped to its own side, where the other equals 2."""
    return 2.0 * (np.cos(np.arccos(np.minimum(x, 1.0)) / 3.0) + np.cosh(np.arccosh(np.maximum(x, 1.0)) / 3.0) - 1.0)


def _surrogate_minimum(c: np.ndarray, d: np.ndarray, epsilon: float, floor: float, shift: float = 0.0):
    """Minimizer of sum_i c_i / b_i + d_i / b_i^2 over {b >= floor, sum b = epsilon}, and its shift.

    A free b_i solves mu b^3 - c_i b - 2 d_i = 0. With r the square-root rule
    and mu = exp(shift) times r's multiplier, that root is r_i exp(-shift / 2)
    u_i / sqrt(3), u_i solving u^3 - 3u = 2 x_i exp(shift / 2), x_i = 3 sqrt(3)
    d_i / (c_i r_i); as u >= sqrt(3), shift >= 0. Bracketed Newton steps on
    log(sum b) start at ``shift``, the last (within 1e-5) taken to first order;
    shift 0 is exact when d = 0 and no floor binds. Free budgets are then
    scaled to make the sum exact.
    """
    sqrt_rule = np.sqrt(c)
    sqrt_rule *= epsilon / sqrt_rule.sum()
    x = (3.0 * math.sqrt(3.0)) * (d / c) / sqrt_rule
    low, high, shift = 0.0, math.inf, max(shift, 0.0)
    for _ in range(100):  # a safeguard: Newton needs a few steps, bisection at most ~60
        u = _cubic_root(x * math.exp(shift / 2.0))
        roots = sqrt_rule * (math.exp(-shift / 2.0) / math.sqrt(3.0) * u)
        total = float(np.add.reduce(np.maximum(roots, floor)))
        excess = math.log(total / epsilon)
        rates = roots / (3.0 / (u * u) - 3.0)  # d root / d shift
        slope = float(np.dot(rates, roots > floor)) / total
        step = shift - excess / slope if slope < 0.0 else math.nan
        if excess * excess <= 1e-10 and slope < 0.0:  # its own error, O(excess^2), is negligible
            roots += rates * (step - shift)
            shift = step
            break
        low, high = (shift, high) if excess > 0.0 else (low, shift)
        shift = step if low < step < high else 0.5 * (low + high)
    fixed = floor * (roots.size - np.count_nonzero(roots > floor))
    free_total = float(np.add.reduce(np.maximum(roots, floor))) - fixed
    return np.maximum(roots * ((epsilon - fixed) / free_total), floor), shift


def uniform_allocation(workload: Workload) -> BudgetAllocation:
    """Splits epsilon evenly across the statistics."""
    share = workload.epsilon / len(workload.statistics)
    return validate_allocation(workload, {stat_id: share for stat_id in workload.statistic_ids})


def sqrt_rule_allocation(workload: Workload, options: MetricOptions | None = None) -> OptimizationResult:
    """Closed-form optimum for separable workloads.

    Requires that no equation reference two or more statistics; the metric
    is then sum(c_i / budget_i), minimized by budgets proportional to
    sqrt(c_i), floored: the surrogate minimum with d = 0.

    Raises:
        NotSeparableError: some equation couples several statistics.
    """
    for equation in workload.equations:
        used = free_statistics(equation.expression)
        if len(used) > 1:
            raise NotSeparableError(
                f"equation {equation.id!r} couples statistics {sorted(used)}; no closed form applies"
            )
    objective = _Objective(workload, options)
    budgets, _ = _surrogate_minimum(objective.c, np.zeros(objective.c.size), workload.epsilon, workload.min_budget)
    return _result(workload, objective, budgets, iterations=0, converged=True, method="sqrt_rule")


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
    objective = _Objective(workload, options)
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
        values = objective.model.metric_batch(budgets)
        evaluated += values.size
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value = float(values[i])
            best_row = budgets[i].copy()
    if best_row is None:
        raise ResolutionTooCoarseError("no lattice cell satisfies the positivity floor")
    return _result(workload, objective, best_row, iterations=evaluated, converged=True, method="grid")


def objective_gradient(
    workload: Workload, allocation: BudgetAllocation, options: MetricOptions | None = None
) -> dict[str, float]:
    """Exact partial derivatives of the closed-form metric per budget."""
    allocation = validate_allocation(workload, allocation)
    objective = _Objective(workload, options)
    budgets = budget_vector(workload, allocation)
    gradient = objective.evaluate(budgets)[2] / budgets
    return {stat_id: float(g) for stat_id, g in zip(workload.statistic_ids, gradient)}


def optimize_descent(
    workload: Workload, options: MetricOptions | None = None, *, max_iters: int = 5000, tol: float = 1e-10
) -> OptimizationResult:
    """Majorize-minimize on the budget simplex, starting from uniform.

    Stops, converged, once the Frank-Wolfe gap is at most ``tol`` times the
    metric; else each iteration moves to the surrogate's minimum. Hitting
    ``max_iters`` first reports converged=False. A metric or gap that is not
    finite ends the loop, and the result then raises NonFiniteError.
    """
    objective = _Objective(workload, options)
    budgets = np.full(len(workload.statistics), workload.epsilon / len(workload.statistics))
    shift, converged, iterations = 0.0, False, 0
    with np.errstate(all="ignore"):  # overflow ends in a non-finite metric or gap, then NonFiniteError
        for iterations in range(1, max_iters + 1):
            metric, gap, _, d = objective.evaluate(budgets)
            if not (math.isfinite(metric) and math.isfinite(gap)):
                break
            if gap <= tol * metric:
                converged = True
                break
            budgets, shift = _surrogate_minimum(objective.c, d, workload.epsilon, workload.min_budget, shift)
    return _result(workload, objective, budgets, iterations=iterations, converged=converged, method="descent")
