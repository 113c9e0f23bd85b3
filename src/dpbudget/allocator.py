"""Budget allocation strategies, all on the closed-form metric.

* uniform_allocation: the neutral baseline, epsilon split evenly.
* sqrt_rule_allocation: the exact optimum when no equation couples two or
  more statistics: budgets proportional to sqrt(c_i), floored.
* grid_search: exhaustive lattice search, the oracle for small instances.
* optimize_descent: majorize-minimize from uniform, for coupled equations.

The optimizers work in shares of epsilon, where the metric at budgets b is
f(b / epsilon) / epsilon, so no scale of epsilon over- or underflows them.
The square-root rule and descent share one solve (_surrogate_minimum). Each
result satisfies the sum constraint and the floor, and reports the
Frank-Wolfe gap, an upper bound on its metric's distance to the minimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace
from typing import Any, Iterator

import numpy as np

from .errors import NonFiniteError, NotSeparableError, ResolutionTooCoarseError, TooManyStatisticsError
from .expressions import free_statistics
from .propagation import FirstOrderModel, budget_vector
from .scoring import score_validated
from .workload import MIN_GRID_RESOLUTION, BudgetAllocation, MetricOptions, Workload, validate_allocation

_GRID_MAX_STATISTICS = 5
_GRID_CHUNK = 1 << 18
# The most lattice cells grid search enumerates (resolution 100 on 5 statistics has 3,764,376).
_GRID_MAX_CELLS = 1 << 22


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
    """The closed-form metric under ``options`` in shares u = b / epsilon of the budget:
    f(u) = sum_i c_i / u_i + sum_j sigma_j(u) / n_j, and the metric at budgets b is f(b / epsilon) / ``scale``.
    c and the amplitudes are per the model's budget unit, and f reads u as budgets in it, so ``scale`` is
    epsilon / unit: epsilon itself unless a coefficient overflows at unit 1 (see FirstOrderModel).

    sigma_j is the 2-norm of a_ji / u_i over the amplitudes a_ji; one-statistic equations
    (sigma_j = a_ji / u_i) are folded into c as r = a / n. As sigma <= sigma^2 / (2t) + t / 2, equal at
    t = sigma, the surrogate sum_i c_i / u_i + d_i / u_i^2, d_i = sum_j r_ji (r_ji / (2 ue_j(u_k))) over
    the coupled equations (ue_j = sigma_j / n_j), lies above f (up to a constant) and touches it at u_k.
    """

    def __init__(self, workload: Workload, options: MetricOptions | None):
        self.options = replace(options if options is not None else workload.options, estimator="analytic")
        self.model = model = FirstOrderModel(workload, self.options.normalize_by_sensitivity)
        self.floor = workload.options.min_budget_fraction
        self.scale = workload.epsilon / model.unit  # exact: the unit is a power of two
        single = np.bincount(model.rows, minlength=model.n_eq)[model.rows] == 1
        with np.errstate(over="ignore"):  # an overflow makes the metric non-finite, then NonFiniteError
            r = model.amplitudes / model.norms[model.rows]
        self.c = model.us_coeff + np.bincount(model.cols[single], r[single], minlength=model.us_coeff.size)
        self.rows, self.cols, self.r = model.rows[~single], model.cols[~single], r[~single]

    def evaluate(self, shares: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        """(metric, Frank-Wolfe gap, u * gradient, d) at shares u summing to 1.

        g = -(c + 2d / u) / u^2; a zero ue (underflowed amplitudes) adds nothing
        to d. The gap, g . u less the least g . s over the floored simplex,
        bounds f(u) - min f (f is convex): sum_i (u_i - floor)(g_i - min g).
        """
        statistic_part, equation_part = self.model.terms(shares)
        half = np.divide(0.5, equation_part, out=np.zeros_like(equation_part), where=equation_part > 0.0)
        d = np.bincount(self.cols, self.r * (self.r * half[self.rows]), minlength=shares.size)
        scaled = -(self.c + 2.0 * d / shares) / shares
        gradient = scaled / shares
        gap = float((shares - self.floor) @ (gradient - gradient.min()))
        return float(np.add.reduce(statistic_part) + np.add.reduce(equation_part)), gap, scaled, d


def _result(workload: Workload, objective: _Objective, shares: np.ndarray, **fields) -> OptimizationResult:
    """Reports the optimizer's shares of epsilon as validated budgets, with their scored metric and gap."""
    budgets = shares * workload.epsilon
    if not np.isfinite(budgets).all():
        raise NonFiniteError(f"the optimizer's budgets are not finite ({budgets.tolist()!r})")
    allocation = validate_allocation(workload, dict(zip(workload.statistic_ids, budgets.tolist())))
    metric = score_validated(objective.model, workload, allocation, objective.options, None).metric
    with np.errstate(all="ignore"):  # overflow gives a non-finite gap, refused below
        gap = objective.evaluate(shares)[1] / objective.scale
    if not math.isfinite(gap):
        raise NonFiniteError(f"the optimality gap overflows at this allocation ({gap!r}): its budgets are too small")
    return OptimizationResult(allocation=allocation, metric=metric, gap=gap, **fields)


def _cubic_root(x: np.ndarray) -> np.ndarray:
    """The root u >= sqrt(3) of u^3 - 3u = 2x, for x >= 0: 2 cos(arccos(x) / 3)
    up to x = 1 (three real roots) and 2 cosh(arccosh(x) / 3) above (one).
    Each form gets x clipped to its own side, where the other equals 2."""
    return 2.0 * (np.cos(np.arccos(np.minimum(x, 1.0)) / 3.0) + np.cosh(np.arccosh(np.maximum(x, 1.0)) / 3.0) - 1.0)


def _surrogate_minimum(c: np.ndarray, d: np.ndarray, floor: float, shift: float = 0.0):
    """Minimizer of sum_i c_i / b_i + d_i / b_i^2 over shares {b >= floor, sum b = 1}, and its shift.

    A free b_i solves mu b^3 - c_i b - 2 d_i = 0. With r the square-root rule
    and mu = exp(shift) times r's multiplier, that root is r_i exp(-shift / 2)
    u_i / sqrt(3), u_i solving u^3 - 3u = 2 x_i exp(shift / 2), x_i = 3 sqrt(3)
    d_i / (c_i r_i); as u >= sqrt(3), shift >= 0. Bracketed Newton steps on
    log(sum b) start at ``shift``, the last (within 1e-5) taken to first order;
    shift 0 is exact when d = 0 and no floor binds. Where x_i exp(shift / 2)
    overflows, u_i is cbrt(2 x_i exp(shift / 2)) to double precision, so the
    root is cbrt(2 d_i r_i^2 / c_i) exp(-shift / 3). Free budgets are then
    scaled to make the sum exact.
    """
    sqrt_rule = np.sqrt(c)
    sqrt_rule /= sqrt_rule.sum()
    x = (3.0 * math.sqrt(3.0)) * (d / c) / sqrt_rule
    low, high, shift = 0.0, math.inf, max(shift, 0.0)
    for _ in range(100):  # a safeguard: Newton needs a few steps, bisection at most ~60
        u = _cubic_root(x * math.exp(shift / 2.0))
        roots = sqrt_rule * (math.exp(-shift / 2.0) / math.sqrt(3.0) * u)
        total = float(np.add.reduce(np.maximum(roots, floor)))
        if not math.isfinite(total):  # u is inf where x exp(shift / 2) overflows
            huge = np.isinf(u)
            roots[huge] = np.cbrt(2.0 * sqrt_rule[huge] ** 2) * (np.cbrt(d[huge]) / np.cbrt(c[huge]))
            roots[huge] *= math.exp(-shift / 3.0)
            total = float(np.add.reduce(np.maximum(roots, floor)))
        excess = math.log(total)
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
    return np.maximum(roots * ((1.0 - fixed) / free_total), floor), shift


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
    shares, _ = _surrogate_minimum(objective.c, np.zeros(objective.c.size), objective.floor)
    return _result(workload, objective, shares, iterations=0, converged=True, method="sqrt_rule")


def _compositions(total: int, parts: int) -> Iterator[np.ndarray]:
    """All ways to write ``total`` as ``parts`` positive integers, in
    lexicographic order, _GRID_CHUNK rows at a time: memory is one chunk's,
    not the lattice's."""
    if parts == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    cuts_per_row = parts - 1
    remaining = math.comb(total - 1, cuts_per_row)
    combinations = itertools.combinations(range(1, total), cuts_per_row)
    while remaining:
        count = min(remaining, _GRID_CHUNK)
        remaining -= count
        cuts = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combinations, count)),
            dtype=np.int64,
            count=count * cuts_per_row,
        ).reshape(count, cuts_per_row)
        chunk = np.concatenate([cuts[:, :1], np.diff(cuts, axis=1), total - cuts[:, -1:]], axis=1)
        del cuts  # not held while the caller scores the chunk
        yield chunk


def grid_search(workload: Workload, resolution: int, options: MetricOptions | None = None) -> OptimizationResult:
    """Exhaustive search over all budget splits on a lattice.

    Enumerates every composition of ``resolution`` parts into one positive
    cell per statistic, scores each with the closed-form metric, and
    returns the best; exact ties go to the lexicographically smallest
    budget vector. Intended as an oracle for small instances.

    Raises:
        TooManyStatisticsError: more than 5 statistics, or more than 2^22 cells.
        ResolutionTooCoarseError: resolution below 10.
        NonFiniteError: the metric overflows at every cell.
    """
    count = len(workload.statistics)
    if count > _GRID_MAX_STATISTICS:
        raise TooManyStatisticsError(f"grid search supports at most {_GRID_MAX_STATISTICS} statistics, got {count}")
    if resolution < MIN_GRID_RESOLUTION:
        raise ResolutionTooCoarseError(f"resolution must be at least {MIN_GRID_RESOLUTION}, got {resolution}")
    cells = math.comb(resolution - 1, count - 1)
    if cells > _GRID_MAX_CELLS:
        shown = cells if cells < 1e18 else f"about 1e{math.log10(cells):.0f}"  # str() refuses huge ints
        raise TooManyStatisticsError(
            f"resolution {resolution} needs {shown} lattice cells, over the cap of {_GRID_MAX_CELLS}"
        )
    objective = _Objective(workload, options)
    unit, floor = 1.0 / resolution, objective.floor
    best_value = math.inf
    best_row: np.ndarray | None = None
    evaluated = 0
    for chunk in _compositions(resolution, count):
        shares = chunk * unit
        if floor > unit:
            feasible = (shares >= floor).all(axis=1)
            if not feasible.all():
                shares = shares[feasible]
                if shares.size == 0:
                    continue
        values = objective.model.metric_batch(shares)
        evaluated += values.size
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value = float(values[i])
            best_row = shares[i].copy()
    if best_row is None and evaluated:
        raise NonFiniteError("the metric overflows at every lattice cell")
    if best_row is None:
        raise ResolutionTooCoarseError("no lattice cell satisfies the positivity floor")
    return _result(workload, objective, best_row, iterations=evaluated, converged=True, method="grid")


def objective_gradient(
    workload: Workload, allocation: BudgetAllocation, options: MetricOptions | None = None
) -> dict[str, float]:
    """Exact partial derivatives of the closed-form metric per budget; NonFiniteError if one overflows."""
    allocation = validate_allocation(workload, allocation)
    objective = _Objective(workload, options)
    budgets = budget_vector(workload, allocation)
    with np.errstate(all="ignore"):  # overflow gives a non-finite partial, refused below; b * epsilon may overflow
        gradient = objective.evaluate(budgets / workload.epsilon)[2] / budgets / objective.scale
    if not np.isfinite(gradient).all():
        raise NonFiniteError("the metric's gradient overflows at this allocation: its budgets are too small")
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
    shares = np.full(len(workload.statistics), 1.0 / len(workload.statistics))
    shift, converged, iterations = 0.0, False, 0
    with np.errstate(all="ignore"):  # overflow ends in a non-finite metric or gap, then NonFiniteError
        for iterations in range(1, max_iters + 1):
            metric, gap, _, d = objective.evaluate(shares)
            if not (math.isfinite(metric) and math.isfinite(gap)):
                break
            if gap <= tol * metric:
                converged = True
                break
            shares, shift = _surrogate_minimum(objective.c, d, objective.floor, shift)
    return _result(workload, objective, shares, iterations=iterations, converged=converged, method="descent")
