"""End-to-end replay: release noisy statistics, run the equations, compare
empirical errors against the closed-form predictions."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .errors import NonFiniteError
from .expressions import StatRef
from .propagation import FirstOrderModel, _SquareSum, _TailSummary, replay_montecarlo
from .workload import BudgetAllocation, Workload, validate_allocation

# Below this many trials the rmse fields are reported but flagged unreliable.
RELIABLE_TRIALS = 1000


@dataclass(frozen=True)
class StatisticErrorSummary:
    empirical_rmse: float
    predicted_rmse: float


@dataclass(frozen=True)
class EquationErrorSummary:
    empirical_rmse: float
    trimmed_rmse: float
    bias: float
    predicted_rmse: float


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    seed: int
    rmse_reliable: bool
    per_statistic: dict[str, StatisticErrorSummary]
    per_equation: dict[str, EquationErrorSummary]

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def simulate_pipeline(workload: Workload, allocation: BudgetAllocation, trials: int, seed: int) -> SimulationReport:
    """Replays the release-and-consume pipeline ``trials`` times.

    Per trial: every statistic is released with fresh Laplace noise, every
    equation is evaluated on the released values, and the error against the
    reference evaluation is accumulated. Deterministic per seed. Equation
    trials that divide by ~zero are excluded; if more than the heavy-tail
    limit do, the run aborts with HeavyTailWarning. No per-trial series is
    kept, so memory does not grow with ``trials``.
    """
    return _simulate(workload, allocation, trials, seed, None)


def _simulate(workload, allocation, trials, seed, sink) -> SimulationReport:
    """simulate_pipeline, also handing each chunk's errors to ``sink`` (see replay_montecarlo): one view, a row per
    statistic, then per equation, NaN where excluded, valid only until the sink returns (the next chunk reuses it)."""
    allocation = validate_allocation(workload, allocation)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    # Unnormalized scores are the predicted rmse: sqrt(2) * sensitivity / budget per statistic.
    model = FirstOrderModel(workload, False)
    statistic_part, equation_part = model.terms(model.units(allocation))
    if not (np.isfinite(statistic_part).all() and np.isfinite(equation_part).all()):
        raise NonFiniteError("a predicted rmse overflows at this allocation: its budgets are too small")
    # A statistic's error is released minus reference, which is what the
    # bare-reference expression over it yields.
    # A statistic reports only its rmse, so its summary keeps only its sum of squares; an equation
    # reports no variance, so its summary keeps no M2.
    expressions = [(f"statistic {spec.id!r}", StatRef(spec.id), _SquareSum) for spec in workload.statistics]
    expressions += [(f"equation {eq.id!r}", eq.expression, _TailSummary) for eq in workload.equations]
    n_stat = len(workload.statistics)
    kept = replay_montecarlo(workload, allocation, expressions, trials, seed, sink)
    per_statistic = {
        spec.id: StatisticErrorSummary(empirical_rmse=summary.rmse(), predicted_rmse=predicted_rmse)
        for spec, summary, predicted_rmse in zip(workload.statistics, kept, statistic_part.tolist())
    }
    per_equation = {}
    for equation, summary, predicted_rmse in zip(workload.equations, kept[n_stat:], equation_part.tolist()):
        detail = summary.detail()
        per_equation[equation.id] = EquationErrorSummary(
            empirical_rmse=summary.rmse(),
            trimmed_rmse=detail.trimmed_rmse,
            bias=detail.bias_estimate,
            predicted_rmse=predicted_rmse,
        )
    return SimulationReport(
        trials=trials,
        seed=seed,
        rmse_reliable=trials >= RELIABLE_TRIALS,
        per_statistic=per_statistic,
        per_equation=per_equation,
    )
