"""End-to-end replay: release noisy statistics, run the equations, compare
empirical errors against the closed-form predictions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import HeavyTailWarning
from .expressions import evaluate, evaluate_batch, free_statistics
from .noise import noise_stream, sample_noise_batch
from .propagation import HEAVY_TAIL_FRACTION, FirstOrderModel, budget_vector, trimmed_rmse
from .workload import BudgetAllocation, Workload, validate_allocation

_SQRT2 = math.sqrt(2.0)

# Below this many trials the rmse fields are reported but flagged unreliable.
RELIABLE_TRIALS = 1000


@dataclass(frozen=True)
class StatisticErrorSummary:
    empirical_rmse: float
    predicted_rmse: float

    def to_dict(self) -> dict[str, float]:
        return {"empirical_rmse": self.empirical_rmse, "predicted_rmse": self.predicted_rmse}


@dataclass(frozen=True)
class EquationErrorSummary:
    empirical_rmse: float
    trimmed_rmse: float
    bias: float
    predicted_rmse: float

    def to_dict(self) -> dict[str, float]:
        return {
            "empirical_rmse": self.empirical_rmse,
            "trimmed_rmse": self.trimmed_rmse,
            "bias": self.bias,
            "predicted_rmse": self.predicted_rmse,
        }


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    seed: int
    rmse_reliable: bool
    per_statistic: dict[str, StatisticErrorSummary]
    per_equation: dict[str, EquationErrorSummary]

    def to_dict(self) -> dict[str, Any]:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "rmse_reliable": self.rmse_reliable,
            "per_statistic": {k: v.to_dict() for k, v in self.per_statistic.items()},
            "per_equation": {k: v.to_dict() for k, v in self.per_equation.items()},
        }


def simulate_pipeline(workload: Workload, allocation: BudgetAllocation, trials: int, seed: int) -> SimulationReport:
    """Replays the release-and-consume pipeline ``trials`` times.

    Per trial: every statistic is released with fresh Laplace noise, every
    equation is evaluated on the released values, and the error against the
    reference evaluation is accumulated. Deterministic per seed. Equation
    trials that divide by ~zero are excluded; if more than the heavy-tail
    limit do, the run aborts with HeavyTailWarning.
    """
    report, _ = simulate_with_series(workload, allocation, trials, seed)
    return report


def simulate_with_series(
    workload: Workload, allocation: BudgetAllocation, trials: int, seed: int
) -> tuple[SimulationReport, dict[str, np.ndarray]]:
    """Like simulate_pipeline, also returning per-trial error series.

    Series keys are "stat:<id>" and "eq:<id>"; excluded equation trials
    hold NaN.
    """
    allocation = validate_allocation(workload, allocation)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")

    refs = workload.reference_values()
    series: dict[str, np.ndarray] = {}
    released: dict[str, np.ndarray] = {}
    per_statistic: dict[str, StatisticErrorSummary] = {}
    for index, spec in enumerate(workload.statistics):
        scale = spec.sensitivity / allocation.budgets[spec.id]
        noise = sample_noise_batch(scale, noise_stream(seed, index), trials)
        released[spec.id] = spec.reference_value + noise
        # Error is defined as released minus reference, matching what any
        # equation over this statistic sees.
        errors = released[spec.id] - spec.reference_value
        series[f"stat:{spec.id}"] = errors
        per_statistic[spec.id] = StatisticErrorSummary(
            empirical_rmse=float(np.sqrt(np.mean(np.square(errors)))),
            predicted_rmse=_SQRT2 * scale,
        )

    model = FirstOrderModel(workload, workload.options.normalize_by_sensitivity)
    predicted = np.sqrt(model.variances(budget_vector(workload, allocation))).tolist()
    per_equation: dict[str, EquationErrorSummary] = {}
    for equation, predicted_rmse in zip(workload.equations, predicted):
        reference_output = evaluate(equation.expression, refs)
        invalid = np.zeros(trials, dtype=bool)
        used = free_statistics(equation.expression)
        outputs = evaluate_batch(
            equation.expression, {k: v for k, v in released.items() if k in used}, invalid
        )
        errors = np.asarray(outputs, dtype=float) - reference_output
        if errors.ndim == 0:
            errors = np.full(trials, float(errors))
        excluded = int(invalid.sum())
        if excluded > HEAVY_TAIL_FRACTION * trials:
            raise HeavyTailWarning(
                f"equation {equation.id!r}: {excluded} of {trials} trials hit near-zero denominators"
            )
        kept = errors[~invalid] if excluded else errors
        per_equation[equation.id] = EquationErrorSummary(
            empirical_rmse=float(np.sqrt(np.mean(np.square(kept)))),
            trimmed_rmse=trimmed_rmse(kept),
            bias=float(np.mean(kept)),
            predicted_rmse=predicted_rmse,
        )
        errors = errors.copy()
        errors[invalid] = np.nan
        series[f"eq:{equation.id}"] = errors

    report = SimulationReport(
        trials=trials,
        seed=seed,
        rmse_reliable=trials >= RELIABLE_TRIALS,
        per_statistic=per_statistic,
        per_equation=per_equation,
    )
    return report, series
