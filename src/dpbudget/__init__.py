"""Privacy-budget allocation planning for Laplace-released summary statistics.

Given the statistics a curator will release, the total privacy budget, and
the equations an analyst is predicted to compute from the released values,
this package scores candidate budget allocations by the noise they imply,
searches for low-noise allocations, and replays the whole pipeline to
check the predictions empirically.

Each public name is imported from its module on first use, so loading and
validating documents does not import numpy.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name.
_HOMES = {
    "allocator": (
        "OptimizationResult", "grid_search", "objective_gradient", "optimize_descent", "sqrt_rule_allocation",
        "uniform_allocation",
    ),
    "errors": (
        "DPBudgetError", "DivisionNearZeroError", "ExpressionParseError", "HeavyTailWarning", "MissingValueError",
        "NonFiniteError", "NotSeparableError", "ResolutionTooCoarseError", "TooManyStatisticsError",
        "ValidationError", "ValidationIssue",
    ),
    "expressions": (
        "Binary", "BinaryOp", "Constant", "Expr", "Negate", "StatRef", "evaluate", "format_expression",
        "free_statistics", "parse_expression",
    ),
    "noise": ("noise_stream", "release_statistics", "sample_noise_batch"),
    "propagation": (
        "MonteCarloDetail", "PropagationResult", "gradient_at_reference", "propagate_variance_analytic",
        "propagate_variance_montecarlo",
    ),
    "scoring": ("RankedAllocation", "UtilityReport", "compare_allocations", "score_allocation"),
    "simulation": ("EquationErrorSummary", "SimulationReport", "StatisticErrorSummary", "simulate_pipeline"),
    "workload": (
        "BudgetAllocation", "EquationSpec", "MetricOptions", "StatisticSpec", "Workload", "allocation_to_dict",
        "load_allocation", "load_workload", "validate_allocation",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME_OF.keys())
