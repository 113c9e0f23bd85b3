"""Privacy-budget allocation planning for Laplace-released summary statistics.

Given the statistics a curator will release, the total privacy budget, and
the equations an analyst is predicted to compute from the released values,
this package scores candidate budget allocations by the noise they imply,
searches for low-noise allocations, and replays the whole pipeline to
check the predictions empirically.
"""

__version__ = "0.1.0"

from .allocator import (
    OptimizationResult,
    grid_search,
    objective_gradient,
    optimize_descent,
    sqrt_rule_allocation,
    uniform_allocation,
)
from .errors import (
    DPBudgetError,
    DivisionNearZeroError,
    ExpressionParseError,
    HeavyTailWarning,
    MissingValueError,
    NotSeparableError,
    ResolutionTooCoarseError,
    TooManyStatisticsError,
    ValidationError,
    ValidationIssue,
)
from .expressions import (
    Binary,
    BinaryOp,
    Constant,
    Expr,
    Negate,
    StatRef,
    evaluate,
    format_expression,
    free_statistics,
    parse_expression,
)
from .noise import (
    NoiseProfile,
    consumed_budget,
    noise_profile,
    noise_stream,
    release_statistics,
    sample_noise,
    sample_noise_batch,
)
from .propagation import (
    MonteCarloDetail,
    PropagationResult,
    gradient_at_reference,
    propagate_variance_analytic,
    propagate_variance_montecarlo,
)
from .scoring import (
    RankedAllocation,
    UtilityReport,
    compare_allocations,
    score_allocation,
)
from .simulation import (
    EquationErrorSummary,
    SimulationReport,
    StatisticErrorSummary,
    simulate_pipeline,
    simulate_with_series,
)
from .workload import (
    BudgetAllocation,
    EquationSpec,
    MetricOptions,
    StatisticSpec,
    Workload,
    allocation_to_dict,
    load_allocation,
    load_workload,
    validate_allocation,
)

__all__ = [
    "BinaryOp",
    "Binary",
    "BudgetAllocation",
    "Constant",
    "DPBudgetError",
    "DivisionNearZeroError",
    "EquationErrorSummary",
    "EquationSpec",
    "Expr",
    "ExpressionParseError",
    "HeavyTailWarning",
    "MetricOptions",
    "MissingValueError",
    "MonteCarloDetail",
    "Negate",
    "NoiseProfile",
    "NotSeparableError",
    "OptimizationResult",
    "PropagationResult",
    "RankedAllocation",
    "ResolutionTooCoarseError",
    "SimulationReport",
    "StatRef",
    "StatisticErrorSummary",
    "StatisticSpec",
    "TooManyStatisticsError",
    "UtilityReport",
    "ValidationError",
    "ValidationIssue",
    "Workload",
    "allocation_to_dict",
    "compare_allocations",
    "consumed_budget",
    "evaluate",
    "format_expression",
    "free_statistics",
    "gradient_at_reference",
    "grid_search",
    "load_allocation",
    "load_workload",
    "noise_profile",
    "noise_stream",
    "objective_gradient",
    "optimize_descent",
    "parse_expression",
    "propagate_variance_analytic",
    "propagate_variance_montecarlo",
    "release_statistics",
    "sample_noise",
    "sample_noise_batch",
    "score_allocation",
    "simulate_pipeline",
    "simulate_with_series",
    "sqrt_rule_allocation",
    "uniform_allocation",
    "validate_allocation",
]
