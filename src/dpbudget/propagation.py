"""Predicting the noise an equation inherits from its noisy inputs.

Two routes are provided and meant to cross-check each other: a first-order
(delta-method) analytic prediction, exact for linear equations, and a
seeded Monte Carlo estimate that replays noisy releases through the
equation. The Monte Carlo report includes a symmetrically trimmed rmse
because quotients of noisy values can have very heavy tails.

For quotients the first-order prediction is reliable only when each
denominator's reference value lies many noise standard deviations from
zero. When it lies only a few away (around 3.5), the noisy
denominator crosses zero with non-negligible probability, the true
variance is infinite, and the two routes disagree by an order of
magnitude even after trimming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import HeavyTailWarning, MissingValueError, NonFiniteError
from .expressions import (
    Binary,
    BinaryOp,
    Expr,
    Negate,
    StatRef,
    _guarded_divide,
    _postorder,
    evaluate,
    evaluate_batch,
    free_statistics,
)
from .noise import noise_stream, sample_noise_batch
from .workload import MIN_MC_SAMPLES, BudgetAllocation, Workload, validate_allocation

# Abort Monte Carlo when more than this fraction of samples divide by ~zero.
HEAVY_TAIL_FRACTION = 0.001
# Fraction of samples dropped from each tail for the trimmed rmse.
TRIM_PER_TAIL = 0.0005
# Samples per Monte Carlo chunk. Fixed, never derived from threads or
# memory: the chunking fixes the summation order, and so the report bytes.
CHUNK = 1 << 14

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class MonteCarloDetail:
    """Extras reported by the Monte Carlo route.

    samples counts the draws actually used (near-zero-denominator draws
    are excluded); trimmed_rmse drops TRIM_PER_TAIL of each error tail.
    """

    samples: int
    bias_estimate: float
    trimmed_rmse: float


@dataclass(frozen=True)
class PropagationResult:
    variance: float
    rmse: float
    method: str
    mc_detail: MonteCarloDetail | None = None


def gradient_at_reference(ast: Expr, refs: Mapping[str, float]) -> dict[str, float]:
    """Exact partial derivatives of the expression at the reference point.

    Computed by forward differentiation over the tree in postorder; the
    result has one entry per referenced statistic (zero entries included,
    e.g. for "s1 - s1").

    Raises:
        MissingValueError: a referenced id has no reference value.
        DivisionNearZeroError: a denominator magnitude at the reference
            point falls below DIVISION_GUARD.
    """
    stack: list[tuple[float, dict[str, float]]] = []  # (value, partials) of each finished subtree
    for node in _postorder(ast):
        kind = type(node)
        if kind is Binary:
            rv, rg = stack.pop()
            lv, lg = stack.pop()
            names = lg.keys() | rg.keys()
            op = node.op
            if op is BinaryOp.ADD:
                stack.append((lv + rv, {n: lg.get(n, 0.0) + rg.get(n, 0.0) for n in names}))
            elif op is BinaryOp.SUB:
                stack.append((lv - rv, {n: lg.get(n, 0.0) - rg.get(n, 0.0) for n in names}))
            elif op is BinaryOp.MUL:
                stack.append((lv * rv, {n: rv * lg.get(n, 0.0) + lv * rg.get(n, 0.0) for n in names}))
            else:
                value = _guarded_divide(lv, rv)
                stack.append((value, {n: lg.get(n, 0.0) / rv - lv * rg.get(n, 0.0) / (rv * rv) for n in names}))
        elif kind is Negate:
            value, gradient = stack.pop()
            stack.append((-value, {name: -g for name, g in gradient.items()}))
        elif kind is StatRef:
            try:
                value = refs[node.name]
            except KeyError:
                raise MissingValueError(node.name) from None
            stack.append((float(value), {node.name: 1.0}))
        else:
            stack.append((node.value, {}))
    return stack[0][1]


class FirstOrderModel:
    """Sparse first-order (closed-form) metric of a workload over budget vectors.

    Built once per public call from one gradient per equation. For every
    nonzero partial g of equation j in statistic i it stores the row j,
    the column i and the weight 2 * g^2 * sensitivity_i^2, so equation j's
    predicted variance at budgets b is the row sum of weight / b_i^2. Cost
    is linear in the Jacobian's nonzeros. Budget vectors are indexed in
    workload-statistic order and are not validated here. A weight that
    overflows (or is NaN) raises NonFiniteError naming its equation.
    """

    def __init__(self, workload: Workload, normalize: bool):
        sens = np.array([spec.sensitivity for spec in workload.statistics], dtype=float)
        self.us_coeff = np.full(sens.size, _SQRT2) if normalize else _SQRT2 * sens
        self.rows, self.cols, self.weights = _jacobian_weights(
            workload, [equation.expression for equation in workload.equations]
        )
        overflowed = np.flatnonzero(~np.isfinite(self.weights))
        if overflowed.size:
            entry = overflowed[0]
            equation, spec = workload.equations[self.rows[entry]], workload.statistics[self.cols[entry]]
            raise NonFiniteError(
                f"equation {equation.id!r}: its first-order weight in statistic {spec.id!r} "
                f"is {float(self.weights[entry])!r} at the reference values"
            )
        self.n_eq = len(workload.equations)
        self.norms = np.array(
            [equation.sensitivity if normalize else 1.0 for equation in workload.equations], dtype=float
        )

    def variances(self, budgets: np.ndarray) -> np.ndarray:
        """Predicted output-noise variance of every equation; inf where it overflows (then NonFiniteError)."""
        with np.errstate(over="ignore"):
            return _variances(self.rows, self.weights, budgets[self.cols], self.n_eq)

    def terms(self, budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-statistic and per-equation scores (the report's us/ue terms), inf as in ``variances``."""
        with np.errstate(over="ignore"):
            variances = _variances(self.rows, self.weights, budgets[self.cols], self.n_eq)
            return self.us_coeff / budgets, np.sqrt(variances) / self.norms

    def metric_batch(self, budget_rows: np.ndarray) -> np.ndarray:
        """Metric of each row, through a dense equations x statistics view;
        meant for few statistics."""
        dense = np.zeros((self.n_eq, self.us_coeff.size))
        dense[self.rows, self.cols] = self.weights
        inv = 1.0 / budget_rows
        return inv @ self.us_coeff + (np.sqrt((inv * inv) @ dense.T) / self.norms).sum(axis=1)


def budget_vector(workload: Workload, allocation: BudgetAllocation) -> np.ndarray:
    """Budgets of a validated allocation in workload-statistic order."""
    return np.array([allocation.budgets[stat_id] for stat_id in workload.statistic_ids], dtype=float)


def _jacobian_weights(workload: Workload, expressions: list[Expr]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (row, column, 2 * g^2 * sensitivity^2) arrays of the nonzero partials.

    Entries run by expression, then by statistic index. The gradient dict's
    own order follows set iteration and so varies between processes; the
    fixed order keeps every sum, and so every report, byte-identical.
    """
    refs = workload.reference_values()
    index_of = {spec.id: i for i, spec in enumerate(workload.statistics)}
    rows: list[int] = []
    cols: list[int] = []
    weights: list[float] = []
    for row, ast in enumerate(expressions):
        gradient = gradient_at_reference(ast, refs)
        for col, g in sorted((index_of[name], g) for name, g in gradient.items() if g != 0.0):
            s = workload.statistics[col].sensitivity
            rows.append(row)
            cols.append(col)
            weights.append(2.0 * g * g * s * s)
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(weights, dtype=float)


def _variances(rows: np.ndarray, weights: np.ndarray, entry_budgets: np.ndarray, n_rows: int) -> np.ndarray:
    """The closed form: per row, the sum of weight / budget^2 over its entries,
    where ``entry_budgets`` holds each entry's statistic budget."""
    inv = 1.0 / entry_budgets
    return np.bincount(rows, weights * (inv * inv), minlength=n_rows)


def propagate_variance_analytic(ast: Expr, workload: Workload, allocation: BudgetAllocation) -> PropagationResult:
    """First-order prediction of the equation's output-noise variance.

    Each statistic's noise is an independent Laplace draw, so the
    linearized variance is the gradient-weighted sum of the per-statistic
    variances. Exact when the expression is linear in the statistics.
    For a quotient it is reliable only when the denominator's reference
    value is many noise standard deviations from zero; near 3.5 of them
    the true variance is infinite and this prediction understates it.
    """
    allocation = validate_allocation(workload, allocation)
    rows, cols, weights = _jacobian_weights(workload, [ast])
    ids = workload.statistic_ids
    entry_budgets = np.array([allocation.budgets[ids[col]] for col in cols.tolist()], dtype=float)
    variance = float(_variances(rows, weights, entry_budgets, 1)[0])
    return PropagationResult(variance=variance, rmse=math.sqrt(variance), method="analytic")


def propagate_variance_montecarlo(
    ast: Expr,
    workload: Workload,
    allocation: BudgetAllocation,
    samples: int,
    seed: int,
) -> PropagationResult:
    """Monte Carlo estimate of the equation's output-noise distribution.

    Draws ``samples`` joint noise vectors, evaluates the expression at
    reference-plus-noise and at the reference, and summarizes the
    differences. Deterministic per seed. Samples whose denominators come
    within DIVISION_GUARD of zero are excluded; if more than
    HEAVY_TAIL_FRACTION of them do, the run aborts.

    Raises:
        HeavyTailWarning: too many excluded samples.
        DivisionNearZeroError: the expression is degenerate at the
            reference point itself.
    """
    allocation = validate_allocation(workload, allocation)
    check_mc_samples(samples)
    return replay_montecarlo(workload, allocation, [("expression", ast)], samples, seed)[0]


def check_mc_samples(samples: int) -> None:
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be at least {MIN_MC_SAMPLES}, got {samples!r}")


def replay_montecarlo(
    workload: Workload,
    allocation: BudgetAllocation,
    expressions: Sequence[tuple[str, Expr]],
    count: int,
    seed: int,
    sink: Callable[[int, list[np.ndarray]], None] | None = None,
) -> list[PropagationResult]:
    """The one Monte Carlo kernel: ``count`` seeded replays of every expression.

    ``expressions`` holds (label, tree) pairs; the label names an
    expression in the heavy-tail error. Each statistic any expression
    reads gets its stream ``noise_stream(seed, index)`` drawn once, in
    statistic order and in CHUNK-sample pieces; consecutive pieces of a
    stream equal one big draw, so trial ``t`` sees the same noise as in a
    single release. Every expression is evaluated on each chunk and its
    errors (output minus reference output) are summarized on the fly, so
    memory is O(CHUNK x statistics + expressions x tail size). The chunk
    size is fixed, which fixes the summation order and keeps reports
    byte-identical. ``sink``, if given, receives each chunk's start index
    and per-expression errors, with NaN at excluded samples.

    The allocation must already be validated and ``count`` be at least 1.

    Raises:
        DivisionNearZeroError: an expression is degenerate at the reference.
        NonFiniteError: an expression's value at the reference, or the
            summary of its errors, overflows (or is NaN).
        HeavyTailWarning: more than HEAVY_TAIL_FRACTION of an expression's
            samples hit near-zero denominators.
    """
    refs = workload.reference_values()
    reference_outputs = [evaluate(ast, refs) for _, ast in expressions]
    for (label, _), output in zip(expressions, reference_outputs):
        if not math.isfinite(output):
            raise NonFiniteError(f"{label}: its value at the reference values is {output!r}")
    used = set().union(*(free_statistics(ast) for _, ast in expressions))
    streams = [
        (spec.id, spec.reference_value, spec.sensitivity / allocation.budgets[spec.id], noise_stream(seed, index))
        for index, spec in enumerate(workload.statistics)
        if spec.id in used
    ]
    summaries = [_ErrorSummary(int(count * TRIM_PER_TAIL)) for _ in expressions]
    # An overflow makes a summary non-finite (NonFiniteError below) or vanishes (1 / inf is 0).
    results = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, count, CHUNK):
            size = min(CHUNK, count - start)
            released = {}
            for stat_id, reference, scale, stream in streams:
                values = sample_noise_batch(scale, stream, size)
                values += reference
                released[stat_id] = values
            chunk_errors = []
            for (_, ast), reference_output, summary in zip(expressions, reference_outputs, summaries):
                invalid = np.zeros(size, dtype=bool)
                errors = np.asarray(evaluate_batch(ast, released, invalid), dtype=float) - reference_output
                if errors.ndim == 0:
                    errors = np.full(size, float(errors))
                excluded = int(np.count_nonzero(invalid))
                summary.add(errors[~invalid] if excluded else errors, excluded)
                if sink is not None:
                    errors[invalid] = np.nan
                    chunk_errors.append(errors)
            if sink is not None:
                sink(start, chunk_errors)
        for (label, _), summary in zip(expressions, summaries):
            if summary.excluded > HEAVY_TAIL_FRACTION * count:
                raise HeavyTailWarning(
                    f"{label}: {summary.excluded} of {count} samples hit near-zero denominators "
                    f"(limit {HEAVY_TAIL_FRACTION:.1%})"
                )
            result = summary.result()
            # Finite when no error and no sum of squared errors overflowed.
            if not (math.isfinite(result.rmse) and math.isfinite(result.variance)):
                raise NonFiniteError(f"{label}: its Monte Carlo errors overflow (rmse {result.rmse!r})")
            results.append(result)
    return results


class _ErrorSummary:
    """Running summary of one expression's kept errors, fed chunk by chunk.

    Keeps the sum of squares, the mean and M2 (chunks merged by Chan's
    pairwise formula), and for the trimmed rmse an exact running set of the
    k smallest and k largest errors (``tails``, sorted, the k smallest
    first) plus the sum of squares of every error in neither.
    """

    __slots__ = ("k", "kept", "excluded", "sum_sq", "mean", "m2", "tails", "core_sq")

    def __init__(self, k: int):
        self.k = k
        self.kept = 0
        self.excluded = 0
        self.sum_sq = 0.0
        self.mean = 0.0
        self.m2 = 0.0
        self.tails = np.empty(0)
        self.core_sq = 0.0

    def add(self, kept: np.ndarray, excluded: int) -> None:
        self.excluded += excluded
        size = kept.size
        if size == 0:
            return
        squares = kept * kept
        self.sum_sq += float(squares.sum())
        chunk_mean = float(kept.sum()) / size
        centered = kept - chunk_mean
        centered *= centered
        chunk_m2 = float(centered.sum())
        if self.kept == 0:
            self.mean, self.m2 = chunk_mean, chunk_m2
        else:
            total = self.kept + size
            delta = chunk_mean - self.mean
            self.mean += delta * size / total
            self.m2 += chunk_m2 + delta * delta * self.kept * size / total
        self.kept += size
        k = self.k
        if k == 0:
            return
        if self.tails.size == 2 * k:
            # Errors strictly inside the tails' bounds cannot enter them.
            inner = (kept > self.tails[k - 1]) & (kept < self.tails[k])
            self.core_sq += float(squares[inner].sum())
            if inner.all():
                return
            kept = kept[~inner]
        merged = np.concatenate((self.tails, kept))
        merged.sort()
        if merged.size <= 2 * k:
            self.tails = merged
        else:
            self.tails = np.concatenate((merged[:k], merged[-k:]))
            pushed = merged[k:-k]
            self.core_sq += float((pushed * pushed).sum())

    def result(self) -> PropagationResult:
        rmse = math.sqrt(self.sum_sq / self.kept)
        drop = int(self.kept * TRIM_PER_TAIL)
        if drop == 0:
            trimmed = rmse
        else:
            # The inner values of both tails join the core; drop <= k.
            inner = self.tails[drop : self.tails.size - drop]
            trimmed = math.sqrt((self.core_sq + float((inner * inner).sum())) / (self.kept - 2 * drop))
        return PropagationResult(
            variance=self.m2 / self.kept,
            rmse=rmse,
            method="montecarlo",
            mc_detail=MonteCarloDetail(samples=self.kept, bias_estimate=self.mean, trimmed_rmse=trimmed),
        )
