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
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import HeavyTailWarning, NonFiniteError
from .expressions import (
    Binary,
    BinaryOp,
    Expr,
    Negate,
    StatRef,
    _evaluate,
    _guarded_divide,
    _postorder,
    evaluate_batch,
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

    Computed by one reverse sweep over the tree (reverse-mode
    differentiation), in time linear in its size; the result has one entry
    per referenced statistic (zero entries included, e.g. for "s1 - s1").

    Raises:
        MissingValueError: a referenced id has no reference value.
        DivisionNearZeroError: a denominator magnitude at the reference
            point falls below DIVISION_GUARD.
    """
    return _value_and_partials(ast, refs)[1]


def _value_and_partials(ast: Expr, refs: Mapping[str, float]) -> tuple[float, dict[str, float]]:
    """The expression's value at the reference point and its partials, by reverse-mode differentiation
    (Griewank & Walther, "Evaluating Derivatives", 2008, ch. 3): the one evaluation walk records each
    Binary node's operands, then one sweep in reverse postorder pushes adjoints down to the StatRefs."""
    order = _postorder(ast)
    operands: list[tuple[float, float]] = []
    value = _evaluate(order, refs, float, _guarded_divide, operands)
    partials: dict[str, float] = {}
    pending = [1.0]  # adjoints of nodes not yet visited; a parent's right child is visited next, then its left
    for node in reversed(order):
        adjoint = pending.pop()
        kind = type(node)
        if kind is Binary:
            left, right = operands.pop()
            if node.op is BinaryOp.ADD:
                pending += (adjoint, adjoint)
            elif node.op is BinaryOp.SUB:
                pending += (adjoint, -adjoint)
            elif node.op is BinaryOp.MUL:
                pending += (adjoint * right, adjoint * left)
            else:
                # d(l / r) = (dl - (l / r) dr) / r: never r * r, which overflows past |r| ~ 1.3e154.
                pending += (adjoint / right, -adjoint * (left / right) / right)
        elif kind is Negate:
            pending.append(-adjoint)
        elif kind is StatRef:
            partials[node.name] = partials.get(node.name, 0.0) + adjoint
    return value, partials


class _Scales:
    """What every route's scores read besides the equation rmses: each statistic's coefficient
    sqrt(2) * sensitivity (sqrt(2) under normalization), whose quotient by its budget is the
    statistic's score, and each equation's norm (its sensitivity under normalization, else 1)."""

    def __init__(self, workload: Workload, normalize: bool):
        sens = np.array([spec.sensitivity for spec in workload.statistics], dtype=float)
        self.us_coeff = np.full(sens.size, _SQRT2) if normalize else _SQRT2 * sens
        self.norms = np.array([eq.sensitivity if normalize else 1.0 for eq in workload.equations], dtype=float)

    def statistic_terms(self, budgets: np.ndarray) -> np.ndarray:
        """Per-statistic scores at a budget vector, or a batch with statistics on the last axis; inf on overflow."""
        with np.errstate(over="ignore"):
            return self.us_coeff / budgets


class FirstOrderModel(_Scales):
    """Sparse first-order (closed-form) metric of a workload over budget vectors.

    Built once per public call from one gradient per equation. For every
    nonzero partial g of equation j in statistic i it stores the row j, the
    column i and the amplitude sqrt(2) * |g| * sensitivity_i, so equation j's
    predicted rmse at budgets b is the 2-norm of amplitude / b_i over its
    row (``_row_norms``). Cost is linear in the Jacobian's nonzeros. Budget
    vectors are indexed in workload-statistic order and are not validated. An
    equation's value at the reference values or amplitude that overflows (or
    is NaN) raises NonFiniteError naming the equation.
    """

    def __init__(self, workload: Workload, normalize: bool):
        super().__init__(workload, normalize)
        equations = workload.equations
        self.rows, self.cols, self.amplitudes, self.starts = _jacobian_amplitudes(
            workload, [eq.expression for eq in equations], lambda row: f"equation {equations[row].id!r}"
        )
        self.n_eq = len(workload.equations)

    def terms(self, budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-statistic and per-equation scores (the report's us/ue terms) at a budget vector,
        or at a batch with statistics on the last axis; inf where one overflows (then NonFiniteError)."""
        with np.errstate(over="ignore"):
            # In place, and each temporary dropped before the next: a grid batch is large.
            ratios = budgets[..., self.cols]
            np.divide(self.amplitudes, ratios, out=ratios)
            rmse = _row_norms(ratios, self.rows, self.starts, self.n_eq)
            del ratios
            rmse /= self.norms
        return self.statistic_terms(budgets), rmse

    def metric_batch(self, budget_rows: np.ndarray) -> np.ndarray:
        """Metric of each row of a batch of budget vectors; inf where it overflows."""
        statistic_part, equation_part = self.terms(budget_rows)
        with np.errstate(over="ignore"):
            return statistic_part.sum(axis=-1) + equation_part.sum(axis=-1)


def budget_vector(workload: Workload, allocation: BudgetAllocation) -> np.ndarray:
    """Budgets of a validated allocation in workload-statistic order."""
    return np.array([allocation.budgets[stat_id] for stat_id in workload.statistic_ids], dtype=float)


def _jacobian_amplitudes(
    workload: Workload, expressions: list[Expr], label: Callable[[int], str]
) -> tuple[np.ndarray, ...]:
    """Flat (row, column, sqrt(2) * |g| * sensitivity) arrays of the nonzero partials, and where each row starts.

    Entries run by expression, then by statistic index: that order fixes the
    order of every sum over a row, and so keeps every report byte-identical.
    A value at the reference values or an amplitude that is not finite raises
    NonFiniteError naming the expression by ``label(row)``.
    """
    refs = workload.reference_values()
    index_of = {spec.id: i for i, spec in enumerate(workload.statistics)}
    rows: list[int] = []
    cols: list[int] = []
    partials: list[float] = []
    for row, ast in enumerate(expressions):
        value, gradient = _value_and_partials(ast, refs)
        if not math.isfinite(value):
            raise NonFiniteError(f"{label(row)}: its value at the reference values is {value!r}")
        rows += [row] * len(gradient)
        cols += map(index_of.__getitem__, gradient)
        partials += gradient.values()
    partial_array = np.array(partials, dtype=float)
    order = np.lexsort((cols, rows))
    order = order[partial_array[order] != 0.0]
    row_array, col_array = np.array(rows, dtype=np.intp)[order], np.array(cols, dtype=np.intp)[order]
    sens = np.array([spec.sensitivity for spec in workload.statistics], dtype=float)
    with np.errstate(over="ignore"):
        amplitudes = _SQRT2 * np.abs(partial_array[order]) * sens[col_array]
    overflowed = np.flatnonzero(~np.isfinite(amplitudes))
    if overflowed.size:
        entry = overflowed[0]
        raise NonFiniteError(
            f"{label(row_array[entry])}: its first-order amplitude in statistic "
            f"{workload.statistics[col_array[entry]].id!r} is {float(amplitudes[entry])!r} at the reference values"
        )
    return row_array, col_array, amplitudes, np.flatnonzero(np.diff(row_array, prepend=-1))


def _row_norms(ratios: np.ndarray, rows: np.ndarray, starts: np.ndarray, n_rows: int) -> np.ndarray:
    """The closed form: each row's predicted rmse, the 2-norm of the a / b ``ratios`` of its entries
    (on the last axis, one budget vector or a batch), 0 for a row without entries. hypot never
    squares an unscaled magnitude (a robust norm, as in Blue 1978), so only a true overflow is inf."""
    norms = np.hypot.reduceat(ratios, starts, axis=-1)
    if starts.size == n_rows:
        return norms
    full = np.zeros(ratios.shape[:-1] + (n_rows,))
    full[..., rows[starts]] = norms
    return full


def propagate_variance_analytic(ast: Expr, workload: Workload, allocation: BudgetAllocation) -> PropagationResult:
    """First-order prediction of the equation's output-noise variance.

    Each statistic's noise is an independent Laplace draw, so the
    linearized variance is the gradient-weighted sum of the per-statistic
    variances. Exact when the expression is linear in the statistics.
    For a quotient it is reliable only when the denominator's reference
    value is many noise standard deviations from zero; near 3.5 of them
    the true variance is infinite and this prediction understates it.
    A value at the reference values or a variance that overflows is NonFiniteError.
    """
    allocation = validate_allocation(workload, allocation)
    rows, cols, amplitudes, starts = _jacobian_amplitudes(workload, [ast], lambda row: "expression")
    with np.errstate(over="ignore"):
        rmse = float(_row_norms(amplitudes / budget_vector(workload, allocation)[cols], rows, starts, 1)[0])
    if not math.isfinite(rmse * rmse):
        raise NonFiniteError(f"the predicted variance overflows at this allocation ({rmse * rmse!r})")
    return PropagationResult(variance=rmse * rmse, rmse=rmse, method="analytic")


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
        NonFiniteError: an error, or the variance of the errors, overflows.
    """
    allocation = validate_allocation(workload, allocation)
    check_mc_samples(samples)
    result = replay_montecarlo(workload, allocation, [("expression", ast)], samples, seed, [True])[0]
    if not math.isfinite(result.variance):
        raise NonFiniteError(f"expression: its Monte Carlo variance overflows ({result.variance!r})")
    return result


def check_mc_samples(samples: int) -> None:
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be at least {MIN_MC_SAMPLES}, got {samples!r}")


def replay_montecarlo(
    workload: Workload,
    allocation: BudgetAllocation,
    expressions: Sequence[tuple[str, Expr]],
    count: int,
    seed: int,
    full: Sequence[bool],
    sink: Callable[[int, list[np.ndarray]], None] | None = None,
) -> list[PropagationResult | float]:
    """The one Monte Carlo kernel: ``count`` seeded replays of every expression.

    ``expressions`` holds (label, tree) pairs; the label names an
    expression in the heavy-tail error. Each statistic any expression
    reads gets its stream ``noise_stream(seed, index)`` drawn once, in
    statistic order and in CHUNK-sample pieces; consecutive pieces of a
    stream equal one big draw, so trial ``t`` sees the same noise as in a
    single release. When there is more than one chunk, a second thread
    draws the next chunk's uniforms while this one is evaluated; it is
    joined before the call returns or raises, and results do not depend
    on it. Every expression is evaluated on each chunk and its errors
    (output minus reference output) are summarized on the fly, so memory
    is O(2 x CHUNK x statistics + expressions x tail size). The chunk size
    is fixed, which fixes the summation order and keeps reports
    byte-identical. ``sink``, if given, receives each chunk's start index and
    per-expression errors (NaN at excluded samples); none are kept after it.

    ``full[i]`` sizes expression i's summary to what its caller reports.
    False keeps only the sum of squared errors (_SquareSum), and the
    result is the rmse, a float. True keeps the full summary (_ErrorSummary):
    a PropagationResult with the variance, bias and trimmed rmse as well.
    Both scale their sums by a power of two where squares would overflow,
    so an rmse is inf only when an error itself is; the variance can still
    overflow, and a caller that reports it checks it.

    The allocation must already be validated and ``count`` be at least 1.

    Raises:
        DivisionNearZeroError: an expression is degenerate at the reference.
        NonFiniteError: an expression's value at the reference, or the
            rmse of its errors, overflows (or is NaN).
        HeavyTailWarning: more than HEAVY_TAIL_FRACTION of an expression's
            samples hit near-zero denominators.
    """
    refs = workload.reference_values()
    # One postorder list per expression for the whole call: the reference output, the streams and every chunk read it.
    plans = [_postorder(ast) for _, ast in expressions]
    reference_outputs = [_evaluate(plan, refs, float, _guarded_divide) for plan in plans]
    for (label, _), output in zip(expressions, reference_outputs):
        if not math.isfinite(output):
            raise NonFiniteError(f"{label}: its value at the reference values is {output!r}")
    used = {node.name for plan in plans for node in plan if type(node) is StatRef}
    # Only an expression with a division can exclude samples, so only it gets an exclusion mask.
    divides = [any(type(node) is Binary and node.op is BinaryOp.DIV for node in plan) for plan in plans]
    streams = [
        (spec.id, spec.reference_value, spec.sensitivity / allocation.budgets[spec.id], noise_stream(seed, index))
        for index, spec in enumerate(workload.statistics)
        if spec.id in used
    ]
    generators = [stream for *_, stream in streams]
    summaries = [_ErrorSummary(int(count * TRIM_PER_TAIL)) if keep else _SquareSum() for keep in full]
    # With several chunks, a second thread draws chunk c + 1 into a second buffer while chunk c is
    # transformed and evaluated in the first. Philox is counter-based, so a variate's bits do not depend on
    # the thread that draws it, and every float operation of the transform and the evaluation runs on this
    # thread in the same order as with one buffer.
    buffers = [[np.empty(min(CHUNK, count)) for _ in streams] for _ in range(1 + (count > CHUNK))]
    _draw_uniforms(generators, buffers[0], min(CHUNK, count))
    drawer = None
    # An overflowing error makes its rmse non-finite (NonFiniteError below), or vanishes (1 / inf is 0).
    results = []
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if count > CHUNK:
                drawer = _DrawAhead(generators)
            for number, start in enumerate(range(0, count, CHUNK)):
                size = min(CHUNK, count - start)
                following = min(CHUNK, count - start - size)  # the next chunk's size; 0 after the last chunk
                rows = buffers[number % 2]
                if following:
                    drawer.draw(buffers[1 - number % 2], following)
                released = {}
                for (stat_id, reference, scale, _), row in zip(streams, rows):
                    values = sample_noise_batch(scale, _Drawn(row), size)
                    values += reference
                    released[stat_id] = values
                chunk_errors = []
                for plan, divide, reference_output, summary in zip(plans, divides, reference_outputs, summaries):
                    invalid = np.zeros(size, dtype=bool) if divide else None
                    errors = np.asarray(evaluate_batch(plan, released, invalid), dtype=float) - reference_output
                    if errors.ndim == 0:
                        errors = np.full(size, float(errors))
                    excluded = int(np.count_nonzero(invalid)) if divide else 0
                    summary.add(errors[~invalid] if excluded else errors, excluded)
                    if sink is not None:
                        if excluded:
                            errors[invalid] = np.nan
                        chunk_errors.append(errors)
                if sink is not None:
                    sink(start, chunk_errors)
                if following:
                    drawer.wait()
        finally:
            if drawer is not None:
                drawer.close()
        for (label, _), summary in zip(expressions, summaries):
            if summary.excluded > HEAVY_TAIL_FRACTION * count:
                raise HeavyTailWarning(
                    f"{label}: {summary.excluded} of {count} samples hit near-zero denominators "
                    f"(limit {HEAVY_TAIL_FRACTION:.1%})"
                )
            rmse = summary.rmse()
            if not math.isfinite(rmse):
                raise NonFiniteError(f"{label}: its Monte Carlo errors overflow (rmse {rmse!r})")
            results.append(summary.result(rmse))
    return results


def _draw_uniforms(generators: list[np.random.Generator], rows: list[np.ndarray], size: int) -> None:
    """The next ``size`` uniforms of each generator, into the start of its row."""
    for generator, row in zip(generators, rows):
        generator.random(out=row[:size])


class _Drawn:
    """A stream's uniforms for the chunk at hand, drawn ahead into ``row``. It stands in for the stream in
    sample_noise_batch: ``random(count)`` returns the first ``count`` of them, which the transform overwrites."""

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray):
        self.row = row

    def random(self, count: int) -> np.ndarray:
        return self.row[:count]


class _DrawAhead(threading.Thread):
    """One call's draw-ahead thread, started at once. ``draw(rows, size)`` hands it the next chunk, which
    it fills with _draw_uniforms while the caller works on the current one; ``wait`` blocks until that
    draw is done and re-raises what it raised; ``close`` ends the thread and joins it. Generator.random
    releases the GIL while it fills an array, so the draws overlap the caller's work. One thread per call,
    not per chunk: on a 2-vCPU VM a start and join cost ~0.13 ms, a semaphore handoff ~0.04 ms."""

    def __init__(self, generators: list[np.random.Generator]):
        super().__init__(name="dpbudget-draws")
        self.generators = generators
        self.chunk: tuple[list[np.ndarray], int] | None = None  # what to draw next; None ends the thread
        self.error: BaseException | None = None
        self.asked = threading.Semaphore(0)
        self.drawn = threading.Semaphore(0)
        self.start()

    def run(self) -> None:
        while True:
            self.asked.acquire()
            chunk = self.chunk
            if chunk is None:
                return
            try:
                _draw_uniforms(self.generators, *chunk)
            except BaseException as error:
                self.error = error
            self.drawn.release()

    def draw(self, rows: list[np.ndarray], size: int) -> None:
        self.chunk = (rows, size)
        self.asked.release()

    def wait(self) -> None:
        self.drawn.acquire()
        if self.error is not None:
            raise self.error

    def close(self) -> None:
        self.chunk = None
        self.asked.release()
        self.join()


def _unscaled(value: float, shift: int) -> float:
    """``value * 2**shift``, exact; inf, with value's sign, past the largest float."""
    try:
        return math.ldexp(value, shift)
    except OverflowError:
        return math.copysign(math.inf, value)


class _SquareSum:
    """The rmse-only summary of one expression's errors, fed chunk by chunk:
    the kept and excluded counts and the sum of squares of the kept errors.

    Errors are summed as ``x * 2**-shift``. shift stays 0, and the sums plain,
    until a chunk's squares overflow the running sum while its errors are
    finite. Then shift grows by the binary exponent of the chunk's largest
    scaled |error|, so that each square is below 1, and the sums so far are
    rescaled by that exact power of two.
    """

    __slots__ = ("kept", "excluded", "sum_sq", "shift")

    def __init__(self):
        self.kept = 0
        self.excluded = 0
        self.sum_sq = 0.0
        self.shift = 0

    def add(self, kept: np.ndarray, excluded: int) -> None:
        self.excluded += excluded
        if kept.size:
            self._add_squares(kept)

    def _add_squares(self, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Counts a nonempty chunk and sums its squares; returns the chunk as summed (scaled) and its squares."""
        if self.shift:
            kept = np.ldexp(kept, -self.shift)
        squares = kept * kept
        sum_sq = self.sum_sq + float(squares.sum())
        if math.isinf(sum_sq) and np.isfinite(kept).all():
            delta = math.frexp(float(np.abs(kept).max()))[1]
            self._rescale(delta)
            kept = np.ldexp(kept, -delta)
            squares = kept * kept
            sum_sq = self.sum_sq + float(squares.sum())
        self.sum_sq = sum_sq
        self.kept += kept.size
        return kept, squares

    def _rescale(self, delta: int) -> None:
        """Moves every sum to units of ``2**(shift + delta)``."""
        self.shift += delta
        self.sum_sq = math.ldexp(self.sum_sq, -2 * delta)

    def rmse(self) -> float:
        return _unscaled(math.sqrt(self.sum_sq / self.kept), self.shift)

    def result(self, rmse: float) -> float:
        """The kernel's result for this expression, given its checked rmse: the rmse itself."""
        return rmse


class _ErrorSummary(_SquareSum):
    """The full summary: _SquareSum's plus the mean and M2 of the kept errors
    (chunks merged by Chan's pairwise formula) and, for the trimmed rmse, an
    exact running set of the k smallest and k largest errors (``tails``,
    sorted, the k smallest first) plus the sum of squares of every error in
    neither. All of it is kept in _SquareSum's units of ``2**shift``.
    """

    __slots__ = ("k", "mean", "m2", "tails", "core_sq")

    def __init__(self, k: int):
        super().__init__()
        self.k = k
        self.mean = 0.0
        self.m2 = 0.0
        self.tails = np.empty(0)
        self.core_sq = 0.0

    def add(self, kept: np.ndarray, excluded: int) -> None:
        self.excluded += excluded
        size = kept.size
        if size == 0:
            return
        previous = self.kept
        kept, squares = self._add_squares(kept)
        chunk_mean = float(kept.sum()) / size
        centered = kept - chunk_mean
        centered *= centered
        chunk_m2 = float(centered.sum())
        if previous == 0:
            self.mean, self.m2 = chunk_mean, chunk_m2
        else:
            total = previous + size
            delta = chunk_mean - self.mean
            self.mean += delta * size / total
            self.m2 += chunk_m2 + delta * delta * previous * size / total
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

    def _rescale(self, delta: int) -> None:
        super()._rescale(delta)
        self.mean = math.ldexp(self.mean, -delta)
        self.m2 = math.ldexp(self.m2, -2 * delta)
        self.core_sq = math.ldexp(self.core_sq, -2 * delta)
        self.tails = np.ldexp(self.tails, -delta)

    def result(self, rmse: float) -> PropagationResult:
        drop = int(self.kept * TRIM_PER_TAIL)
        if drop == 0:
            trimmed = rmse
        else:
            # The inner values of both tails join the core; drop <= k.
            inner = self.tails[drop : self.tails.size - drop]
            core_sq = self.core_sq + float((inner * inner).sum())
            trimmed = _unscaled(math.sqrt(core_sq / (self.kept - 2 * drop)), self.shift)
        return PropagationResult(
            variance=_unscaled(self.m2 / self.kept, 2 * self.shift),
            rmse=rmse,
            method="montecarlo",
            mc_detail=MonteCarloDetail(
                samples=self.kept, bias_estimate=_unscaled(self.mean, self.shift), trimmed_rmse=trimmed
            ),
        )
