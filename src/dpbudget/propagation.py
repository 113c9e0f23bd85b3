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
from collections import deque
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
from .noise import _check_scale, _laplace_from_uniform, noise_stream
from .workload import MIN_MC_SAMPLES, BudgetAllocation, Workload, validate_allocation

# Abort Monte Carlo when more than this fraction of samples divide by ~zero.
HEAVY_TAIL_FRACTION = 0.001
# Fraction of samples dropped from each tail for the trimmed rmse.
TRIM_PER_TAIL = 0.0005
# Samples per Monte Carlo chunk. Fixed, never derived from threads or
# memory: the chunking fixes the summation order, and so the report bytes.
CHUNK = 1 << 14
# Values per group of noise streams: 4 streams of a full chunk, 512 KB, which a 2 MB L2 cache holds
# from the draw through the transform.
_GROUP_VALUES = 1 << 16

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


class FirstOrderModel:
    """Sparse first-order (closed-form) metric of a workload over budget vectors: every analytic number.

    Built once per public call over (label, tree) ``expressions``, by default the workload's equations
    labelled "equation 'id'"; a Monte Carlo score builds it over none, and so computes no gradient. For
    every nonzero partial g of expression j in statistic i it stores the row j, the column i and the
    amplitude sqrt(2) * |g| * sensitivity_i / unit, so expression j's predicted rmse at budgets b is the
    2-norm of amplitude / (b_i / unit) over its row (``rmse``). Each statistic's coefficient is
    sqrt(2) * sensitivity / unit (sqrt(2) / unit under normalization), whose quotient by its budget in units
    is its score, and each workload equation's norm is its sensitivity under normalization, else 1.

    The budget unit is 1, so that a workload whose coefficients are finite is scored on its budgets as
    given. Only when a coefficient or an amplitude overflows at 1 is it the smallest power of four not below
    epsilon (2**1022 at most): a budget is at most epsilon, so a coefficient per that unit is at most a score
    it adds to, and is finite wherever the scores are. A budget far below epsilon then loses bits in it or
    underflows (an infinite score); at unit 1 such a workload had no finite coefficient. A power of four
    keeps the optimizers' square roots exact. Every method reads budgets in the unit (``units``).

    Entries run by expression, then by statistic index: that order fixes the order of every sum over a
    row, and so keeps every report byte-identical. Cost is linear in the Jacobian's nonzeros. An
    expression's value at the reference values or amplitude that is not finite raises NonFiniteError
    naming it by its label.
    """

    def __init__(self, workload: Workload, normalize: bool, expressions: Sequence[tuple[str, Expr]] | None = None):
        trees = [eq.expression for eq in workload.equations] if expressions is None else [ast for _, ast in expressions]

        def label(row: int) -> str:  # formatted only for an error: a workload may have thousands of equations
            return f"equation {workload.equations[row].id!r}" if expressions is None else expressions[row][0]

        refs = workload.reference_values()
        index_of = {spec.id: i for i, spec in enumerate(workload.statistics)}
        rows: list[int] = []
        cols: list[int] = []
        partials: list[float] = []
        for row, ast in enumerate(trees):
            value, gradient = _value_and_partials(ast, refs)
            if not math.isfinite(value):
                raise NonFiniteError(f"{label(row)}: its value at the reference values is {value!r}")
            rows += [row] * len(gradient)
            cols += map(index_of.__getitem__, gradient)
            partials += gradient.values()
        partial_array = np.array(partials, dtype=float)
        order = np.lexsort((cols, rows))
        order = order[partial_array[order] != 0.0]
        self.rows, self.cols = np.array(rows, dtype=np.intp)[order], np.array(cols, dtype=np.intp)[order]
        self.starts = np.flatnonzero(np.diff(self.rows, prepend=-1))
        magnitudes = _SQRT2 * np.abs(partial_array[order])
        sens = np.array([spec.sensitivity for spec in workload.statistics], dtype=float)
        self.unit = 1.0
        with np.errstate(over="ignore"):
            coefficients_overflow = not (normalize or np.isfinite(_SQRT2 * sens).all())
            if coefficients_overflow or not np.isfinite(magnitudes * sens[self.cols]).all():
                mantissa, exponent = math.frexp(workload.epsilon)
                power = exponent - 1 if mantissa == 0.5 else exponent  # the smallest power of two not below epsilon
                self.unit = math.ldexp(1.0, min(power + power % 2, 1022))
            per_unit = sens / self.unit
            self.us_coeff = np.full(sens.size, _SQRT2 / self.unit) if normalize else _SQRT2 * per_unit
            self.amplitudes = magnitudes * per_unit[self.cols]
        overflowed = np.flatnonzero(~np.isfinite(self.amplitudes))
        if overflowed.size:
            entry = overflowed[0]
            raise NonFiniteError(
                f"{label(self.rows[entry])}: its first-order amplitude in statistic "
                f"{workload.statistics[self.cols[entry]].id!r} is {float(self.amplitudes[entry])!r} "
                "at the reference values"
            )
        sensitivities = [eq.sensitivity for eq in workload.equations] if normalize else [1.0] * len(workload.equations)
        self.norms = np.array(sensitivities, dtype=float)
        self.n_eq = len(trees)
        self.workload = workload

    def units(self, allocation: BudgetAllocation) -> np.ndarray:
        """A validated allocation's budgets in workload-statistic order, in the unit: the model's budget vector."""
        return budget_vector(self.workload, allocation) / self.unit

    def statistic_terms(self, units: np.ndarray) -> np.ndarray:
        """Per-statistic scores at a budget vector, or a batch with statistics on the last axis; inf on overflow."""
        with np.errstate(over="ignore"):
            return self.us_coeff / units

    def rmse(self, units: np.ndarray) -> np.ndarray:
        """The closed form: each expression's predicted rmse at a budget vector, or at a batch with statistics
        on the last axis, the 2-norm of the amplitude / budget ratios of its row (0 for a row without entries).
        hypot never squares an unscaled magnitude (a robust norm, as in Blue 1978), so only a true overflow is inf."""
        with np.errstate(over="ignore"):
            # In place, and each temporary dropped before the next: a grid batch is large.
            ratios = units[..., self.cols]
            np.divide(self.amplitudes, ratios, out=ratios)
            norms = np.hypot.reduceat(ratios, self.starts, axis=-1)
        del ratios
        if self.starts.size == self.n_eq:
            return norms
        full = np.zeros(norms.shape[:-1] + (self.n_eq,))
        full[..., self.rows[self.starts]] = norms
        return full

    def terms(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-statistic and per-equation scores (the report's us/ue terms) of a model over the workload's
        equations at a budget vector, or at a batch with statistics on the last axis; inf where one overflows."""
        with np.errstate(over="ignore"):
            return self.statistic_terms(units), self.rmse(units) / self.norms

    def metric_batch(self, units: np.ndarray) -> np.ndarray:
        """Metric of each row of a batch of budget vectors; inf where it overflows."""
        statistic_part, equation_part = self.terms(units)
        with np.errstate(over="ignore"):
            return statistic_part.sum(axis=-1) + equation_part.sum(axis=-1)


def budget_vector(workload: Workload, allocation: BudgetAllocation) -> np.ndarray:
    """Budgets of a validated allocation in workload-statistic order."""
    return np.array([allocation.budgets[stat_id] for stat_id in workload.statistic_ids], dtype=float)


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
    model = FirstOrderModel(workload, False, [("expression", ast)])
    rmse = float(model.rmse(model.units(allocation))[0])
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
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be at least {MIN_MC_SAMPLES}, got {samples!r}")
    summary = replay_montecarlo(workload, allocation, [("expression", ast, _ErrorSummary)], samples, seed)[0]
    variance = summary.variance()
    if not math.isfinite(variance):
        raise NonFiniteError(f"expression: its Monte Carlo variance overflows ({variance!r})")
    return PropagationResult(variance, summary.rmse(), method="montecarlo", mc_detail=summary.detail())


def replay_montecarlo(
    workload: Workload,
    allocation: BudgetAllocation,
    expressions: Sequence[tuple[str, Expr, type[_SquareSum]]],
    count: int,
    seed: int,
    sink: Callable[[int, np.ndarray], None] | None = None,
) -> list[_SquareSum]:
    """The one Monte Carlo kernel: ``count`` seeded replays of every expression.

    ``expressions`` holds (label, tree, summary type) triples. The label names the expression in the errors
    below; the summary type is sized to what its caller reports: the rmse (_SquareSum), also its
    MonteCarloDetail (_TailSummary), also its variance (_ErrorSummary). Each statistic any expression reads
    gets its stream ``noise_stream(seed, index)``, drawn once in CHUNK-sample pieces, so trial ``t`` sees the
    same noise as in a single release. This thread and, when a chunk holds more than one group of streams, a
    helper thread produce each chunk's noise (_Noise); the helper is joined before the call returns or
    raises, and results do not depend on it. Every expression is evaluated on each chunk, on this thread, and
    its errors (output minus reference output) are summarized on the fly: memory is O(2 x CHUNK x statistics
    + expressions x tail size). The fixed chunk size fixes the summation order, and so the report bytes.
    ``sink``, if given, receives each chunk's start index and errors as one (expressions x chunk size) view,
    NaN at excluded samples (expressions x CHUNK more memory); the next chunk overwrites it, so it is valid
    only until the sink returns.

    The kernel returns the summaries, each rmse checked finite (it is inf only when an error is); a caller that
    reports the variance checks it. The allocation must be validated and ``count`` at least 1.

    Raises:
        DivisionNearZeroError: an expression is degenerate at the reference.
        NonFiniteError: an expression's value at the reference, or its errors' rmse, overflows (or is NaN), or
            a statistic's noise scale (sensitivity / budget) does.
        HeavyTailWarning: more than HEAVY_TAIL_FRACTION of an expression's samples hit near-zero denominators.
        ValueError: a noise scale underflows to 0, or the seed is not an integer from 0 to 2**64 - 1.
    """
    refs = workload.reference_values()
    # One postorder list per expression for the whole call: the reference output, the streams and every chunk read it.
    plans = [_postorder(ast) for _, ast, _ in expressions]
    reference_outputs = [_evaluate(plan, refs, float, _guarded_divide) for plan in plans]
    for (label, _, _), output in zip(expressions, reference_outputs):
        if not math.isfinite(output):
            raise NonFiniteError(f"{label}: its value at the reference values is {output!r}")
    used = {node.name for plan in plans for node in plan if type(node) is StatRef}
    # Only an expression with a division can exclude samples, so only it gets an exclusion mask.
    divides = [any(type(node) is Binary and node.op is BinaryOp.DIV for node in plan) for plan in plans]
    specs = [(index, spec) for index, spec in enumerate(workload.statistics) if spec.id in used]
    kept = [summary(count) for _, _, summary in expressions]
    sizes = [min(CHUNK, count - start) for start in range(0, count, CHUNK)]
    # Each chunk's errors, in place (a constant's scalar broadcasts): a row per expression for a sink, else one.
    block = np.empty((len(expressions) if sink is not None else 1, sizes[0]))
    # An overflowing error makes its rmse non-finite (NonFiniteError below), or vanishes (1 / inf is 0).
    with np.errstate(over="ignore", invalid="ignore"):
        # Made inside this block, the helper runs under its np.errstate (numpy keeps one per thread).
        noise = _Noise(specs, allocation, seed, sizes)
        try:
            noise.post(0, sizes[0])
            for number, size in enumerate(sizes):
                rows = noise.fill()
                if number + 1 < len(sizes):
                    noise.post(number + 1, sizes[number + 1])
                released = dict(zip([spec.id for _, spec in specs], rows[:, :size]))
                outs = block[:, :size] if sink is not None else [block[0, :size]] * len(plans)
                for errors, plan, divide, reference, summary in zip(outs, plans, divides, reference_outputs, kept):
                    invalid = np.zeros(size, dtype=bool) if divide else None
                    np.subtract(evaluate_batch(plan, released, invalid), reference, out=errors)
                    excluded = int(np.count_nonzero(invalid)) if divide else 0
                    summary.add(errors[~invalid] if excluded else errors, excluded)
                    if excluded:
                        errors[invalid] = np.nan
                if sink is not None:
                    sink(number * CHUNK, block[:, :size])
        finally:
            noise.close()
        for (label, _, _), summary in zip(expressions, kept):
            if summary.excluded > HEAVY_TAIL_FRACTION * count:
                raise HeavyTailWarning(
                    f"{label}: {summary.excluded} of {count} samples hit near-zero denominators "
                    f"(limit {HEAVY_TAIL_FRACTION:.1%})"
                )
            rmse = summary.rmse()
            if not math.isfinite(rmse):
                raise NonFiniteError(f"{label}: its Monte Carlo errors overflow (rmse {rmse!r})")
    return kept


def _draw_uniforms(generators: list[np.random.Generator], rows: np.ndarray, size: int) -> None:
    """The next ``size`` uniforms of each generator, into the start of its row."""
    for generator, row in zip(generators, rows):
        generator.random(out=row[:size])


class _Noise:
    """One call's noise, produced chunk by chunk into a (streams x CHUNK) buffer by this thread and, when a
    chunk holds more than one group, one helper thread, started here and joined in ``close``. Each thread
    has a scratch array; only the helper, which produces chunk c + 1 while chunk c is evaluated, needs a
    second buffer.

    ``post`` puts a chunk's groups of ceil(_GROUP_VALUES / size) streams in ``pending``, a deque: this thread
    claims them from its front in ``fill``, the helper from its back, each pop atomic. ``produce`` draws a
    group's rows, turns that block into Laplace variates in place (|u| in the thread's scratch) and adds the
    reference values. ``fill`` returns the chunk once the helper is done too, re-raising what it raised; only
    then is the next chunk posted, so each stream is drawn once per chunk, in chunk order. The helper runs
    under the caller's np.errstate, allocates no array and calls nothing the benchmark traces;
    Generator.random and numpy's ufuncs release the GIL, so the threads overlap.
    """

    def __init__(self, specs: list, allocation: BudgetAllocation, seed: int, sizes: list[int]):
        scales = [spec.sensitivity / allocation.budgets[spec.id] for _, spec in specs]
        for (_, spec), scale in zip(specs, scales):
            if scale == math.inf:
                raise NonFiniteError(f"statistic {spec.id!r}: its noise scale (sensitivity / budget) is inf")
            _check_scale(scale)
        self.generators = [noise_stream(seed, index) for index, _ in specs]
        self.scales = np.array(scales, dtype=float)[:, None]
        self.references = np.array([spec.reference_value for _, spec in specs], dtype=float)[:, None]
        threads = 2 if len(specs) > -(-_GROUP_VALUES // sizes[0]) else 1
        self.buffers = [np.empty((len(specs), sizes[0])) for _ in sizes[:threads]]
        # One per thread, the caller's first; a group holds fewer than _GROUP_VALUES + sizes[0] values.
        self.scratch = [np.empty(min(len(specs) * sizes[0], _GROUP_VALUES + sizes[0])) for _ in range(threads)]
        self.pending: deque[int] = deque()
        self.woken, self.idle = threading.Semaphore(0), threading.Semaphore(0)
        self.closed, self.error, self.errstate = False, None, np.geterr()
        self.helper = None
        if threads == 2:
            self.helper = threading.Thread(target=self._help, name="dpbudget-draws")
            self.helper.start()

    def post(self, number: int, size: int) -> None:
        """Opens chunk ``number`` and wakes the helper, which is idle: it finished the last chunk in ``fill``."""
        self.rows, self.size = self.buffers[number % len(self.buffers)], size
        self.group = -(-_GROUP_VALUES // size)
        self.pending.extend(range(-(-len(self.generators) // self.group)))
        self.woken.release()

    def claim(self, from_back: bool) -> int | None:
        try:
            return self.pending.pop() if from_back else self.pending.popleft()
        except IndexError:
            return None

    def produce(self, group: int, scratch: np.ndarray) -> None:
        rows = slice(group * self.group, (group + 1) * self.group)
        block = self.rows[rows, : self.size]
        _draw_uniforms(self.generators[rows], block, self.size)
        _laplace_from_uniform(block, self.scales[rows], scratch[: block.size].reshape(block.shape))
        block += self.references[rows]

    def fill(self) -> np.ndarray:
        while (group := self.claim(False)) is not None:
            self.produce(group, self.scratch[0])
        if self.helper is not None:
            self.idle.acquire()
            if self.error is not None:
                raise self.error
        return self.rows

    def _help(self) -> None:
        """The helper thread: after each ``post``, claims groups from the back until none is left."""
        with np.errstate(**self.errstate):
            while True:
                self.woken.acquire()
                if self.closed:
                    return
                try:
                    while (group := self.claim(True)) is not None:
                        self.produce(group, self.scratch[1])
                except BaseException as error:
                    self.error = error
                self.idle.release()

    def close(self) -> None:
        if self.helper is not None:
            self.closed = True
            self.pending.clear()  # the helper stops after the group it is producing
            self.woken.release()
            self.helper.join()


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
    rescaled by that exact power of two. ``count``, the samples to come,
    sizes a subclass's tails.
    """

    __slots__ = ("kept", "excluded", "sum_sq", "shift")

    def __init__(self, count: int):
        self.kept = 0
        self.excluded = 0
        self.sum_sq = 0.0
        self.shift = 0

    def add(self, kept: np.ndarray, excluded: int) -> None:
        self.excluded += excluded
        if kept.size:
            previous = self.kept
            self._summarize(*self._add_squares(kept), previous)

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

    def _summarize(self, kept: np.ndarray, squares: np.ndarray, previous: int) -> None:
        """What a subclass keeps besides: a nonempty chunk, as summed, its squares and the count before it."""

    def _rescale(self, delta: int) -> None:
        """Moves every sum to units of ``2**(shift + delta)``."""
        self.shift += delta
        self.sum_sq = math.ldexp(self.sum_sq, -2 * delta)

    def rmse(self) -> float:
        return _unscaled(math.sqrt(self.sum_sq / self.kept), self.shift)


class _TailSummary(_SquareSum):
    """simulate's equation summary: _SquareSum's plus the mean of the kept errors (chunks merged by
    Chan's pairwise formula) and, for the trimmed rmse, an exact running set of the k smallest and k
    largest errors (``tails``, sorted, the k smallest first; k is TRIM_PER_TAIL of the count) plus the
    sum of squares of every error in neither, all in units of ``2**shift``. It keeps no M2: no variance.
    """

    __slots__ = ("k", "mean", "tails", "core_sq")

    def __init__(self, count: int):
        super().__init__(count)
        self.k = int(count * TRIM_PER_TAIL)
        self.mean = 0.0
        self.tails = np.empty(0)
        self.core_sq = 0.0

    def _summarize(self, kept: np.ndarray, squares: np.ndarray, previous: int) -> None:
        self._merge(kept, float(kept.sum()) / kept.size, previous)
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

    def _merge(self, kept: np.ndarray, chunk_mean: float, previous: int) -> None:
        """Merges a nonempty chunk, as summed, of mean ``chunk_mean`` into the ``previous`` errors' statistics."""
        if previous == 0:
            self.mean = chunk_mean
        else:
            self.mean += (chunk_mean - self.mean) * kept.size / (previous + kept.size)

    def _rescale(self, delta: int) -> None:
        super()._rescale(delta)
        self.mean = math.ldexp(self.mean, -delta)
        self.core_sq = math.ldexp(self.core_sq, -2 * delta)
        self.tails = np.ldexp(self.tails, -delta)

    def detail(self) -> MonteCarloDetail:
        drop = int(self.kept * TRIM_PER_TAIL)
        if drop == 0:
            trimmed = self.rmse()
        else:
            # The inner values of both tails join the core; drop <= k.
            inner = self.tails[drop : self.tails.size - drop]
            core_sq = self.core_sq + float((inner * inner).sum())
            trimmed = _unscaled(math.sqrt(core_sq / (self.kept - 2 * drop)), self.shift)
        return MonteCarloDetail(self.kept, bias_estimate=_unscaled(self.mean, self.shift), trimmed_rmse=trimmed)


class _ErrorSummary(_TailSummary):
    """propagate_variance_montecarlo's summary: _TailSummary's plus the M2 of the kept errors (Chan's
    formula again), for the variance."""

    __slots__ = ("m2",)

    def __init__(self, count: int):
        super().__init__(count)
        self.m2 = 0.0

    def _merge(self, kept: np.ndarray, chunk_mean: float, previous: int) -> None:
        centered = kept - chunk_mean
        centered *= centered
        if previous == 0:
            self.m2 = float(centered.sum())
        else:
            delta = chunk_mean - self.mean
            self.m2 += float(centered.sum()) + delta * delta * previous * kept.size / (previous + kept.size)
        super()._merge(kept, chunk_mean, previous)

    def _rescale(self, delta: int) -> None:
        super()._rescale(delta)
        self.m2 = math.ldexp(self.m2, -2 * delta)

    def variance(self) -> float:
        return _unscaled(self.m2 / self.kept, 2 * self.shift)
