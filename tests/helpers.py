"""Shared builders for the test suite: workloads, allocations, random trees."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import asdict
from pathlib import Path

import numpy as np

from dpbudget import (
    BudgetAllocation,
    EquationSpec,
    MetricOptions,
    StatisticSpec,
    Workload,
    parse_expression,
    validate_allocation,
)
from dpbudget.cli import run_cli
from dpbudget.errors import DivisionNearZeroError
from dpbudget.expressions import Binary, BinaryOp, Constant, Expr, Negate, StatRef, evaluate, free_statistics
from dpbudget.propagation import gradient_at_reference


# Expressions deep enough to overflow a recursive walker: a left-deep sum, a
# right-deep product in nested parentheses, and a chain of unary minuses.
DEEP_EXPRESSIONS = {
    "sum": " + ".join(["s1"] * 5000),
    "parens": "s1 * (" * 2000 + "s1 * s1" + ")" * 2000,
    "minus": "-" * 3001 + "s2",
}


def make_workload(
    epsilon: float = 1.0,
    stats: tuple[tuple[str, float, float], ...] = (("s1", 1.0, 10.0), ("s2", 1.0, 20.0)),
    equations: tuple[tuple[str, str, float], ...] = (),
    **option_overrides,
) -> Workload:
    """Workload from (id, sensitivity, reference) and (id, expression, sensitivity) rows."""
    return Workload(
        epsilon=epsilon,
        statistics=tuple(StatisticSpec(id=s, sensitivity=sen, reference_value=ref) for s, sen, ref in stats),
        equations=tuple(
            EquationSpec(id=e, expression=parse_expression(text), sensitivity=sen) for e, text, sen in equations
        ),
        options=MetricOptions(**option_overrides),
    )


def paper_workload(**option_overrides) -> Workload:
    """Four statistics with a linear and a quotient equation."""
    return make_workload(
        epsilon=1.0,
        stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s3", 1.0, 7.0), ("s4", 1.0, 100.0)),
        equations=(("eq1", "s2 + s3", 2.0), ("eq2", "(s1 + s2) / s4", 1.0)),
        **option_overrides,
    )


def allocation(workload: Workload, *budgets: float) -> BudgetAllocation:
    return validate_allocation(workload, dict(zip(workload.statistic_ids, budgets)))


def simulate_dump(directory: Path, workload: Workload, alloc: BudgetAllocation, trials: int, seed: int):
    """Runs ``dpbudget simulate --dump-trials`` on the workload and allocation, written to ``directory``.

    Returns the JSON report and the dump's columns by header, as float arrays
    (NaN for an empty cell, which marks an excluded trial).
    """
    workload_path, allocation_path, dump = (directory / name for name in ("w.json", "a.json", "trials.csv"))
    workload_path.write_text(json.dumps(workload.to_dict()), encoding="utf-8")
    allocation_path.write_text(json.dumps(asdict(alloc)), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_cli([
            "simulate", "--workload", str(workload_path), "--allocation", str(allocation_path),
            "--trials", str(trials), "--seed", str(seed), "--dump-trials", str(dump),
        ])
    assert code == 0
    with open(dump, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    columns = {key: np.array([float(row[i]) if row[i] else math.nan for row in rows]) for i, key in enumerate(header)}
    return json.loads(stdout.getvalue()), columns


def random_tree(rng: random.Random, ids: list[str], depth: int) -> Expr:
    """Unconstrained random expression tree of at most the given depth."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.35:
            return Constant(round(rng.uniform(0.1, 5.0), 3))
        return StatRef(rng.choice(ids))
    roll = rng.random()
    if roll < 0.15:
        return Negate(random_tree(rng, ids, depth - 1))
    op = rng.choice([BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL, BinaryOp.DIV])
    return Binary(op, random_tree(rng, ids, depth - 1), random_tree(rng, ids, depth - 1))


def min_abs_denominator(node: Expr, refs: dict[str, float]) -> float:
    """Smallest |denominator| over the tree's divisions, evaluated at refs."""
    if isinstance(node, (Constant, StatRef)):
        return math.inf
    if isinstance(node, Negate):
        return min_abs_denominator(node.operand, refs)
    best = min(min_abs_denominator(node.left, refs), min_abs_denominator(node.right, refs))
    if node.op is BinaryOp.DIV:
        best = min(best, abs(evaluate(node.right, refs)))
    return best


def safe_random_tree(rng: random.Random, ids: list[str], refs: dict[str, float], depth: int = 4) -> Expr:
    """Random tree whose divisions and gradients are well conditioned at refs.

    Rejection-samples until all denominators stay >= 0.5 in magnitude and
    values and partials stay within sane ranges, so central finite
    differences are trustworthy.
    """
    while True:
        tree = random_tree(rng, ids, depth)
        if not free_statistics(tree):
            continue
        try:
            if min_abs_denominator(tree, refs) < 0.5:
                continue
            value = evaluate(tree, refs)
            gradient = gradient_at_reference(tree, refs)
        except DivisionNearZeroError:
            continue
        if abs(value) > 1e3:
            continue
        if any(abs(g) > 1e4 for g in gradient.values()):
            continue
        return tree


def fd_gradient(ast: Expr, refs: dict[str, float]) -> dict[str, float]:
    """Central finite differences with h = 1e-6 * max(1, |ref|)."""
    result = {}
    for stat_id in free_statistics(ast):
        h = 1e-6 * max(1.0, abs(refs[stat_id]))
        up = dict(refs)
        up[stat_id] += h
        down = dict(refs)
        down[stat_id] -= h
        result[stat_id] = (evaluate(ast, up) - evaluate(ast, down)) / (2.0 * h)
    return result


_EQUATION_PATTERNS = (
    "{a} + {b}",
    "{a} - {b}",
    "{a} * {b}",
    "({a} + {b}) / {c}",
    "{a} + {b} + {c}",
)


def random_instance(rng: random.Random, nsta: int, neq: int, normalized: bool = True) -> Workload:
    """Random coupled workload with well-conditioned reference values."""
    stats = tuple(
        (f"s{i + 1}", round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(5.0, 50.0), 3)) for i in range(nsta)
    )
    ids = [s[0] for s in stats]
    equations = []
    for j in range(neq):
        pattern = rng.choice(_EQUATION_PATTERNS if nsta >= 3 else _EQUATION_PATTERNS[:3])
        picks = rng.sample(ids, 3 if "{c}" in pattern else 2)
        text = pattern.format(a=picks[0], b=picks[1], c=picks[-1])
        equations.append((f"eq{j + 1}", text, round(rng.uniform(0.5, 3.0), 3)))
    return make_workload(
        epsilon=1.0, stats=stats, equations=tuple(equations), normalize_by_sensitivity=normalized
    )


def random_allocation(rng: random.Random, workload: Workload) -> BudgetAllocation:
    """Valid random allocation with no tiny budgets."""
    weights = [rng.uniform(0.2, 1.0) for _ in workload.statistic_ids]
    total = sum(weights)
    return validate_allocation(
        workload,
        {stat_id: workload.epsilon * w / total for stat_id, w in zip(workload.statistic_ids, weights)},
    )
