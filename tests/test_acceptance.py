"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from dpbudget import (
    evaluate,
    gradient_at_reference,
    grid_search,
    load_workload,
    noise_stream,
    objective_gradient,
    optimize_descent,
    parse_expression,
    propagate_variance_analytic,
    propagate_variance_montecarlo,
    sample_noise_batch,
    score_allocation,
    simulate_pipeline,
    sqrt_rule_allocation,
    uniform_allocation,
    validate_allocation,
)
from dpbudget.cli import run_cli
from dpbudget.errors import ValidationError

from helpers import (
    allocation,
    fd_gradient,
    make_workload,
    paper_workload,
    random_allocation,
    random_instance,
    safe_random_tree,
)

DATA = Path(__file__).parent / "data"
SQRT2 = math.sqrt(2.0)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] acceptance {number:02d} {name}"
    if detail:
        line = f"{line} ({detail})"
    print(line)
    assert ok, line


def test_01_allocation_constraint_classification():
    workload = paper_workload()
    ok_cases = [
        {"s1": 0.25, "s2": 0.25, "s3": 0.25, "s4": 0.25},
        {"s1": 0.1, "s2": 0.2, "s3": 0.3, "s4": 0.4},
        {"s1": 0.25, "s2": 0.25, "s3": 0.25, "s4": 0.25 + 8e-10},
        {"s1": 1e-12, "s2": 0.5, "s3": 0.3, "s4": 0.2 - 1e-12},
        {"s1": 0.125, "s2": 0.125, "s3": 0.25, "s4": 0.5},
    ]
    bad_cases = [
        ({"s1": 0.3, "s2": 0.3, "s3": 0.3, "s4": 0.3}, {"BudgetSumMismatch"}),
        ({"s1": 0.2, "s2": 0.2, "s3": 0.2, "s4": 0.2}, {"BudgetSumMismatch"}),
        ({"s1": 0.25, "s2": 0.25, "s3": 0.25, "s4": 0.25 + 5e-9}, {"BudgetSumMismatch"}),
        ({"s1": 0.5, "s2": 0.5, "s3": 0.5, "s4": 0.5}, {"BudgetSumMismatch"}),
        ({"s1": 0.0, "s2": 0.4, "s3": 0.3, "s4": 0.3}, {"NonPositiveBudget"}),
        ({"s1": -0.25, "s2": 0.5, "s3": 0.5, "s4": 0.25}, {"NonPositiveBudget"}),
        ({"s1": 0.0, "s2": 0.0, "s3": 0.0, "s4": 0.0}, {"NonPositiveBudget", "BudgetSumMismatch"}),
        ({"s1": -0.1, "s2": 0.2, "s3": 0.2, "s4": 0.2}, {"NonPositiveBudget", "BudgetSumMismatch"}),
        ({"s1": 0.25, "s2": 0.25, "s3": 0.5}, {"MissingBudget"}),
        ({"s1": 1.0}, {"MissingBudget"}),
        ({}, {"MissingBudget"}),
        ({"s1": 0.25, "s2": 0.25, "s3": 0.25, "s4": 0.25, "s9": 0.1}, {"UnknownBudgetId"}),
        ({"s1": 0.25, "s2": 0.25, "s3": 0.5, "s9": 0.1}, {"UnknownBudgetId", "MissingBudget"}),
        ({"s1": -1.0, "s2": 1.0, "s3": 0.5, "s4": 0.5, "s9": 1.0}, {"NonPositiveBudget", "UnknownBudgetId"}),
        ({"s1": 0.0, "s2": 0.5, "s3": 0.5}, {"NonPositiveBudget", "MissingBudget"}),
    ]
    assert len(ok_cases) + len(bad_cases) == 20
    started = time.perf_counter()
    classified = 0
    for budgets in ok_cases:
        validate_allocation(workload, budgets)
        classified += 1
    for budgets, expected_codes in bad_cases:
        with pytest.raises(ValidationError) as excinfo:
            validate_allocation(workload, budgets)
        assert excinfo.value.codes() == expected_codes, budgets
        classified += 1
    elapsed = time.perf_counter() - started
    _report(1, "allocation constraints classified", classified == 20 and elapsed < 1.0,
            f"20 documents in {elapsed * 1000:.0f} ms")


def test_02_reference_example_reproduction():
    workload = load_workload((DATA / "paper4.json").read_text())
    eq1, eq2 = workload.equations
    value1 = evaluate(eq1.expression, {"s2": 5, "s3": 7})
    value2 = evaluate(eq2.expression, {"s1": 10, "s2": 20, "s4": 5})
    ok = (
        len(workload.statistics) == 4
        and len(workload.equations) == 2
        and value1 == 12.0
        and value2 == 6.0
    )
    _report(2, "four-statistic example loads and evaluates exactly", ok,
            f"eq1 -> {value1}, eq2 -> {value2}")


def test_03_noise_draw_statistics():
    draws = sample_noise_batch(1.0, noise_stream(20240601, 0), 10**6)
    mean = float(draws.mean())
    variance = float(draws.var())
    ks = scipy_stats.kstest(draws, "laplace", args=(0.0, 1.0))
    ok = abs(mean) <= 0.005 and abs(variance - 2.0) <= 0.04 and ks.pvalue > 0.001
    _report(3, "sampled noise moments and KS fit", ok,
            f"mean {mean:+.4f}, var {variance:.4f}, KS p {ks.pvalue:.3f}")


def test_04_linear_propagation_exactness():
    workload = make_workload(epsilon=0.5, stats=(("s2", 1.0, 5.0), ("s3", 1.0, 7.0)))
    alloc = allocation(workload, 0.25, 0.25)
    ast = parse_expression("s2 + s3")
    analytic = propagate_variance_analytic(ast, workload, alloc)
    sampled = propagate_variance_montecarlo(ast, workload, alloc, 10**6, seed=42)
    ok = analytic.rmse == 8.0 and analytic.variance == 64.0 and abs(sampled.rmse - 8.0) / 8.0 <= 0.01
    _report(4, "linear equation noise is predicted exactly", ok,
            f"analytic rmse {analytic.rmse}, sampled rmse {sampled.rmse:.4f}")


def test_05_nonlinear_quotient_prediction():
    # Laplace scale b = 1 / 5 = 0.2 per statistic, so each noise variance is
    # 2·b². The gradient of (s1 + s2) / s4 at (10, 20, 5) is
    # (1/5, 1/5, -30/25) = (0.2, 0.2, -1.2); the denominator term carries 95%
    # of the variance. The denominator sits κ = 5 / (0.2·√2) ≈ 17.7 noise
    # standard deviations from zero, the conditioning of the paper example's
    # eq2 under a uniform split, where first order is expected to hold. (At
    # κ ≈ 3.5 the true variance is infinite; test_propagation covers that.)
    workload = make_workload(
        epsilon=15.0,
        stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s4", 1.0, 5.0)),
    )
    alloc = allocation(workload, 5.0, 5.0, 5.0)
    ast = parse_expression("(s1 + s2) / s4")
    expected = 2 * 0.2**2 * (0.2**2 + 0.2**2 + 1.2**2)  # = 0.1216
    analytic = propagate_variance_analytic(ast, workload, alloc)
    analytic_ok = abs(analytic.variance - expected) <= 1e-12 * expected
    sampled = propagate_variance_montecarlo(ast, workload, alloc, 10**6, seed=4242)
    trimmed_sq = sampled.mc_detail.trimmed_rmse**2
    mc_gap = (trimmed_sq - expected) / expected
    mc_ok = abs(mc_gap) <= 0.05
    _report(5, "quotient noise first-order prediction vs trimmed sampling", analytic_ok and mc_ok,
            f"first-order variance {analytic.variance:.6f}, trimmed sampled rmse^2 {trimmed_sq:.6f} "
            f"({mc_gap:+.2%})")


def test_06_gradient_correctness():
    rng = random.Random(20240606)
    ids = ["s1", "s2", "s3", "s4"]
    refs = {"s1": 3.0, "s2": -4.5, "s3": 11.0, "s4": 7.25}
    tree_checks = 0
    for _ in range(200):
        tree = safe_random_tree(rng, ids, refs)
        exact = gradient_at_reference(tree, refs)
        approx = fd_gradient(tree, refs)
        scale = max(1.0, max(abs(g) for g in exact.values()))
        for stat_id, g in exact.items():
            assert abs(approx[stat_id] - g) <= 1e-6 * max(abs(g), scale)
        tree_checks += 1

    instance_checks = 0
    for _ in range(100):
        nsta = rng.choice([2, 3, 4])
        workload = random_instance(rng, nsta, neq=rng.choice([0, 1, 2]), normalized=rng.random() < 0.5)
        alloc = random_allocation(rng, workload)
        gradient = objective_gradient(workload, alloc)
        g = np.array([gradient[s] for s in workload.statistic_ids])
        h = 1e-7 * workload.epsilon
        base = np.array([alloc.budgets[s] for s in workload.statistic_ids])
        for i in range(nsta):
            direction = np.full(nsta, -1.0 / nsta)
            direction[i] += 1.0
            up = validate_allocation(workload, dict(zip(workload.statistic_ids, base + h * direction)))
            down = validate_allocation(workload, dict(zip(workload.statistic_ids, base - h * direction)))
            fd = (score_allocation(workload, up).metric - score_allocation(workload, down).metric) / (2 * h)
            expected = float(g @ direction)
            assert abs(fd - expected) <= 1e-5 * max(abs(expected), 1e-2)
        instance_checks += 1
    ok = tree_checks == 200 and instance_checks == 100
    _report(6, "expression and objective gradients match finite differences", ok,
            f"{tree_checks} trees, {instance_checks} instances")


def test_07_optimizer_vs_oracles():
    rng = random.Random(20240707)

    separable = [random_instance(rng, rng.choice([2, 3, 4]), neq=0, normalized=i % 2 == 0) for i in range(4)]
    separable.append(
        make_workload(
            epsilon=1.0,
            stats=(("s1", 1.0, 10.0), ("s2", 2.0, 5.0), ("s3", 0.5, 8.0)),
            equations=(("solo1", "2 * s1", 2.0), ("solo2", "s3 / 4", 0.5)),
        )
    )
    separable.append(
        make_workload(
            epsilon=2.0,
            stats=(("a", 1.0, 10.0), ("b", 3.0, 5.0)),
            equations=(("echo", "b", 3.0),),
            normalize_by_sensitivity=False,
        )
    )
    worst_gap = 0.0
    for workload in separable:
        closed = sqrt_rule_allocation(workload)
        descent = optimize_descent(workload)
        gap = abs(descent.metric - closed.metric) / closed.metric
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-8, (workload, gap)
        assert descent.metric <= score_allocation(workload, uniform_allocation(workload)).metric + 1e-12

    coupled_checked = 0
    for _ in range(10):
        workload = random_instance(rng, rng.choice([2, 3, 4]), neq=rng.choice([1, 2]))
        descent = optimize_descent(workload)
        oracle = grid_search(workload, 200)
        assert descent.metric <= oracle.metric + 1e-3, workload
        assert descent.metric <= score_allocation(workload, uniform_allocation(workload)).metric + 1e-12
        coupled_checked += 1

    ok = coupled_checked == 10
    _report(7, "descent matches closed form and grid oracles", ok,
            f"worst separable gap {worst_gap:.2e}, {coupled_checked} coupled instances")


def test_08_budget_scaling_law():
    stats = (("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s3", 1.0, 7.0), ("s4", 1.0, 100.0))
    equations = (("eq1", "s2 + s3", 2.0), ("eq2", "(s1 + s2) / s4", 1.0))
    base_workload = make_workload(epsilon=1.0, stats=stats, equations=equations)
    budgets = (0.1, 0.3, 0.35, 0.25)
    base = score_allocation(base_workload, allocation(base_workload, *budgets)).metric
    worst = 0.0
    for k in (2.0, 10.0, 100.0):
        scaled_workload = make_workload(epsilon=k, stats=stats, equations=equations)
        scaled = score_allocation(
            scaled_workload, allocation(scaled_workload, *(b * k for b in budgets))
        ).metric
        worst = max(worst, abs(base - k * scaled) / base)
    _report(8, "metric scales exactly with the budget", worst <= 1e-12, f"worst deviation {worst:.2e}")


def test_09_simulation_coherence():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    report = simulate_pipeline(workload, alloc, trials=10**5, seed=909)
    worst_stat = max(
        abs(s.empirical_rmse - s.predicted_rmse) / s.predicted_rmse for s in report.per_statistic.values()
    )
    linear = report.per_equation["eq1"]
    linear_gap = abs(linear.empirical_rmse - linear.predicted_rmse) / linear.predicted_rmse
    ok = worst_stat <= 0.02 and linear_gap <= 0.02
    _report(9, "simulation reproduces predicted errors", ok,
            f"worst statistic gap {worst_stat:.3%}, linear equation gap {linear_gap:.3%}")


def test_10_seeded_reports_are_byte_identical():
    paper = str(DATA / "paper4.json")
    uniform = str(DATA / "uniform.json")
    tuned = str(DATA / "tuned.json")
    seeded_invocations = [
        ("score", "--workload", paper, "--allocation", uniform,
         "--estimator", "montecarlo", "--mc-samples", "20000", "--seed", "31"),
        ("simulate", "--workload", paper, "--allocation", uniform, "--trials", "3000", "--seed", "31"),
        ("compare", "--workload", paper, uniform, tuned,
         "--estimator", "montecarlo", "--mc-samples", "20000", "--seed", "0x1F"),
        ("optimize", "--workload", paper, "--method", "descent"),
    ]
    identical = 0
    for argv in seeded_invocations:
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = run_cli(list(argv))
            assert code == 0, argv
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1], argv
        json.loads(outputs[0])
        identical += 1
    _report(10, "seeded reports are byte-identical across runs", identical == 4,
            f"{identical} subcommands checked")
