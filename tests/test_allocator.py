import dataclasses
import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from dpbudget import (
    grid_search,
    objective_gradient,
    optimize_descent,
    gradient_at_reference,
    propagate_variance_analytic,
    score_allocation,
    simulate_pipeline,
    sqrt_rule_allocation,
    uniform_allocation,
    validate_allocation,
)
from dpbudget import allocator
from dpbudget.propagation import FirstOrderModel
from dpbudget.errors import NonFiniteError, NotSeparableError, ResolutionTooCoarseError, TooManyStatisticsError

from helpers import allocation, make_workload, paper_workload, random_allocation, random_instance

SQRT2 = math.sqrt(2.0)


def test_uniform_allocation_examples():
    four = paper_workload()
    assert uniform_allocation(four).budgets == {"s1": 0.25, "s2": 0.25, "s3": 0.25, "s4": 0.25}
    two = make_workload(epsilon=2.0)
    assert uniform_allocation(two).budgets == {"s1": 1.0, "s2": 1.0}


def test_uniform_allocation_always_validates():
    for count in (1, 3, 7):
        workload = make_workload(
            epsilon=0.7, stats=tuple((f"s{i}", 1.0, 0.0) for i in range(count))
        )
        validate_allocation(workload, uniform_allocation(workload))


def test_sqrt_rule_two_statistics_unnormalized():
    workload = make_workload(
        epsilon=1.0,
        stats=(("s1", 1.0, 10.0), ("s2", 3.0, 10.0)),
        normalize_by_sensitivity=False,
    )
    result = sqrt_rule_allocation(workload)
    expected_s1 = 1.0 / (1.0 + math.sqrt(3.0))
    assert result.allocation.budgets["s1"] == pytest.approx(expected_s1, abs=1e-12)
    assert result.allocation.budgets["s2"] == pytest.approx(1.0 - expected_s1, abs=1e-12)
    oracle = grid_search(workload, 1000)
    for stat_id in workload.statistic_ids:
        assert abs(oracle.allocation.budgets[stat_id] - result.allocation.budgets[stat_id]) <= 1e-3


def test_sqrt_rule_normalized_no_equations_is_uniform():
    workload = make_workload(
        epsilon=1.0,
        stats=(("s1", 1.0, 0.0), ("s2", 9.0, 0.0), ("s3", 0.1, 0.0)),
    )
    result = sqrt_rule_allocation(workload)
    for budget in result.allocation.budgets.values():
        assert budget == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_sqrt_rule_accepts_single_statistic_equations():
    workload = make_workload(
        epsilon=1.0,
        stats=(("s1", 1.0, 10.0), ("s2", 1.0, 5.0)),
        equations=(("double", "2 * s1", 2.0),),
    )
    result = sqrt_rule_allocation(workload)
    assert result.converged
    assert result.allocation.budgets["s1"] > result.allocation.budgets["s2"]


def test_sqrt_rule_rejects_coupled_equations():
    workload = make_workload(
        epsilon=1.0,
        stats=(("s2", 1.0, 5.0), ("s3", 1.0, 7.0)),
        equations=(("e", "s2 + s3", 1.0),),
    )
    with pytest.raises(NotSeparableError):
        sqrt_rule_allocation(workload)


def test_grid_symmetric_two_statistics():
    workload = make_workload(epsilon=1.0, stats=(("s1", 1.0, 0.0), ("s2", 1.0, 0.0)))
    result = grid_search(workload, 100)
    assert result.allocation.budgets["s1"] == pytest.approx(0.5, abs=1e-15)
    assert result.allocation.budgets["s2"] == pytest.approx(0.5, abs=1e-15)


def test_grid_guards():
    six = make_workload(epsilon=1.0, stats=tuple((f"s{i}", 1.0, 0.0) for i in range(6)))
    with pytest.raises(TooManyStatisticsError):
        grid_search(six, 100)
    two = make_workload()
    with pytest.raises(ResolutionTooCoarseError):
        grid_search(two, 9)


@pytest.mark.parametrize(
    "workload, error, message",
    [
        # Shares are tenths, and three of at least 0.33 would need 0.4 each.
        (make_workload(stats=tuple((f"s{i}", 1.0, 1.0) for i in range(3)), min_budget_fraction=0.33),
         ResolutionTooCoarseError, "no lattice cell satisfies the positivity floor"),
        # Unnormalized, a coefficient sqrt(2) * 1e308 over the smaller share, at most 0.5, overflows in every cell.
        (make_workload(stats=(("s1", 1e308, 1.0), ("s2", 1e308, 1.0)), normalize_by_sensitivity=False),
         NonFiniteError, "the metric overflows at every lattice cell"),
    ],
    ids=["no feasible cell", "overflow in every cell"],
)
def test_grid_without_a_finite_feasible_cell_is_refused(workload, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        grid_search(workload, 10)


def test_an_amplitude_that_overflows_at_unit_one_names_its_equation_and_statistic():
    # Epsilon 1 leaves the budget unit at 1, where s2's amplitude, sqrt(2) * 1e300 * 1e10, is inf.
    workload = make_workload(stats=(("s1", 1.0, 1e300), ("s2", 1e10, 1.0)), equations=(("e", "s1 * s2", 1.0),))
    alloc = allocation(workload, 0.5, 0.5)
    message = r"^equation 'e': its first-order amplitude in statistic 's2' is inf at the reference values$"
    for call in (
        lambda: score_allocation(workload, alloc),
        lambda: optimize_descent(workload),
        lambda: simulate_pipeline(workload, alloc, 1000, seed=1),
    ):
        with pytest.raises(NonFiniteError, match=message):
            call()


def test_grid_lexicographic_tie_break():
    workload = make_workload(epsilon=1.0, stats=(("s1", 1.0, 0.0), ("s2", 1.0, 0.0)))
    result = grid_search(workload, 101)
    assert result.allocation.budgets["s1"] < result.allocation.budgets["s2"]


def test_objective_gradient_without_equations():
    workload = make_workload(
        epsilon=1.0,
        stats=(("s1", 2.0, 0.0), ("s2", 0.5, 0.0)),
        normalize_by_sensitivity=False,
    )
    alloc = allocation(workload, 0.4, 0.6)
    gradient = objective_gradient(workload, alloc)
    assert gradient["s1"] == pytest.approx(-SQRT2 * 2.0 / 0.4**2, rel=1e-12)
    assert gradient["s2"] == pytest.approx(-SQRT2 * 0.5 / 0.6**2, rel=1e-12)


def test_objective_gradient_symmetric_at_uniform():
    workload = make_workload(epsilon=1.0, stats=(("s1", 1.0, 0.0), ("s2", 1.0, 0.0)))
    gradient = objective_gradient(workload, uniform_allocation(workload))
    assert gradient["s1"] == gradient["s2"]


def test_objective_gradient_matches_finite_differences():
    rng = random.Random(20240202)
    checked = 0
    for _ in range(100):
        nsta = rng.choice([2, 3, 4])
        workload = random_instance(rng, nsta, neq=rng.choice([0, 1, 2]), normalized=rng.random() < 0.5)
        alloc = random_allocation(rng, workload)
        gradient = objective_gradient(workload, alloc)
        # More budget anywhere can only reduce noise.
        assert all(g <= 0.0 for g in gradient.values())
        g = np.array([gradient[s] for s in workload.statistic_ids])
        h = 1e-7 * workload.epsilon
        for i, stat_id in enumerate(workload.statistic_ids):
            direction = np.full(nsta, -1.0 / nsta)
            direction[i] += 1.0
            base = np.array([alloc.budgets[s] for s in workload.statistic_ids])
            up = validate_allocation(
                workload, dict(zip(workload.statistic_ids, base + h * direction))
            )
            down = validate_allocation(
                workload, dict(zip(workload.statistic_ids, base - h * direction))
            )
            fd = (
                score_allocation(workload, up).metric - score_allocation(workload, down).metric
            ) / (2.0 * h)
            expected = float(g @ direction)
            assert fd == pytest.approx(expected, rel=1e-5, abs=1e-2 * 1e-5)
            checked += 1
    assert checked >= 100


def test_descent_matches_sqrt_rule_on_separable_instances():
    rng = random.Random(31337)
    for index in range(6):
        nsta = rng.choice([2, 3, 4])
        workload = random_instance(rng, nsta, neq=0, normalized=index % 2 == 0)
        closed = sqrt_rule_allocation(workload)
        descent = optimize_descent(workload)
        assert descent.converged
        assert descent.metric == pytest.approx(closed.metric, rel=1e-8)


def test_descent_beats_grid_oracle_on_paper_workload():
    workload = paper_workload()
    descent = optimize_descent(workload)
    oracle = grid_search(workload, 200)
    assert descent.metric <= oracle.metric + 1e-3


def test_descent_on_symmetric_workload_returns_uniform():
    workload = make_workload(
        epsilon=1.0, stats=(("s1", 1.0, 0.0), ("s2", 1.0, 0.0), ("s3", 1.0, 0.0))
    )
    result = optimize_descent(workload)
    for budget in result.allocation.budgets.values():
        assert budget == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_descent_never_loses_to_uniform():
    rng = random.Random(4242)
    for _ in range(5):
        workload = random_instance(rng, rng.choice([2, 3, 4]), neq=rng.choice([1, 2]))
        baseline = score_allocation(workload, uniform_allocation(workload)).metric
        result = optimize_descent(workload)
        assert result.metric <= baseline + 1e-12


def test_all_optimizers_emit_valid_floored_allocations():
    skewed = make_workload(
        epsilon=1.0, stats=(("s1", 1.0, 0.0), ("s2", 40.0, 0.0)), normalize_by_sensitivity=False
    )
    paper = paper_workload()
    cases = [
        (skewed, sqrt_rule_allocation(skewed)),
        (paper, grid_search(paper, 50)),
        (paper, optimize_descent(paper)),
    ]
    for workload, result in cases:
        validate_allocation(workload, result.allocation)
        assert min(result.allocation.budgets.values()) >= workload.min_budget


def test_descent_respects_budget_floor():
    workload = make_workload(
        epsilon=1.0,
        stats=(("tiny", 1.0, 0.0), ("huge", 1.0, 0.0)),
        equations=(("boost", "1000 * huge", 1.0),),
        min_budget_fraction=0.01,
    )
    result = optimize_descent(workload)
    assert result.allocation.budgets["tiny"] >= 0.01
    assert abs(sum(result.allocation.budgets.values()) - 1.0) <= 1e-9


def test_descent_reports_nonconvergence_at_tiny_iteration_cap():
    workload = paper_workload()
    result = optimize_descent(workload, max_iters=1)
    assert not result.converged
    assert result.iterations == 1
    validate_allocation(workload, result.allocation)


def test_descent_certifies_a_finite_optimum_where_the_cubic_overflows():
    # In each, x exp(shift / 2) in _surrogate_minimum overflows as the shift grows; descent returned NaN
    # budgets there, which its own result refused with a ValidationError.
    def product(epsilon, s1):
        return make_workload(epsilon=epsilon, stats=(s1, ("s2", 1.0, 1e300)), equations=(("eq", "s1 * s2", 1.0),))

    # s1's amplitude dwarfs s2's coefficient, so s2 sits on the floor; then an interior optimum.
    floored = [product(1.0, ("s1", 1.0, 1.0)), product(2e100, ("s1", 1e10, 1e-90))]
    interior = make_workload(
        stats=(("s1", 1.0, 1.0), ("s2", 1.0, 1.0)), equations=(("eq", "1e300 * s1 + 3e299 * s2", 1.0),)
    )
    for workload in [*floored, interior]:
        result = optimize_descent(workload)
        assert result.converged and math.isfinite(result.metric)
        assert 0.0 <= result.gap <= 1e-10 * result.metric
        assert result.metric <= grid_search(workload, 100).metric
        if workload is not interior:
            assert result.allocation.budgets["s2"] == workload.min_budget
    assert result.allocation.budgets["s1"] == pytest.approx(0.6905, abs=1e-4)


def test_budgets_that_are_not_finite_are_a_computation_error(monkeypatch):
    monkeypatch.setattr(allocator, "_surrogate_minimum", lambda c, d, floor, shift: (c * math.nan, shift))
    with pytest.raises(NonFiniteError, match="budgets are not finite"):
        optimize_descent(paper_workload())


def test_permutation_equivariance_on_generic_instance():
    stats = (("s1", 1.0, 10.0), ("s2", 2.0, 20.0), ("s3", 0.7, 30.0))
    equations = (("e1", "s1 + s3", 1.5),)
    forward = make_workload(epsilon=1.0, stats=stats, equations=equations)
    backward = make_workload(epsilon=1.0, stats=stats[::-1], equations=equations)
    for solver in (lambda w: optimize_descent(w), lambda w: grid_search(w, 120)):
        a = solver(forward).allocation.budgets
        b = solver(backward).allocation.budgets
        for stat_id in ("s1", "s2", "s3"):
            assert a[stat_id] == pytest.approx(b[stat_id], rel=1e-12, abs=1e-12)


def closed_form(workload, budgets):
    """(us_terms, ue_terms, equation rmse, metric), assembled with math.fsum
    from gradient_at_reference, the sensitivities and the budgets only."""
    normalize = workload.options.normalize_by_sensitivity
    refs = workload.reference_values()
    sens = {spec.id: spec.sensitivity for spec in workload.statistics}
    us = {i: SQRT2 * (1.0 if normalize else sens[i]) / budgets[i] for i in workload.statistic_ids}
    rmse = {}
    for equation in workload.equations:
        gradient = gradient_at_reference(equation.expression, refs)
        rmse[equation.id] = math.sqrt(
            math.fsum(2.0 * g * g * sens[i] * sens[i] / (budgets[i] * budgets[i]) for i, g in gradient.items())
        )
    ue = {eq.id: rmse[eq.id] / (eq.sensitivity if normalize else 1.0) for eq in workload.equations}
    return us, ue, rmse, math.fsum(us.values()) + math.fsum(ue.values())


def test_model_metric_agrees_with_canonical_scorer():
    rng = random.Random(909)
    workloads = []
    for normalized in (True, False):
        workloads += [random_instance(rng, 3, neq=2, normalized=normalized) for _ in range(3)]
        workloads.append(
            make_workload(
                epsilon=1.0,
                stats=(("s1", 1.5, 4.0), ("s2", 0.5, -3.0), ("s3", 2.0, 9.0)),
                equations=(
                    ("constant", "3.5", 1.0),
                    ("zero", "s1 - s1", 2.0),
                    ("square", "s1 * s1", 0.5),
                    ("mixed", "s3 / s2 + s1", 1.5),
                ),
                normalize_by_sensitivity=normalized,
            )
        )
        workloads.append(make_workload(epsilon=2.0, normalize_by_sensitivity=normalized))
    for workload in workloads:
        alloc = random_allocation(rng, workload)
        us, ue, rmse, metric = closed_form(workload, alloc.budgets)
        report = score_allocation(workload, alloc)
        assert report.metric == pytest.approx(metric, rel=1e-12)
        assert report.us_terms == pytest.approx(us, rel=1e-12)
        assert report.ue_terms == pytest.approx(ue, rel=1e-12)
        for equation in workload.equations:
            result = propagate_variance_analytic(equation.expression, workload, alloc)
            assert result.rmse == pytest.approx(rmse[equation.id], rel=1e-12)
        simulated = simulate_pipeline(workload, alloc, trials=10, seed=5)
        for eq_id, summary in simulated.per_equation.items():
            assert summary.predicted_rmse == pytest.approx(rmse[eq_id], rel=1e-12)
        # grid_search's batch metric, on the allocation and on its reversal, in the model's unit (1 here).
        model = FirstOrderModel(workload, workload.options.normalize_by_sensitivity)
        b = model.units(alloc)
        assert model.unit == 1.0
        reversed_budgets = dict(zip(workload.statistic_ids, b[::-1].tolist()))
        batch = model.metric_batch(np.vstack([b, b[::-1]]))
        assert batch[0] == pytest.approx(metric, rel=1e-12)
        assert batch[1] == pytest.approx(closed_form(workload, reversed_budgets)[3], rel=1e-12)


def certificate_instances():
    """Coupled and separable instances of at most 5 statistics, some with a binding floor."""
    rng = random.Random(1010)
    workloads = [paper_workload()]
    for index in range(12):
        nsta = rng.choice([2, 3, 4, 5])
        workloads.append(random_instance(rng, nsta, neq=rng.choice([1, 2, 3]), normalized=index % 2 == 0))
    workloads.append(
        make_workload(
            epsilon=1.0,
            stats=(("tiny", 1.0, 0.0), ("huge", 1.0, 3.0), ("mid", 2.0, 5.0)),
            equations=(("boost", "1000 * huge + mid", 1.0),),
            min_budget_fraction=0.2,
        )
    )
    return workloads


def test_every_optimizer_reports_a_nonnegative_gap():
    separable = make_workload(
        epsilon=1.0, stats=(("s1", 1.0, 0.0), ("s2", 40.0, 0.0)), normalize_by_sensitivity=False
    )
    results = [sqrt_rule_allocation(separable), grid_search(separable, 50)]
    for workload in certificate_instances():
        results += [grid_search(workload, 30), optimize_descent(workload), optimize_descent(workload, max_iters=1)]
    for result in results:
        assert math.isfinite(result.gap) and result.gap >= 0.0, result


def test_gap_bounds_the_distance_to_the_grid_optimum():
    workloads = certificate_instances()
    checked = 0
    for workload in workloads:
        # 200 parts for up to 4 statistics; 5 would take 64 million cells.
        oracle = grid_search(workload, 200 if len(workload.statistics) <= 4 else 60)
        candidates = [optimize_descent(workload, max_iters=k) for k in (1, 2, 3)]
        candidates += [optimize_descent(workload), grid_search(workload, 20), oracle]
        for result in candidates:
            # The grid optimum is at least the true minimum, which the gap bounds.
            assert result.gap >= result.metric - oracle.metric - 1e-12 * result.metric, (workload, result)
            checked += 1
    assert checked == 6 * len(workloads)


@pytest.mark.parametrize("tol", [None, 1e-6])
def test_converged_descent_carries_its_certificate(tol):
    for workload in certificate_instances():
        result = optimize_descent(workload) if tol is None else optimize_descent(workload, tol=tol)
        assert result.converged
        assert result.gap <= (tol or 1e-10) * result.metric, (workload, result)  # 1e-10 is the default
        baseline = score_allocation(workload, uniform_allocation(workload)).metric
        assert result.metric <= baseline


def test_descent_is_the_square_root_rule_on_separable_instances():
    rng = random.Random(77)
    workloads = [random_instance(rng, rng.choice([2, 3, 4, 5]), neq=0, normalized=i % 2 == 0) for i in range(6)]
    workloads.append(
        make_workload(
            epsilon=2.0,
            stats=(("a", 1.0, 10.0), ("b", 30.0, 5.0), ("c", 0.01, 1.0)),
            equations=(("echo", "b", 3.0), ("solo", "2 * c", 0.5)),
            normalize_by_sensitivity=False,
            min_budget_fraction=0.1,
        )
    )
    for workload in workloads:
        closed = sqrt_rule_allocation(workload)
        descent = optimize_descent(workload)
        assert closed.gap <= 1e-12 * closed.metric
        assert descent.converged and descent.iterations <= 2
        for stat_id in workload.statistic_ids:
            assert descent.allocation.budgets[stat_id] == pytest.approx(
                closed.allocation.budgets[stat_id], rel=1e-12
            )


def test_equation_whose_weights_underflow_leaves_the_allocation_alone():
    stats = (("s1", 1.0, 10.0), ("s2", 3.0, 5.0), ("s3", 0.5, 2.0))
    plain = make_workload(stats=stats, normalize_by_sensitivity=False)
    # Each weight is 2 * (1e-200)^2 = 2e-400, which is 0.0.
    underflowed = make_workload(
        stats=stats, equations=(("faint", "1e-200 * s1 + 1e-200 * s2", 1.0),), normalize_by_sensitivity=False
    )
    expected = optimize_descent(plain)
    result = optimize_descent(underflowed)
    assert result.converged
    assert result.allocation.budgets == expected.allocation.budgets
    assert result.metric == expected.metric


TINY = 2.2250738585072014e-308  # the smallest normal float


def _scale_cases():
    coupled = make_workload(
        stats=(("s1", 1.0, 1.0), ("s2", 1.0, 1.0)), equations=(("eq", "s1 + s2 * 4", 1.0),)
    )
    separable = make_workload(
        stats=(("a", 1.0, 0.0), ("b", 40.0, 0.0), ("c", 3.0, 1.0)),
        equations=(("solo", "2 * c", 1.0),),
        normalize_by_sensitivity=False,
    )
    grid = functools.partial(grid_search, resolution=40)
    return [
        (optimize_descent, coupled), (optimize_descent, paper_workload()), (grid, coupled),
        (grid, paper_workload()), (sqrt_rule_allocation, separable),
    ]


@pytest.mark.parametrize("k", [1e-300, 1e300])
def test_optimizers_at_extreme_epsilon_scale_the_epsilon_one_result(k):
    # Squaring 1 / b once made the equation terms vanish at epsilon 1e300, and descent
    # stopped at the uniform split.
    for optimize, workload in _scale_cases():
        base = optimize(workload)
        scaled = optimize(dataclasses.replace(workload, epsilon=k))
        assert (scaled.method, scaled.converged, scaled.iterations) == (base.method, True, base.iterations)
        assert scaled.metric == pytest.approx(base.metric / k, rel=1e-12)
        for stat_id, budget in base.allocation.budgets.items():
            assert scaled.allocation.budgets[stat_id] == pytest.approx(k * budget, rel=1e-12)


def test_huge_sensitivity_scores_its_normalized_value():
    # Its squared first-order weight, 2 * (1e200)^2, overflowed; the amplitude does not.
    workload = make_workload(stats=(("s1", 1e200, 1.0),), equations=(("eq", "s1", 1e200),))
    results = [
        score_allocation(workload, allocation(workload, 1.0)), optimize_descent(workload), grid_search(workload, 10)
    ]
    for result in results:
        assert result.metric == pytest.approx(2.0 * SQRT2, rel=1e-15)


def test_grid_skips_cells_whose_metric_overflows():
    # Amplitudes near the largest float: the cells that starve s1 overflow, the others do not.
    workload = make_workload(
        stats=(("s1", 1e307, 1.0), ("s2", 1.0, 1.0)),
        equations=(("eq", "s1 + s2", 1.0),),
        normalize_by_sensitivity=False,
    )
    result = grid_search(workload, 100)
    assert math.isfinite(result.metric)
    assert result.metric == score_allocation(workload, result.allocation).metric


@pytest.mark.parametrize("k", [1e-150, 1e150])
def test_objective_gradient_scales_as_one_over_epsilon_squared(k):
    workload = paper_workload()
    base = objective_gradient(workload, allocation(workload, 0.1, 0.3, 0.35, 0.25))
    scaled_workload = dataclasses.replace(workload, epsilon=k)
    scaled = objective_gradient(scaled_workload, allocation(scaled_workload, 0.1 * k, 0.3 * k, 0.35 * k, 0.25 * k))
    for stat_id, g in base.items():
        assert scaled[stat_id] == pytest.approx(g / k / k, rel=1e-12)


def test_overflowing_analytic_paths_raise_instead_of_warning():
    workload = make_workload(
        epsilon=TINY, stats=(("s1", 1.0, 1.0), ("s2", 1.0, 1.0)), equations=(("eq", "s1 + s2", 1.0),)
    )
    alloc = allocation(workload, TINY / 2, TINY / 2)
    with pytest.raises(NonFiniteError, match="variance overflows"):
        propagate_variance_analytic(workload.equations[0].expression, workload, alloc)
    with pytest.raises(NonFiniteError, match="gradient overflows"):
        objective_gradient(workload, alloc)
    with pytest.raises(NonFiniteError, match="the metric overflows"):
        grid_search(workload, 10)
    one = make_workload(epsilon=4e-193, stats=(("s1", 1.0, 1.0),), equations=(("eq", "s1", 1.0),))
    assert grid_search(one, 10).metric == pytest.approx(2.0 * SQRT2 / 4e-193, rel=1e-15)


def test_grid_refuses_a_lattice_over_its_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(TooManyStatisticsError, match="needs 4491005499 lattice cells, over the cap of 4194304"):
            grid_search(paper_workload(), 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grid_lattice_chunks_run_in_lexicographic_order(monkeypatch):
    monkeypatch.setattr(allocator, "_GRID_CHUNK", 7)
    chunks = list(allocator._compositions(12, 4))
    assert {chunk.shape[0] for chunk in chunks[:-1]} == {7}
    every = [tuple(row) for row in np.concatenate(chunks).tolist()]
    brute = [cell for cell in itertools.product(range(1, 10), repeat=4) if sum(cell) == 12]
    assert every == brute  # product yields them in lexicographic order
    assert [chunk.tolist() for chunk in allocator._compositions(12, 1)] == [[[12]]]


def test_grid_memory_is_one_chunk_not_the_lattice(monkeypatch):
    # Resolution 60 on 5 statistics has 455,126 cells: the whole lattice is 18.2 MB of int64.
    # With 4,096-row chunks the search must stay far below it, and find the same cell.
    workload = make_workload(
        stats=tuple((f"s{i}", 1.0 + i / 4, 10.0 * i) for i in range(1, 6)),
        equations=(("e1", "s1 + s2 * s3", 2.0), ("e2", "(s4 - s5) / s1", 1.0)),
    )
    whole = grid_search(workload, 60)
    monkeypatch.setattr(allocator, "_GRID_CHUNK", 1 << 12)
    tracemalloc.start()
    try:
        chunked = grid_search(workload, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunked == whole
    assert chunked.iterations == math.comb(59, 4) == 455_126
    assert peak < 4 * 10**6
