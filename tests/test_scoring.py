import math

import pytest

from dpbudget import (
    MetricOptions,
    compare_allocations,
    grid_search,
    propagate_variance_analytic,
    propagate_variance_montecarlo,
    score_allocation,
    simulate_pipeline,
)
from dpbudget.errors import HeavyTailWarning
from dpbudget import propagation
from dpbudget.propagation import CHUNK

from helpers import allocation, make_workload, paper_workload

SQRT2 = math.sqrt(2.0)

NORMALIZED = MetricOptions(normalize_by_sensitivity=True)
RAW = MetricOptions(normalize_by_sensitivity=False)


def linear_workload():
    return make_workload(
        epsilon=0.5,
        stats=(("s2", 1.0, 5.0), ("s3", 1.0, 7.0)),
        equations=(("e", "s2 + s3", 2.0),),
    )


def test_equation_score_normalized_and_raw():
    workload = linear_workload()
    alloc = allocation(workload, 0.25, 0.25)
    assert score_allocation(workload, alloc, NORMALIZED).ue_terms["e"] == pytest.approx(4.0, rel=1e-12)
    assert score_allocation(workload, alloc, RAW).ue_terms["e"] == pytest.approx(8.0, rel=1e-12)


def test_single_statistic_equation_score_equals_its_statistic_term():
    for options, expected in ((NORMALIZED, SQRT2), (RAW, SQRT2 * 2.5)):
        workload = make_workload(
            epsilon=1.0,
            stats=(("s1", 2.5, 4.0),),
            equations=(("mirror", "s1", 2.5),),
        )
        alloc = allocation(workload, 1.0)
        report = score_allocation(workload, alloc, options)
        assert report.us_terms["s1"] == pytest.approx(expected, rel=1e-15)
        assert report.ue_terms["mirror"] == pytest.approx(report.us_terms["s1"], rel=1e-14)


def test_metric_two_statistics_no_equations():
    workload = make_workload(epsilon=1.0, stats=(("s1", 1.0, 0.0), ("s2", 1.0, 0.0)))
    report = score_allocation(workload, allocation(workload, 0.5, 0.5), NORMALIZED)
    assert report.metric == pytest.approx(4 * SQRT2, rel=1e-14)
    assert report.ue_terms == {}
    assert report.metric == pytest.approx(sum(report.us_terms.values()), rel=1e-15)


def test_metric_equals_sum_of_terms():
    workload = paper_workload()
    report = score_allocation(workload, allocation(workload, 0.25, 0.25, 0.25, 0.25))
    total = math.fsum(report.us_terms.values()) + math.fsum(report.ue_terms.values())
    assert report.metric == pytest.approx(total, rel=1e-12)
    assert report.metric > 0.0
    assert all(v >= 0.0 for v in report.us_terms.values())
    assert all(v >= 0.0 for v in report.ue_terms.values())
    assert set(report.us_terms) == {"s1", "s2", "s3", "s4"}
    assert set(report.ue_terms) == {"eq1", "eq2"}


def test_removing_equation_subtracts_its_term():
    workload = paper_workload()
    alloc_budgets = {"s1": 0.25, "s2": 0.25, "s3": 0.25, "s4": 0.25}
    full = score_allocation(workload, allocation(workload, 0.25, 0.25, 0.25, 0.25))
    reduced_workload = make_workload(
        epsilon=1.0,
        stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s3", 1.0, 7.0), ("s4", 1.0, 100.0)),
        equations=(("eq1", "s2 + s3", 2.0),),
    )
    reduced = score_allocation(reduced_workload, allocation(reduced_workload, 0.25, 0.25, 0.25, 0.25))
    assert full.metric - reduced.metric == pytest.approx(full.ue_terms["eq2"], rel=1e-12)


def test_metric_montecarlo_matches_analytic_on_paper_workload():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    analytic = score_allocation(workload, alloc)
    mc_options = MetricOptions(estimator="montecarlo", mc_samples=10**6)
    sampled = score_allocation(workload, alloc, mc_options, seed=2024)
    for eq_id in analytic.ue_terms:
        assert sampled.ue_terms[eq_id] == pytest.approx(analytic.ue_terms[eq_id], rel=0.02)
    assert sampled.metric == pytest.approx(analytic.metric, rel=0.02)


def test_metric_requires_seed_for_montecarlo():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError, match="seed"):
        score_allocation(workload, alloc, MetricOptions(estimator="montecarlo"))


def test_budget_scaling_law():
    workload = paper_workload()
    alloc = allocation(workload, 0.1, 0.3, 0.35, 0.25)
    base = score_allocation(workload, alloc).metric
    for k in (2.0, 10.0, 100.0, 1e-300, 1e300):
        scaled_workload = make_workload(
            epsilon=k,
            stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s3", 1.0, 7.0), ("s4", 1.0, 100.0)),
            equations=(("eq1", "s2 + s3", 2.0), ("eq2", "(s1 + s2) / s4", 1.0)),
        )
        scaled_alloc = allocation(scaled_workload, 0.1 * k, 0.3 * k, 0.35 * k, 0.25 * k)
        scaled = score_allocation(scaled_workload, scaled_alloc).metric
        assert base == pytest.approx(k * scaled, rel=1e-12)


@pytest.mark.parametrize("numerator, denominator", [(1.0, 1.0), (1e200, 1e200), (1e300, 1e160)])
def test_quotient_of_huge_references_scores_its_true_value(numerator, denominator):
    # The partials of s1 / s2 are 1 / s2 and -s1 / s2**2, so at budgets 0.5 its score is
    # 2 * sqrt(2) * hypot(1 / s2, s1 / s2**2): 4 at (1, 1), 4e-200 at (1e200, 1e200).
    workload = make_workload(
        stats=(("s1", 1.0, numerator), ("s2", 1.0, denominator)), equations=(("q", "s1 / s2", 1.0),)
    )
    expected = 2.0 * SQRT2 * math.hypot(1.0 / denominator, numerator / denominator / denominator)
    report = score_allocation(workload, allocation(workload, 0.5, 0.5))
    assert report.ue_terms["q"] == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_sensitivity_rescaling_invariance():
    def build(c, normalized):
        return make_workload(
            epsilon=1.0,
            stats=(("s1", 1.0 * c, 10.0), ("s2", 2.0 * c, 20.0), ("s4", 0.5 * c, 50.0)),
            equations=(("e", "(s1 + s2) / s4", 1.5 * c),),
            normalize_by_sensitivity=normalized,
        )

    budgets = (0.2, 0.5, 0.3)
    base_norm = score_allocation(build(1.0, True), allocation(build(1.0, True), *budgets))
    scaled_norm = score_allocation(build(4.0, True), allocation(build(4.0, True), *budgets))
    assert scaled_norm.metric == base_norm.metric
    assert scaled_norm.us_terms == base_norm.us_terms
    assert scaled_norm.ue_terms == base_norm.ue_terms

    base_raw = score_allocation(build(1.0, False), allocation(build(1.0, False), *budgets))
    scaled_raw = score_allocation(build(4.0, False), allocation(build(4.0, False), *budgets))
    assert scaled_raw.metric == 4.0 * base_raw.metric

    odd = score_allocation(build(3.0, False), allocation(build(3.0, False), *budgets))
    assert odd.metric == pytest.approx(3.0 * base_raw.metric, rel=1e-12)


def test_metric_decreases_along_relaxed_budget_ray():
    workload = paper_workload()
    previous = math.inf
    for k in (1.0, 2.0, 4.0, 8.0):
        scaled_workload = make_workload(
            epsilon=k,
            stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s3", 1.0, 7.0), ("s4", 1.0, 100.0)),
            equations=(("eq1", "s2 + s3", 2.0), ("eq2", "(s1 + s2) / s4", 1.0)),
        )
        value = score_allocation(scaled_workload, allocation(scaled_workload, *(0.25 * k,) * 4)).metric
        assert value < previous
        previous = value


def test_compare_prefers_uniform_over_starving_the_equation():
    workload = make_workload(
        epsilon=1.0,
        stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s3", 1.0, 7.0), ("s4", 1.0, 100.0)),
        equations=(("eq1", "s2 + s3", 2.0),),
    )
    uniform = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    starving = allocation(workload, 0.45, 0.05, 0.05, 0.45)
    ranking = compare_allocations(workload, [("uniform", uniform), ("starving", starving)])
    assert [entry.name for entry in ranking] == ["uniform", "starving"]
    assert ranking[0].rank == 1 and ranking[1].rank == 2
    oracle = grid_search(workload, 60)
    assert oracle.metric <= ranking[0].report.metric + 1e-9


def test_compare_tie_keeps_input_order():
    workload = make_workload()
    alloc = allocation(workload, 0.5, 0.5)
    ranking = compare_allocations(workload, [("first", alloc), ("second", alloc)])
    assert [entry.name for entry in ranking] == ["first", "second"]
    assert ranking[0].report.metric == ranking[1].report.metric


def test_compare_requires_two_allocations():
    workload = make_workload()
    with pytest.raises(ValueError):
        compare_allocations(workload, [("only", allocation(workload, 0.5, 0.5))])


def test_compare_ranking_same_for_both_estimators_on_linear_workload():
    workload = make_workload(
        epsilon=1.0,
        stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s3", 1.0, 7.0)),
        equations=(("eq1", "s2 + s3", 2.0), ("eq2", "s1 - s3", 1.0)),
    )
    candidates = [
        ("uniform", allocation(workload, 1 / 3, 1 / 3, 1 / 3)),
        ("tilted", allocation(workload, 0.2, 0.4, 0.4)),
        ("skewed", allocation(workload, 0.6, 0.2, 0.2)),
    ]
    analytic = compare_allocations(workload, candidates)
    mc = compare_allocations(
        workload, candidates, MetricOptions(estimator="montecarlo", mc_samples=200_000), seed=99
    )
    assert [entry.name for entry in analytic] == [entry.name for entry in mc]


def _montecarlo(samples):
    return MetricOptions(estimator="montecarlo", mc_samples=samples)


def _assert_terms_equal_full_route(workload, alloc, samples, seed):
    # Score's route keeps only each sum of squares; the full summary must give the same rmse bits.
    report = score_allocation(workload, alloc, _montecarlo(samples), seed=seed)
    for equation in workload.equations:
        full = propagate_variance_montecarlo(equation.expression, workload, alloc, samples, seed)
        assert report.ue_terms[equation.id] == full.rmse / equation.sensitivity
    return report


def test_montecarlo_terms_equal_the_full_summary_rmse():
    workload = paper_workload()
    tuned, uniform = allocation(workload, 0.1, 0.2, 0.3, 0.4), allocation(workload, 0.25, 0.25, 0.25, 0.25)
    samples = 3 * CHUNK + 123
    report = _assert_terms_equal_full_route(workload, tuned, samples, seed=11)
    ranked = compare_allocations(workload, [("tuned", tuned), ("uniform", uniform)], _montecarlo(samples), seed=11)
    assert {entry.name: entry.report for entry in ranked}["tuned"] == report


def test_montecarlo_terms_equal_the_full_summary_rmse_with_excluded_samples():
    # As in the propagation tests: d's noisy value falls within the division guard 5-30 times.
    workload = make_workload(
        epsilon=2.0, stats=(("s1", 1.0, 10.0), ("d", 2e-9, 1e-9)), equations=(("q", "s1 / d", 1.0),)
    )
    alloc = allocation(workload, 1.0, 1.0)
    full = propagate_variance_montecarlo(workload.equations[0].expression, workload, alloc, 50_010, seed=6)
    assert 50_010 - 30 <= full.mc_detail.samples < 50_010
    _assert_terms_equal_full_route(workload, alloc, 50_010, seed=6)


def test_montecarlo_score_heavy_tail_message_matches_the_full_route():
    workload = make_workload(
        epsilon=2.0, stats=(("s1", 1.0, 10.0), ("s4", 1e-10, 1e-11)), equations=(("ratio", "s1 / s4", 1.0),)
    )
    alloc = allocation(workload, 1.0, 1.0)
    with pytest.raises(HeavyTailWarning) as scored:
        score_allocation(workload, alloc, _montecarlo(10**4), seed=3)
    with pytest.raises(HeavyTailWarning) as simulated:  # simulate keeps the full summary for equations
        simulate_pipeline(workload, alloc, 10**4, seed=3)
    assert str(scored.value) == str(simulated.value)
    assert str(scored.value).startswith("equation 'ratio': ")


def test_montecarlo_score_with_huge_sensitivity_lands_on_its_normalized_value():
    # Its squared errors, ~1e400, once overflowed and the score ended in NonFiniteError.
    workload = make_workload(stats=(("s1", 1e200, 1.0),), equations=(("eq", "s1", 1e200),))
    report = score_allocation(workload, allocation(workload, 1.0), _montecarlo(10**5), seed=1)
    assert report.ue_terms["eq"] == pytest.approx(SQRT2, rel=0.02)
    assert report.metric == pytest.approx(2.0 * SQRT2, rel=0.01)


def test_montecarlo_scores_build_no_jacobian(monkeypatch):
    # The Monte Carlo route reads only the statistic coefficients and the equation norms: no gradient.
    def refuse(*args):
        raise AssertionError("the Monte Carlo route built a Jacobian")

    monkeypatch.setattr(propagation, "_value_and_partials", refuse)
    workload = paper_workload()
    tuned, uniform = allocation(workload, 0.1, 0.2, 0.3, 0.4), allocation(workload, 0.25, 0.25, 0.25, 0.25)
    report = score_allocation(workload, tuned, _montecarlo(2000), seed=4)
    ranked = compare_allocations(workload, [("tuned", tuned), ("uniform", uniform)], _montecarlo(2000), seed=4)
    assert {entry.name: entry.report for entry in ranked}["tuned"] == report
    with pytest.raises(AssertionError, match="built a Jacobian"):
        score_allocation(workload, tuned)


def test_montecarlo_score_is_not_refused_for_an_overflowing_amplitude():
    # s1's first-order amplitude at budget 1, sqrt(2) * 1e300 * 1e10, overflows; at budget 1e100 its rmse,
    # sqrt(2) * 1e210, does not. The Monte Carlo route reads no amplitude, so it scores.
    workload = make_workload(
        epsilon=2e100, stats=(("s1", 1e10, 1e-90), ("s2", 1.0, 1e300)), equations=(("eq", "s1 * s2", 1.0),)
    )
    report = score_allocation(workload, allocation(workload, 1e100, 1e100), _montecarlo(10**4), seed=2)
    assert report.ue_terms["eq"] == pytest.approx(SQRT2 * 1e210, rel=0.05)


def test_analytic_score_of_an_amplitude_that_overflows_at_budget_1():
    # s1's first-order amplitude at budget 1, sqrt(2) * 1e300 * 1e10, overflows. The model stores it per
    # budget unit, the smallest power of four not below epsilon 2e100, where it is finite, so the analytic
    # route scores the rmse at budget 1e100, sqrt(2) * 1e210, as the Monte Carlo route does.
    workload = make_workload(
        epsilon=2e100, stats=(("s1", 1e10, 1e-90), ("s2", 1.0, 1e300)), equations=(("eq", "s1 * s2", 1.0),)
    )
    alloc = allocation(workload, 1e100, 1e100)
    assert score_allocation(workload, alloc).ue_terms["eq"] == pytest.approx(SQRT2 * 1e210, rel=1e-12)
    report = simulate_pipeline(workload, alloc, 2000, seed=3)
    assert report.per_equation["eq"].predicted_rmse == pytest.approx(SQRT2 * 1e210, rel=1e-12)
    assert report.per_equation["eq"].empirical_rmse == pytest.approx(SQRT2 * 1e210, rel=0.1)


def test_a_budget_far_below_a_huge_epsilon_is_read_as_given():
    # Every coefficient is finite at budget 1, so the model reads budgets as they are: 1e-30 against
    # epsilon 1e300 neither underflows nor loses a bit, on either route.
    workload = make_workload(
        epsilon=1e300, stats=(("s1", 1.0, 5.0), ("s2", 3.0, 7.0)), equations=(("eq", "s1 * s2", 1.0),)
    )
    alloc = allocation(workload, 1e-30, 1e300)
    rmse = SQRT2 * 7.0 * 1.0 / 1e-30  # s2's term, sqrt(2) * 5 / 1e300, vanishes beside it in the 2-norm
    analytic = score_allocation(workload, alloc)
    assert analytic.us_terms == {"s1": SQRT2 / 1e-30, "s2": SQRT2 / 1e300}
    assert analytic.ue_terms == {"eq": rmse}
    assert propagate_variance_analytic(workload.equations[0].expression, workload, alloc).rmse == rmse
    assert simulate_pipeline(workload, alloc, 1000, seed=1).per_equation["eq"].predicted_rmse == rmse
    sampled = score_allocation(workload, alloc, _montecarlo(10**4), seed=2)
    assert sampled.us_terms == analytic.us_terms
    assert sampled.ue_terms["eq"] == pytest.approx(rmse, rel=0.1)
