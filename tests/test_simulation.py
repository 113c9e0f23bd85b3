import math
import tracemalloc

import numpy as np
import pytest

from dpbudget import (
    MetricOptions,
    StatRef,
    noise_stream,
    propagate_variance_analytic,
    propagate_variance_montecarlo,
    sample_noise_batch,
    score_allocation,
    simulate_pipeline,
)
from dpbudget.errors import HeavyTailWarning
from dpbudget.propagation import CHUNK

from helpers import allocation, make_workload, paper_workload, simulate_dump

SQRT2 = math.sqrt(2.0)


def test_simulation_is_deterministic():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    first = simulate_pipeline(workload, alloc, trials=2000, seed=13)
    second = simulate_pipeline(workload, alloc, trials=2000, seed=13)
    assert first == second
    assert first != simulate_pipeline(workload, alloc, trials=2000, seed=14)


def test_per_statistic_rmse_tracks_prediction():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    report = simulate_pipeline(workload, alloc, trials=10**5, seed=5150)
    for stat_id, summary in report.per_statistic.items():
        assert summary.predicted_rmse == SQRT2 * 4.0
        assert abs(summary.empirical_rmse - summary.predicted_rmse) / summary.predicted_rmse <= 0.02


def test_rmse_convergence_rates():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    coarse = simulate_pipeline(workload, alloc, trials=10**4, seed=5150)
    fine = simulate_pipeline(workload, alloc, trials=10**5, seed=5150)
    for stat_id in workload.statistic_ids:
        predicted = coarse.per_statistic[stat_id].predicted_rmse
        assert abs(coarse.per_statistic[stat_id].empirical_rmse - predicted) / predicted <= 0.06
        assert abs(fine.per_statistic[stat_id].empirical_rmse - predicted) / predicted <= 0.02


def test_linear_equation_rmse_tracks_analytic_prediction():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    report = simulate_pipeline(workload, alloc, trials=10**5, seed=777)
    summary = report.per_equation["eq1"]
    predicted = propagate_variance_analytic(workload.equations[0].expression, workload, alloc).rmse
    assert summary.predicted_rmse == predicted
    assert abs(summary.empirical_rmse - predicted) / predicted <= 0.02


def test_bare_reference_equation_reproduces_statistic_errors(tmp_path):
    workload = make_workload(
        epsilon=1.0,
        stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0)),
        equations=(("echo", "s1", 1.0),),
    )
    alloc = allocation(workload, 0.5, 0.5)
    report, columns = simulate_dump(tmp_path, workload, alloc, trials=5000, seed=99)
    assert np.array_equal(columns["eq:echo"], columns["stat:s1"])
    assert report["per_equation"]["echo"]["empirical_rmse"] == report["per_statistic"]["s1"]["empirical_rmse"]


def test_single_trial_report_is_flagged_unreliable():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    report = simulate_pipeline(workload, alloc, trials=1, seed=4)
    assert report.trials == 1
    assert not report.rmse_reliable
    assert set(report.per_statistic) == {"s1", "s2", "s3", "s4"}
    for summary in report.per_statistic.values():
        assert summary.empirical_rmse >= 0.0


def test_trials_must_be_positive():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError):
        simulate_pipeline(workload, alloc, trials=0, seed=1)


def test_heavy_tailed_equation_aborts():
    workload = make_workload(
        epsilon=2.0,
        stats=(("s1", 1.0, 10.0), ("s4", 1e-10, 1e-11)),
        equations=(("ratio", "s1 / s4", 1.0),),
    )
    alloc = allocation(workload, 1.0, 1.0)
    with pytest.raises(HeavyTailWarning):
        simulate_pipeline(workload, alloc, trials=10**4, seed=3)


def test_release_matches_first_simulation_trial(tmp_path):
    from dpbudget import release_statistics

    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    released = release_statistics(workload, alloc, seed=321)
    _, columns = simulate_dump(tmp_path, workload, alloc, trials=3, seed=321)
    refs = workload.reference_values()
    for stat_id in workload.statistic_ids:
        assert released[stat_id] == refs[stat_id] + columns[f"stat:{stat_id}"][0]


def test_series_over_chunks_match_one_draw_per_stream(tmp_path):
    workload = paper_workload()
    alloc = allocation(workload, 0.1, 0.2, 0.3, 0.4)
    trials = 3 * CHUNK + 123
    report, series = simulate_dump(tmp_path, workload, alloc, trials, seed=12)
    released = {}
    for index, spec in enumerate(workload.statistics):
        scale = spec.sensitivity / alloc.budgets[spec.id]
        released[spec.id] = spec.reference_value + sample_noise_batch(scale, noise_stream(12, index), trials)
        errors = released[spec.id] - spec.reference_value
        assert np.array_equal(series[f"stat:{spec.id}"], errors)
        rmse = math.sqrt(np.mean(errors * errors))
        assert report["per_statistic"][spec.id]["empirical_rmse"] == pytest.approx(rmse, rel=1e-12)
    eq1 = released["s2"] + released["s3"] - 27.0
    assert np.array_equal(series["eq:eq1"], eq1)
    assert report["per_equation"]["eq1"]["empirical_rmse"] == pytest.approx(math.sqrt(np.mean(eq1 * eq1)), rel=1e-12)


def test_simulation_equals_montecarlo_propagation_with_same_seed_and_count():
    workload = paper_workload()
    alloc = allocation(workload, 0.1, 0.2, 0.3, 0.4)
    trials = 2 * CHUNK + 5000
    report = simulate_pipeline(workload, alloc, trials, seed=2024)
    for equation in workload.equations:
        sampled = propagate_variance_montecarlo(equation.expression, workload, alloc, trials, seed=2024)
        summary = report.per_equation[equation.id]
        assert summary.empirical_rmse == sampled.rmse
        assert summary.trimmed_rmse == sampled.mc_detail.trimmed_rmse
        assert summary.bias == sampled.mc_detail.bias_estimate


def test_simulation_and_montecarlo_memory_do_not_grow_with_samples():
    # One full array of 10**6 float64 samples is 8 MB; the chunked kernel
    # must stay below that however many samples it replays.
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    quotient = workload.equations[1].expression
    for run in (
        lambda: propagate_variance_montecarlo(quotient, workload, alloc, 10**6, seed=1),
        lambda: simulate_pipeline(workload, alloc, 10**6, seed=1),
        lambda: score_allocation(workload, alloc, MetricOptions(estimator="montecarlo", mc_samples=10**6), seed=1),
    ):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6


def test_statistic_rmse_equals_the_full_summary_rmse():
    # Simulate keeps only each statistic's sum of squares; the full summary must give the same rmse bits.
    workload = paper_workload()
    alloc = allocation(workload, 0.1, 0.2, 0.3, 0.4)
    trials = 2 * CHUNK + 5000
    report = simulate_pipeline(workload, alloc, trials, seed=2024)
    for stat_id in workload.statistic_ids:
        full = propagate_variance_montecarlo(StatRef(stat_id), workload, alloc, trials, seed=2024)
        assert report.per_statistic[stat_id].empirical_rmse == full.rmse


def test_huge_sensitivity_simulates_near_its_prediction():
    # Its squared errors, ~1e400, once overflowed and simulate ended in NonFiniteError. At reference 0
    # the errors are those of sensitivity 1 times 1e200, up to one rounding each.
    unit, huge = (
        make_workload(stats=(("s1", sens, 0.0),), equations=(("eq", "s1", sens),)) for sens in (1.0, 1e200)
    )
    base = simulate_pipeline(unit, allocation(unit, 1.0), 10**4, seed=1)
    report = simulate_pipeline(huge, allocation(huge, 1.0), 10**4, seed=1)
    statistic, equation = report.per_statistic["s1"], report.per_equation["eq"]
    assert statistic.predicted_rmse == equation.predicted_rmse == pytest.approx(SQRT2 * 1e200, rel=1e-15)
    assert statistic.empirical_rmse == equation.empirical_rmse == pytest.approx(SQRT2 * 1e200, rel=0.05)
    assert equation.empirical_rmse == pytest.approx(base.per_equation["eq"].empirical_rmse * 1e200, rel=1e-12)
    assert equation.trimmed_rmse == pytest.approx(base.per_equation["eq"].trimmed_rmse * 1e200, rel=1e-12)
    assert abs(equation.bias - base.per_equation["eq"].bias * 1e200) <= 1e-12 * equation.empirical_rmse
