import math
import random

import numpy as np
import pytest

from dpbudget import (
    gradient_at_reference,
    noise_stream,
    parse_expression,
    propagate_variance_analytic,
    propagate_variance_montecarlo,
    sample_noise_batch,
)
from dpbudget.errors import DivisionNearZeroError, HeavyTailWarning, NonFiniteError
from dpbudget.expressions import DIVISION_GUARD, Binary, BinaryOp, StatRef
from dpbudget.propagation import CHUNK, TRIM_PER_TAIL, _TailSummary

from helpers import allocation, fd_gradient, make_workload, safe_random_tree


def linear_pair():
    workload = make_workload(
        epsilon=0.5,
        stats=(("s2", 1.0, 5.0), ("s3", 1.0, 7.0)),
    )
    return workload, allocation(workload, 0.25, 0.25)


def quotient_instance():
    workload = make_workload(
        epsilon=3.0,
        stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s4", 1.0, 5.0)),
    )
    return workload, allocation(workload, 1.0, 1.0, 1.0)


def test_gradient_of_sum_is_ones():
    gradient = gradient_at_reference(parse_expression("s2 + s3"), {"s2": -3.0, "s3": 100.0})
    assert gradient == {"s2": 1.0, "s3": 1.0}


def test_gradient_of_quotient():
    gradient = gradient_at_reference(parse_expression("(s1 + s2) / s4"), {"s1": 10.0, "s2": 20.0, "s4": 5.0})
    assert gradient["s1"] == pytest.approx(0.2, abs=1e-15)
    assert gradient["s2"] == pytest.approx(0.2, abs=1e-15)
    assert gradient["s4"] == pytest.approx(-1.2, abs=1e-15)


@pytest.mark.parametrize("numerator, denominator", [(1e200, 1e200), (1e300, 1e160)])
def test_gradient_of_quotient_with_huge_denominator(numerator, denominator):
    # A quotient rule that squares the denominator overflows here and zeroes its partial.
    gradient = gradient_at_reference(parse_expression("s1 / s2"), {"s1": numerator, "s2": denominator})
    assert gradient["s1"] == pytest.approx(1.0 / denominator, rel=1e-15, abs=0.0)
    assert gradient["s2"] == pytest.approx(-numerator / denominator / denominator, rel=1e-15, abs=0.0)


def test_gradient_keeps_cancelled_references():
    gradient = gradient_at_reference(parse_expression("s1 - s1"), {"s1": 4.0})
    assert gradient == {"s1": 0.0}


def test_gradient_of_a_long_sum_is_all_ones():
    # One partial per distinct statistic: a gradient that merges per-node dicts is quadratic here.
    ids = [f"s{i}" for i in range(20_000)]
    gradient = gradient_at_reference(parse_expression(" + ".join(ids)), dict.fromkeys(ids, 10.0))
    assert gradient == dict.fromkeys(ids, 1.0)


def test_gradient_of_a_shared_node_sums_both_uses():
    # The parser builds a fresh StatRef per mention; a hand-built tree may reuse one object.
    x = StatRef("s1")
    gradient = gradient_at_reference(Binary(BinaryOp.MUL, x, x), {"s1": 3.5})
    assert gradient == {"s1": 7.0}


def test_gradient_guards_reference_denominator():
    with pytest.raises(DivisionNearZeroError):
        gradient_at_reference(parse_expression("s1 / s2"), {"s1": 1.0, "s2": 1e-13})


def test_gradient_matches_finite_differences_on_random_trees():
    rng = random.Random(777)
    ids = ["s1", "s2", "s3", "s4"]
    refs = {"s1": 3.0, "s2": -4.5, "s3": 11.0, "s4": 7.25}
    for _ in range(200):
        tree = safe_random_tree(rng, ids, refs)
        exact = gradient_at_reference(tree, refs)
        approx = fd_gradient(tree, refs)
        # FD roundoff is absolute at the scale of the largest partial, so
        # zero-ish components get that scale as their floor.
        scale = max(1.0, max(abs(g) for g in exact.values()))
        for stat_id, g in exact.items():
            assert abs(approx[stat_id] - g) <= 1e-6 * max(abs(g), scale)


def test_analytic_linear_example():
    workload, alloc = linear_pair()
    result = propagate_variance_analytic(parse_expression("s2 + s3"), workload, alloc)
    assert result.variance == 64.0
    assert result.rmse == 8.0
    assert result.method == "analytic"
    assert result.mc_detail is None


def test_analytic_quotient_example():
    workload, alloc = quotient_instance()
    result = propagate_variance_analytic(parse_expression("(s1 + s2) / s4"), workload, alloc)
    assert result.variance == pytest.approx(3.04, rel=1e-12)


def test_analytic_constant_expression():
    workload, alloc = linear_pair()
    result = propagate_variance_analytic(parse_expression("3.5"), workload, alloc)
    assert result.variance == 0.0
    assert result.rmse == 0.0


def test_montecarlo_linear_matches_exact_rmse():
    workload, alloc = linear_pair()
    result = propagate_variance_montecarlo(parse_expression("s2 + s3"), workload, alloc, 10**6, seed=42)
    assert abs(result.rmse - 8.0) / 8.0 <= 0.01
    assert result.mc_detail is not None
    assert result.mc_detail.samples == 10**6


def test_montecarlo_is_deterministic():
    workload, alloc = linear_pair()
    ast = parse_expression("s2 + s3")
    first = propagate_variance_montecarlo(ast, workload, alloc, 5000, seed=7)
    second = propagate_variance_montecarlo(ast, workload, alloc, 5000, seed=7)
    assert first == second


def test_montecarlo_requires_enough_samples():
    workload, alloc = linear_pair()
    with pytest.raises(ValueError):
        propagate_variance_montecarlo(parse_expression("s2 + s3"), workload, alloc, 999, seed=1)


def test_montecarlo_degenerate_reference_denominator():
    workload = make_workload(
        epsilon=2.0,
        stats=(("s1", 1.0, 1.0), ("s2", 1.0, -1.0), ("s4", 1.0, 1e-13)),
        min_budget_fraction=1e-7,
    )
    alloc = allocation(workload, 0.7, 0.7, 0.6)
    with pytest.raises(DivisionNearZeroError):
        propagate_variance_montecarlo(parse_expression("(s1 + s2) / s4"), workload, alloc, 2000, seed=1)


def test_montecarlo_heavy_tail_abort():
    workload = make_workload(
        epsilon=2.0,
        stats=(("s1", 1.0, 10.0), ("s4", 1e-10, 1e-11)),
    )
    alloc = allocation(workload, 1.0, 1.0)
    with pytest.raises(HeavyTailWarning):
        propagate_variance_montecarlo(parse_expression("s1 / s4"), workload, alloc, 10000, seed=3)


def test_linear_exactness_property():
    workload = make_workload(
        epsilon=1.0,
        stats=(("a", 2.0, 4.0), ("b", 0.5, -3.0), ("c", 1.5, 9.0)),
    )
    alloc = allocation(workload, 0.2, 0.5, 0.3)
    ast = parse_expression("a - 2 * b + c / 4")
    analytic = propagate_variance_analytic(ast, workload, alloc)
    mc = propagate_variance_montecarlo(ast, workload, alloc, 10**6, seed=11)
    assert abs(mc.rmse - analytic.rmse) / analytic.rmse <= 0.01


def test_budget_scaling_divides_rmse():
    workload = make_workload(epsilon=1.0, stats=(("s2", 1.0, 5.0), ("s3", 2.0, 7.0)))
    scaled = make_workload(epsilon=4.0, stats=(("s2", 1.0, 5.0), ("s3", 2.0, 7.0)))
    ast = parse_expression("s2 + s3")
    base = propagate_variance_analytic(ast, workload, allocation(workload, 0.25, 0.75))
    quad = propagate_variance_analytic(ast, scaled, allocation(scaled, 1.0, 3.0))
    assert quad.rmse == base.rmse / 4.0


def test_variance_is_monotone_in_each_budget():
    workload = make_workload(
        epsilon=1.0,
        stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s4", 1.0, 50.0)),
    )
    scaled = make_workload(
        epsilon=1.1,
        stats=(("s1", 1.0, 10.0), ("s2", 1.0, 20.0), ("s4", 1.0, 50.0)),
    )
    ast = parse_expression("(s1 + s2) / s4")
    base = propagate_variance_analytic(ast, workload, allocation(workload, 0.3, 0.3, 0.4)).variance
    for bumped in (
        allocation(scaled, 0.4, 0.3, 0.4),
        allocation(scaled, 0.3, 0.4, 0.4),
        allocation(scaled, 0.3, 0.3, 0.5),
    ):
        assert propagate_variance_analytic(ast, scaled, bumped).variance <= base


def test_montecarlo_exposes_first_order_failure_on_ill_conditioned_quotient():
    # s4's reference 5 is only κ = 5/√2 ≈ 3.5 noise standard deviations from
    # zero, so the quotient's true variance is infinite. First order still
    # predicts 3.04; the trimmed sampled rmse² lands near 43, and the cross-check
    # must show that gap rather than agree with the analytic route.
    workload, alloc = quotient_instance()
    ast = parse_expression("(s1 + s2) / s4")
    analytic = propagate_variance_analytic(ast, workload, alloc)
    mc = propagate_variance_montecarlo(ast, workload, alloc, 10**6, seed=4242)
    assert mc.mc_detail.samples == 10**6
    assert mc.mc_detail.trimmed_rmse**2 > 5 * analytic.variance


def test_mul_div_linear_combination_is_not_required_for_mc_validity():
    workload, alloc = quotient_instance()
    ast = parse_expression("(s1 + s2) / s4")
    mc = propagate_variance_montecarlo(ast, workload, alloc, 10**5, seed=5)
    assert mc.mc_detail.trimmed_rmse > 0
    assert mc.rmse >= mc.mc_detail.trimmed_rmse


def sampled_reference(workload, alloc, samples, seed, numerator, denominator=None):
    """Independent Monte Carlo summary: one draw per stream, numpy arithmetic,
    exclusion by the division guard, and a full sort for the trimmed rmse."""
    noisy = {}
    for index, spec in enumerate(workload.statistics):
        scale = spec.sensitivity / alloc.budgets[spec.id]
        noisy[spec.id] = spec.reference_value + sample_noise_batch(scale, noise_stream(seed, index), samples)
    refs = {spec.id: np.float64(spec.reference_value) for spec in workload.statistics}
    if denominator is None:
        errors, excluded = numerator(noisy) - numerator(refs), np.zeros(samples, dtype=bool)
    else:
        den = denominator(noisy)
        excluded = np.abs(den) < DIVISION_GUARD
        errors = numerator(noisy) / np.where(excluded, 1.0, den) - numerator(refs) / denominator(refs)
    kept = errors[~excluded]
    drop = int(kept.size * TRIM_PER_TAIL)
    core = np.sort(kept)[drop : kept.size - drop]
    return {
        "excluded": int(excluded.sum()),
        "rmse": math.sqrt(np.mean(kept * kept)),
        "trimmed": math.sqrt(np.mean(core * core)),
        "bias": float(np.mean(kept)),
        "variance": float(np.var(kept)),
    }


def assert_matches_reference(result, expected, samples):
    assert result.mc_detail.samples == samples - expected["excluded"]
    assert result.rmse == pytest.approx(expected["rmse"], rel=1e-12)
    assert result.mc_detail.trimmed_rmse == pytest.approx(expected["trimmed"], rel=1e-12)
    assert abs(result.mc_detail.bias_estimate - expected["bias"]) <= 1e-12 * expected["rmse"]
    assert result.variance == pytest.approx(expected["variance"], rel=1e-10)


@pytest.mark.parametrize("samples", [1000, 3 * CHUNK + 123])
def test_chunked_kernel_matches_one_draw_reference_on_linear_expression(samples):
    workload = make_workload(
        epsilon=1.0,
        stats=(("a", 2.0, 4.0), ("b", 0.5, -3.0), ("c", 1.5, 9.0)),
    )
    alloc = allocation(workload, 0.2, 0.5, 0.3)
    result = propagate_variance_montecarlo(parse_expression("a - 2 * b + c / 4"), workload, alloc, samples, seed=23)
    expected = sampled_reference(workload, alloc, samples, 23, lambda v: v["a"] - 2 * v["b"] + v["c"] / 4)
    assert_matches_reference(result, expected, samples)


def test_chunked_kernel_trims_heavy_tailed_quotient_exactly():
    workload, alloc = quotient_instance()
    samples = 3 * CHUNK + 123
    result = propagate_variance_montecarlo(parse_expression("(s1 + s2) / s4"), workload, alloc, samples, seed=8)
    expected = sampled_reference(
        workload, alloc, samples, 8, lambda v: v["s1"] + v["s2"], lambda v: v["s4"]
    )
    assert int(samples * TRIM_PER_TAIL) > 0
    assert_matches_reference(result, expected, samples)


def test_chunked_kernel_drop_follows_kept_count_when_samples_are_excluded():
    # d's reference 1e-9 with noise scale 2e-9: |d| < 1e-12 has probability
    # about 2e-12 * exp(-0.5) / (2 * 2e-9) ≈ 3e-4, under the 1e-3 abort limit.
    workload = make_workload(
        epsilon=2.0,
        stats=(("s1", 1.0, 10.0), ("d", 2e-9, 1e-9)),
    )
    alloc = allocation(workload, 1.0, 1.0)
    samples = 50_010
    result = propagate_variance_montecarlo(parse_expression("s1 / d"), workload, alloc, samples, seed=6)
    expected = sampled_reference(workload, alloc, samples, 6, lambda v: v["s1"], lambda v: v["d"])
    assert 5 <= expected["excluded"] <= 30
    kept = samples - expected["excluded"]
    assert int(kept * TRIM_PER_TAIL) < int(samples * TRIM_PER_TAIL)
    assert_matches_reference(result, expected, samples)


def test_chunked_kernel_core_sum_survives_extreme_tails():
    # 1/d² has a tail like x^(-1/2): typical errors are ~10 but the largest
    # pass 1e8, so a core sum taken as a chunk's total minus its tails
    # would miss the sorted reference by more than rel 1e-12 (cancellation).
    workload = make_workload(
        epsilon=2.0,
        stats=(("s1", 1.0, 10.0), ("d", 0.25, 1.0)),
    )
    alloc = allocation(workload, 1.0, 1.0)
    samples = 3 * CHUNK + 123
    result = propagate_variance_montecarlo(parse_expression("s1 / (d * d)"), workload, alloc, samples, seed=4)
    expected = sampled_reference(workload, alloc, samples, 4, lambda v: v["s1"], lambda v: v["d"] * v["d"])
    assert expected["rmse"] > 100 * expected["trimmed"]
    assert_matches_reference(result, expected, samples)


def test_tail_summary_fills_its_tails_from_chunks_smaller_than_them():
    # Past ~16.4M samples k = TRIM_PER_TAIL * count exceeds half a chunk, so the first chunks only fill
    # the tails. Here k is 20,000: two chunks fill them, the third overflows them, the fourth meets them full.
    summary = _TailSummary(40_000_000)
    rng = np.random.default_rng(11)
    chunks = [rng.standard_normal(size) * 3.0 + 0.5 for size in (10_000, 25_000, CHUNK, CHUNK)]
    for chunk in chunks:
        summary.add(chunk, 0)
    errors = np.concatenate(chunks)
    drop = int(errors.size * TRIM_PER_TAIL)
    core = np.sort(errors)[drop : errors.size - drop]
    detail = summary.detail()
    assert detail.samples == errors.size
    assert summary.rmse() == pytest.approx(math.sqrt(np.mean(errors * errors)), rel=1e-12)
    assert detail.trimmed_rmse == pytest.approx(math.sqrt(np.mean(core * core)), rel=1e-12)
    assert detail.bias_estimate == pytest.approx(float(np.mean(errors)), rel=1e-12)


def test_montecarlo_summary_rescales_squares_that_overflow():
    # Errors near 1e153 have squares whose chunk sum overflows, which once made the rmse inf;
    # the variance, ~1e306, is finite. At reference 0 the errors are those of sensitivity 1
    # times 1e153, up to one rounding each.
    samples, ast = 2 * CHUNK + 123, parse_expression("-s1 * 2")
    unit, huge = (make_workload(stats=(("s1", sensitivity, 0.0),)) for sensitivity in (1.0, 1e153))
    base = propagate_variance_montecarlo(ast, unit, allocation(unit, 1.0), samples, seed=3)
    result = propagate_variance_montecarlo(ast, huge, allocation(huge, 1.0), samples, seed=3)
    assert result.mc_detail.samples == samples
    assert result.variance == pytest.approx(base.variance * 1e306, rel=1e-12)
    assert result.rmse == pytest.approx(base.rmse * 1e153, rel=1e-12)
    assert result.mc_detail.trimmed_rmse == pytest.approx(base.mc_detail.trimmed_rmse * 1e153, rel=1e-12)
    assert abs(result.mc_detail.bias_estimate - base.mc_detail.bias_estimate * 1e153) <= 1e-12 * result.rmse


def test_montecarlo_variance_that_truly_overflows_is_refused():
    workload = make_workload(stats=(("s1", 1e200, 0.0),))  # the variance is ~8e400
    with pytest.raises(NonFiniteError, match=r"^expression: its Monte Carlo variance overflows \(inf\)$"):
        propagate_variance_montecarlo(parse_expression("-s1 * 2"), workload, allocation(workload, 1.0), 1000, seed=3)
