import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from dpbudget import NonFiniteError, noise_stream, release_statistics, sample_noise_batch, simulate_pipeline
from dpbudget.noise import _laplace_from_uniform

from helpers import allocation, make_workload, paper_workload


def test_sample_noise_deterministic_per_stream():
    draws = sample_noise_batch(1.0, noise_stream(123, 4), 3)
    assert np.array_equal(draws, sample_noise_batch(1.0, noise_stream(123, 4), 3))
    assert len(set(draws.tolist())) == 3


def test_streams_differ_across_indices_and_seeds():
    base = sample_noise_batch(1.0, noise_stream(123, 0), 3)
    assert not np.isin(base, sample_noise_batch(1.0, noise_stream(123, 1), 3)).any()
    assert not np.isin(base, sample_noise_batch(1.0, noise_stream(124, 0), 3)).any()


def test_sample_noise_moments():
    draws = sample_noise_batch(1.0, noise_stream(20240601, 0), 10**6)
    assert abs(draws.mean()) <= 0.005
    assert abs(draws.var() - 2.0) <= 0.04


def test_sample_noise_ks_against_laplace():
    draws = sample_noise_batch(1.0, noise_stream(20240601, 1), 10**5)
    result = scipy_stats.kstest(draws, "laplace", args=(0.0, 1.0))
    assert result.pvalue > 0.001


def test_sample_noise_scale_guard():
    with pytest.raises(ValueError):
        sample_noise_batch(0.0, noise_stream(1, 0), 1)


@pytest.mark.parametrize("scale", [math.inf, 1e309], ids=["inf", "1e309"])
def test_sample_noise_refuses_an_infinite_scale(scale):
    with pytest.raises(ValueError, match=r"^scale must be finite and positive, got inf$"):
        sample_noise_batch(scale, noise_stream(1, 0), 3)


def test_a_seed_is_any_integer_from_0_to_2_to_the_64_less_1():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    assert np.array_equal(noise_stream(np.int64(1), 2).random(5), noise_stream(1, 2).random(5))
    assert release_statistics(workload, alloc, np.uint64(2**64 - 1)) == release_statistics(workload, alloc, 2**64 - 1)
    assert simulate_pipeline(workload, alloc, 100, np.int64(1)) == simulate_pipeline(workload, alloc, 100, 1)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True], ids=["-1", "2**64", "1.5", "True"])
def test_a_seed_outside_the_range_is_refused(seed):
    # A seed masked to 64 bits would give -1 seed 2**64 - 1's noise and 2**64 seed 0's, so neither is one.
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    message = rf"^seed must be an integer from 0 to 2\*\*64 - 1, got {seed!r}$"
    for call in (
        lambda: noise_stream(seed, 0),
        lambda: release_statistics(workload, alloc, seed),
        lambda: simulate_pipeline(workload, alloc, 100, seed),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_release_is_deterministic_per_seed():
    workload = paper_workload()
    alloc = allocation(workload, 0.25, 0.25, 0.25, 0.25)
    first = release_statistics(workload, alloc, seed=99)
    second = release_statistics(workload, alloc, seed=99)
    assert first == second
    assert len(first) == 4
    assert first != release_statistics(workload, alloc, seed=100)


def test_release_with_huge_budget_hugs_reference():
    workload = make_workload(epsilon=2e6, stats=(("s1", 1.0, 42.0), ("s2", 1.0, -7.0)))
    alloc = allocation(workload, 1e6, 1e6)
    worst = 0.0
    for seed in range(100):
        released = release_statistics(workload, alloc, seed=seed)
        worst = max(worst, abs(released["s1"] - 42.0), abs(released["s2"] + 7.0))
    assert worst < 1e-4


@pytest.mark.parametrize(
    "epsilon, stats, named",
    [
        # s1's noise scale, 1e10 / 5e-301, overflows; s2's release, about -3.8e300, does not.
        (1e-300, (("s1", 1e10, 1.0), ("s2", 1.0, 1.0)), "s1"),
        # s2's noise scale, 2e307, is finite, but seed 7's draw added to its reference overflows.
        (1.0, (("s1", 1.0, 1.0), ("s2", 1e307, 1.79e308)), "s2"),
    ],
    ids=["scale overflows", "sum overflows"],
)
def test_a_release_that_is_not_finite_names_its_statistic(epsilon, stats, named):
    workload = make_workload(epsilon=epsilon, stats=stats)
    alloc = allocation(workload, epsilon / 2, epsilon / 2)
    with pytest.raises(NonFiniteError, match=rf"^statistic '{named}': its release is (-?inf|nan)$"):
        release_statistics(workload, alloc, seed=7)


def test_in_place_inverse_cdf_matches_reference_formula_bit_for_bit():
    for seed, index, scale, count in ((1, 0, 1.0, 5000), (77, 3, 0.37, 4097), (2**63 + 5, 12, 250.0, 1)):
        u = noise_stream(seed, index).random(count) - 0.5
        expected = -scale * np.sign(u) * np.log1p(-2.0 * np.minimum(np.abs(u), 0.5 - 2.0**-54))
        assert np.array_equal(sample_noise_batch(scale, noise_stream(seed, index), count), expected)


def _sign_product_laplace(uniforms, scale):
    """The inverse CDF with a sign array and its product, step by step: -scale * sign * log1p(-2|u|)."""
    u = uniforms - 0.5
    sign = np.sign(u)
    np.abs(u, out=u)
    np.minimum(u, 0.5 - 2.0**-54, out=u)
    u *= -2.0
    np.log1p(u, out=u)
    u *= sign
    u *= -scale
    return u


def test_copied_sign_transform_equals_the_sign_product_bit_for_bit():
    edges = np.array([0.0, 0.5, 2.0**-53, 0.5 - 2.0**-53, 0.5 + 2.0**-53, 1.0 - 2.0**-53])
    seeded = noise_stream(20240601, 7).random(10**5)
    for uniforms in (edges, seeded):
        for scale in (1.0, 0.37, 250.0, 1e-300):
            expected = _sign_product_laplace(uniforms, scale)
            assert _laplace_from_uniform(uniforms.copy(), scale).tobytes() == expected.tobytes()
    # u = 0.5 is the one zero draw, and it is +0.0.
    assert math.copysign(1.0, float(_laplace_from_uniform(np.array([0.5]), 2.0)[0])) == 1.0


def test_batch_draws_extend_scalar_draws():
    stream_a = noise_stream(5, 2)
    prefix = sample_noise_batch(2.5, stream_a, 10)
    stream_b = noise_stream(5, 2)
    replay = np.concatenate([sample_noise_batch(2.5, stream_b, 1) for _ in range(10)])
    assert np.array_equal(prefix, replay)


def test_consecutive_chunks_of_a_stream_equal_one_draw():
    stream = noise_stream(9, 3)
    chunks = [sample_noise_batch(1.5, stream, size) for size in (2**14, 2**14, 123)]
    whole = sample_noise_batch(1.5, noise_stream(9, 3), 2 * 2**14 + 123)
    assert np.array_equal(np.concatenate(chunks), whole)
