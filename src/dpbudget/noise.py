"""Laplace-mechanism noise: seeded sampling and noisy releases.

Sampling is counter-based and reproducible: statistic ``i`` under seed
``s`` owns an independent Philox stream keyed by ``(s, i)``, and the
``t``-th variate of that stream is the noise for trial ``t``. The same
(seed, statistic index, trial index) always yields the same draw.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import NonFiniteError
from .workload import BudgetAllocation, Workload, validate_allocation

_UINT64_MASK = (1 << 64) - 1
# Largest |u| fed to the inverse CDF; keeps log1p(-2|u|) finite.
_U_LIMIT = 0.5 - 2.0**-54


def noise_stream(seed: int, index: int) -> np.random.Generator:
    """Independent deterministic stream for one statistic index under one seed, an integer (but not a bool)
    from 0 to 2**64 - 1, the range of the CLI's ``--seed``: ValueError for any other seed."""
    return np.random.Generator(np.random.Philox(key=(_check_seed(seed) << 64) | (index & _UINT64_MASK)))


def _check_seed(seed: int) -> int:
    """noise_stream's seed rule, which every seeded call applies before it draws: the seed as an int, or
    ValueError."""
    try:
        key = None if isinstance(seed, bool) else operator.index(seed)
    except TypeError:
        key = None
    if key is None or not 0 <= key <= _UINT64_MASK:
        raise ValueError(f"seed must be an integer from 0 to 2**64 - 1, got {seed!r}")
    return key


def sample_noise_batch(scale: float, stream: np.random.Generator, count: int) -> np.ndarray:
    """Draws ``count`` consecutive Laplace(scale) variates from a stream.

    Inverse-CDF construction: with u uniform on (-0.5, 0.5), the draw is
    -scale * sign(u) * ln(1 - 2|u|). The Monte Carlo kernel makes the same
    variates, bit for bit: it draws each stream with ``random`` and applies
    the same transform to a block of streams at once.
    """
    _check_scale(scale)
    return _laplace_from_uniform(stream.random(count), scale)


def _check_scale(scale: float) -> None:
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale!r}")


def _laplace_from_uniform(u: np.ndarray, scale: float | np.ndarray, magnitude: np.ndarray | None = None) -> np.ndarray:
    """Turns uniforms on [0, 1) into Laplace(scale) variates in place, and returns ``u``.

    The bits equal -scale * sign(u - 0.5) * log1p(-2|u - 0.5|): negating or
    copying a sign is exact, so scaling the magnitude first and copying the
    sign of u - 0.5 last rounds the same way, and u = 0.5 still gives +0.0.
    ``scale`` is a float or an array that broadcasts against ``u``, such as
    a column of per-row scales for a 2-D block of streams. |u| is written
    into ``magnitude``, an array shaped like ``u``, if given; then nothing
    is allocated.
    """
    u -= 0.5
    magnitude = np.abs(u, out=magnitude)
    np.minimum(magnitude, _U_LIMIT, out=magnitude)
    magnitude *= -2.0
    np.log1p(magnitude, out=magnitude)
    # log1p is <= 0 here and copysign keeps only the magnitude, so scaling by +scale gives -scale's bits.
    magnitude *= scale
    return np.copysign(magnitude, u, out=u)


def release_statistics(workload: Workload, allocation: BudgetAllocation, seed: int) -> dict[str, float]:
    """Releases every statistic once: reference value plus fresh Laplace noise.

    Deterministic per seed; statistic order and ids follow the workload. A release that is not finite (its
    noise scale, checked before the draw, or its sum overflows) raises NonFiniteError naming the statistic.
    """
    allocation = validate_allocation(workload, allocation)
    released = {}
    for index, spec in enumerate(workload.statistics):
        scale = spec.sensitivity / allocation.budgets[spec.id]
        noise = sample_noise_batch(scale, noise_stream(seed, index), 1)[0] if scale < math.inf else math.inf
        released[spec.id] = spec.reference_value + float(noise)
        if not np.isfinite(released[spec.id]):
            raise NonFiniteError(f"statistic {spec.id!r}: its release is {released[spec.id]!r}")
    return released

