"""Parameter initialisation schemes.

A thin numpy Xavier/Glorot initialiser, the one the reference layers
(``Linear``, the Elman cells) use.  It takes an explicit
``numpy.random.Generator`` so the 10-seed experiment protocol of the
paper is exactly reproducible.

All draws are *generated* in float64 (a fixed generation dtype keeps
the random streams identical across precision policies) and then cast
once to the active policy's compute dtype — a no-op under the default
float64 policy.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..autograd.precision import compute_dtype

__all__ = ["xavier_uniform"]


def _fans(shape: Sequence[int]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight of the given shape."""
    if len(shape) < 1:
        raise ValueError("shape must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = int(shape[0])
    return fan_in, fan_out


def xavier_uniform(shape: Sequence[int], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform initialisation: U(-a, a), a = gain * sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = _fans(shape)
    a = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=tuple(shape)).astype(compute_dtype(), copy=False)
