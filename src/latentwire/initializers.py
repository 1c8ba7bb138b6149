"""Weight initialization."""

from __future__ import annotations

import numpy as np


def _fans(shape):
    if len(shape) == 4:  # conv (K, K, C_in, F)
        k, _, c, f = shape
        return k * k * c, k * k * f
    return shape[0], shape[1]  # dense (N, M)


def glorot_limit(shape):
    """L = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(tuple(shape))
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def glorot_uniform(shape, rng):
    """float32 uniform on [-L, L] with L = glorot_limit(shape)."""
    limit = glorot_limit(shape)
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)
