"""Weight initialization schemes (subset of ``torch.nn.init``)."""

from __future__ import annotations

import math

import numpy as np

from ..tensor import Tensor
from ..tensor.creation import get_rng

__all__ = [
    "uniform_",
    "normal_",
    "kaiming_uniform_",
    "calculate_fan_in_and_fan_out",
]


def calculate_fan_in_and_fan_out(t: Tensor) -> tuple[int, int]:
    """Fan-in/out for Linear (2-D) and ConvNd (>=3-D) weights."""
    if t.ndim < 2:
        raise ValueError("fan in/out undefined for tensors with fewer than 2 dims")
    receptive = int(np.prod(t.shape[2:], initial=1))
    fan_in = t.shape[1] * receptive
    fan_out = t.shape[0] * receptive
    return fan_in, fan_out


def uniform_(t: Tensor, a: float = 0.0, b: float = 1.0) -> Tensor:
    t.data[...] = get_rng().uniform(a, b, size=t.data.shape).astype(t.data.dtype)
    return t


def normal_(t: Tensor, mean: float = 0.0, std: float = 1.0) -> Tensor:
    t.data[...] = get_rng().normal(mean, std, size=t.data.shape).astype(t.data.dtype)
    return t


def kaiming_uniform_(t: Tensor, a: float = math.sqrt(5)) -> Tensor:
    fan_in, _ = calculate_fan_in_and_fan_out(t)
    gain = math.sqrt(2.0 / (1 + a * a))
    bound = gain * math.sqrt(3.0 / fan_in)
    return uniform_(t, -bound, bound)
