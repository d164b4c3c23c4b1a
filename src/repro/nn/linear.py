"""Dense layers: ``Linear``, ``Identity``, ``Flatten``."""

from __future__ import annotations

import math

from .. import functional as F
from ..tensor import zeros
from . import init
from .module import Module
from .parameter import Parameter

__all__ = ["Flatten", "Identity", "Linear"]


class Linear(Module):
    """``y = x @ W.T + b`` with ``W`` of shape ``(out_features, in_features)``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(zeros(out_features, in_features))
        if bias:
            self.bias = Parameter(zeros(out_features))
        else:
            self.register_parameter("bias", None)
        self.reset_parameters()

    def reset_parameters(self) -> None:
        init.kaiming_uniform_(self.weight, a=math.sqrt(5))
        if self.bias is not None:
            fan_in, _ = init.calculate_fan_in_and_fan_out(self.weight)
            bound = 1 / math.sqrt(fan_in) if fan_in > 0 else 0
            init.uniform_(self.bias, -bound, bound)

    def forward(self, x):
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        return (
            f"in_features={self.in_features}, out_features={self.out_features}, "
            f"bias={self.bias is not None}"
        )


class Identity(Module):
    """Pass-through module (handy as a fusion placeholder)."""

    def forward(self, x):
        return x


class Flatten(Module):
    """Flattens dims ``start_dim..end_dim`` (default: all but batch)."""

    def __init__(self, start_dim: int = 1, end_dim: int = -1):
        super().__init__()
        self.start_dim = start_dim
        self.end_dim = end_dim

    def forward(self, x):
        return F.flatten(x, self.start_dim, self.end_dim)

    def extra_repr(self) -> str:
        return f"start_dim={self.start_dim}, end_dim={self.end_dim}"
