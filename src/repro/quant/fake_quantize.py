"""Fake quantization for Quantization-Aware Training (§6.2.1).

"The process for Quantization-Aware Training is analogous to phases (1)
and (2) ... but with 'fake quantize' observers that snap floating point
values to the corresponding values under quantized numerics."

A :class:`FakeQuantize` module observes like an observer but its forward
*also* rounds the value through the quantized grid, so downstream layers
see quantization error before :func:`~repro.quant.convert_fx` makes it real.
"""

from __future__ import annotations

from ..nn import Module
from ..tensor import Tensor, dispatchable, quint8
from .kernels import dequantize, quantize_per_tensor
from .observer import MovingAverageMinMaxObserver, ObserverBase

__all__ = ["FakeQuantize", "fake_quantize_per_tensor"]


@dispatchable
def fake_quantize_per_tensor(x, scale: float, zero_point: int, dtype=quint8):
    """Quantize-dequantize round trip as a single dispatchable op (fx
    tracing records it as one node)."""
    return dequantize(quantize_per_tensor(x, scale, zero_point, dtype))


class FakeQuantize(Module):
    """Observer + quantize-dequantize round trip.

    Attributes:
        observer: the wrapped statistics collector.
        fake_quant_enabled: when False, acts as a plain observer (useful
            for the usual QAT schedule: observe first, snap later).
    """

    def __init__(self, observer: ObserverBase | None = None):
        super().__init__()
        self.observer = observer if observer is not None else MovingAverageMinMaxObserver()
        self.fake_quant_enabled = True

    def enable_fake_quant(self, enabled: bool = True) -> None:
        self.fake_quant_enabled = enabled

    def forward(self, x):
        self.observer(x)    # the module call, so its NaN filter applies
        if not self.fake_quant_enabled or not isinstance(x, Tensor):
            return x
        scale, zp = self.observer.calculate_qparams()
        return fake_quantize_per_tensor(x, scale, zp, self.observer.dtype)

    def calculate_qparams(self) -> tuple[float, int]:
        return self.observer.calculate_qparams()

    def extra_repr(self) -> str:
        return f"enabled={self.fake_quant_enabled}"
