"""Quantized modules installed by ``convert_fx`` (§6.2.1, phase 3)."""

from __future__ import annotations

from ..nn import Linear, Module
from ..tensor import Tensor, qint8
from .kernels import QTensor, dequantize, qlinear, qrelu, quantize_per_tensor
from .observer import ObserverBase

__all__ = ["Quantize", "DeQuantize", "QuantizedConv2d", "QuantizedLinear",
           "QuantizedLinearReLU", "QuantizedReLU"]


class Quantize(Module):
    """Float -> QTensor boundary, with baked-in scale/zero_point."""

    def __init__(self, scale: float, zero_point: int):
        super().__init__()
        self.scale = scale
        self.zero_point = zero_point

    def forward(self, x: Tensor) -> QTensor:
        return quantize_per_tensor(x, self.scale, self.zero_point)

    def extra_repr(self) -> str:
        return f"scale={self.scale:.6g}, zero_point={self.zero_point}"


class DeQuantize(Module):
    """QTensor -> float boundary."""

    def forward(self, q: QTensor) -> Tensor:
        return dequantize(q)


class QuantizedLinear(Module):
    """Linear layer with int8 weights and quantized activations.

    Holds the down-cast weight (``qint8``, symmetric) and the output
    requantization parameters collected during calibration.  The weight
    down-cast is the "collected statistics are used to down-cast weight
    values" step of §6.2.1; the output scale/zero-point is the "embedded
    scale and zero-point information".
    """

    def __init__(self, in_features: int, out_features: int, qweight: QTensor,
                 bias: Tensor | None, out_scale: float, out_zero_point: int,
                 mode: str = "fast"):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.qweight = qweight
        self.bias_tensor = bias
        self.out_scale = out_scale
        self.out_zero_point = out_zero_point
        self.mode = mode

    @classmethod
    def from_float(
        cls,
        linear: Linear,
        weight_observer: ObserverBase,
        out_scale: float,
        out_zero_point: int,
        mode: str = "fast",
    ) -> "QuantizedLinear":
        """Down-cast a float Linear using calibrated statistics."""
        weight_observer.observe(linear.weight)
        w_scale, w_zp = weight_observer.calculate_qparams()
        assert w_zp == 0, "weights must be symmetric"
        qw = quantize_per_tensor(linear.weight, w_scale, 0, qint8)
        return cls(
            linear.in_features, linear.out_features, qw,
            linear.bias, out_scale, out_zero_point, mode=mode,
        )

    def forward(self, qx: QTensor) -> QTensor:
        if not isinstance(qx, QTensor):
            raise TypeError(
                "QuantizedLinear expects a QTensor input; was a Quantize "
                "boundary node dropped from the graph?"
            )
        return qlinear(qx, self.qweight, self.bias_tensor,
                       self.out_scale, self.out_zero_point, mode=self.mode)

    def weight_nbytes(self) -> int:
        return self.qweight.nbytes()

    def extra_repr(self) -> str:
        return (
            f"in_features={self.in_features}, out_features={self.out_features}, "
            f"out_scale={self.out_scale:.6g}, out_zero_point={self.out_zero_point}, "
            f"mode={self.mode}"
        )


class QuantizedReLU(Module):
    """ReLU over quantized values (clamp at zero_point, qparams preserved)."""

    def forward(self, qx: QTensor) -> QTensor:
        return qrelu(qx)


class QuantizedConv2d(Module):
    """Conv2d with int8 weights (per-tensor or per-channel) and quantized
    activations — the FBGEMM quantized conv analogue."""

    def __init__(self, conv_params: dict, qweight, bias: Tensor | None,
                 out_scale: float, out_zero_point: int, mode: str = "fast"):
        super().__init__()
        self.stride = conv_params["stride"]
        self.padding = conv_params["padding"]
        self.in_channels = conv_params["in_channels"]
        self.out_channels = conv_params["out_channels"]
        self.kernel_size = conv_params["kernel_size"]
        self.qweight = qweight
        self.bias_tensor = bias
        self.out_scale = out_scale
        self.out_zero_point = out_zero_point
        self.mode = mode

    @classmethod
    def from_float(cls, conv, out_scale: float, out_zero_point: int,
                   mode: str = "fast") -> "QuantizedConv2d":
        from .kernels import quantize_per_channel

        if any(d != 1 for d in _as_pair(conv.dilation)) or conv.groups != 1:
            raise ValueError("quantized conv supports dilation=1, groups=1")
        qw = quantize_per_channel(conv.weight, axis=0)
        params = {
            "stride": conv.stride, "padding": conv.padding,
            "in_channels": conv.in_channels, "out_channels": conv.out_channels,
            "kernel_size": conv.kernel_size,
        }
        return cls(params, qw, conv.bias, out_scale, out_zero_point, mode=mode)

    def forward(self, qx: QTensor) -> QTensor:
        from .kernels import qconv2d

        if not isinstance(qx, QTensor):
            raise TypeError("QuantizedConv2d expects a QTensor input")
        return qconv2d(qx, self.qweight, self.bias_tensor, self.stride,
                       self.padding, self.out_scale, self.out_zero_point,
                       mode=self.mode)

    def weight_nbytes(self) -> int:
        return self.qweight.nbytes()

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"out_scale={self.out_scale:.6g}"
        )


class QuantizedLinearReLU(QuantizedLinear):
    """Linear + ReLU fused in the quantized domain.

    The ReLU costs nothing extra: it is a clamp at the output zero-point
    applied during requantization (the standard FBGEMM fused epilogue).
    """

    def forward(self, qx: QTensor) -> QTensor:
        from .kernels import qrelu

        return qrelu(super().forward(qx))

    @classmethod
    def from_quantized_linear(cls, qlin: QuantizedLinear) -> "QuantizedLinearReLU":
        fused = cls.__new__(cls)
        Module.__init__(fused)
        fused.in_features = qlin.in_features
        fused.out_features = qlin.out_features
        fused.qweight = qlin.qweight
        fused.bias_tensor = qlin.bias_tensor
        fused.out_scale = qlin.out_scale
        fused.out_zero_point = qlin.out_zero_point
        fused.mode = qlin.mode
        return fused


def _as_pair(v):
    return v if isinstance(v, (tuple, list)) else (v, v)
