"""Quantized tensor representation and kernels (the FBGEMM stand-in).

Implements per-tensor affine quantization:

    q = clamp(round(x / scale) + zero_point, qmin, qmax)
    x ≈ (q - zero_point) * scale

Activations use unsigned ``quint8`` (affine, zero_point free), weights use
signed symmetric ``qint8`` (zero_point = 0), matching the FBGEMM
convention the paper benchmarks.

Two execution paths are provided for the linear kernel:

* ``reference`` — exact integer arithmetic: int32-accumulated integer
  matmul followed by requantization.  Bit-faithful to a real int8 engine,
  but slow in numpy (no int8 BLAS exists there).
* ``fast`` — numerically equivalent float simulation: the integer
  operands are converted to float and multiplied with BLAS, then
  requantized.  Up to float rounding (~1e-3 relative) it matches the
  reference path; it is what examples and large benches run.

The *performance* of a real int8 engine is reproduced separately via the
hardware-simulation cost model (see ``benchmarks/bench_quantization.py``
and EXPERIMENTS.md) — numpy simply has no fast integer GEMM to measure.
"""

from __future__ import annotations

import numpy as np

from ..kernels import conv2d as _conv2d
from ..tensor import Tensor, qint8, quint8
from ..tensor.dtype import DType

__all__ = [
    "PerChannelQTensor",
    "QTensor",
    "qconv2d",
    "quantize_per_channel",
    "choose_qparams",
    "quantize_per_tensor",
    "dequantize",
    "qlinear",
    "qrelu",
    "qadd",
]

_QRANGE = {qint8: (-128, 127), quint8: (0, 255)}


class QTensor:
    """A quantized tensor: integer payload + (scale, zero_point).

    Not a :class:`~repro.tensor.Tensor` subclass on purpose: quantized
    values only support the quantized kernel set, and accidental mixing
    with float ops should fail loudly.
    """

    __slots__ = ("data", "scale", "zero_point", "dtype")

    def __init__(self, data: np.ndarray, scale: float, zero_point: int, dtype: DType):
        if dtype not in _QRANGE:
            raise TypeError(f"not a quantized dtype: {dtype}")
        self.data = np.asarray(data, dtype=dtype.np_dtype)
        self.scale = float(scale)
        self.zero_point = int(zero_point)
        self.dtype = dtype

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numel(self) -> int:
        return int(self.data.size)

    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def dequantize(self) -> Tensor:
        return dequantize(self)

    def int_repr(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return (
            f"QTensor(shape={tuple(self.data.shape)}, scale={self.scale:.6g}, "
            f"zero_point={self.zero_point}, dtype={self.dtype.name})"
        )


def choose_qparams(
    min_val: float, max_val: float, dtype: DType = quint8, symmetric: bool = False
) -> tuple[float, int]:
    """Compute (scale, zero_point) covering ``[min_val, max_val]``.

    The range is widened to include 0 (so zero is exactly representable,
    a requirement for zero-padding correctness), and degenerate ranges get
    scale 1 to avoid division by zero.
    """
    qmin, qmax = _QRANGE[dtype]
    min_val = min(float(min_val), 0.0)
    max_val = max(float(max_val), 0.0)
    if symmetric:
        bound = max(abs(min_val), abs(max_val))
        scale = bound / ((qmax - qmin) / 2) if bound > 0 else 1.0
        if scale == 0.0 or not np.isfinite(1.0 / scale):  # denormal range
            scale = 1.0
        zero_point = 0 if dtype is qint8 else (qmax + qmin + 1) // 2
        return scale, zero_point
    if max_val == min_val:
        return 1.0, 0 if dtype is qint8 else qmin
    scale = (max_val - min_val) / (qmax - qmin)
    if scale == 0.0 or not np.isfinite(scale) or not np.isfinite(1.0 / scale):
        # denormal or degenerate range: fall back to unit scale
        return 1.0, 0 if dtype is qint8 else qmin
    zero_point = int(round(qmin - min_val / scale))
    zero_point = max(qmin, min(qmax, zero_point))
    return scale, zero_point


def quantize_per_tensor(
    x: Tensor, scale: float, zero_point: int, dtype: DType = quint8
) -> QTensor:
    """Quantize a float tensor with the given parameters."""
    qmin, qmax = _QRANGE[dtype]
    # divide in float64: float32 flushes denormal scales to zero (NaNs)
    q = np.round(np.asarray(x.data, dtype=np.float64) / scale) + zero_point
    q = np.clip(q, qmin, qmax)
    return QTensor(q, scale, zero_point, dtype)


def dequantize(q: QTensor) -> Tensor:
    """Recover the float approximation of a quantized tensor."""
    return Tensor(
        ((q.data.astype(np.float32) - q.zero_point) * q.scale).astype(np.float32)
    )


def qlinear(
    qx: QTensor,
    qw: QTensor,
    bias: Tensor | None,
    out_scale: float,
    out_zero_point: int,
    mode: str = "fast",
) -> QTensor:
    """Quantized ``y = x @ W.T + b`` with requantized uint8 output.

    Args:
        qx: quantized activation (``quint8``).
        qw: symmetric quantized weight (``qint8``, zero_point 0).
        bias: float bias (folded in at the int32 accumulator, as FBGEMM
            does with bias pre-scaled by ``sx*sw``).
        out_scale / out_zero_point: requantization parameters from the
            output observer.
        mode: ``"reference"`` (exact int32 accumulation) or ``"fast"``
            (float-simulated, numerically equivalent up to rounding).
    """
    if qw.zero_point != 0:
        raise ValueError("weights must be symmetrically quantized (zero_point 0)")
    sx, sw = qx.scale, qw.scale
    if mode == "reference":
        x_i32 = qx.data.astype(np.int32) - np.int32(qx.zero_point)
        w_i32 = qw.data.astype(np.int32)
        acc = x_i32 @ w_i32.T  # exact int32 accumulation
        acc = acc.astype(np.float64) * (sx * sw)
        if bias is not None:
            acc = acc + bias.data.astype(np.float64)
    else:
        x_f = (qx.data.astype(np.float32) - np.float32(qx.zero_point)) * np.float32(sx)
        w_f = qw.data.astype(np.float32) * np.float32(sw)
        acc = x_f @ w_f.T
        if bias is not None:
            acc = acc + bias.data
    q = np.round(acc / out_scale) + out_zero_point
    qmin, qmax = _QRANGE[quint8]
    return QTensor(np.clip(q, qmin, qmax), out_scale, out_zero_point, quint8)


def qrelu(qx: QTensor) -> QTensor:
    """ReLU in the quantized domain: clamp at the zero point (free — no
    dequantization needed, scale and zero_point are preserved)."""
    return QTensor(
        np.maximum(qx.data, np.asarray(qx.zero_point, dtype=qx.data.dtype)),
        qx.scale, qx.zero_point, qx.dtype,
    )


def qadd(qa: QTensor, qb: QTensor, out_scale: float, out_zero_point: int) -> QTensor:
    """Quantized elementwise add with output requantization."""
    a = (qa.data.astype(np.float32) - qa.zero_point) * qa.scale
    b = (qb.data.astype(np.float32) - qb.zero_point) * qb.scale
    q = np.round((a + b) / out_scale) + out_zero_point
    qmin, qmax = _QRANGE[quint8]
    return QTensor(np.clip(q, qmin, qmax), out_scale, out_zero_point, quint8)


# ---------------------------------------------------------------------------
# extensions: per-channel weight quantization and quantized convolution
# ---------------------------------------------------------------------------


class PerChannelQTensor:
    """Weight tensor quantized with one (scale) per output channel.

    Per-channel (axis-0) symmetric quantization is FBGEMM's default for
    weights: each output channel gets its own scale, cutting weight
    quantization error roughly by the spread of per-channel magnitudes.
    """

    __slots__ = ("data", "scales", "axis", "dtype")

    def __init__(self, data: np.ndarray, scales: np.ndarray, axis: int = 0,
                 dtype: DType = qint8):
        if dtype is not qint8:
            raise TypeError("per-channel quantization is weight-only (qint8)")
        self.data = np.asarray(data, dtype=dtype.np_dtype)
        self.scales = np.asarray(scales, dtype=np.float64)
        self.axis = axis
        self.dtype = dtype

    @property
    def shape(self):
        return self.data.shape

    def numel(self) -> int:
        return int(self.data.size)

    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def dequantize(self) -> Tensor:
        shape = [1] * self.data.ndim
        shape[self.axis] = -1
        return Tensor(
            (self.data.astype(np.float32) * self.scales.reshape(shape).astype(np.float32))
        )

    def __repr__(self) -> str:
        return (
            f"PerChannelQTensor(shape={tuple(self.data.shape)}, "
            f"channels={len(self.scales)}, axis={self.axis})"
        )


def quantize_per_channel(w: Tensor, axis: int = 0) -> PerChannelQTensor:
    """Symmetric per-channel (default: output-channel) int8 quantization."""
    data = np.asarray(w.data, dtype=np.float32)
    moved = np.moveaxis(data, axis, 0).reshape(data.shape[axis], -1)
    bounds = np.abs(moved).max(axis=1)
    scales = np.where(bounds > 0, bounds / 127.0, 1.0)
    shape = [1] * data.ndim
    shape[axis] = -1
    q = np.clip(np.round(data / scales.reshape(shape)), -127, 127)
    return PerChannelQTensor(q, scales, axis)


def qconv2d(
    qx: QTensor,
    qw: "QTensor | PerChannelQTensor",
    bias: Tensor | None,
    stride,
    padding,
    out_scale: float,
    out_zero_point: int,
    mode: str = "fast",
) -> QTensor:
    """Quantized 2-D convolution with requantized quint8 output.

    ``mode="fast"`` computes the numerically-equivalent float simulation
    (dequantized operands through the float conv kernel); ``"reference"``
    runs the same kernel on int32 operands (exact accumulation). Weights
    may be per-tensor (:class:`QTensor`) or per-channel
    (:class:`PerChannelQTensor`).
    """
    from .. import functional as F

    if isinstance(qw, PerChannelQTensor):
        w_float = qw.dequantize()
    else:
        if qw.zero_point != 0:
            raise ValueError("weights must be symmetrically quantized")
        w_float = dequantize(qw)

    if mode == "reference":
        x_i32 = qx.data.astype(np.int32) - np.int32(qx.zero_point)
        acc = _conv2d(  # int32 operands: exact accumulation
            x_i32, qw.data.astype(np.int32), None,
            F._pair(stride), F._pair(padding), (1, 1), 1).astype(np.float64)
        if isinstance(qw, PerChannelQTensor):
            acc *= (qx.scale * qw.scales).reshape(1, -1, 1, 1)
        else:
            acc *= qx.scale * qw.scale
        if bias is not None:
            acc += bias.data.reshape(1, -1, 1, 1)
        out = acc
    else:
        x_float = dequantize(qx)
        out = F.conv2d(x_float, w_float, bias, stride=stride, padding=padding).data
    q = np.round(out / out_scale) + out_zero_point
    qmin, qmax = _QRANGE[quint8]
    return QTensor(np.clip(q, qmin, qmax), out_scale, out_zero_point, quint8)
