"""``repro.quant`` — FX graph-mode quantization (§6.2.1, Figure 6).

Post-training quantization built on the fx IR: observers, qconfigs, the
prepare/calibrate/convert workflow, and int8 kernels with exact-integer and
float-simulated execution modes.
"""

from .kernels import (
    QTensor,
    choose_qparams,
    dequantize,
    qadd,
    qlinear,
    qrelu,
    quantize_per_tensor,
)
from .observer import (
    HistogramObserver,
    MinMaxObserver,
    MovingAverageMinMaxObserver,
    ObserverBase,
)
from .qconfig import QConfig, default_qconfig, histogram_qconfig
from .kernels import PerChannelQTensor, qconv2d, quantize_per_channel
from .qmodules import (
    DeQuantize,
    Quantize,
    QuantizedConv2d,
    QuantizedLinear,
    QuantizedLinearReLU,
    QuantizedReLU,
)
from .quantize_fx import convert_fx, prepare_fx, quantize_static

__all__ = [
    "DeQuantize",
    "PerChannelQTensor",
    "QuantizedConv2d",
    "QuantizedLinearReLU",
    "qconv2d",
    "quantize_per_channel",
    "HistogramObserver",
    "MinMaxObserver",
    "MovingAverageMinMaxObserver",
    "ObserverBase",
    "QConfig",
    "QTensor",
    "Quantize",
    "QuantizedLinear",
    "QuantizedReLU",
    "choose_qparams",
    "convert_fx",
    "default_qconfig",
    "dequantize",
    "histogram_qconfig",
    "prepare_fx",
    "qadd",
    "qlinear",
    "qrelu",
    "quantize_per_tensor",
    "quantize_static",
]
