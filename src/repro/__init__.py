"""repro — a from-scratch reproduction of torch.fx (MLSys 2022).

The top-level namespace mirrors the parts of ``torch`` that the paper's
examples use: tensor factories (``repro.randn``), free tensor functions
(``repro.relu``, ``repro.cat``, …), the ``nn`` module system, and the
``fx`` capture/transform library::

    import repro
    from repro.fx import symbolic_trace

    def f(x):
        return repro.relu(x).neg()

    traced = symbolic_trace(f)
    print(traced.code)

``import repro`` loads what trace -> compile -> forward calls; ``jit``,
``quant``, ``trt``, ``bench`` and ``models`` load when first read.
"""

from . import functional
from . import tensor as _tensor_pkg  # noqa: F401
from .tensor import (
    DType, Size, Tensor,
    arange, as_tensor, bool_, empty, eye, float16, float32, float64, full,
    int8, int16, int32, int64, linspace, manual_seed, ones, ones_like,
    promote_types, qint8, quint8, rand, randint, randn, randn_like, tensor,
    uint8, zeros, zeros_like,
)

# torch-style free functions at the top level (torch.relu, torch.cat, ...)
from .functional import (
    abs, add, allclose, amax, amin, argmax, bmm, cat, chunk, clamp, cos,
    cumsum, div, equal, erf, exp, flatten, floor, gelu, log, log_softmax,
    matmul, maximum, mean, minimum, mm, mul, neg, permute, pow, relu,
    reshape, round, rsqrt, sigmoid, sign, sin, softmax, split, sqrt,
    squeeze, stack, sub, sum, tanh, topk, transpose, unsqueeze, var, where,
)

from . import nn  # noqa: E402
from . import fx  # noqa: E402
from . import _lazy  # noqa: E402
__getattr__, __dir__ = _lazy.attach(__name__, {
    name: name for name in ("bench", "jit", "models", "quant", "trt")})

__version__ = "0.1.0"
