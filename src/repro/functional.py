"""Free tensor functions (the substrate's ``torch.*`` / ``torch.nn.functional``).

Every public function here is declared :func:`~repro.tensor.dispatch.dispatchable`,
which makes it interceptable through the ``__tensor_function__`` protocol.
That interception is exactly how :class:`repro.fx.Proxy` records a
``call_function`` node during symbolic tracing — the same role
``__torch_function__`` plays for torch.fx.

Implementations are vectorized numpy (no Python loops over elements);
convolution and pooling are thin callers of :mod:`repro.kernels` (one GEMM
per convolution, pooling as shifted-slice reductions), which is what makes
the eager substrate fast enough to benchmark real models (ResNet-50 etc.).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .tensor import Tensor, dispatchable
from .tensor.tensor import _unwrap

__all__ = [
    "add", "sub", "mul", "div", "matmul", "mm", "bmm", "neg", "pow",
    "exp", "log", "sqrt", "rsqrt", "abs", "sin", "cos", "erf", "sign",
    "clamp", "round", "floor", "where", "maximum", "minimum",
    "relu", "relu6", "leaky_relu", "elu", "selu", "gelu", "silu", "mish",
    "sigmoid", "tanh", "hardtanh", "hardsigmoid", "hardswish",
    "softmax", "log_softmax", "softplus",
    "linear", "conv2d", "conv1d", "conv_transpose2d", "interpolate",
    "batch_norm", "layer_norm", "group_norm",
    "max_pool2d", "avg_pool2d", "adaptive_avg_pool2d",
    "dropout", "embedding", "one_hot",
    "cat", "stack", "flatten", "reshape", "transpose", "permute", "squeeze",
    "unsqueeze", "pad", "chunk", "split",
    "sum", "mean", "var", "amax", "amin", "argmax", "cumsum", "topk",
    "allclose", "equal",
]


def _pair(v) -> tuple[int, int]:
    """Normalize an int-or-pair convolution hyperparameter."""
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ValueError(f"expected an int or a pair, got {v!r}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


# ---------------------------------------------------------------------------
# pointwise arithmetic
# ---------------------------------------------------------------------------


@dispatchable
def add(a, b, *, alpha=1):
    """Elementwise ``a + alpha * b`` with broadcasting."""
    bu = _unwrap(b)
    if alpha != 1:
        bu = np.asarray(bu) * alpha
    return Tensor._wrap(np.asarray(np.add(_unwrap(a), bu)))


@dispatchable
def sub(a, b):
    return Tensor._wrap(np.asarray(np.subtract(_unwrap(a), _unwrap(b))))


@dispatchable
def mul(a, b):
    return Tensor._wrap(np.asarray(np.multiply(_unwrap(a), _unwrap(b))))


@dispatchable
def div(a, b):
    return Tensor._wrap(np.asarray(np.true_divide(_unwrap(a), _unwrap(b))))


@dispatchable
def neg(a):
    return Tensor._wrap(-_unwrap(a))


@dispatchable
def pow(a, exponent):  # noqa: A001 - mirrors torch.pow
    return Tensor._wrap(np.asarray(np.power(_unwrap(a), _unwrap(exponent))))


@dispatchable
def matmul(a, b):
    return Tensor._wrap(np.matmul(_unwrap(a), _unwrap(b)))


@dispatchable
def addmm(bias, a, b):
    """``a @ b + bias`` as one call (torch-style fused matmul-add).

    Computed exactly as matmul-then-add, so rewriting
    ``matmul(a, b) + bias`` into ``addmm(bias, a, b)`` is bit-exact.
    """
    return Tensor._wrap(
        np.asarray(np.add(np.matmul(_unwrap(a), _unwrap(b)), _unwrap(bias))))


@dispatchable
def mm(a, b):
    a, b = _unwrap(a), _unwrap(b)
    if a.ndim != 2 or b.ndim != 2:
        raise RuntimeError("mm expects 2-D operands")
    return Tensor._wrap(a @ b)


@dispatchable
def bmm(a, b):
    a, b = _unwrap(a), _unwrap(b)
    if a.ndim != 3 or b.ndim != 3:
        raise RuntimeError("bmm expects 3-D operands")
    return Tensor._wrap(np.matmul(a, b))


@dispatchable
def exp(a):
    return Tensor._wrap(np.exp(_unwrap(a)))


@dispatchable
def log(a):
    return Tensor._wrap(np.log(_unwrap(a)))


@dispatchable
def sqrt(a):
    return Tensor._wrap(np.sqrt(_unwrap(a)))


@dispatchable
def rsqrt(a):
    return Tensor._wrap(1.0 / np.sqrt(_unwrap(a)))


@dispatchable
def abs(a):  # noqa: A001 - mirrors torch.abs
    return Tensor._wrap(np.abs(_unwrap(a)))


@dispatchable
def sin(a):
    return Tensor._wrap(np.sin(_unwrap(a)))


@dispatchable
def cos(a):
    return Tensor._wrap(np.cos(_unwrap(a)))


@dispatchable
def sign(a):
    return Tensor._wrap(np.sign(_unwrap(a)))


def _into(kernel, dtype, x, *operands, **params) -> Tensor:
    """Eager's half of a :mod:`repro.kernels` activation: allocate the
    result (in *dtype*, or *x*'s), let the kernel write it, wrap it."""
    x, operands = np.asarray(_unwrap(x)), [_unwrap(v) for v in operands]
    shape = np.broadcast_shapes(x.shape, *map(np.shape, operands)) if operands else x.shape
    out = np.empty(shape, x.dtype if dtype is None else dtype)
    kernel(out, x, *operands, **params)
    return Tensor._wrap(out)


@dispatchable
def erf(a):
    if not isinstance(a, (Tensor, np.ndarray)):   # a Python number: a float32 tensor
        a = Tensor(np.asarray(a))
    return _into(kernels.erf, None, a)


@dispatchable
def clamp(a, min=None, max=None):  # noqa: A002 - mirrors torch.clamp
    return Tensor._wrap(np.clip(_unwrap(a), min, max))


@dispatchable
def round(a):  # noqa: A001
    return Tensor._wrap(np.round(_unwrap(a)))


@dispatchable
def floor(a):
    return Tensor._wrap(np.floor(_unwrap(a)))


@dispatchable
def where(cond, a, b):
    return _into(kernels.where, np.result_type(_unwrap(a), _unwrap(b)), cond, a, b)


@dispatchable
def maximum(a, b):
    return Tensor._wrap(np.maximum(_unwrap(a), _unwrap(b)))


@dispatchable
def minimum(a, b):
    return Tensor._wrap(np.minimum(_unwrap(a), _unwrap(b)))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


@dispatchable
def relu(x):
    """Rectified linear unit: ``max(x, 0)``."""
    return Tensor._wrap(np.maximum(_unwrap(x), 0))


@dispatchable
def relu6(x):
    return Tensor._wrap(np.clip(_unwrap(x), 0, 6))


@dispatchable
def leaky_relu(x, negative_slope: float = 0.01):
    return _into(kernels.leaky_relu, np.result_type(_unwrap(x), negative_slope), x,
                 negative_slope=negative_slope)


@dispatchable
def elu(x, alpha: float = 1.0):
    return _into(kernels.elu, None, x, alpha=alpha)


@dispatchable
def selu(x):
    return _into(kernels.selu, None, x)


@dispatchable
def gelu(x):
    """Gaussian error linear unit (exact erf form)."""
    return _into(kernels.gelu, None, x)


@dispatchable
def silu(x):
    return _into(kernels.silu, None, x)


@dispatchable
def mish(x):
    return _into(kernels.mish, None, x)


@dispatchable
def sigmoid(x):
    floating = np.issubdtype(np.result_type(_unwrap(x)), np.floating)
    return _into(kernels.sigmoid, None if floating else np.float32, x)


@dispatchable
def tanh(x):
    return Tensor._wrap(np.tanh(_unwrap(x)))


@dispatchable
def hardtanh(x, min_val: float = -1.0, max_val: float = 1.0):
    return Tensor._wrap(np.clip(_unwrap(x), min_val, max_val))


@dispatchable
def hardsigmoid(x):
    return _into(kernels.hardsigmoid, np.result_type(_unwrap(x), 6.0), x)


@dispatchable
def hardswish(x):
    return _into(kernels.hardswish, np.result_type(_unwrap(x), 6.0), x)


@dispatchable
def softplus(x, beta: float = 1.0):
    return _into(kernels.softplus, None, x, beta=beta)


@dispatchable
def softmax(x, dim: int = -1):
    xu = np.asarray(_unwrap(x))
    shifted = xu - np.max(xu, axis=dim, keepdims=True)
    e = np.exp(shifted)
    return Tensor._wrap(e / np.sum(e, axis=dim, keepdims=True))


@dispatchable
def log_softmax(x, dim: int = -1):
    xu = np.asarray(_unwrap(x))
    shifted = xu - np.max(xu, axis=dim, keepdims=True)
    return Tensor._wrap(shifted - np.log(np.sum(np.exp(shifted), axis=dim, keepdims=True)))


# ---------------------------------------------------------------------------
# dense layers
# ---------------------------------------------------------------------------


@dispatchable
def linear(x, weight, bias=None):
    """``x @ weight.T + bias`` — the dense layer primitive."""
    out = np.matmul(_unwrap(x), _unwrap(weight).T)
    if bias is not None:
        out = out + _unwrap(bias)
    return Tensor._wrap(out)


@dispatchable
def conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1, groups: int = 1):
    """2-D cross-correlation over NCHW input (:func:`repro.kernels.conv2d`).

    Args:
        x: input of shape ``(N, C, H, W)``.
        weight: filters of shape ``(F, C // groups, KH, KW)``.
        bias: optional ``(F,)``.
        stride/padding/dilation: int or pair.
        groups: channel groups (``C`` and ``F`` both divisible by it).
    """
    return Tensor._wrap(kernels.conv2d(
        np.asarray(_unwrap(x)), np.asarray(_unwrap(weight)),
        None if bias is None else np.asarray(_unwrap(bias)),
        _pair(stride), _pair(padding), _pair(dilation), groups))


@dispatchable
def conv1d(x, weight, bias=None, stride=1, padding=0, dilation=1, groups: int = 1):
    """1-D convolution implemented by lifting to :func:`conv2d`."""
    x3 = Tensor._wrap(np.asarray(_unwrap(x))[:, :, :, None])
    w3 = Tensor._wrap(np.asarray(_unwrap(weight))[:, :, :, None])
    out = conv2d(
        x3, w3, bias,
        stride=(int(stride), 1), padding=(int(padding), 0),
        dilation=(int(dilation), 1), groups=groups,
    )
    return Tensor._wrap(out.data[:, :, :, 0])


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dispatchable
def batch_norm(
    x, running_mean, running_var, weight=None, bias=None,
    training: bool = False, momentum: float = 0.1, eps: float = 1e-5,
):
    """Batch normalization over the channel dimension (dim 1).

    In training mode uses batch statistics and updates the running buffers
    in place (the stateful behaviour §5.6 notes is hidden inside BatchNorm
    modules); in eval mode uses the running statistics.
    """
    xu = np.asarray(_unwrap(x))
    reduce_axes = (0,) + tuple(range(2, xu.ndim))
    shape = [1, xu.shape[1]] + [1] * (xu.ndim - 2)
    if training:
        mean = xu.mean(axis=reduce_axes)
        var = xu.var(axis=reduce_axes)
        if running_mean is not None:
            n = xu.size / xu.shape[1]
            unbiased = var * n / max(n - 1, 1)
            rm, rv = _unwrap(running_mean), _unwrap(running_var)
            rm *= 1 - momentum
            rm += momentum * mean
            rv *= 1 - momentum
            rv += momentum * unbiased
    else:
        mean = np.asarray(_unwrap(running_mean))
        var = np.asarray(_unwrap(running_var))
    out = (xu - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + eps)
    if weight is not None:
        out = out * np.asarray(_unwrap(weight)).reshape(shape)
    if bias is not None:
        out = out + np.asarray(_unwrap(bias)).reshape(shape)
    return Tensor._wrap(out.astype(xu.dtype))


@dispatchable
def layer_norm(x, normalized_shape, weight=None, bias=None, eps: float = 1e-5):
    xu = np.asarray(_unwrap(x))
    if isinstance(normalized_shape, int):
        normalized_shape = (normalized_shape,)
    axes = tuple(range(xu.ndim - len(normalized_shape), xu.ndim))
    mean = xu.mean(axis=axes, keepdims=True)
    var = xu.var(axis=axes, keepdims=True)
    out = (xu - mean) / np.sqrt(var + eps)
    if weight is not None:
        out = out * np.asarray(_unwrap(weight))
    if bias is not None:
        out = out + np.asarray(_unwrap(bias))
    return Tensor._wrap(out.astype(xu.dtype))


@dispatchable
def group_norm(x, num_groups: int, weight=None, bias=None, eps: float = 1e-5):
    xu = np.asarray(_unwrap(x))
    n, c = xu.shape[:2]
    if c % num_groups:
        raise ValueError(f"channels {c} not divisible by groups {num_groups}")
    grouped = xu.reshape(n, num_groups, c // num_groups, *xu.shape[2:])
    axes = tuple(range(2, grouped.ndim))
    mean = grouped.mean(axis=axes, keepdims=True)
    var = grouped.var(axis=axes, keepdims=True)
    out = ((grouped - mean) / np.sqrt(var + eps)).reshape(xu.shape)
    shape = [1, c] + [1] * (xu.ndim - 2)
    if weight is not None:
        out = out * np.asarray(_unwrap(weight)).reshape(shape)
    if bias is not None:
        out = out + np.asarray(_unwrap(bias)).reshape(shape)
    return Tensor._wrap(out.astype(xu.dtype))


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


@dispatchable
def max_pool2d(x, kernel_size, stride=None, padding=0):
    kernel = _pair(kernel_size)
    return Tensor._wrap(kernels.max_pool2d(
        np.asarray(_unwrap(x)), kernel,
        kernel if stride is None else _pair(stride), _pair(padding)))


@dispatchable
def avg_pool2d(x, kernel_size, stride=None, padding=0, count_include_pad: bool = True):
    kernel = _pair(kernel_size)
    return Tensor._wrap(kernels.avg_pool2d(
        np.asarray(_unwrap(x)), kernel,
        kernel if stride is None else _pair(stride), _pair(padding),
        count_include_pad))


@dispatchable
def adaptive_avg_pool2d(x, output_size):
    """Average pooling to a fixed output spatial size (as in ResNet heads)."""
    return Tensor._wrap(kernels.adaptive_avg_pool2d(
        np.asarray(_unwrap(x)), _pair(output_size)))


# ---------------------------------------------------------------------------
# regularization & sparse
# ---------------------------------------------------------------------------


@dispatchable
def dropout(x, p: float = 0.5, training: bool = True):
    if not training or p == 0.0:
        return x if isinstance(x, Tensor) else Tensor._wrap(np.asarray(_unwrap(x)))
    from .tensor.creation import get_rng

    xu = np.asarray(_unwrap(x))
    mask = get_rng().random(xu.shape) >= p
    return Tensor._wrap((xu * mask / (1.0 - p)).astype(xu.dtype))


@dispatchable
def embedding(indices, weight):
    """Look up rows of *weight* by integer *indices*."""
    return Tensor._wrap(np.asarray(_unwrap(weight))[np.asarray(_unwrap(indices))])


@dispatchable
def one_hot(indices, num_classes: int):
    idx = np.asarray(_unwrap(indices))
    out = np.zeros(idx.shape + (num_classes,), dtype=np.int64)
    np.put_along_axis(out, idx[..., None], 1, axis=-1)
    return Tensor._wrap(out)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


@dispatchable
def cat(tensors, dim: int = 0):
    return Tensor._wrap(np.concatenate([np.asarray(_unwrap(t)) for t in tensors], axis=dim))


@dispatchable
def stack(tensors, dim: int = 0):
    return Tensor._wrap(np.stack([np.asarray(_unwrap(t)) for t in tensors], axis=dim))


@dispatchable
def flatten(x, start_dim: int = 0, end_dim: int = -1):
    if isinstance(x, Tensor):
        return x.flatten(start_dim, end_dim)
    return Tensor._wrap(np.asarray(_unwrap(x))).flatten(start_dim, end_dim)


@dispatchable
def reshape(x, shape):
    return Tensor._wrap(np.asarray(_unwrap(x)).reshape(tuple(shape)))


@dispatchable
def transpose(x, dim0: int, dim1: int):
    return Tensor._wrap(np.swapaxes(np.asarray(_unwrap(x)), dim0, dim1))


@dispatchable
def permute(x, dims):
    return Tensor._wrap(np.transpose(np.asarray(_unwrap(x)), tuple(dims)))


@dispatchable
def squeeze(x, dim=None):
    xu = np.asarray(_unwrap(x))
    return Tensor._wrap(np.squeeze(xu) if dim is None else np.squeeze(xu, axis=dim))


@dispatchable
def unsqueeze(x, dim: int):
    return Tensor._wrap(np.expand_dims(np.asarray(_unwrap(x)), axis=dim))


@dispatchable
def pad(x, padding, mode: str = "constant", value: float = 0.0):
    """Pad the *last* dimensions, torch-style: ``padding`` is
    ``(left_lastdim, right_lastdim, left_prevdim, right_prevdim, ...)``."""
    xu = np.asarray(_unwrap(x))
    if len(padding) % 2:
        raise ValueError("padding must have an even number of entries")
    pairs = [(0, 0)] * xu.ndim
    for i in range(len(padding) // 2):
        pairs[xu.ndim - 1 - i] = (padding[2 * i], padding[2 * i + 1])
    if mode == "constant":
        return Tensor._wrap(np.pad(xu, pairs, constant_values=value))
    return Tensor._wrap(np.pad(xu, pairs, mode=mode))


@dispatchable
def chunk(x, chunks: int, dim: int = 0):
    return tuple(
        Tensor._wrap(p) for p in np.array_split(np.asarray(_unwrap(x)), chunks, axis=dim)
    )


@dispatchable
def split(x, split_size: int, dim: int = 0):
    xu = np.asarray(_unwrap(x))
    points = list(range(split_size, xu.shape[dim], split_size))
    return tuple(Tensor._wrap(p) for p in np.split(xu, points, axis=dim))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


@dispatchable
def sum(x, dim=None, keepdim: bool = False):  # noqa: A001
    return Tensor._wrap(np.asarray(np.sum(_unwrap(x), axis=dim, keepdims=keepdim)))


@dispatchable
def mean(x, dim=None, keepdim: bool = False):
    return Tensor._wrap(np.asarray(np.mean(_unwrap(x), axis=dim, keepdims=keepdim)))


@dispatchable
def var(x, dim=None, unbiased: bool = True, keepdim: bool = False):
    return Tensor._wrap(
        np.asarray(np.var(_unwrap(x), axis=dim, ddof=1 if unbiased else 0, keepdims=keepdim))
    )


@dispatchable
def amax(x, dim=None, keepdim: bool = False):
    return Tensor._wrap(np.asarray(np.max(_unwrap(x), axis=dim, keepdims=keepdim)))


@dispatchable
def amin(x, dim=None, keepdim: bool = False):
    return Tensor._wrap(np.asarray(np.min(_unwrap(x), axis=dim, keepdims=keepdim)))


@dispatchable
def argmax(x, dim=None, keepdim: bool = False):
    out = np.argmax(np.asarray(_unwrap(x)), axis=dim)
    if keepdim and dim is not None:
        out = np.expand_dims(out, axis=dim)
    return Tensor._wrap(np.asarray(out))


@dispatchable
def cumsum(x, dim: int):
    return Tensor._wrap(np.cumsum(np.asarray(_unwrap(x)), axis=dim))


@dispatchable
def topk(x, k: int, dim: int = -1):
    """Top-k values and indices along *dim* (values sorted descending)."""
    xu = np.asarray(_unwrap(x))
    idx = np.argsort(-xu, axis=dim)
    idx = np.take(idx, np.arange(k), axis=dim)
    vals = np.take_along_axis(xu, idx, axis=dim)
    return Tensor._wrap(vals), Tensor._wrap(idx)


# ---------------------------------------------------------------------------
# comparison utilities (not dispatchable: used for testing, not tracing)
# ---------------------------------------------------------------------------


def allclose(a, b, rtol: float = 1e-5, atol: float = 1e-6) -> bool:
    return bool(np.allclose(np.asarray(_unwrap(a)), np.asarray(_unwrap(b)), rtol=rtol, atol=atol))


def equal(a, b) -> bool:
    return bool(np.array_equal(np.asarray(_unwrap(a)), np.asarray(_unwrap(b))))


# ---------------------------------------------------------------------------
# extensions: transposed convolution & spatial resampling
# ---------------------------------------------------------------------------


@dispatchable
def conv_transpose2d(x, weight, bias=None, stride=1, padding=0, output_padding=0):
    """2-D transposed convolution (fractionally-strided convolution).

    Args:
        x: input of shape ``(N, C, H, W)``.
        weight: filters of shape ``(C, F, KH, KW)`` (torch layout: input
            channels first).
        stride/padding/output_padding: int or pair.

    Output spatial size: ``(H - 1) * stride - 2 * padding + KH + output_padding``.

    Implemented as zero-stuffing the input by the stride, then running an
    ordinary correlation with the spatially-flipped kernel.
    """
    xu = np.asarray(_unwrap(x))
    wu = np.asarray(_unwrap(weight))
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    oph, opw = _pair(output_padding)
    n, c, h, w = xu.shape
    c_w, f, kh, kw = wu.shape
    if c != c_w:
        raise ValueError(f"input has {c} channels but weight expects {c_w}")
    # zero-stuff: place inputs stride apart
    hs = (h - 1) * sh + 1
    ws = (w - 1) * sw + 1
    stuffed = np.zeros((n, c, hs, ws), dtype=xu.dtype)
    stuffed[:, :, ::sh, ::sw] = xu
    # correlate with flipped kernel; conv_transpose padding p becomes
    # correlation padding (k - 1 - p); output_padding extends the
    # bottom/right correlation window (revealing more of the scatter),
    # which requires asymmetric padding of the stuffed input
    stuffed = np.pad(
        stuffed,
        ((0, 0), (0, 0),
         (kh - 1 - ph, kh - 1 - ph + oph), (kw - 1 - pw, kw - 1 - pw + opw)),
    )
    w_flipped = wu[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (F, C, KH, KW)
    return Tensor._wrap(kernels.conv2d(
        stuffed, w_flipped, None if bias is None else np.asarray(_unwrap(bias)),
        (1, 1), (0, 0), (1, 1), 1))


@dispatchable
def interpolate(x, size=None, scale_factor=None, mode: str = "nearest"):
    """Spatial resampling of NCHW inputs (``nearest`` or ``bilinear``).

    Exactly one of *size* (pair) or *scale_factor* must be given.
    Bilinear uses ``align_corners=False`` semantics (torch default).
    """
    xu = np.asarray(_unwrap(x))
    n, c, h, w = xu.shape
    if (size is None) == (scale_factor is None):
        raise ValueError("specify exactly one of size / scale_factor")
    if size is not None:
        oh, ow = _pair(size)
    else:
        fh, fw = _pair(scale_factor) if isinstance(scale_factor, (tuple, list)) \
            else (scale_factor, scale_factor)
        oh, ow = int(h * fh), int(w * fw)
    if mode == "nearest":
        rows = np.minimum((np.arange(oh) * (h / oh)).astype(np.int64), h - 1)
        cols = np.minimum((np.arange(ow) * (w / ow)).astype(np.int64), w - 1)
        return Tensor._wrap(np.ascontiguousarray(xu[:, :, rows[:, None], cols[None, :]]))
    if mode == "bilinear":
        # align_corners=False: src = (dst + 0.5) * (in/out) - 0.5
        ys = np.clip((np.arange(oh) + 0.5) * (h / oh) - 0.5, 0, h - 1)
        xs = np.clip((np.arange(ow) + 0.5) * (w / ow) - 0.5, 0, w - 1)
        y0 = np.floor(ys).astype(np.int64)
        x0 = np.floor(xs).astype(np.int64)
        y1 = np.minimum(y0 + 1, h - 1)
        x1 = np.minimum(x0 + 1, w - 1)
        wy = (ys - y0).astype(xu.dtype)[:, None]
        wx = (xs - x0).astype(xu.dtype)[None, :]
        tl = xu[:, :, y0[:, None], x0[None, :]]
        tr = xu[:, :, y0[:, None], x1[None, :]]
        bl = xu[:, :, y1[:, None], x0[None, :]]
        br = xu[:, :, y1[:, None], x1[None, :]]
        top = tl * (1 - wx) + tr * wx
        bot = bl * (1 - wx) + br * wx
        return Tensor._wrap(np.ascontiguousarray(top * (1 - wy) + bot * wy))
    raise ValueError(f"unsupported interpolation mode {mode!r}")
