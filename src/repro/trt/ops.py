"""Backend kernels for the TensorRT-like engine (§6.4).

These operate on *raw numpy arrays* — the engine deliberately executes
outside the framework's Tensor/dispatch machinery, the same way TensorRT
executes outside PyTorch's op dispatch.  Each builder returns a closure
specialized ahead-of-time to the op's hyperparameters (weights resolved).
Convolution and pooling run the same :mod:`repro.kernels` the eager
substrate runs — kernel selection is not what the engine adds.  Its
speedup comes from:

* **operator fusion**: bias, residual-add and ReLU are folded into the
  producing kernel's epilogue, removing whole tensor read/write passes;
* **no dispatch**: no ``__tensor_function__`` protocol scan, no Module
  ``__call__`` chain — just a flat list of closures over ndarrays.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..fx.opinfo import TABLE

__all__ = [
    "build_conv2d",
    "build_linear",
    "build_batch_norm",
    "build_max_pool2d",
    "build_avg_pool2d",
    "build_adaptive_avg_pool2d",
    "build_elementwise",
    "build_add",
    "build_flatten",
    "build_reshape",
    "ELEMENTWISE_KINDS",
]


def build_conv2d(
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: tuple[int, int],
    padding: tuple[int, int],
    dilation: tuple[int, int],
    groups: int,
    fuse_relu: bool = False,
):
    """AOT-specialized conv2d: the shared kernel over weights bound at
    build time, ReLU applied in place on its (fresh) output."""

    def conv(x: np.ndarray) -> np.ndarray:
        out = kernels.conv2d(x, weight, bias, stride, padding, dilation, groups)
        if fuse_relu:
            np.maximum(out, 0, out=out)
        return out

    return conv


def build_linear(weight: np.ndarray, bias: np.ndarray | None, fuse_relu: bool = False):
    """AOT linear: pre-transposed weight, bias/ReLU in the epilogue."""
    w_t = np.ascontiguousarray(weight.T)

    def linear(x: np.ndarray) -> np.ndarray:
        out = x @ w_t
        if bias is not None:
            out += bias
        if fuse_relu:
            np.maximum(out, 0, out=out)
        return out

    return linear


def build_batch_norm(mean, var, gamma, beta, eps: float):
    """Inference BN folded to a single scale+shift (used only when the
    lowering pipeline was run without conv-bn fusion)."""
    scale = (gamma if gamma is not None else 1.0) / np.sqrt(var + eps)
    shift = (beta if beta is not None else 0.0) - mean * scale
    scale = scale.reshape(1, -1, 1, 1).astype(np.float32)
    shift = shift.reshape(1, -1, 1, 1).astype(np.float32)

    def bn(x: np.ndarray) -> np.ndarray:
        return x * scale + shift

    return bn


def build_max_pool2d(kernel_size, stride, padding):
    def max_pool(x: np.ndarray) -> np.ndarray:
        return kernels.max_pool2d(x, kernel_size, stride, padding)

    return max_pool


def build_avg_pool2d(kernel_size, stride, padding):
    def avg_pool(x: np.ndarray) -> np.ndarray:
        return kernels.avg_pool2d(x, kernel_size, stride, padding)

    return avg_pool


def build_adaptive_avg_pool2d(output_size):
    def adaptive(x: np.ndarray) -> np.ndarray:
        return kernels.adaptive_avg_pool2d(x, output_size)

    return adaptive


#: The elementwise ops the engine lowers, by their key in the op table
#: (:mod:`repro.fx.opinfo`), whose kernel it runs: ndarray in, ndarray out,
#: eager's numerics bit for bit.
ELEMENTWISE_KINDS = ("relu", "sigmoid", "tanh", "selu", "gelu", "neg", "identity")


def build_elementwise(kind: str):
    if kind == "identity":
        return lambda x: x
    return TABLE[kind].pointwise.ref


def build_add(fuse_relu: bool = False):
    def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = a + b
        if fuse_relu:
            np.maximum(out, 0, out=out)
        return out

    return add


def build_flatten(start_dim: int):
    def flatten(x: np.ndarray) -> np.ndarray:
        lead = x.shape[:start_dim]
        return x.reshape(lead + (-1,))

    return flatten


def build_conv_transpose2d(weight: np.ndarray, bias: np.ndarray | None,
                           stride: tuple[int, int], padding: tuple[int, int],
                           output_padding: tuple[int, int],
                           fuse_relu: bool = False):
    """AOT transposed convolution: kernel pre-flipped and re-laid-out once."""
    c_in, f, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    oph, opw = output_padding
    w_flipped = np.ascontiguousarray(
        weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    )  # (F, C, KH, KW)
    inner = build_conv2d(w_flipped, bias, (1, 1), (0, 0), (1, 1), 1,
                         fuse_relu=fuse_relu)

    def conv_t(x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        hs, ws = (h - 1) * sh + 1, (w - 1) * sw + 1
        stuffed = np.zeros((n, c, hs, ws), dtype=x.dtype)
        stuffed[:, :, ::sh, ::sw] = x
        stuffed = np.pad(
            stuffed,
            ((0, 0), (0, 0),
             (kh - 1 - ph, kh - 1 - ph + oph), (kw - 1 - pw, kw - 1 - pw + opw)),
        )
        return inner(stuffed)

    return conv_t


def build_upsample_nearest(scale_factor):
    """Nearest-neighbour upsampling with cached index tables per shape."""
    fh, fw = (scale_factor if isinstance(scale_factor, (tuple, list))
              else (scale_factor, scale_factor))
    cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def upsample(x: np.ndarray) -> np.ndarray:
        h, w = x.shape[2], x.shape[3]
        key = (h, w)
        idx = cache.get(key)
        if idx is None:
            oh, ow = int(h * fh), int(w * fw)
            rows = np.minimum((np.arange(oh) * (h / oh)).astype(np.int64), h - 1)
            cols = np.minimum((np.arange(ow) * (w / ow)).astype(np.int64), w - 1)
            idx = (rows, cols)
            cache[key] = idx
        rows, cols = idx
        return np.ascontiguousarray(x[:, :, rows[:, None], cols[None, :]])

    return upsample


def build_reshape(shape: tuple):
    """Static reshape (ints, -1 allowed)."""

    def reshape(x: np.ndarray) -> np.ndarray:
        return x.reshape(shape)

    return reshape
