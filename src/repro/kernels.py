"""The convolution and pooling kernels: ndarrays in, a fresh ndarray out.

No ``Tensor``, no dispatch — :mod:`repro.functional` (eager and every tier
that executes it, the ``"trt"`` backend's engines included) and the
quantized reference conv are thin callers of these functions, so there is
one forward implementation of each op and every tier computes the same
bits.

**conv2d** is one GEMM per call.  The input is zero-padded by slice
assignment, its windows are gathered once into ``col`` of shape
``(K, N*OH*OW)`` with ``K = C/groups * KH * KW`` (stride and dilation are
strides of the gathered view; a 1x1 kernel has nothing to gather, only a
strided slice to reshape), and ``weight.reshape(F, K) @ col`` — the weight
side a free view, the batch folded into the GEMM's free dimension so the
weights are read once per call — yields ``(F, N*OH*OW)``.  That is already
NCHW when ``N == 1``; otherwise one pass transposes it into place, and the
bias add rides on whichever applies.  ``W2d @ col`` and not
``col.T @ W2d.T``: for the 4–256-column products ResNet-50 makes of a small
image, BLAS streams the large operand (the weights) row-major once and
writes the output in the layout it is returned in.

**max_pool2d / avg_pool2d** reduce the ``KH*KW`` shifted strided slices of
the once-padded input into one output with ``np.maximum`` / ``np.add``;
**adaptive_avg_pool2d** is a reshape and a mean when the grid divides.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["conv2d", "max_pool2d", "avg_pool2d", "adaptive_avg_pool2d"]

#: the GEMM every convolution goes through (tests count calls through it)
matmul = np.matmul


def _out_size(size: int, kernel: int, stride: int, dilation: int, what: str) -> int:
    """Windows that fit along one padded axis; a view is only ever built
    from a positive count, which is what keeps it inside the buffer."""
    out = (size - ((kernel - 1) * dilation + 1)) // stride + 1
    if out <= 0:
        raise ValueError(
            f"{what}: kernel {kernel} with dilation {dilation} does not fit "
            f"the padded input size {size}")
    return out


def _padded(x: np.ndarray, ph: int, pw: int, fill=0) -> np.ndarray:
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    xp = np.full((n, c, h + 2 * ph, w + 2 * pw), fill, dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def conv2d(x, weight, bias, stride, padding, dilation, groups) -> np.ndarray:
    """2-D cross-correlation of NCHW *x* with ``(F, C/groups, KH, KW)``
    *weight*; *stride*, *padding*, *dilation* are pairs.  Accumulates in the
    operands' promoted dtype (int32 operands stay exact) and returns a
    fresh C-contiguous ``(N, F, OH, OW)`` array of *x*'s dtype."""
    (sh, sw), (ph, pw), (dh, dw) = stride, padding, dilation
    n, c, h, w = x.shape
    f, cg, kh, kw = weight.shape
    if c % groups or f % groups:
        raise ValueError(f"channels ({c}) and filters ({f}) must divide groups ({groups})")
    if cg != c // groups:
        raise ValueError(
            f"weight expects {cg} input channels/group but input has {c // groups}")
    oh = _out_size(h + 2 * ph, kh, sh, dh, "conv2d height")
    ow = _out_size(w + 2 * pw, kw, sw, dw, "conv2d width")
    length = n * oh * ow
    xp = _padded(x, ph, pw)
    if kh == kw == 1:
        col = xp[:, :, ::sh, ::sw].transpose(1, 0, 2, 3).reshape(c, length)
    else:
        sn, sc, sy, sx = xp.strides
        col = np.empty((c * kh * kw, length), dtype=xp.dtype)
        np.copyto(col.reshape(c, kh, kw, n, oh, ow), as_strided(
            xp, (c, kh, kw, n, oh, ow),
            (sc, dh * sy, dw * sx, sn, sh * sy, sw * sx), writeable=False))
    k = cg * kh * kw
    if groups == 1:
        acc = matmul(weight.reshape(f, k), col)
    else:
        acc = matmul(weight.reshape(groups, f // groups, k),
                     col.reshape(groups, k, length))
    acc = acc.reshape(f, n, oh * ow).transpose(1, 0, 2)     # (N, F, OH*OW)
    out = acc if n == 1 and acc.dtype == x.dtype else \
        np.empty((n, f, oh * ow), dtype=x.dtype)
    if bias is not None:
        np.add(acc, bias.reshape(1, f, 1), out=out, casting="unsafe")
    elif out is not acc:
        np.copyto(out, acc, casting="unsafe")
    return out.reshape(n, f, oh, ow)


def _pool(x, kernel, stride, padding, reduce, fill, dtype=None) -> np.ndarray:
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    n, c, h, w = x.shape
    oh = _out_size(h + 2 * ph, kh, sh, 1, "pool height")
    ow = _out_size(w + 2 * pw, kw, sw, 1, "pool width")
    xp = _padded(x, ph, pw, fill)
    out = None
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i:i + (oh - 1) * sh + 1:sh, j:j + (ow - 1) * sw + 1:sw]
            if out is None:
                out = window.astype(dtype or x.dtype)     # always a copy
            else:
                reduce(out, window, out=out)
    return out


def max_pool2d(x, kernel, stride, padding) -> np.ndarray:
    """Max over ``kernel`` windows; padding never wins (``-inf``, or the
    smallest integer)."""
    floating = np.issubdtype(x.dtype, np.floating)
    return _pool(x, kernel, stride, padding, np.maximum,
                 -np.inf if floating else np.iinfo(x.dtype).min)


def avg_pool2d(x, kernel, stride, padding, count_include_pad=True) -> np.ndarray:
    """Mean over ``kernel`` windows, of *x*'s dtype; with
    ``count_include_pad=False`` each window is divided by the number of
    its cells that lie inside the unpadded input."""
    total = _pool(x, kernel, stride, padding, np.add, 0,
                  np.result_type(x.dtype, np.float32))
    count = kernel[0] * kernel[1]
    if not count_include_pad and any(padding):
        inside = np.ones((1, 1) + x.shape[2:], dtype=total.dtype)
        count = np.maximum(_pool(inside, kernel, stride, padding, np.add, 0), 1)
    np.divide(total, count, out=total)
    return total.astype(x.dtype, copy=False)


def adaptive_avg_pool2d(x, output_size) -> np.ndarray:
    """Mean over the ``output_size`` grid of cells that tiles the input."""
    oh, ow = output_size
    n, c, h, w = x.shape
    if h % oh == 0 and w % ow == 0:
        return x.reshape(n, c, oh, h // oh, ow, w // ow).mean(axis=(3, 5))
    # General case: per-output-cell means over torch's index intervals, in
    # the dtype a mean has (an integer input averages to float64, as above).
    out = np.empty((n, c, oh, ow), dtype=np.mean(x[:1, :1, :1, :1]).dtype)
    for i in range(oh):
        h0, h1 = (i * h) // oh, -(-((i + 1) * h) // oh)
        for j in range(ow):
            w0, w1 = (j * w) // ow, -(-((j + 1) * w) // ow)
            out[:, :, i, j] = x[:, :, h0:h1, w0:w1].mean(axis=(2, 3))
    return out
