"""Tests for conv1d/conv2d and the shared kernel core (``repro.kernels``)
against brute-force and scipy references."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import correlate2d

import repro
import repro.functional as F
from repro import kernels


def conv2d_reference(x, w, b, stride, padding, dilation, groups):
    """Brute-force cross-correlation (loops; trusted reference)."""
    n, c, h, wd = x.shape
    f, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - ((kh - 1) * dh + 1)) // sh + 1
    ow = (wd + 2 * pw - ((kw - 1) * dw + 1)) // sw + 1
    out = np.zeros((n, f, oh, ow), dtype=np.float64)
    cpg, fpg = c // groups, f // groups
    for ni in range(n):
        for fi in range(f):
            g = fi // fpg
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(cpg):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[ni, g * cpg + ci, oi * sh + ki * dh, oj * sw + kj * dw]
                                    * w[fi, ci, ki, kj]
                                )
                    out[ni, fi, oi, oj] = acc + (b[fi] if b is not None else 0.0)
    return out


@pytest.mark.parametrize(
    "stride,padding,dilation,groups",
    [
        ((1, 1), (0, 0), (1, 1), 1),
        ((2, 2), (1, 1), (1, 1), 1),
        ((1, 2), (2, 1), (1, 1), 1),
        ((1, 1), (1, 1), (2, 2), 1),
        ((1, 1), (1, 1), (1, 1), 2),
        ((2, 1), (0, 2), (2, 1), 1),
    ],
)
def test_conv2d_against_bruteforce(stride, padding, dilation, groups):
    repro.manual_seed(7)
    x = repro.randn(2, 4, 9, 8)
    w = repro.randn(6, 4 // groups, 3, 3)
    b = repro.randn(6)
    got = F.conv2d(x, w, b, stride=stride, padding=padding,
                   dilation=dilation, groups=groups)
    ref = conv2d_reference(x.data, w.data, b.data, stride, padding, dilation, groups)
    assert got.shape == ref.shape
    assert np.allclose(got.data, ref, atol=1e-4)


def test_conv2d_against_scipy_single_channel():
    x = repro.randn(1, 1, 12, 12)
    w = repro.randn(1, 1, 3, 3)
    got = F.conv2d(x, w)
    ref = correlate2d(x.data[0, 0], w.data[0, 0], mode="valid")
    assert np.allclose(got.data[0, 0], ref, atol=1e-4)


def test_conv2d_1x1_is_channel_mix():
    x = repro.randn(2, 3, 5, 5)
    w = repro.randn(4, 3, 1, 1)
    got = F.conv2d(x, w)
    ref = np.einsum("nchw,fc->nfhw", x.data, w.data[:, :, 0, 0])
    assert np.allclose(got.data, ref, atol=1e-5)


def test_conv2d_int_hyperparams():
    x = repro.randn(1, 2, 6, 6)
    w = repro.randn(3, 2, 3, 3)
    a = F.conv2d(x, w, stride=2, padding=1)
    b = F.conv2d(x, w, stride=(2, 2), padding=(1, 1))
    assert np.array_equal(a.data, b.data)


def test_conv2d_output_shape_formula():
    x = repro.randn(1, 3, 224, 224)
    w = repro.randn(64, 3, 7, 7)
    out = F.conv2d(x, w, stride=2, padding=3)
    assert out.shape == (1, 64, 112, 112)


def test_conv2d_group_mismatch_raises():
    with pytest.raises(ValueError):
        F.conv2d(repro.randn(1, 3, 4, 4), repro.randn(4, 3, 1, 1), groups=2)


def test_conv2d_channel_mismatch_raises():
    with pytest.raises(ValueError):
        F.conv2d(repro.randn(1, 4, 4, 4), repro.randn(4, 3, 1, 1))


def test_conv1d_matches_conv2d_lift():
    x = repro.randn(2, 3, 16)
    w = repro.randn(5, 3, 4)
    b = repro.randn(5)
    got = F.conv1d(x, w, b, stride=2, padding=1)
    # reference via manual loop
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1)))
    oh = (16 + 2 - 4) // 2 + 1
    ref = np.zeros((2, 5, oh))
    for ni in range(2):
        for fi in range(5):
            for oi in range(oh):
                ref[ni, fi, oi] = (
                    xp[ni, :, oi * 2 : oi * 2 + 4] * w.data[fi]
                ).sum() + b.data[fi]
    assert np.allclose(got.data, ref, atol=1e-4)


def test_linear_matches_numpy():
    x, w, b = repro.randn(4, 8), repro.randn(3, 8), repro.randn(3)
    got = F.linear(x, w, b)
    assert np.allclose(got.data, x.data @ w.data.T + b.data, atol=1e-5)


def test_linear_no_bias():
    x, w = repro.randn(4, 8), repro.randn(3, 8)
    assert np.allclose(F.linear(x, w).data, x.data @ w.data.T, atol=1e-5)


def test_linear_batched_leading_dims():
    x, w = repro.randn(2, 5, 8), repro.randn(3, 8)
    assert F.linear(x, w).shape == (2, 5, 3)


# ---------------------------------------------------------------------------
# the shared kernel core (repro.kernels): grid, exactness, freshness, work
# ---------------------------------------------------------------------------

GRID = list(itertools.product(
    [(1, 1), (2, 2), (1, 2)],            # stride
    [(0, 0), (1, 1), (2, 1)],            # padding
    [(1, 1), (2, 2), (1, 2)],            # dilation
    [1, 2, 4],                           # groups (4 == C: depthwise)
))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("stride,padding,dilation,groups", GRID)
def test_conv2d_grid(stride, padding, dilation, groups, n):
    """Eager against brute force, with and without bias."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((n, 4, 9, 8)).astype(np.float32)
    w = rng.standard_normal((8, 4 // groups, 3, 3)).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    for bias in (b, None):
        got = F.conv2d(repro.Tensor(x), repro.Tensor(w),
                       None if bias is None else repro.Tensor(bias),
                       stride=stride, padding=padding, dilation=dilation,
                       groups=groups).data
        ref = conv2d_reference(x, w, bias, stride, padding, dilation, groups)
        assert got.shape == ref.shape and got.dtype == np.float32
        assert np.allclose(got, ref, atol=1e-4)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize(
    "c,f,k,stride,padding,hw",
    [
        (6, 5, (1, 1), (2, 2), (0, 0), (7, 6)),    # 1x1, stride 2
        (6, 5, (1, 1), (1, 1), (1, 2), (4, 5)),    # 1x1, padded
        (3, 4, (5, 6), (1, 1), (1, 1), (3, 4)),    # kernel == padded input
        (3, 4, (2, 3), (3, 1), (0, 2), (8, 5)),    # asymmetric everything
    ],
)
def test_conv2d_corner_shapes(c, f, k, stride, padding, hw, n):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, c) + hw)                  # float64
    w = rng.standard_normal((f, c) + k)
    b = rng.standard_normal(f)
    got = kernels.conv2d(x, w, b, stride, padding, (1, 1), 1)
    ref = conv2d_reference(x, w, b, stride, padding, (1, 1), 1)
    assert got.dtype == np.float64 and got.shape == ref.shape
    assert np.allclose(got, ref, atol=1e-10)


def test_conv2d_non_contiguous_input():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
    nhwc = rng.standard_normal((2, 7, 6, 3)).astype(np.float32)
    wide = rng.standard_normal((2, 8, 7, 6)).astype(np.float32)
    for x in (nhwc.transpose(0, 3, 1, 2), wide[:, 1:7:2]):
        assert not x.flags.c_contiguous
        got = kernels.conv2d(x, w, None, (1, 1), (1, 1), (1, 1), 1)
        same = kernels.conv2d(np.ascontiguousarray(x), w, None,
                              (1, 1), (1, 1), (1, 1), 1)
        assert np.array_equal(got, same)
        assert np.allclose(
            got, conv2d_reference(x, w, None, (1, 1), (1, 1), (1, 1), 1), atol=1e-4)


@pytest.mark.parametrize("groups", [1, 2])
def test_conv2d_int32_is_exact(groups):
    rng = np.random.default_rng(3)
    x = rng.integers(-128, 128, (3, 4, 6, 7)).astype(np.int32)
    w = rng.integers(-127, 128, (6, 4 // groups, 3, 2)).astype(np.int32)
    b = rng.integers(-1000, 1000, 6).astype(np.int32)
    got = kernels.conv2d(x, w, b, (2, 1), (1, 1), (1, 2), groups)
    ref = conv2d_reference(x.astype(np.int64), w.astype(np.int64), b,
                           (2, 1), (1, 1), (1, 2), groups)
    assert got.dtype == np.int32
    assert np.array_equal(got, ref)


def _qconv_case():
    from repro.quant import qconv2d
    from repro.quant.kernels import PerChannelQTensor, QTensor
    from repro.tensor import qint8, quint8

    qx = QTensor((np.arange(2 * 4 * 7 * 6) * 37 % 256).reshape(2, 4, 7, 6),
                 0.021, 119, quint8)
    wq = ((np.arange(5 * 4 * 3 * 3) * 11) % 255 - 127).reshape(5, 4, 3, 3)
    bias = repro.Tensor(np.linspace(-1, 1, 5).astype(np.float32))
    per_tensor = QTensor(wq, 0.013, 0, qint8)
    per_channel = PerChannelQTensor(wq, np.linspace(0.005, 0.02, 5))
    return [qconv2d(qx, qw, bias, 2, (1, 2), 0.37, 128, mode="reference")
            for qw in (per_tensor, per_channel)], qx, wq, bias


def test_qconv2d_reference_unchanged():
    """The quantized reference conv now runs the shared kernel on int32
    operands: its output is the one the int32 im2col it replaced gave
    (digests taken at the parent commit), and the accumulator is exact."""
    (per_tensor, per_channel), qx, wq, bias = _qconv_case()
    digests = [hashlib.sha256(q.data.tobytes()).hexdigest()[:16]
               for q in (per_tensor, per_channel)]
    assert digests == ["4def914baf4295e9", "a593bcbf5ff4a87c"]
    acc = conv2d_reference(qx.data.astype(np.int64) - 119, wq.astype(np.int64),
                           None, (2, 2), (1, 2), (1, 1), 1)
    want = np.clip(np.round(
        (acc * (0.021 * 0.013) + bias.data.reshape(1, -1, 1, 1)) / 0.37) + 128,
        0, 255)
    assert np.array_equal(per_tensor.data, want)


def test_conv2d_output_is_fresh():
    """Alias analysis assumes a conv output is new
    memory: C-contiguous, writeable, sharing nothing with its operands."""
    rng = np.random.default_rng(0)
    b = rng.standard_normal(4).astype(np.float32)
    for n, k, stride, padding in [(1, 1, 1, 0), (1, 1, 2, 0), (2, 1, 1, 0),
                                  (1, 3, 1, 1), (2, 3, 2, 0), (1, 5, 1, 0)]:
        x = rng.standard_normal((n, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 4, k, k)).astype(np.float32)
        for bias in (None, b):
            out = kernels.conv2d(x, w, bias, (stride,) * 2, (padding,) * 2,
                                 (1, 1), 1)
            assert out.flags.c_contiguous and out.flags.writeable
            assert not any(np.shares_memory(out, a) for a in (x, w, b))
            assert out.strides == np.empty(out.shape, out.dtype).strides


def test_window_that_does_not_fit_raises():
    x = np.zeros((1, 2, 4, 4), np.float32)
    w = np.zeros((3, 2, 3, 3), np.float32)
    with pytest.raises(ValueError, match=r"kernel 3 with dilation 2 .* size 4"):
        kernels.conv2d(x, w, None, (1, 1), (0, 0), (2, 2), 1)
    with pytest.raises(ValueError, match=r"kernel 3 with dilation 1 .* size 2"):
        F.conv2d(repro.Tensor(x[:, :, :2]), repro.Tensor(w))
    with pytest.raises(ValueError, match=r"kernel 7 with dilation 1 .* size 6"):
        F.max_pool2d(repro.Tensor(x), 7, 1, 1)
    with pytest.raises(ValueError, match="kernel 5"):
        F.avg_pool2d(repro.Tensor(x), (2, 5))


# -- pooling


POOL_GRID = [(k, s, p) for k in [(2, 2), (3, 3), (3, 2), (1, 1)]
             for s in [(1, 1), (2, 2), (2, 1), (3, 3)]
             for p in [(0, 0), (1, 1), (1, 0)]
             if p[0] <= k[0] // 2 and p[1] <= k[1] // 2]


def _pool_windows(x, k, s, p, fill):
    xp = np.pad(x, ((0, 0), (0, 0), (p[0],) * 2, (p[1],) * 2), constant_values=fill)
    return sliding_window_view(xp, k, axis=(2, 3))[:, :, ::s[0], ::s[1]]


@pytest.mark.parametrize("dtype", [repro.float32, repro.float64, repro.int32])
@pytest.mark.parametrize("k,s,p", POOL_GRID)
def test_max_pool2d_grid(k, s, p, dtype):
    rng = np.random.default_rng(8)
    x = (rng.standard_normal((3, 4, 9, 8)) * 50).astype(dtype.np_dtype)
    lowest = np.iinfo(np.int32).min if dtype is repro.int32 else -np.inf
    ref = _pool_windows(x, k, s, p, lowest).max(axis=(-2, -1))
    got = F.max_pool2d(repro.Tensor(x, dtype=dtype), k, s, p).data
    assert got.dtype == x.dtype and np.array_equal(got, ref)
    assert got.flags.c_contiguous and not np.shares_memory(got, x)


def test_max_pool2d_padding_never_wins():
    """Padding is -inf, not the most negative finite float."""
    x = np.full((1, 1, 4, 4), -np.inf, dtype=np.float32)
    assert np.all(F.max_pool2d(repro.Tensor(x), 3, 2, 1).data == -np.inf)


@pytest.mark.parametrize("k,s,p", POOL_GRID)
def test_avg_pool2d_grid(k, s, p):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4, 9, 8)).astype(np.float32)
    total = _pool_windows(x.astype(np.float64), k, s, p, 0).sum(axis=(-2, -1))
    got = F.avg_pool2d(repro.Tensor(x), k, s, p).data
    assert got.dtype == np.float32
    assert np.allclose(got, total / (k[0] * k[1]), atol=1e-6)
    # count_include_pad=False: the mean over the cells inside the input
    valid = _pool_windows(np.ones((1, 1, 9, 8)), k, s, p, 0).sum(axis=(-2, -1))
    got = F.avg_pool2d(repro.Tensor(x), k, s, p, count_include_pad=False).data
    assert np.allclose(got, total / valid, atol=1e-6)


# -- work, not time


def _peak_bytes(fn):
    fn()                                   # imports, caches
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_conv1x1_allocates_only_its_output():
    """1x1, stride 1, N == 1: no im2col buffer, no transposed copy."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 64, 32, 32)).astype(np.float32)
    w = rng.standard_normal((128, 64, 1, 1)).astype(np.float32)
    b = rng.standard_normal(128).astype(np.float32)
    peak, out = _peak_bytes(
        lambda: kernels.conv2d(x, w, b, (1, 1), (0, 0), (1, 1), 1))
    assert peak < 1.5 * out.nbytes


def test_conv3x3_allocates_padded_input_col_and_output():
    """... and nothing of their size besides (a ufunc's fixed 32 KB
    broadcast buffer is the slack)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 32, 32, 32)).astype(np.float32)
    w = rng.standard_normal((64, 32, 3, 3)).astype(np.float32)
    b = rng.standard_normal(64).astype(np.float32)
    peak, out = _peak_bytes(
        lambda: kernels.conv2d(x, w, b, (1, 1), (1, 1), (1, 1), 1))
    padded = 32 * 34 * 34 * 4
    col = 32 * 9 * 32 * 32 * 4
    assert 0 <= peak - (padded + col + out.nbytes) < padded // 2


def test_batched_conv_is_one_gemm(monkeypatch):
    calls = []
    gemm = kernels.matmul

    def counting(a, b):
        calls.append((a.shape, b.shape))
        return gemm(a, b)

    monkeypatch.setattr(kernels, "matmul", counting)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 6, 10, 10)).astype(np.float32)
    w = rng.standard_normal((12, 6, 3, 3)).astype(np.float32)
    F.conv2d(repro.Tensor(x), repro.Tensor(w), padding=1)
    assert calls == [((12, 54), (54, 800))]      # the batch is in the columns
    calls.clear()
    F.conv2d(repro.Tensor(x), repro.Tensor(w[:, :3]), padding=1, groups=2)
    assert calls == [((2, 6, 27), (2, 27, 800))]
