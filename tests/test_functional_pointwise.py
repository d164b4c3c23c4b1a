"""Tests for pointwise functional ops: activations, arithmetic, comparisons."""

import math

import numpy as np
import pytest
from scipy.special import erf as scipy_erf
from scipy.special import expit

import repro
import repro.functional as F


class TestActivations:
    def test_relu(self):
        x = repro.tensor([-1.0, 0.0, 2.0])
        assert F.relu(x).tolist() == [0.0, 0.0, 2.0]

    def test_relu6(self):
        x = repro.tensor([-1.0, 3.0, 9.0])
        assert F.relu6(x).tolist() == [0.0, 3.0, 6.0]

    def test_leaky_relu(self):
        x = repro.tensor([-2.0, 2.0])
        assert np.allclose(F.leaky_relu(x, 0.1).data, [-0.2, 2.0])

    def test_elu_continuity_at_zero(self):
        eps = 1e-4
        lo = float(F.elu(repro.tensor(-eps)))
        hi = float(F.elu(repro.tensor(eps)))
        assert abs(hi - lo) < 1e-3

    def test_selu_fixed_point_stats(self):
        # SELU is designed to preserve zero mean / unit variance roughly
        x = repro.randn(200000)
        y = F.selu(x)
        assert abs(float(y.mean())) < 0.1
        assert abs(float(y.std()) - 1.0) < 0.15

    def test_gelu_matches_exact_formula(self):
        x = repro.linspace(-3, 3, 61)
        ref = x.data * 0.5 * (1 + scipy_erf(x.data / math.sqrt(2)))
        assert np.allclose(F.gelu(x).data, ref, atol=1e-5)

    def test_silu(self):
        x = repro.randn(50)
        assert np.allclose(F.silu(x).data, x.data * expit(x.data), atol=1e-6)

    def test_sigmoid_matches_scipy(self):
        x = repro.linspace(-10, 10, 101)
        assert np.allclose(F.sigmoid(x).data, expit(x.data), atol=1e-6)

    def test_tanh(self):
        x = repro.randn(10)
        assert np.allclose(F.tanh(x).data, np.tanh(x.data))

    def test_hardtanh(self):
        x = repro.tensor([-3.0, 0.5, 3.0])
        assert F.hardtanh(x).tolist() == [-1.0, 0.5, 1.0]

    def test_hardsigmoid_saturation(self):
        assert float(F.hardsigmoid(repro.tensor(10.0))) == 1.0
        assert float(F.hardsigmoid(repro.tensor(-10.0))) == 0.0
        assert float(F.hardsigmoid(repro.tensor(0.0))) == 0.5

    def test_hardswish_zero_for_low(self):
        assert float(F.hardswish(repro.tensor(-5.0))) == 0.0

    def test_mish_shape(self):
        x = repro.randn(10)
        ref = x.data * np.tanh(np.log1p(np.exp(x.data)))
        assert np.allclose(F.mish(x).data, ref, atol=1e-6)

    def test_softplus_approaches_relu(self):
        x = repro.tensor([10.0])
        assert abs(float(F.softplus(x)) - 10.0) < 1e-3

    def test_softmax_rows_sum_to_one(self):
        x = repro.randn(6, 8)
        s = F.softmax(x, dim=1)
        assert np.allclose(s.data.sum(axis=1), 1.0, atol=1e-6)
        assert (s.data > 0).all()

    def test_softmax_shift_invariance(self):
        x = repro.randn(5)
        a = F.softmax(x, dim=0)
        b = F.softmax(x + 100.0, dim=0)
        assert np.allclose(a.data, b.data, atol=1e-6)

    def test_log_softmax_consistent(self):
        x = repro.randn(4, 7)
        assert np.allclose(
            F.log_softmax(x, dim=1).data, np.log(F.softmax(x, dim=1).data), atol=1e-6
        )


class TestArithmetic:
    def test_add_with_alpha(self):
        a, b = repro.ones(3), repro.ones(3)
        assert F.add(a, b, alpha=3).tolist() == [4.0, 4.0, 4.0]

    def test_free_function_arithmetic(self):
        a, b = repro.tensor([4.0]), repro.tensor([2.0])
        assert float(F.sub(a, b)) == 2.0
        assert float(F.mul(a, b)) == 8.0
        assert float(F.div(a, b)) == 2.0
        assert float(F.pow(a, 2)) == 16.0
        assert float(F.neg(a)) == -4.0

    def test_matmul_variants(self):
        a, b = repro.randn(3, 4), repro.randn(4, 5)
        assert np.allclose(F.matmul(a, b).data, a.data @ b.data)
        assert np.allclose(F.mm(a, b).data, a.data @ b.data)
        with pytest.raises(RuntimeError):
            F.mm(repro.randn(2, 3, 4), repro.randn(4, 5))
        with pytest.raises(RuntimeError):
            F.bmm(repro.randn(3, 4), repro.randn(4, 5))

    def test_where(self):
        cond = repro.tensor([True, False])
        assert F.where(cond, repro.tensor([1.0, 1.0]), repro.tensor([2.0, 2.0])).tolist() \
            == [1.0, 2.0]

    def test_maximum_minimum(self):
        a, b = repro.tensor([1.0, 5.0]), repro.tensor([3.0, 2.0])
        assert F.maximum(a, b).tolist() == [3.0, 5.0]
        assert F.minimum(a, b).tolist() == [1.0, 2.0]

    def test_clamp_floor_round(self):
        x = repro.tensor([-1.7, 1.3])
        assert F.clamp(x, -1, 1).tolist() == [-1.0, 1.0]
        assert F.floor(x).tolist() == [-2.0, 1.0]
        assert F.round(x).tolist() == [-2.0, 1.0]

    def test_unary_free_functions(self):
        x = repro.tensor([0.25])
        assert float(F.sqrt(x)) == 0.5
        assert float(F.rsqrt(x)) == 2.0
        assert np.isclose(float(F.exp(repro.tensor(0.0))), 1.0)
        assert np.isclose(float(F.log(repro.tensor(1.0))), 0.0)
        assert float(F.abs(repro.tensor(-2.0))) == 2.0
        assert float(F.sign(repro.tensor(-3.0))) == -1.0


class TestReductionFunctions:
    def test_sum_mean_var(self):
        x = repro.randn(5, 6)
        assert np.isclose(float(F.sum(x)), x.data.sum())
        assert np.isclose(float(F.mean(x)), x.data.mean())
        assert np.isclose(float(F.var(x)), x.data.var(ddof=1))

    def test_amax_amin(self):
        x = repro.tensor([[1.0, 9.0], [5.0, 2.0]])
        assert F.amax(x, dim=0).tolist() == [5.0, 9.0]
        assert F.amin(x, dim=1).tolist() == [1.0, 2.0]

    def test_argmax_keepdim(self):
        x = repro.tensor([[1.0, 9.0], [5.0, 2.0]])
        assert F.argmax(x, dim=1).tolist() == [1, 0]
        assert F.argmax(x, dim=1, keepdim=True).shape == (2, 1)

    def test_cumsum(self):
        assert F.cumsum(repro.tensor([1.0, 2.0, 3.0]), dim=0).tolist() == [1.0, 3.0, 6.0]

    def test_topk(self):
        values, indices = F.topk(repro.tensor([1.0, 9.0, 5.0, 7.0]), k=2)
        assert values.tolist() == [9.0, 7.0]
        assert indices.tolist() == [1, 3]

    def test_topk_2d(self):
        x = repro.randn(4, 10)
        values, indices = F.topk(x, k=3, dim=1)
        assert values.shape == (4, 3)
        taken = np.take_along_axis(x.data, indices.data, axis=1)
        assert np.array_equal(values.data, taken)


# -- the activation kernels against the expressions eager evaluated before them ---

def _erf_expression(x):
    s = np.sign(x)
    a = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * a)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return (s * (1.0 - poly * np.exp(-a * a))).astype(x.dtype)


def _sigmoid_expression(x):
    xu = np.asarray(x, dtype=np.float64)
    out = np.empty_like(xu)
    pos = xu >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xu[pos]))
    ex = np.exp(xu[~pos])
    out[~pos] = ex / (1.0 + ex)
    src_dtype = np.asarray(x).dtype
    return out.astype(src_dtype if np.issubdtype(src_dtype, np.floating) else np.float32)


#: Each rewritten eager function and, verbatim, the numpy expression it
#: evaluated before it called a kernel (``xu`` its operand as an ndarray).
_BEFORE_KERNELS = {
    "leaky_relu": lambda xu: np.where(xu >= 0, xu, xu * 0.1),
    "elu": lambda xu: np.where(xu > 0, xu, 0.7 * (np.exp(xu) - 1)).astype(xu.dtype),
    "selu": lambda xu: (1.0507009873554805 * np.where(
        xu > 0, xu, 1.6732632423543772 * (np.exp(xu) - 1))).astype(xu.dtype),
    "gelu": lambda xu: (xu * 0.5 * (1.0 + _erf_expression(xu / math.sqrt(2.0))))
    .astype(xu.dtype),
    "silu": lambda xu: (xu / (1.0 + np.exp(-xu))).astype(np.asarray(xu).dtype),
    "mish": lambda xu: (xu * np.tanh(np.log1p(np.exp(xu)))).astype(np.asarray(xu).dtype),
    "sigmoid": _sigmoid_expression,
    "hardsigmoid": lambda xu: np.clip(xu / 6.0 + 0.5, 0.0, 1.0),
    "hardswish": lambda xu: xu * np.clip(xu / 6.0 + 0.5, 0.0, 1.0),
    "softplus": lambda xu: (np.log1p(np.exp(0.5 * xu)) / 0.5).astype(np.asarray(xu).dtype),
    "erf": _erf_expression,
    "where": lambda xu: np.where(xu[0], xu[1], xu[2]),
}
_PARAMS = {"leaky_relu": (0.1,), "elu": (0.7,), "softplus": (0.5,)}


def _result(fn):
    """``(dtype, bits)`` of what *fn* returns, NaN as one pattern, or the
    type of what it raises."""
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(fn())
    except Exception as exc:    # eager rejects the dtype: so must the kernel
        return type(exc)
    if out.dtype.kind == "f":
        out = np.where(np.isnan(out), np.nan, out)
    return out.dtype, out.shape, out.view(f"u{out.itemsize}").tobytes()


@pytest.mark.parametrize("dtype", [repro.float16, repro.float32, repro.float64,
                                   repro.int64, repro.bool_])
@pytest.mark.parametrize("name", sorted(_BEFORE_KERNELS))
def test_an_activation_kernel_returns_the_dtype_and_bits_eager_returned(name, dtype):
    """Every value of the op table's self-test samples — both signs, ±0,
    ±100, ±inf, NaN for a float; 0 and 1 otherwise — and a non-contiguous
    operand."""
    from repro.fx.opinfo import _tensors
    x, c, y = (t.data for t in _tensors([(4, 11), (4, 11), (11,)], dtype))
    for xu in (x, x.T):
        if name == "where":
            got, want = _result(lambda: F.where(c, xu, y).data), _result(
                lambda: _BEFORE_KERNELS[name]((c, xu, y)))
            assert got == want
            got, want = _result(lambda: F.where(xu, 2.0, y).data), _result(
                lambda: _BEFORE_KERNELS[name]((xu, 2.0, y)))
        elif name == "erf":
            got, want = _result(lambda: repro.Tensor._wrap(xu).erf().data), _result(
                lambda: _BEFORE_KERNELS[name](xu))
        else:
            got = _result(lambda: getattr(F, name)(repro.Tensor._wrap(xu),
                                                   *_PARAMS.get(name, ())).data)
            want = _result(lambda: _BEFORE_KERNELS[name](xu))
        assert got == want, f"{name} on {dtype}"
