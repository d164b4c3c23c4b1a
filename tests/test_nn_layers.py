"""Tests for individual nn layers: shapes and semantics."""

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn


class TestLinear:
    def test_shapes_and_values(self):
        layer = nn.Linear(8, 3)
        x = repro.randn(4, 8)
        out = layer(x)
        assert out.shape == (4, 3)
        assert np.allclose(out.data, x.data @ layer.weight.data.T + layer.bias.data,
                           atol=1e-5)

    def test_no_bias(self):
        layer = nn.Linear(4, 2, bias=False)
        assert layer.bias is None
        assert layer(repro.randn(1, 4)).shape == (1, 2)

    def test_init_scale(self):
        layer = nn.Linear(1000, 10)
        bound = 1 / np.sqrt(1000)
        assert float(layer.weight.abs().max()) < 10 * bound
        assert float(layer.bias.abs().max()) <= bound + 1e-6

    def test_extra_repr(self):
        assert "in_features=4" in repr(nn.Linear(4, 2))


class TestConv2d:
    def test_matches_functional(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1)
        x = repro.randn(2, 3, 8, 8)
        ref = F.conv2d(x, conv.weight, conv.bias, stride=(2, 2), padding=(1, 1))
        assert np.allclose(conv(x).data, ref.data, atol=1e-6)

    def test_grouped(self):
        conv = nn.Conv2d(4, 8, 3, groups=2, padding=1)
        assert conv.weight.shape == (8, 2, 3, 3)
        assert conv(repro.randn(1, 4, 5, 5)).shape == (1, 8, 5, 5)

    def test_invalid_groups_raises(self):
        with pytest.raises(ValueError):
            nn.Conv2d(3, 8, 3, groups=2)

    def test_conv1d(self):
        conv = nn.Conv1d(2, 4, 3, padding=1)
        assert conv(repro.randn(5, 2, 10)).shape == (5, 4, 10)


class TestNorms:
    def test_bn2d_eval_deterministic(self):
        bn = nn.BatchNorm2d(3).eval()
        x = repro.randn(2, 3, 4, 4)
        a, b = bn(x), bn(x)
        assert np.array_equal(a.data, b.data)

    def test_bn2d_training_updates_buffers(self):
        bn = nn.BatchNorm2d(2)
        before = bn.running_mean.data.copy()
        bn(repro.randn(8, 2, 4, 4) + 10.0)
        assert not np.array_equal(bn.running_mean.data, before)

    def test_bn2d_eval_does_not_update_buffers(self):
        bn = nn.BatchNorm2d(2).eval()
        before = bn.running_mean.data.copy()
        bn(repro.randn(8, 2, 4, 4) + 10.0)
        assert np.array_equal(bn.running_mean.data, before)

    def test_bn2d_wrong_dims_raises(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(3)(repro.randn(2, 3))

    def test_bn1d_accepts_2d_and_3d(self):
        bn = nn.BatchNorm1d(4)
        assert bn(repro.randn(8, 4)).shape == (8, 4)
        assert bn(repro.randn(8, 4, 5)).shape == (8, 4, 5)

    def test_bn_no_affine(self):
        bn = nn.BatchNorm2d(2, affine=False)
        assert bn.weight is None
        assert bn(repro.randn(4, 2, 3, 3)).shape == (4, 2, 3, 3)

    def test_layernorm(self):
        ln = nn.LayerNorm(16)
        out = ln(repro.randn(4, 16) * 10)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)

    def test_groupnorm(self):
        gn = nn.GroupNorm(2, 8)
        assert gn(repro.randn(2, 8, 3, 3)).shape == (2, 8, 3, 3)


class TestActivationsAndPooling:
    @pytest.mark.parametrize(
        "layer,fn",
        [
            (nn.ReLU(), F.relu), (nn.GELU(), F.gelu), (nn.Sigmoid(), F.sigmoid),
            (nn.Tanh(), F.tanh), (nn.SELU(), F.selu), (nn.SiLU(), F.silu),
            (nn.ReLU6(), F.relu6), (nn.Hardswish(), F.hardswish),
            (nn.Hardsigmoid(), F.hardsigmoid), (nn.Mish(), F.mish),
        ],
    )
    def test_activation_modules_match_functional(self, layer, fn):
        x = repro.randn(5, 5)
        assert np.allclose(layer(x).data, fn(x).data)

    def test_parametrized_activations(self):
        x = repro.randn(10)
        assert np.allclose(nn.LeakyReLU(0.2)(x).data, F.leaky_relu(x, 0.2).data)
        assert np.allclose(nn.ELU(0.5)(x).data, F.elu(x, 0.5).data)
        assert np.allclose(nn.Softmax(dim=0)(x).data, F.softmax(x, dim=0).data)
        assert np.allclose(nn.LogSoftmax(dim=0)(x).data, F.log_softmax(x, dim=0).data)
        assert np.allclose(nn.Hardtanh(-2, 2)(x).data, F.hardtanh(x, -2, 2).data)
        assert np.allclose(nn.Softplus()(x).data, F.softplus(x).data)

    def test_pooling_modules(self):
        x = repro.randn(1, 2, 8, 8)
        assert nn.MaxPool2d(2)(x).shape == (1, 2, 4, 4)
        assert nn.AvgPool2d(2)(x).shape == (1, 2, 4, 4)
        assert nn.AdaptiveAvgPool2d(1)(x).shape == (1, 2, 1, 1)
        assert nn.MaxPool2d(3, stride=2, padding=1)(x).shape == (1, 2, 4, 4)

    def test_flatten_identity(self):
        x = repro.randn(2, 3, 4)
        assert nn.Flatten()(x).shape == (2, 12)
        assert nn.Identity()(x) is x


class TestDropout:
    def test_training_drops(self):
        d = nn.Dropout(0.5)
        out = d(repro.ones(10000))
        assert (out.data == 0).any()

    def test_eval_identity(self):
        d = nn.Dropout(0.5).eval()
        x = repro.randn(100)
        assert np.array_equal(d(x).data, x.data)

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5)


class TestSparse:
    def test_embedding(self):
        emb = nn.Embedding(10, 4)
        out = emb(repro.tensor([1, 2, 3]))
        assert out.shape == (3, 4)
        assert np.array_equal(out.data[0], emb.weight.data[1])
