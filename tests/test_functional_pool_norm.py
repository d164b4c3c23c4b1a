"""Tests for pooling and normalization functionals."""

import numpy as np
import pytest

import repro
import repro.functional as F


class TestMaxPool:
    def test_2x2(self):
        x = repro.tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert float(F.max_pool2d(x, 2)) == 4.0

    def test_stride_default_equals_kernel(self):
        x = repro.randn(1, 1, 8, 8)
        a = F.max_pool2d(x, 2)
        b = F.max_pool2d(x, 2, stride=2)
        assert np.array_equal(a.data, b.data)

    def test_padding_uses_neg_inf(self):
        x = repro.tensor([[[[-5.0]]]])
        out = F.max_pool2d(x, 3, stride=1, padding=1)
        assert float(out) == -5.0  # padding must not win

    def test_overlapping_stride(self):
        x = repro.arange(16).reshape(1, 1, 4, 4).float()
        out = F.max_pool2d(x, kernel_size=2, stride=1)
        assert out.shape == (1, 1, 3, 3)
        assert float(out.data[0, 0, 0, 0]) == 5.0

    def test_resnet_stem_shape(self):
        x = repro.randn(1, 64, 112, 112)
        assert F.max_pool2d(x, 3, stride=2, padding=1).shape == (1, 64, 56, 56)


class TestAvgPool:
    def test_mean_value(self):
        x = repro.tensor([[[[1.0, 3.0], [5.0, 7.0]]]])
        assert float(F.avg_pool2d(x, 2)) == 4.0

    def test_count_include_pad_default(self):
        x = repro.ones(1, 1, 2, 2)
        out = F.avg_pool2d(x, 2, stride=2, padding=1)
        # corners: 1 real value + 3 zero pads averaged over 4
        assert np.isclose(float(out.data[0, 0, 0, 0]), 0.25)


class TestAdaptiveAvgPool:
    def test_global(self):
        x = repro.randn(2, 3, 7, 7)
        out = F.adaptive_avg_pool2d(x, 1)
        assert out.shape == (2, 3, 1, 1)
        assert np.allclose(out.data[:, :, 0, 0], x.data.mean(axis=(2, 3)), atol=1e-6)

    def test_divisible(self):
        x = repro.randn(1, 2, 8, 8)
        out = F.adaptive_avg_pool2d(x, 4)
        assert out.shape == (1, 2, 4, 4)
        assert np.allclose(out.data[0, 0, 0, 0], x.data[0, 0, :2, :2].mean(), atol=1e-6)

    def test_non_divisible(self):
        x = repro.randn(1, 1, 7, 5)
        out = F.adaptive_avg_pool2d(x, (3, 2))
        assert out.shape == (1, 1, 3, 2)
        # first cell covers rows [0, ceil(7/3)) = [0,3), cols [0, ceil(5/2)) = [0,3)
        assert np.isclose(float(out.data[0, 0, 0, 0]), x.data[0, 0, 0:3, 0:3].mean(),
                          atol=1e-6)


class TestBatchNorm:
    def test_eval_uses_running_stats(self):
        x = repro.randn(4, 3, 2, 2)
        rm = repro.zeros(3)
        rv = repro.ones(3)
        out = F.batch_norm(x, rm, rv, training=False)
        assert np.allclose(out.data, x.data / np.sqrt(1 + 1e-5), atol=1e-5)

    def test_training_normalizes_batch(self):
        x = repro.randn(16, 3, 4, 4) * 5 + 2
        out = F.batch_norm(x, None, None, training=True)
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        assert np.allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_training_updates_running_stats(self):
        x = repro.randn(8, 2, 4, 4) + 3.0
        rm, rv = repro.zeros(2), repro.ones(2)
        F.batch_norm(x, rm, rv, training=True, momentum=0.5)
        assert (rm.data > 1.0).all()  # moved half-way toward ~3

    def test_affine_params(self):
        x = repro.randn(4, 2, 3, 3)
        gamma = repro.full((2,), 2.0)
        beta = repro.full((2,), 1.0)
        plain = F.batch_norm(x, None, None, training=True)
        affine = F.batch_norm(x, None, None, gamma, beta, training=True)
        assert np.allclose(affine.data, plain.data * 2 + 1, atol=1e-5)

    def test_2d_input(self):
        x = repro.randn(32, 5)
        out = F.batch_norm(x, None, None, training=True)
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-5)


class TestLayerNorm:
    def test_normalizes_last_dim(self):
        x = repro.randn(4, 10) * 3 + 5
        out = F.layer_norm(x, (10,))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_int_normalized_shape(self):
        x = repro.randn(4, 10)
        a = F.layer_norm(x, 10)
        b = F.layer_norm(x, (10,))
        assert np.array_equal(a.data, b.data)

    def test_multi_dim_normalized_shape(self):
        x = repro.randn(2, 3, 4)
        out = F.layer_norm(x, (3, 4))
        assert np.allclose(out.data.reshape(2, -1).mean(axis=1), 0.0, atol=1e-5)

    def test_affine(self):
        x = repro.randn(4, 6)
        w = repro.full((6,), 3.0)
        b = repro.full((6,), -1.0)
        plain = F.layer_norm(x, (6,))
        affine = F.layer_norm(x, (6,), w, b)
        assert np.allclose(affine.data, plain.data * 3 - 1, atol=1e-5)


class TestGroupNorm:
    def test_groups_normalized(self):
        x = repro.randn(2, 6, 4, 4) * 2 + 7
        out = F.group_norm(x, num_groups=3)
        grouped = out.data.reshape(2, 3, -1)
        assert np.allclose(grouped.mean(axis=2), 0.0, atol=1e-5)

    def test_bad_group_count_raises(self):
        with pytest.raises(ValueError):
            F.group_norm(repro.randn(1, 5, 2, 2), num_groups=2)


class TestDropoutEmbedding:
    def test_dropout_eval_identity(self):
        x = repro.randn(10)
        out = F.dropout(x, 0.5, training=False)
        assert np.array_equal(out.data, x.data)

    def test_dropout_zero_p_identity(self):
        x = repro.randn(10)
        assert np.array_equal(F.dropout(x, 0.0, training=True).data, x.data)

    def test_dropout_scales_survivors(self):
        x = repro.ones(100000)
        out = F.dropout(x, 0.5, training=True)
        survivors = out.data[out.data != 0]
        assert np.allclose(survivors, 2.0)
        assert abs(float(out.data.mean()) - 1.0) < 0.05

    def test_embedding_lookup(self):
        table = repro.tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        idx = repro.tensor([2, 0])
        assert F.embedding(idx, table).tolist() == [[5.0, 6.0], [1.0, 2.0]]

    def test_embedding_2d_indices(self):
        table = repro.randn(10, 4)
        idx = repro.randint(0, 10, (3, 5))
        assert F.embedding(idx, table).shape == (3, 5, 4)

    def test_one_hot(self):
        out = F.one_hot(repro.tensor([0, 2]), num_classes=3)
        assert out.tolist() == [[1, 0, 0], [0, 0, 1]]
