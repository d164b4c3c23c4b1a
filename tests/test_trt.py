"""Tests for the TensorRT-like backend: kernels, engine, lowering, fallback."""

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import symbolic_trace
from repro.models import MLP, SimpleCNN, learning_to_paint_actor, resnet18
from repro.trt import (
    TRTInterpreter,
    TRTModule,
    UnsupportedOperatorError,
    is_node_supported,
    lower_to_trt,
)
from repro.trt import ops as trt_ops


class TestKernels:
    def test_conv1x1_fast_path_matches_general(self):
        x = repro.randn(2, 8, 6, 6).data
        w = repro.randn(4, 8, 1, 1).data
        b = repro.randn(4).data
        fast = trt_ops.build_conv2d(w, b, (1, 1), (0, 0), (1, 1), 1)
        ref = F.conv2d(repro.Tensor(x), repro.Tensor(w), repro.Tensor(b))
        assert np.allclose(fast(x), ref.data, atol=1e-4)

    def test_conv_general_matches_functional(self):
        x = repro.randn(2, 3, 9, 9).data
        w = repro.randn(5, 3, 3, 3).data
        fn = trt_ops.build_conv2d(w, None, (2, 2), (1, 1), (1, 1), 1)
        ref = F.conv2d(repro.Tensor(x), repro.Tensor(w), stride=2, padding=1)
        assert np.allclose(fn(x), ref.data, atol=1e-4)

    def test_conv_grouped(self):
        x = repro.randn(1, 4, 5, 5).data
        w = repro.randn(6, 2, 3, 3).data
        fn = trt_ops.build_conv2d(w, None, (1, 1), (1, 1), (1, 1), 2)
        ref = F.conv2d(repro.Tensor(x), repro.Tensor(w), padding=1, groups=2)
        assert np.allclose(fn(x), ref.data, atol=1e-4)

    def test_fused_relu_epilogue(self):
        x = repro.randn(1, 2, 4, 4).data
        w = repro.randn(2, 2, 1, 1).data
        fn = trt_ops.build_conv2d(w, None, (1, 1), (0, 0), (1, 1), 1, fuse_relu=True)
        out = fn(x)
        assert (out >= 0).all()

    def test_linear_kernel(self):
        x, w, b = repro.randn(3, 4).data, repro.randn(2, 4).data, repro.randn(2).data
        fn = trt_ops.build_linear(w, b)
        assert np.allclose(fn(x), x @ w.T + b, atol=1e-5)

    def test_batch_norm_kernel(self):
        mean = np.array([1.0, -1.0], dtype=np.float32)
        var = np.array([4.0, 0.25], dtype=np.float32)
        fn = trt_ops.build_batch_norm(mean, var, None, None, 0.0)
        x = repro.randn(2, 2, 3, 3).data
        ref = (x - mean.reshape(1, 2, 1, 1)) / np.sqrt(var.reshape(1, 2, 1, 1))
        assert np.allclose(fn(x), ref, atol=1e-5)

    def test_add_fused_relu(self):
        fn = trt_ops.build_add(fuse_relu=True)
        out = fn(np.array([-2.0, 1.0]), np.array([1.0, 1.0]))
        assert out.tolist() == [0.0, 2.0]

    def test_pooling_kernels(self):
        x = repro.randn(1, 2, 8, 8).data
        mp = trt_ops.build_max_pool2d((2, 2), (2, 2), (0, 0))
        assert np.allclose(mp(x), F.max_pool2d(repro.Tensor(x), 2).data)
        ap = trt_ops.build_adaptive_avg_pool2d((1, 1))
        assert np.allclose(ap(x), x.mean(axis=(2, 3), keepdims=True), atol=1e-6)


class TestEngineBuild:
    def test_engine_op_count_reflects_fusion(self):
        from repro.fx.passes import fuse_conv_bn

        model = SimpleCNN().eval()
        gm = symbolic_trace(model)
        n_compute = len([n for n in gm.graph.nodes
                         if n.op not in ("placeholder", "output", "get_attr")])
        engine = TRTInterpreter(fuse_conv_bn(symbolic_trace(model))).run()
        # conv-bn folding removed the 2 BN nodes, relu fused into conv
        # epilogues removed 2 more
        assert len(engine) <= n_compute - 4

    def test_constants_resolved(self):
        class WithParam(nn.Module):
            def __init__(self):
                super().__init__()
                self.w = nn.Parameter(repro.randn(4, 4))

            def forward(self, x):
                return F.relu(x @ self.w)

        # matmul isn't supported; use Linear instead for this test
        model = nn.Sequential(nn.Linear(4, 4), nn.ReLU()).eval()
        engine = TRTInterpreter(symbolic_trace(model)).run()
        assert len(engine) == 1  # linear with fused relu

    def test_unsupported_raises(self):
        class Weird(nn.Module):
            def forward(self, x):
                return repro.softmax(x, dim=1)

        with pytest.raises(UnsupportedOperatorError):
            TRTInterpreter(symbolic_trace(Weird().eval())).run()

    def test_multi_output(self):
        class TwoOut(nn.Module):
            def forward(self, x):
                return repro.relu(x), repro.tanh(x)

        engine = TRTInterpreter(symbolic_trace(TwoOut().eval())).run()
        a, b = engine.run(repro.randn(3).data)
        assert (a >= 0).all()

    def test_repr(self):
        engine = TRTInterpreter(symbolic_trace(nn.Sequential(nn.ReLU()).eval())).run()
        assert "TRTEngine" in repr(engine)
        assert engine.op_names()

    def test_wrong_input_count_raises(self):
        engine = TRTInterpreter(symbolic_trace(nn.Sequential(nn.ReLU()).eval())).run()
        with pytest.raises(ValueError):
            engine.run()


class TestLowering:
    @pytest.mark.parametrize("model_fn,x_shape", [
        (lambda: MLP(16, (32, 32), 8), (4, 16)),
        (lambda: SimpleCNN(), (2, 3, 16, 16)),
        (lambda: resnet18(num_classes=10), (1, 3, 32, 32)),
    ])
    def test_lowered_matches_eager(self, model_fn, x_shape):
        model = model_fn().eval()
        trt = lower_to_trt(model)
        x = repro.randn(*x_shape)
        assert np.allclose(model(x).data, trt(x).data, rtol=1e-3, atol=1e-4)

    def test_learning_to_paint(self):
        model = learning_to_paint_actor().eval()
        trt = lower_to_trt(model)
        x = repro.randn(1, 9, 32, 32)
        assert np.allclose(model(x).data, trt(x).data, rtol=1e-3, atol=1e-4)

    def test_requires_eval_mode(self):
        with pytest.raises(RuntimeError, match="eval"):
            lower_to_trt(SimpleCNN())

    def test_trt_module_is_module(self):
        trt = lower_to_trt(MLP(4, (8,), 2).eval())
        assert isinstance(trt, nn.Module)
        # composable: lives inside a bigger eager model
        outer = nn.Sequential(trt, nn.Softmax(dim=1))
        assert outer(repro.randn(2, 4)).shape == (2, 2)

    def test_fusion_skippable(self):
        model = SimpleCNN().eval()
        trt_nofuse = lower_to_trt(model, fuse=False)
        x = repro.randn(1, 3, 16, 16)
        assert np.allclose(model(x).data, trt_nofuse(x).data, rtol=1e-3, atol=1e-4)


class TestFallback:
    class Mixed(nn.Module):
        """Conv trunk with an unsupported softmax in the middle."""

        def __init__(self):
            super().__init__()
            self.fc1 = nn.Linear(8, 16)
            self.fc2 = nn.Linear(16, 4)

        def forward(self, x):
            h = repro.relu(self.fc1(x))
            h = repro.softmax(h, dim=1)  # unsupported
            return self.fc2(h)

    def test_without_fallback_raises(self):
        with pytest.raises(UnsupportedOperatorError):
            lower_to_trt(self.Mixed().eval())

    @pytest.mark.parametrize("fuse", [True, False])
    def test_fallback_correctness(self, fuse):
        model = self.Mixed().eval()
        lowered = lower_to_trt(model, fuse=fuse, allow_fallback=True)
        x = repro.randn(4, 8)
        assert np.allclose(model(x).data, lowered(x).data, rtol=1e-3, atol=1e-5)

    def test_fallback_structure(self):
        model = self.Mixed().eval()
        lowered = lower_to_trt(model, allow_fallback=True)
        kinds = [type(m).__name__ for _, m in lowered.named_children()]
        assert "TRTModule" in kinds  # supported regions became engines
        assert any(k != "TRTModule" for k in kinds)  # softmax region eager

    def test_is_node_supported_predicate(self):
        gm = symbolic_trace(self.Mixed().eval())
        modules = dict(gm.named_modules())
        supported = {n.name: is_node_supported(modules, n) for n in gm.graph.nodes}
        assert supported["softmax"] is False
        assert supported["fc1"] is True


class TestDecoderOps:
    def test_conv_transpose_kernel(self):
        import repro.trt.ops as trt_ops

        x = repro.randn(2, 3, 5, 5).data
        w = repro.randn(3, 4, 3, 3).data
        b = repro.randn(4).data
        fn = trt_ops.build_conv_transpose2d(w, b, (2, 2), (1, 1), (1, 1))
        ref = F.conv_transpose2d(
            repro.Tensor(x), repro.Tensor(w), repro.Tensor(b),
            stride=2, padding=1, output_padding=1,
        )
        assert np.allclose(fn(x), ref.data, atol=1e-4)

    def test_upsample_kernel(self):
        import repro.trt.ops as trt_ops

        x = repro.randn(1, 2, 4, 4).data
        fn = trt_ops.build_upsample_nearest(2)
        ref = F.interpolate(repro.Tensor(x), scale_factor=2, mode="nearest")
        assert np.allclose(fn(x), ref.data)
        # index cache works across differing shapes
        x2 = repro.randn(1, 2, 6, 6).data
        assert fn(x2).shape == (1, 2, 12, 12)

    def test_decoder_lowering_end_to_end(self):
        decoder = nn.Sequential(
            nn.Conv2d(8, 4, 3, padding=1), nn.ReLU(),
            nn.Upsample(scale_factor=2),
            nn.ConvTranspose2d(4, 1, 2, stride=2), nn.Sigmoid(),
        ).eval()
        trt = lower_to_trt(decoder)
        x = repro.randn(1, 8, 8, 8)
        assert np.allclose(decoder(x).data, trt(x).data, rtol=1e-3, atol=1e-5)

    def test_conv_transpose_relu_fusion(self):
        model = nn.Sequential(
            nn.ConvTranspose2d(2, 2, 2, stride=2), nn.ReLU()
        ).eval()
        trt = lower_to_trt(model)
        assert len(trt.engine) == 1  # relu fused into the transpose conv
        x = repro.randn(1, 2, 4, 4)
        assert np.allclose(model(x).data, trt(x).data, atol=1e-5)

    def test_bilinear_upsample_falls_back(self):
        model = nn.Sequential(nn.Upsample(scale_factor=2, mode="bilinear")).eval()
        with pytest.raises(UnsupportedOperatorError):
            lower_to_trt(model)
        lowered = lower_to_trt(model, allow_fallback=True)
        x = repro.randn(1, 2, 4, 4)
        assert np.allclose(model(x).data, lowered(x).data, atol=1e-5)
