"""Tests for the TensorRT-like backend: its support table and pass list,
engines built on the bytecode tier, and eager fallback.

An engine runs eager's own kernels, so wherever no conv-bn fold applies
the lowered result is eager's bit for bit."""

import asyncio
import pickle

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import symbolic_trace, to_backend
from repro.fx.backends import UnsupportedNodesError
from repro.fx.passes import eliminate_dead_code
from repro.fx.vm import VMModule
from repro.models import MLP, SimpleCNN, learning_to_paint_actor, resnet18
from repro.serve import InferenceServer, ServeConfig
from repro.trt import TRTBackend, is_node_supported


class _Unfolded(TRTBackend):
    """The ``"trt"`` backend without its conv-bn fold."""

    def preferred_passes(self, gm):
        return [("dce", eliminate_dead_code)]


def _engine(model):
    return to_backend(model.eval(), "trt", allow_fallback=False)


class TestKernels:
    """Each op lowers to eager's kernel: bit-equal to the functional call."""

    def test_conv1x1_fast_path_matches_general(self):
        conv = nn.Conv2d(8, 4, 1)
        x = repro.randn(2, 8, 6, 6)
        got = _engine(nn.Sequential(conv))(x).data
        w, b = conv.weight.data[:, :, 0, 0], conv.bias.data
        general = np.einsum("fc,nchw->nfhw", w, x.data) + b.reshape(1, -1, 1, 1)
        assert np.allclose(got, general, atol=1e-4)
        assert np.array_equal(got, F.conv2d(x, conv.weight, conv.bias).data)

    def test_conv_general_matches_functional(self):
        conv = nn.Conv2d(3, 5, 3, stride=2, padding=1, bias=False)
        x = repro.randn(2, 3, 9, 9)
        ref = F.conv2d(x, conv.weight, stride=2, padding=1)
        assert np.array_equal(_engine(nn.Sequential(conv))(x).data, ref.data)

    def test_conv_grouped(self):
        conv = nn.Conv2d(4, 6, 3, padding=1, groups=2, bias=False)
        x = repro.randn(1, 4, 5, 5)
        ref = F.conv2d(x, conv.weight, padding=1, groups=2)
        assert np.array_equal(_engine(nn.Sequential(conv))(x).data, ref.data)

    def test_linear_kernel(self):
        fc = nn.Linear(4, 2)
        x = repro.randn(3, 4)
        got = _engine(nn.Sequential(fc))(x).data
        assert np.array_equal(got, F.linear(x, fc.weight, fc.bias).data)
        assert np.allclose(got, x.data @ fc.weight.data.T + fc.bias.data,
                           atol=1e-5)

    def test_batch_norm_kernel(self):
        """A BatchNorm no conv precedes stays eager's module (the engine's
        own scale-and-shift kernel differed in the last bits)."""
        model = nn.Sequential(nn.BatchNorm2d(2), nn.ReLU()).eval()
        bn = model[0]
        bn.running_mean.data[...] = [1.0, -1.0]
        bn.running_var.data[...] = [4.0, 0.25]
        bn.weight.data[...] = [0.7, 1.3]
        bn.bias.data[...] = [0.1, -0.2]
        x = repro.randn(2, 2, 3, 3)
        got = _engine(model)(x).data
        assert np.array_equal(got, model(x).data)
        mean = bn.running_mean.data.reshape(1, 2, 1, 1)
        var = bn.running_var.data.reshape(1, 2, 1, 1)
        ref = (x.data - mean) / np.sqrt(var + bn.eps) \
            * bn.weight.data.reshape(1, 2, 1, 1) + bn.bias.data.reshape(1, 2, 1, 1)
        assert np.allclose(got, np.maximum(ref, 0), atol=1e-5)

    def test_pooling_kernels(self):
        x = repro.randn(1, 2, 8, 8)
        mp = _engine(nn.Sequential(nn.MaxPool2d(2)))
        assert np.array_equal(mp(x).data, F.max_pool2d(x, 2).data)
        ap = _engine(nn.Sequential(nn.AdaptiveAvgPool2d((1, 1))))
        assert np.array_equal(ap(x).data, F.adaptive_avg_pool2d(x, (1, 1)).data)


class TestEngineBuild:
    def test_engine_op_count_reflects_fusion(self):
        model = SimpleCNN().eval()
        gm = symbolic_trace(model)
        n_compute = len([n for n in gm.graph.nodes
                         if n.op not in ("placeholder", "output", "get_attr")])
        engine = _engine(model)
        # conv-bn folding removed the 2 BN nodes; every other node is one
        # instruction
        assert len(engine.program) == n_compute - 2
        assert len(to_backend(model, _Unfolded()).program) == n_compute

    def test_constants_resolved(self):
        class WithParam(nn.Module):
            def __init__(self):
                super().__init__()
                self.w = nn.Parameter(repro.randn(4))

            def forward(self, x):
                return F.relu(x + self.w)

        model = WithParam().eval()
        program = _engine(model).program
        # the weight read is a constant register, not a run-time lookup: the
        # transform cache's frozen copy of the weight
        (w,) = [c for c in program.consts.values() if isinstance(c, nn.Parameter)]
        assert np.array_equal(w.data, model.w.data) and not w.data.flags.writeable
        assert [ins.name for ins in program.instructions] == ["add", "relu"]

    def test_unsupported_raises(self):
        class Weird(nn.Module):
            def forward(self, x):
                return repro.softmax(x, dim=1)

        with pytest.raises(UnsupportedNodesError, match="softmax"):
            _engine(Weird())

    def test_multi_output(self):
        class TwoOut(nn.Module):
            def forward(self, x):
                return repro.relu(x), repro.tanh(x)

        a, b = _engine(TwoOut())(repro.randn(3))
        assert (a.data >= 0).all()

    def test_repr(self):
        engine = _engine(nn.Sequential(nn.ReLU()))
        assert "VMProgram" in repr(engine)
        assert engine.program.op_names()

    def test_wrong_input_count_raises(self):
        engine = _engine(nn.Sequential(nn.ReLU()))
        with pytest.raises(RuntimeError, match="missing argument"):
            engine()
        with pytest.raises(TypeError, match="at most 1"):
            engine(repro.randn(2), repro.randn(2))


class TestLowering:
    @pytest.mark.parametrize("model_fn,x_shape", [
        (lambda: MLP(16, (32, 32), 8), (4, 16)),
        (lambda: SimpleCNN(), (2, 3, 16, 16)),
        (lambda: resnet18(num_classes=10), (1, 3, 32, 32)),
    ])
    def test_lowered_matches_eager(self, model_fn, x_shape):
        model = model_fn().eval()
        trt = _engine(model)
        x = repro.randn(*x_shape)
        if any(isinstance(m, nn.BatchNorm2d) for m in model.modules()):
            assert np.allclose(model(x).data, trt(x).data, rtol=1e-3, atol=1e-4)
        else:
            assert np.array_equal(model(x).data, trt(x).data)

    def test_learning_to_paint(self):
        model = learning_to_paint_actor().eval()
        trt = _engine(model)
        x = repro.randn(1, 9, 32, 32)
        assert np.allclose(model(x).data, trt(x).data, rtol=1e-3, atol=1e-4)

    def test_requires_eval_mode(self):
        with pytest.raises(RuntimeError, match="eval"):
            to_backend(SimpleCNN(), "trt")

    def test_trt_module_is_module(self):
        trt = _engine(MLP(4, (8,), 2))
        assert isinstance(trt, VMModule)
        # composable: lives inside a bigger eager model
        outer = nn.Sequential(trt, nn.Softmax(dim=1))
        assert outer(repro.randn(2, 4)).shape == (2, 2)

    def test_fusion_skippable(self):
        """Without the fold nothing is rewritten: eager's bits exactly."""
        model = SimpleCNN().eval()
        trt_nofuse = to_backend(model, _Unfolded(), allow_fallback=False)
        x = repro.randn(1, 3, 16, 16)
        assert np.array_equal(model(x).data, trt_nofuse(x).data)

    def test_engine_pickles_bit_for_bit(self):
        model = SimpleCNN().eval()
        trt = _engine(model)
        clone = pickle.loads(pickle.dumps(trt))
        x = repro.randn(2, 3, 16, 16)
        assert clone(x).data.tobytes() == trt(x).data.tobytes()

    def test_served_engines_persist(self, tmp_path):
        """A second server on the same cache directory loads the engine
        the first one stored instead of building it."""
        model = MLP(4, (8,), 2).eval()
        x = repro.randn(3, 4)

        async def serve():
            config = ServeConfig(backend="trt", cache_dir=str(tmp_path),
                                 workers=1, batching=False)
            async with InferenceServer(config) as server:
                server.register("m", model)
                out = await server.infer("m", x)
                return out, server.stats()["engine_cache"]

        first, info = asyncio.run(serve())
        assert info["builds"] == 1 and info["stores"] == 1
        second, info = asyncio.run(serve())
        assert info["disk_hits"] == 1 and info["builds"] == 0
        assert np.array_equal(first.data, model(x).data)
        assert np.array_equal(second.data, first.data)


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
        with pytest.raises(UnsupportedNodesError):
            _engine(self.Mixed())

    @pytest.mark.parametrize("fuse", [True, False])
    def test_fallback_correctness(self, fuse):
        model = self.Mixed().eval()
        lowered = to_backend(model, TRTBackend() if fuse else _Unfolded())
        x = repro.randn(4, 8)
        assert np.array_equal(model(x).data, lowered(x).data)

    def test_fallback_structure(self):
        model = self.Mixed().eval()
        lowered = to_backend(model, "trt")
        kinds = {type(m).__name__ for _, m in lowered.named_children()}
        assert kinds == {"VMModule"}  # supported regions became engines
        # the softmax runs eagerly, inline in the stitched graph
        assert [n.name for n in lowered.graph.nodes
                if n.op == "call_function"] == ["softmax"]

    def test_is_node_supported_predicate(self):
        gm = symbolic_trace(self.Mixed().eval())
        modules = dict(gm.named_modules())
        supported = {n.name: is_node_supported(modules, n) for n in gm.graph.nodes}
        assert supported["softmax"] is False
        assert supported["fc1"] is True


class TestDecoderOps:
    def test_conv_transpose_kernel(self):
        conv_t = nn.ConvTranspose2d(3, 4, 3, stride=2, padding=1,
                                    output_padding=1)
        x = repro.randn(2, 3, 5, 5)
        ref = F.conv_transpose2d(x, conv_t.weight, conv_t.bias, stride=2,
                                 padding=1, output_padding=1)
        assert np.array_equal(_engine(nn.Sequential(conv_t))(x).data, ref.data)

    def test_upsample_kernel(self):
        engine = _engine(nn.Sequential(nn.Upsample(scale_factor=2)))
        x = repro.randn(1, 2, 4, 4)
        ref = F.interpolate(x, scale_factor=2, mode="nearest")
        assert np.array_equal(engine(x).data, ref.data)
        # one engine serves differing shapes
        assert engine(repro.randn(1, 2, 6, 6)).shape == (1, 2, 12, 12)

    def test_decoder_lowering_end_to_end(self):
        decoder = nn.Sequential(
            nn.Conv2d(8, 4, 3, padding=1), nn.ReLU(),
            nn.Upsample(scale_factor=2),
            nn.ConvTranspose2d(4, 1, 2, stride=2), nn.Sigmoid(),
        ).eval()
        trt = _engine(decoder)
        x = repro.randn(1, 8, 8, 8)
        assert np.array_equal(decoder(x).data, trt(x).data)

    def test_conv_transpose_relu(self):
        model = nn.Sequential(
            nn.ConvTranspose2d(2, 2, 2, stride=2), nn.ReLU()
        ).eval()
        trt = _engine(model)
        assert len(trt.program) == 2  # no epilogue rule: one op each
        x = repro.randn(1, 2, 4, 4)
        assert np.array_equal(model(x).data, trt(x).data)

    def test_bilinear_upsample_falls_back(self):
        model = nn.Sequential(nn.Upsample(scale_factor=2, mode="bilinear")).eval()
        with pytest.raises(UnsupportedNodesError):
            _engine(model)
        lowered = to_backend(model, "trt")
        x = repro.randn(1, 2, 4, 4)
        assert np.array_equal(model(x).data, lowered(x).data)
