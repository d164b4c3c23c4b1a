"""End-to-end integration tests: chained transforms across subsystems."""

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import Interpreter, symbolic_trace, replace_pattern
from repro.fx.backends import override_support, to_backend
from repro.fx.passes import (
    ShapeProp,
    eliminate_common_subexpressions,
    estimate,
    fuse_conv_bn,
)
from repro.models import MLP, SimpleCNN, resnet18
from repro.quant import QuantizedLinear, quantize_static


class TestTransformChains:
    def test_fuse_then_lower(self):
        """The Figure-8 pipeline: trace -> fuse -> build engine."""
        model = resnet18(num_classes=4).eval()
        lowered = to_backend(model, "trt", allow_fallback=False)  # includes fusion
        x = repro.randn(1, 3, 32, 32)
        assert np.allclose(model(x).data, lowered(x).data, rtol=1e-3, atol=1e-4)

    def test_rewrite_then_fuse_then_run(self):
        model = SimpleCNN().eval()
        gm = symbolic_trace(model)
        # swap the head's flatten-free function version — identity rewrite
        replace_pattern(gm, lambda v: F.relu(v), lambda v: F.relu(v))
        fused = fuse_conv_bn(gm)
        x = repro.randn(1, 3, 16, 16)
        assert np.allclose(model(x).data, fused(x).data, rtol=1e-4, atol=1e-5)

    def test_quantize_a_traced_graphmodule(self):
        """prepare_fx accepts an already-transformed GraphModule."""
        model = MLP(8, (16,), 4)
        gm = symbolic_trace(model)
        eliminate_common_subexpressions(gm)
        qm = quantize_static(gm, [(repro.randn(8, 8),) for _ in range(4)])
        assert any(isinstance(m, QuantizedLinear) for m in qm.modules())

    def test_retrace_fused_model(self):
        """Generated code is itself traceable (Figure 3 composition)."""
        fused = fuse_conv_bn(SimpleCNN().eval())
        retraced = symbolic_trace(fused)
        x = repro.randn(1, 3, 16, 16)
        assert np.allclose(fused(x).data, retraced(x).data, atol=1e-5)

    def test_interpreter_on_quantized_graph(self):
        model = MLP(8, (16,), 4)
        qm = quantize_static(model, [(repro.randn(4, 8),) for _ in range(3)])
        x = repro.randn(2, 8)
        assert np.allclose(Interpreter(qm).run(x).data, qm(x).data)

    def test_split_then_lower_each_part(self):
        model = MLP(8, (16, 16), 4).eval()
        gm = symbolic_trace(model)
        split = to_backend(gm, override_support(
            "eager", lambda n, modules: n.target != "net.1"))
        x = repro.randn(2, 8)
        # two lowered parts around the unsupported ReLU, which stays inline
        assert [n.target for n in split.graph.find_nodes(op="call_module")] \
            == ["submod_0", "net.1", "submod_1"]
        assert np.allclose(split(x).data, model(x).data, atol=1e-5)

    def test_shape_prop_after_fusion(self):
        fused = fuse_conv_bn(SimpleCNN().eval())
        ShapeProp(fused).propagate(repro.randn(2, 3, 16, 16))
        out_meta = fused.graph.output_node.args[0].meta["tensor_meta"]
        assert out_meta.shape == (2, 10)

    def test_cost_model_shows_fusion_savings(self):
        model = SimpleCNN().eval()
        x = repro.randn(4, 3, 32, 32)
        before = estimate(symbolic_trace(model), x)
        after = estimate(fuse_conv_bn(symbolic_trace(model)), x)
        assert after.total_flops < before.total_flops
        assert after.total_bytes < before.total_bytes
        assert len(after.rows) < len(before.rows)


class TestActivationSwapWorkflow:
    """The paper's Figure 2 workflow, end to end on a real model."""

    def test_relu_to_gelu_on_resnet(self):
        model = resnet18(num_classes=3).eval()
        gm = symbolic_trace(model)
        swapped = 0
        modules = dict(gm.named_modules())
        for node in gm.graph.nodes:
            if node.op == "call_module" and isinstance(modules.get(node.target), nn.ReLU):
                parent, _, leaf = node.target.rpartition(".")
                setattr(gm.get_submodule(parent), leaf, nn.GELU())
                swapped += 1
        gm.recompile()
        assert swapped > 0
        x = repro.randn(1, 3, 32, 32)
        out = gm(x)
        assert out.shape == (1, 3)
        assert not np.allclose(out.data, model(x).data)  # behaviour changed


class TestQuantizeThenServe:
    def test_quantized_model_composes_with_eager(self):
        model = MLP(8, (16,), 4)
        qm = quantize_static(model, [(repro.randn(4, 8),) for _ in range(3)])
        pipeline = nn.Sequential(qm, nn.Softmax(dim=1))
        out = pipeline(repro.randn(2, 8))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-5)


class TestStateSharingAcrossTransforms:
    def test_weight_update_visible_in_traced_module(self):
        """GraphModule shares parameters with the original (not copies), so
        training the original updates the traced module too."""
        model = MLP(4, (8,), 2)
        gm = symbolic_trace(model)
        x = repro.randn(2, 4)
        before = gm(x).data.copy()
        first_linear = model.net[0]
        first_linear.weight.data[...] += 1.0
        after = gm(x).data
        assert not np.array_equal(before, after)
