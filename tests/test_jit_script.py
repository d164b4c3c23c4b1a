"""Tests for jit.script (AST compiler baseline, §2.1)."""

import numpy as np
import pytest

import repro
from repro import jit, nn
from repro.models import MLP, SimpleCNN, resnet18


class TestScriptCompilation:
    def test_compiles_simple_model(self):
        scripted = jit.script(nn.Sequential(nn.Linear(4, 4), nn.ReLU()))
        kinds = [n.kind for n in scripted.graph.all_nodes()]
        assert "aten::linear" in kinds
        assert "aten::relu" in kinds

    def test_both_branches_compiled(self):
        """Unlike tracing, script keeps control flow — both sides exist."""

        class Branch(nn.Module):
            def forward(self, x):
                if self.training:  # runtime attribute -> real prim::If
                    return repro.relu(x)
                return x.neg()

        scripted = jit.script(Branch())
        kinds = [n.kind for n in scripted.graph.all_nodes()]
        assert "prim::If" in kinds
        assert "aten::relu" in kinds and "aten::neg" in kinds  # BOTH

    def test_assert_becomes_if_raise(self):
        class WithAssert(nn.Module):
            def forward(self, x):
                assert x.ndim == 2, "need 2d"
                return repro.relu(x)

        scripted = jit.script(WithAssert())
        kinds = [n.kind for n in scripted.graph.all_nodes()]
        assert "prim::If" in kinds
        assert "prim::RaiseException" in kinds
        assert "aten::dim" in kinds

    def test_sequential_unrolled(self):
        scripted = jit.script(nn.Sequential(nn.ReLU(), nn.ReLU(), nn.ReLU()))
        kinds = [n.kind for n in scripted.graph.all_nodes()]
        assert kinds.count("aten::relu") == 3

    def test_module_attr_constants_inlined(self):
        class Scaled(nn.Module):
            def __init__(self):
                super().__init__()
                self.scale = 2.5

            def forward(self, x):
                return x * self.scale

        scripted = jit.script(Scaled())
        consts = [
            n.attributes.get("value")
            for n in scripted.graph.all_nodes()
            if n.kind == "prim::Constant"
        ]
        assert 2.5 in consts

    def test_fstring_becomes_format(self):
        class Msg(nn.Module):
            def forward(self, x):
                if self.training:
                    raise ValueError(f"bad {x.ndim}")
                return x

        scripted = jit.script(Msg())
        kinds = [n.kind for n in scripted.graph.all_nodes()]
        assert "aten::format" in kinds
        assert "prim::RaiseException" in kinds

    def test_runtime_range_loop(self):
        class Loop(nn.Module):
            def forward(self, x):
                for _ in range(x.shape[0]):
                    x = repro.relu(x)
                return x

        scripted = jit.script(Loop())
        kinds = [n.kind for n in scripted.graph.all_nodes()]
        assert "prim::Loop" in kinds
        assert kinds.count("aten::relu") == 1  # body compiled ONCE

    def test_compile_time_loop_unrolled(self):
        class Fixed(nn.Module):
            def forward(self, x):
                for _ in range(3):
                    x = repro.relu(x)
                return x

        scripted = jit.script(Fixed())
        kinds = [n.kind for n in scripted.graph.all_nodes()]
        assert "prim::Loop" not in kinds
        assert kinds.count("aten::relu") == 3

    def test_callable_fallback(self):
        model = MLP(4, (8,), 2)
        scripted = jit.script(model)
        x = repro.randn(2, 4)
        assert np.allclose(scripted(x).data, model(x).data)

    def test_warnings_collected_not_raised(self):
        scripted = jit.script(resnet18().eval())
        assert isinstance(scripted.warnings, list)

    def test_unmodelled_constructs_are_one_unknown_each(self):
        """What the compiler does not model is one ``prim::Unknown`` node
        and one warning per construct, never an exception."""

        class Unmodelled(nn.Module):
            def forward(self, x):
                x += 1                          # statement AugAssign
                self.seen = x                   # assignment target Attribute
                y = [v for v in (1, 2)]         # expression ListComp
                return undefined_name(x[0:1], y)  # noqa: F821

        scripted = jit.script(Unmodelled())
        kinds = [n.kind for n in scripted.graph.all_nodes()]
        assert kinds.count("prim::Unknown") == len(scripted.warnings) == 5
        assert [w.split(";")[0] for w in scripted.warnings] == [
            "unsupported statement AugAssign",
            "unsupported assignment target Attribute",
            "unsupported expression ListComp",
            "unsupported name 'undefined_name'",
            "unsupported expression Slice",
        ]


class TestIRComplexityOrdering:
    """§6.1 / Figure 5: script >> trace >> fx, on the same model."""

    def test_ordering_on_simplecnn(self):
        from repro.fx import symbolic_trace

        model = SimpleCNN().eval()
        fx_count = len(symbolic_trace(model).graph)
        trace_count = jit.trace(model, (repro.randn(1, 3, 16, 16),)).graph.num_ops()
        script_count = jit.script(model).graph.num_ops()
        assert fx_count < trace_count < script_count

    def test_ordering_on_resnet18(self):
        from repro.fx import symbolic_trace

        model = resnet18().eval()
        fx_count = len(symbolic_trace(model).graph)
        trace_count = jit.trace(model, (repro.randn(1, 3, 32, 32),)).graph.num_ops()
        script_count = jit.script(model).graph.num_ops()
        assert fx_count < trace_count < script_count
        # the paper's ratios: script ~3x trace, trace ~2x fx; ours should be
        # at least clearly separated
        assert trace_count > 2 * fx_count
        assert script_count > 1.5 * trace_count


class TestScriptOnLargerModels:
    def test_transformer_scripts(self):
        from repro.models import TransformerEncoder

        model = TransformerEncoder(vocab_size=20, d_model=16, nhead=2,
                                   num_layers=1, dim_feedforward=32).eval()
        scripted = jit.script(model)
        kinds = [n.kind for n in scripted.graph.all_nodes()]
        assert "aten::softmax" in kinds
        assert scripted.graph.num_ops() > 50

    def test_resnet50_script_count_in_paper_ballpark(self):
        from repro.models import resnet50

        scripted = jit.script(resnet50().eval())
        # paper reports 2614; ours lands in the same regime because the
        # representational choices match (see EXPERIMENTS.md)
        assert 1500 < scripted.graph.num_ops() < 3500
