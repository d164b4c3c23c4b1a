"""Tests for jit.trace (example-based tracing baseline, §2.1–2.2)."""

import numpy as np
import pytest

import repro
from repro import jit, nn
from repro.models import MLP, SimpleCNN


class TestBasicTracing:
    def test_records_aten_ops(self):
        traced = jit.trace(nn.Sequential(nn.Linear(4, 4), nn.ReLU()),
                           (repro.randn(2, 4),))
        kinds = [n.kind for n in traced.graph.all_nodes()]
        assert "aten::linear" in kinds
        assert "aten::relu" in kinds

    def test_parameters_become_getattr_chains(self):
        traced = jit.trace(nn.Sequential(nn.Linear(4, 4)), (repro.randn(1, 4),))
        getattrs = [n for n in traced.graph.all_nodes() if n.kind == "prim::GetAttr"]
        names = {n.attributes["name"] for n in getattrs}
        assert "weight" in names and "bias" in names and "0" in names

    def test_constants_materialized(self):
        class M(nn.Module):
            def forward(self, x):
                return x + 3.5

        traced = jit.trace(M(), (repro.randn(2),))
        consts = [n for n in traced.graph.all_nodes() if n.kind == "prim::Constant"]
        assert any(n.attributes.get("value") == 3.5 for n in consts)

    def test_conv_hyperparams_as_list_constructs(self):
        traced = jit.trace(nn.Sequential(nn.Conv2d(1, 1, 3, stride=2, padding=1)),
                           (repro.randn(1, 1, 8, 8),))
        kinds = [n.kind for n in traced.graph.all_nodes()]
        assert kinds.count("prim::ListConstruct") >= 3  # stride, padding, dilation
        assert "aten::conv2d" in kinds

    def test_callable_fallback_executes_original(self):
        model = MLP(4, (8,), 2)
        x = repro.randn(2, 4)
        traced = jit.trace(model, (x,))
        assert np.allclose(traced(x).data, model(x).data)

    def test_output_registered(self):
        traced = jit.trace(nn.Sequential(nn.ReLU()), (repro.randn(2),))
        assert len(traced.graph.outputs) == 1

    def test_code_property(self):
        traced = jit.trace(nn.Sequential(nn.ReLU()), (repro.randn(2),))
        assert "graph(" in traced.code


class TestExampleSpecialization:
    """§2.2: example-based tracing silently bakes in control decisions."""

    def test_shape_dependent_branch_specializes(self):
        class ShapeBranch(nn.Module):
            def forward(self, x):
                if x.shape[0] > 2:  # concrete at trace time!
                    return repro.relu(x)
                return x.neg()

        big = jit.trace(ShapeBranch(), (repro.randn(5, 2),))
        small = jit.trace(ShapeBranch(), (repro.randn(1, 2),))
        big_kinds = [n.kind for n in big.graph.all_nodes()]
        small_kinds = [n.kind for n in small.graph.all_nodes()]
        assert "aten::relu" in big_kinds and "aten::relu" not in small_kinds
        assert "aten::neg" in small_kinds

    def test_data_dependent_branch_specializes(self):
        class DataBranch(nn.Module):
            def forward(self, x):
                if float(x.sum()) > 0:
                    return x + 1
                return x - 1

        pos = jit.trace(DataBranch(), (repro.ones(3),))
        kinds = [n.kind for n in pos.graph.all_nodes()]
        assert "aten::add" in kinds and "aten::sub" not in kinds

    def test_loop_unrolled_to_example_length(self):
        class LoopModel(nn.Module):
            def forward(self, x):
                for _ in range(x.shape[0]):  # trip count from example shape
                    x = repro.relu(x)
                return x

        traced = jit.trace(LoopModel(), (repro.randn(4, 2),))
        kinds = [n.kind for n in traced.graph.all_nodes()]
        assert kinds.count("aten::relu") == 4


class TestIRComplexity:
    """§6.1: the trace IR is substantially richer than the fx IR."""

    def test_trace_ir_larger_than_fx(self):
        from repro.fx import symbolic_trace

        model = SimpleCNN().eval()
        fx_count = len(symbolic_trace(model).graph)
        ts_count = jit.trace(model, (repro.randn(1, 3, 16, 16),)).graph.num_ops()
        assert ts_count > 2 * fx_count

    def test_batchnorm_state_appears(self):
        traced = jit.trace(nn.Sequential(nn.BatchNorm2d(2)).eval(),
                           (repro.randn(1, 2, 4, 4),))
        names = {
            n.attributes.get("name")
            for n in traced.graph.all_nodes()
            if n.kind == "prim::GetAttr"
        }
        assert {"running_mean", "running_var", "weight", "bias"} <= names

    def test_module_getattr_cached_per_instance(self):
        # A module called twice materializes its GetAttr chain once.
        class Reuse(nn.Module):
            def __init__(self):
                super().__init__()
                self.act = nn.ReLU()

            def forward(self, x):
                return self.act(self.act(x))

        traced = jit.trace(Reuse(), (repro.randn(2),))
        getattr_act = [
            n for n in traced.graph.all_nodes()
            if n.kind == "prim::GetAttr" and n.attributes["name"] == "act"
        ]
        assert len(getattr_act) == 1
        kinds = [n.kind for n in traced.graph.all_nodes()]
        assert kinds.count("aten::relu") == 2


class TestMultiInputAndComplexModels:
    def test_multi_input_trace(self):
        from tests import load_spec

        model = load_spec("examples/analyze_and_schedule.py:TwoTower")(dim=8).eval()
        args = (repro.randn(2, 8), repro.randn(2, 8))
        traced = jit.trace(model, args)
        assert len(traced.graph.inputs) == 3  # self + 2 data inputs
        kinds = [n.kind for n in traced.graph.all_nodes()]
        assert kinds.count("aten::linear") == 4
        assert "aten::mul" in kinds
        assert np.allclose(traced(*args).data, model(*args).data)

    def test_transformer_traces(self):
        from repro.models import TransformerEncoder

        model = TransformerEncoder(vocab_size=20, d_model=16, nhead=2,
                                   num_layers=1, dim_feedforward=32).eval()
        tokens = repro.randint(0, 20, (1, 5))
        traced = jit.trace(model, (tokens,))
        kinds = [n.kind for n in traced.graph.all_nodes()]
        assert "aten::softmax" in kinds  # attention weights
        assert "aten::matmul" in kinds
