"""Tests for Python code generation (§4.3)."""

import math
import operator

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import Graph, GraphModule, symbolic_trace


class TestGeneratedSource:
    def test_figure1_structure(self):
        """The paper's Figure 1: capture, print IR, print code."""

        def my_func(x):
            return repro.relu(x).neg()

        traced = symbolic_trace(my_func)
        ops = [(n.name, n.op) for n in traced.graph.nodes]
        assert ops == [
            ("x", "placeholder"),
            ("relu", "call_function"),
            ("neg", "call_method"),
            ("output", "output"),
        ]
        code = traced.code
        assert "def forward(self, x):" in code
        assert ".neg()" in code
        assert "return neg" in code

    def test_intermediates_freed(self):
        """Generated code clears dead names, as in Figure 1 (`x = None`)."""

        def f(x):
            return repro.relu(x).neg()

        code = symbolic_trace(f).code
        assert "x = None" in code
        assert "relu = None" in code

    def test_operator_inlining(self):
        def f(x, y):
            return x + y * 2

        code = symbolic_trace(f).code
        assert "x + " in code and "* 2" in code
        assert "operator" not in code  # inlined, not called through operator.mul

    def test_getitem_inlining(self):
        def f(x):
            return x[0]

        code = symbolic_trace(f).code
        assert "x[0]" in code

    def test_getattr_emitted_as_attribute(self):
        def f(x):
            return len(x.shape) * repro.relu(x) if False else x.shape

        def g(x):
            s = x.shape
            return s

        code = symbolic_trace(g).code
        assert ".shape" in code

    def test_slice_arguments(self):
        def f(x):
            return x[1:3]

        traced = symbolic_trace(f)
        x = repro.arange(10).float()
        assert traced(x).tolist() == [1.0, 2.0]
        assert "slice(1, 3, None)" in traced.code

    def test_float_constant_embedded(self):
        def f(x):
            return x + math.pi

        code = symbolic_trace(f).code
        assert "3.14159" in code

    def test_inf_constant_routed_via_global(self):
        def f(x):
            return x + float("-inf")

        traced = symbolic_trace(f)
        assert float(traced(repro.tensor([1.0]))) == float("-inf")

    def test_kwargs_rendered(self):
        def f(x):
            return F.softmax(x, dim=1)

        traced = symbolic_trace(f)
        assert "dim = 1" in traced.code
        out = traced(repro.randn(2, 3))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_default_argument_preserved(self):
        def f(x, scale=2.0):
            return x * scale

        traced = symbolic_trace(f)
        assert "scale = 2.0" in traced.code
        assert float(traced(repro.tensor(3.0))) == 6.0
        assert float(traced(repro.tensor(3.0), 5.0)) == 15.0

    def test_module_access_paths(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        traced = symbolic_trace(model)
        # the prologue binds state by path, digit-named children included
        assert "self._fx_bind(('0', '1'))" in traced.code
        assert traced(repro.ones(3, 2)).shape == (3, 2)

    def test_empty_graph(self):
        g = Graph()
        code = g.python_code()
        assert "pass" in code.src

    def test_list_and_dict_args(self):
        def f(x, y):
            return F.cat([x, y], dim=0)

        traced = symbolic_trace(f)
        assert "[x, y]" in traced.code
        a, b = repro.ones(2), repro.zeros(2)
        assert traced(a, b).tolist() == [1.0, 1.0, 0.0, 0.0]


class TestRecompile:
    def test_graph_edit_then_recompile(self):
        def f(x):
            return repro.relu(x)

        traced = symbolic_trace(f)
        for n in traced.graph.nodes:
            if n.op == "call_function" and n.target is F.relu:
                n.target = F.gelu
        traced.recompile()
        x = repro.randn(4)
        assert np.allclose(traced(x).data, F.gelu(x).data)

    def test_graph_assignment_recompiles(self):
        def f(x):
            return repro.relu(x)

        def g(x):
            return repro.tanh(x)

        t1, t2 = symbolic_trace(f), symbolic_trace(g)
        t1.graph = t2.graph
        x = repro.randn(3)
        assert np.allclose(t1(x).data, np.tanh(x.data))

    def test_generated_code_is_valid_python(self):
        import ast

        model = nn.Sequential(nn.Linear(4, 4), nn.GELU(), nn.Linear(4, 2))
        ast.parse(symbolic_trace(model).code)


class TestRoundTrip:
    """Re-tracing generated code (Figure 3) must reproduce behaviour."""

    def test_retrace_function(self):
        def f(x):
            return repro.relu(x).neg() + 1

        t1 = symbolic_trace(f)
        t2 = symbolic_trace(t1)
        x = repro.randn(5)
        assert np.allclose(t1(x).data, t2(x).data)
        assert len(t1.graph) == len(t2.graph)

    def test_figure3_compose_and_retrace(self):
        def my_func(x):
            return repro.relu(x).neg()

        traced = symbolic_trace(my_func)

        class SampleModule(nn.Module):
            def forward(self, x):
                return self.act(x + math.pi)

        sm = SampleModule()
        sm.act = traced
        traced2 = symbolic_trace(sm)
        x = repro.randn(3)
        expected = F.relu(x + math.pi).neg()
        assert np.allclose(traced2(x).data, expected.data, atol=1e-6)
        # flattened: the inner graph's ops appear inline
        assert any(n.op == "call_method" and n.target == "neg" for n in traced2.graph.nodes)

    def test_retrace_model(self):
        model = nn.Sequential(nn.Linear(6, 6), nn.ReLU(), nn.Linear(6, 2))
        t1 = symbolic_trace(model)
        t2 = symbolic_trace(t1)
        x = repro.randn(3, 6)
        assert np.allclose(t1(x).data, t2(x).data)
