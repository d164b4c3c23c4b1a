"""Tests for shape_prop, fuser, cse, dce, graph_drawer."""

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import Graph, GraphModule, symbolic_trace
from repro.fx.passes import (
    ShapeProp,
    TensorMetadata,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fuse_conv_bn,
    fuse_conv_bn_weights,
    graph_to_dot,
    FxGraphDrawer,
)
from repro.models import ConvBNReLU, SimpleCNN


class TestShapeProp:
    def test_records_metadata_on_every_tensor_node(self):
        gm = symbolic_trace(SimpleCNN().eval())
        ShapeProp(gm).propagate(repro.randn(2, 3, 16, 16))
        for node in gm.graph.nodes:
            if node.op in ("call_module", "call_function"):
                assert "tensor_meta" in node.meta, node.name

    def test_metadata_fields(self):
        gm = symbolic_trace(nn.Linear(4, 8))
        ShapeProp(gm).propagate(repro.randn(3, 4))
        tm = gm.graph.output_node.args[0].meta["tensor_meta"]
        assert isinstance(tm, TensorMetadata)
        assert tm.shape == (3, 8)
        assert tm.dtype is repro.float32
        assert tm.numel == 24
        assert tm.nbytes == 96

    def test_tuple_valued_nodes(self):
        class M(nn.Module):
            def forward(self, x):
                a, b = x.chunk(2)
                return a + b

        gm = symbolic_trace(M())
        ShapeProp(gm).propagate(repro.randn(4, 2))
        chunk_node = gm.graph.find_nodes(op="call_method", target="chunk")[0]
        metas = chunk_node.meta["tensor_meta"]
        assert isinstance(metas, tuple) and len(metas) == 2
        assert metas[0].shape == (2, 2)

    def test_returns_output(self):
        # nothing is executed, so there is no output value to return: propagate
        # returns what it inferred about the output
        gm = symbolic_trace(lambda x: (x + 1, x.shape))
        out = ShapeProp(gm).propagate(repro.ones(2))
        assert out == (TensorMetadata(repro.Size([2]), repro.float32, 2, 8), (2,))
        assert out[0] is gm.graph.output_node.args[0][0].meta["tensor_meta"]

    def test_python_type_recorded(self):
        gm = symbolic_trace(lambda x: x.shape)
        ShapeProp(gm).propagate(repro.ones(2, 3))
        assert gm.graph.output_node.args[0].meta["type"] is not None


class TestConvBNFusion:
    def test_fused_weights_equivalent(self):
        conv = nn.Conv2d(3, 8, 3, padding=1)
        bn = nn.BatchNorm2d(8)
        # give BN nontrivial statistics
        bn.running_mean.data[:] = np.linspace(-1, 1, 8)
        bn.running_var.data[:] = np.linspace(0.5, 2.0, 8)
        bn.weight.data[:] = np.linspace(0.9, 1.1, 8)
        bn.bias.data[:] = np.linspace(-0.2, 0.2, 8)
        bn.eval()
        fused = fuse_conv_bn_weights(conv, bn)
        x = repro.randn(2, 3, 8, 8)
        assert np.allclose(fused(x).data, bn(conv(x)).data, atol=1e-4)

    def test_fused_conv_is_a_clone_of_the_matched_one(self):
        conv = nn.Conv2d(4, 8, (3, 5), stride=(2, 1), padding=(1, 2),
                         dilation=(1, 2), groups=2, bias=False).eval()
        conv.note = "kept"  # any attribute, not a re-listed few
        bn = nn.BatchNorm2d(8).eval()
        before = {k: v for k, v in vars(conv).items() if k != "_parameters"}
        fused = fuse_conv_bn_weights(conv, bn)
        assert type(fused) is type(conv) and fused is not conv
        assert {k: v for k, v in vars(fused).items()
                if k != "_parameters"} == before
        assert not fused.training
        assert list(fused._parameters) == ["weight", "bias"]
        # ... and the matched conv itself is left exactly as it was
        assert conv.bias is None and fused.bias is not None
        assert fused.weight is not conv.weight
        assert fused.weight.dtype == conv.weight.dtype

    @pytest.mark.parametrize("entry", ["fuse_conv_bn", "compile"])
    def test_fusion_leaves_the_global_rng_alone(self, entry):
        """Regression: the fused conv used to be a freshly constructed
        ``Conv2d``, whose ``reset_parameters()`` drew from the global RNG —
        so compiling shifted the user's random stream, and shifted it
        differently depending on whether the transform cache hit."""
        from repro import fx

        repro.manual_seed(0)
        expected = repro.rand(3).data
        model = nn.Sequential(nn.Conv2d(3, 4, 3), nn.BatchNorm2d(4),
                              nn.ReLU()).eval()
        x = repro.randn(1, 3, 8, 8)
        fx.clear_caches("transform")
        for temperature in ("cold", "warm"):
            repro.manual_seed(0)
            if entry == "compile":
                fx.compile(model, (x,))
            else:
                fuse_conv_bn(symbolic_trace(model))
            assert np.array_equal(repro.rand(3).data, expected), temperature

    def test_fusion_removes_bn_nodes(self):
        gm = fuse_conv_bn(SimpleCNN().eval())
        modules = dict(gm.named_modules())
        for node in gm.graph.nodes:
            if node.op == "call_module":
                assert not isinstance(modules[node.target], nn.BatchNorm2d)

    def test_fusion_preserves_output(self):
        model = SimpleCNN().eval()
        # run a batch in train mode first so BN stats are non-default
        model.train()
        model(repro.randn(8, 3, 16, 16))
        model.eval()
        gm = symbolic_trace(model)
        fused = fuse_conv_bn(symbolic_trace(model))
        x = repro.randn(2, 3, 16, 16)
        assert np.allclose(gm(x).data, fused(x).data, rtol=1e-4, atol=1e-5)

    def test_fusion_requires_eval(self):
        with pytest.raises(RuntimeError, match="eval"):
            fuse_conv_bn(SimpleCNN())

    def test_conv_without_bias_gets_bias(self):
        m = ConvBNReLU(3, 4).eval()
        gm = fuse_conv_bn(m)
        modules = dict(gm.named_modules())
        convs = [modules[n.target] for n in gm.graph.nodes
                 if n.op == "call_module" and isinstance(modules[n.target], nn.Conv2d)]
        assert convs and all(c.bias is not None for c in convs)

    def test_multi_user_conv_not_fused(self):
        class Branch(nn.Module):
            def __init__(self):
                super().__init__()
                self.conv = nn.Conv2d(2, 2, 1)
                self.bn = nn.BatchNorm2d(2)

            def forward(self, x):
                c = self.conv(x)
                return self.bn(c) + c  # conv output escapes

        gm = fuse_conv_bn(Branch().eval())
        modules = dict(gm.named_modules())
        assert any(isinstance(modules.get(n.target), nn.BatchNorm2d)
                   for n in gm.graph.nodes if n.op == "call_module")

    def test_unused_bn_submodule_deleted(self):
        gm = fuse_conv_bn(ConvBNReLU(2, 2).eval())
        with pytest.raises(AttributeError):
            gm.get_submodule("bn")

    @staticmethod
    def _conv_bn(**bn_kwargs):
        repro.manual_seed(0)
        m = nn.Sequential(nn.Conv2d(3, 8, 3, padding=1),
                          nn.BatchNorm2d(8, **bn_kwargs)).eval()
        if m[1].running_mean is not None:
            m[1].running_mean.data[:] = np.linspace(-0.5, 0.5, 8, dtype=np.float32)
            m[1].running_var.data[:] = np.linspace(0.5, 2.0, 8, dtype=np.float32)
        return m

    @staticmethod
    def _bns(gm):
        modules = dict(gm.named_modules())
        return sum(isinstance(modules.get(n.target), nn.BatchNorm2d)
                   for n in gm.graph.nodes if n.op == "call_module")

    def test_fold_is_the_weight_fold(self):
        m = self._conv_bn()
        x = repro.randn(2, 3, 8, 8)
        expected = fuse_conv_bn_weights(m[0], m[1])(x)
        gm = fuse_conv_bn(symbolic_trace(m))
        assert self._bns(gm) == 0 and len(gm.graph) == 3
        assert np.array_equal(gm(x).data, expected.data)

    def test_training_mode_bn_or_conv_is_left_alone(self):
        for train in (lambda m: m[1].train(), lambda m: m[0].train()):
            m = self._conv_bn()
            train(m)
            assert self._bns(fuse_conv_bn(symbolic_trace(m))) == 1

    def test_bn_without_running_stats_is_left_alone(self):
        m = self._conv_bn(track_running_stats=False)
        assert self._bns(fuse_conv_bn(symbolic_trace(m))) == 1

    def test_two_bns_in_a_row_both_fold_into_the_conv(self):
        m = self._conv_bn()
        m.add_module("bn2", nn.BatchNorm2d(8).eval())
        m.bn2.running_var.data[:] = 4.0
        x = repro.randn(2, 3, 8, 8)
        gm = fuse_conv_bn(symbolic_trace(m))
        assert self._bns(gm) == 0
        assert np.allclose(gm(x).data, m(x).data, atol=1e-5)

    @pytest.mark.parametrize("other_use", ["call", "get_attr"])
    def test_a_conv_used_elsewhere_keeps_its_weights(self, other_use):
        # folding re-parameterizes the conv *module*: a second call site, or
        # a read of its weight, would see the fold too
        class Shared(nn.Module):
            def __init__(self):
                super().__init__()
                self.conv = nn.Conv2d(3, 3, 3, padding=1)
                self.bn = nn.BatchNorm2d(3)

            def forward(self, x):
                other = self.conv(x) if other_use == "call" \
                    else (x.mean() * self.conv.bias).sum()
                return self.bn(self.conv(x)) + other

        m = Shared().eval()
        m.bn.running_var.data[:] = 2.0
        x = repro.randn(1, 3, 5, 5)
        gm = fuse_conv_bn(symbolic_trace(m))
        assert self._bns(gm) == 1
        assert np.array_equal(gm(x).data, m(x).data)


class TestCSE:
    def test_duplicate_functions_merged(self):
        def f(x):
            return repro.relu(x) + repro.relu(x)

        gm = symbolic_trace(f)
        removed = eliminate_common_subexpressions(gm)
        assert removed == 1
        assert len(gm.graph.find_nodes(op="call_function", target=F.relu)) == 1
        x = repro.randn(3)
        assert np.allclose(gm(x).data, 2 * np.maximum(x.data, 0), atol=1e-6)

    def test_different_args_not_merged(self):
        def f(x, y):
            return repro.relu(x) + repro.relu(y)

        gm = symbolic_trace(f)
        assert eliminate_common_subexpressions(gm) == 0

    def test_different_kwargs_not_merged(self):
        def f(x):
            return F.softmax(x, dim=0) + F.softmax(x, dim=1)

        gm = symbolic_trace(f)
        assert eliminate_common_subexpressions(gm) == 0

    def test_call_modules_not_merged_by_default(self):
        model = nn.Sequential(nn.Dropout(0.5))

        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.d = nn.Dropout(0.5)

            def forward(self, x):
                return self.d(x) + self.d(x)  # stochastic: must NOT merge

        gm = symbolic_trace(M())
        assert eliminate_common_subexpressions(gm) == 0

    def test_chained_cse(self):
        def f(x):
            a = repro.relu(x).neg()
            b = repro.relu(x).neg()
            return a + b

        gm = symbolic_trace(f)
        removed = eliminate_common_subexpressions(gm)
        assert removed == 2  # relu dupe then neg dupe

    def test_kwonly_default_change_not_merged(self):
        # Two versions of a function differing ONLY in a keyword-only
        # default value share bytecode/consts/names; only the one the
        # module now holds gets the qualname key, the other its id().
        import operator
        import sys
        import types

        mod = types.ModuleType("cse_kwdef_mod")
        exec(compile("def scale(x, *, k=2.0):\n    return x * k\n",
                     "<old>", "exec"), mod.__dict__)
        f_old = mod.scale
        exec(compile("def scale(x, *, k=3.0):\n    return x * k\n",
                     "<new>", "exec"), mod.__dict__)
        f_new = mod.scale
        sys.modules["cse_kwdef_mod"] = mod
        try:
            assert f_old.__code__.co_code == f_new.__code__.co_code
            assert f_old.__kwdefaults__ != f_new.__kwdefaults__

            g = Graph()
            x = g.placeholder("x")
            a = g.call_function(f_old, (x,))
            b = g.call_function(f_new, (x,))
            g.output(g.call_function(operator.add, (a, b)))
            gm = GraphModule(nn.Module(), g)
            assert eliminate_common_subexpressions(gm) == 0
            xv = repro.randn(3)
            assert np.allclose(gm(xv).data, 5 * xv.data, atol=1e-6)
        finally:
            sys.modules.pop("cse_kwdef_mod", None)

    def test_unresolvable_callables_key_by_identity(self):
        # Lambdas have no stable module.qualname: the same object still
        # dedupes (id key), but two code-identical lambdas must not.
        import operator

        fa = lambda x: x + 1  # noqa: E731
        fb = lambda x: x + 1  # noqa: E731
        g = Graph()
        x = g.placeholder("x")
        n1 = g.call_function(fa, (x,))
        n2 = g.call_function(fa, (x,))
        n3 = g.call_function(fb, (x,))
        s = g.call_function(operator.add, (n1, n2))
        g.output(g.call_function(operator.add, (s, n3)))
        gm = GraphModule(nn.Module(), g)
        assert eliminate_common_subexpressions(gm) == 1  # n2 only


class TestDCEPass:
    def test_counts_removed(self):
        def f(x):
            dead = repro.tanh(x)
            deader = dead + 1
            return repro.relu(x)

        gm = symbolic_trace(f)
        assert eliminate_dead_code(gm) == 2
        assert eliminate_dead_code(gm) == 0


class TestGraphDrawer:
    def test_dot_structure(self):
        gm = symbolic_trace(lambda x: repro.relu(x).neg())
        dot = graph_to_dot(gm.graph)
        assert dot.startswith("digraph")
        assert "relu" in dot and "->" in dot
        assert dot.count("->") == 3  # x->relu, relu->neg, neg->output

    def test_shapes_included_after_shape_prop(self):
        gm = symbolic_trace(nn.Linear(3, 4))
        ShapeProp(gm).propagate(repro.randn(2, 3))
        dot = FxGraphDrawer(gm, "lin").get_dot_graph()
        assert "(2, 4)" in dot

    def test_write_dot(self, tmp_path):
        gm = symbolic_trace(lambda x: x + 1)
        path = tmp_path / "g.dot"
        FxGraphDrawer(gm).write_dot(str(path))
        assert path.read_text().startswith("digraph")

    def test_dot_parses_with_networkx(self, tmp_path):
        import networkx as nx

        gm = symbolic_trace(SimpleCNN().eval())
        dot = graph_to_dot(gm.graph)
        try:
            import pydot  # noqa: F401
        except ImportError:
            pytest.skip("pydot not installed; structural check only")
        g = nx.nx_pydot.read_dot(tmp_path / "x")  # pragma: no cover
