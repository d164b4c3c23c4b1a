"""Tests for Proxy semantics and the Tracer (§4.1, §5.1–5.3)."""

import operator

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import GraphModule, Proxy, TraceError, Tracer, symbolic_trace, wrap


class TestProxyRecording:
    def test_magic_methods_record_operator_targets(self):
        def f(x, y):
            return x + y - x * y

        traced = symbolic_trace(f)
        targets = [n.target for n in traced.graph.nodes if n.op == "call_function"]
        assert operator.add in targets
        assert operator.sub in targets
        assert operator.mul in targets

    def test_reflected_operands(self):
        def f(x):
            return 1.0 - x

        traced = symbolic_trace(f)
        sub = traced.graph.find_nodes(op="call_function", target=operator.sub)[0]
        assert sub.args[0] == 1.0  # constant on the left, preserved

    def test_method_call_records_call_method(self):
        def f(x):
            return x.reshape(2, 3)

        traced = symbolic_trace(f)
        n = traced.graph.find_nodes(op="call_method", target="reshape")[0]
        assert n.args[1:] == (2, 3)
        assert traced(repro.zeros(6)).shape == (2, 3)

    def test_attribute_then_use_records_getattr(self):
        def f(x):
            return x.shape

        traced = symbolic_trace(f)
        assert any(
            n.op == "call_function" and n.target is getattr for n in traced.graph.nodes
        )
        assert traced(repro.zeros(4, 5)) == (4, 5)

    def test_pure_method_call_leaves_no_getattr(self):
        """Attribute nodes are deferred: x.neg() emits only call_method."""

        def f(x):
            return x.neg()

        traced = symbolic_trace(f)
        assert not any(n.target is getattr for n in traced.graph.nodes
                       if n.op == "call_function")

    def test_shape_arithmetic_is_traced_not_specialized(self):
        """§5.3: shape attribute accesses stay symbolic, recording their use."""

        def f(x):
            return x.reshape(x.shape[0], -1)

        traced = symbolic_trace(f)
        # works for *different* batch sizes — no specialization happened
        assert traced(repro.zeros(2, 3, 4)).shape == (2, 12)
        assert traced(repro.zeros(7, 3, 4)).shape == (7, 12)

    def test_unpack_fixed_arity(self):
        def f(x):
            a, b = x.chunk(2)
            return a + b

        traced = symbolic_trace(f)
        out = traced(repro.arange(4).float())
        assert out.tolist() == [2.0, 4.0]


class TestTraceErrors:
    def test_bool_coercion_raises(self):
        def f(x):
            if x.sum() > 0:  # data-dependent control flow
                return x
            return -x

        with pytest.raises(TraceError, match="control flow"):
            symbolic_trace(f)

    def test_int_cast_raises(self):
        def f(x):
            return int(x.sum())

        with pytest.raises(TraceError, match="int"):
            symbolic_trace(f)

    def test_float_cast_raises(self):
        def f(x):
            return float(x)

        with pytest.raises(TraceError):
            symbolic_trace(f)

    def test_len_raises(self):
        def f(x):
            return len(x)

        with pytest.raises(TraceError, match="len"):
            symbolic_trace(f)

    def test_general_iteration_raises(self):
        def f(x):
            return [v for v in x]  # unknown arity: not an unpack

        with pytest.raises(TraceError, match="iterate"):
            symbolic_trace(f)

    def test_setitem_raises(self):
        def f(x):
            x[0] = 1.0
            return x

        with pytest.raises(TraceError, match="mutation|functional"):
            symbolic_trace(f)

    def test_contains_raises(self):
        def f(x):
            return 3 in x

        with pytest.raises(TraceError):
            symbolic_trace(f)

    def test_variadic_signature_rejected(self):
        def f(*xs):
            return xs[0]

        with pytest.raises(TraceError, match="variadic"):
            symbolic_trace(f)


class TestModuleTracing:
    def test_leaf_modules_stay_opaque(self):
        model = nn.Sequential(nn.Linear(4, 4), nn.ReLU())
        traced = symbolic_trace(model)
        assert all(n.op in ("placeholder", "call_module", "output")
                   for n in traced.graph.nodes)

    def test_user_modules_traced_through(self):
        class Inner(nn.Module):
            def forward(self, x):
                return repro.relu(x) + 1

        class Outer(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()

            def forward(self, x):
                return self.inner(x) * 2

        traced = symbolic_trace(Outer())
        # Inner was flattened: relu appears as call_function
        assert traced.graph.find_nodes(op="call_function", target=F.relu)
        assert not traced.graph.find_nodes(op="call_module")

    def test_sequential_loop_flattened(self):
        """§5.1: input-independent control flow (Sequential's loop) disappears."""
        model = nn.Sequential(*[nn.Linear(4, 4) for _ in range(5)])
        traced = symbolic_trace(model)
        assert len(traced.graph.find_nodes(op="call_module")) == 5

    def test_parameter_use_becomes_get_attr(self):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.w = nn.Parameter(repro.randn(4, 4))

            def forward(self, x):
                return F.linear(x, self.w)

        traced = symbolic_trace(M())
        attrs = traced.graph.find_nodes(op="get_attr")
        assert len(attrs) == 1 and attrs[0].target == "w"
        x = repro.randn(2, 4)
        assert np.allclose(traced(x).data, x.data @ traced.w.data.T, atol=1e-6)

    def test_parameter_get_attr_deduped(self):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.w = nn.Parameter(repro.randn(2, 2))

            def forward(self, x):
                return F.linear(x, self.w) + F.linear(x, self.w)

        traced = symbolic_trace(M())
        assert len(traced.graph.find_nodes(op="get_attr")) == 1

    def test_tensor_constant_lifted(self):
        def f(x):
            return x + repro.ones(3)

        traced = symbolic_trace(f)
        attrs = traced.graph.find_nodes(op="get_attr")
        assert len(attrs) == 1
        assert attrs[0].target.startswith("_tensor_constant")
        assert traced(repro.zeros(3)).tolist() == [1.0, 1.0, 1.0]

    def test_custom_leaf_policy(self):
        class Inner(nn.Module):
            def forward(self, x):
                return repro.relu(x)

        class Outer(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()

            def forward(self, x):
                return self.inner(x)

        class KeepInner(Tracer):
            def is_leaf_module(self, m, qualname):
                return isinstance(m, Inner) or super().is_leaf_module(m, qualname)

        tracer = KeepInner()
        graph = tracer.trace(Outer())
        assert any(n.op == "call_module" and n.target == "inner" for n in graph.nodes)

    def test_unregistered_module_raises(self):
        orphan = nn.Linear(2, 2)

        class M(nn.Module):
            def forward(self, x):
                return orphan(x)

        with pytest.raises(TraceError, match="not a submodule"):
            symbolic_trace(M())

    def test_training_flag_propagates(self):
        model = nn.Sequential(nn.Linear(2, 2)).eval()
        traced = symbolic_trace(model)
        assert not traced.training


class TestConcreteArgs:
    def test_partial_specialization(self):
        def f(x, flag):
            if flag:  # would be a TraceError with a Proxy flag
                return repro.relu(x)
            return x

        traced = symbolic_trace(f, concrete_args={"flag": True})
        assert traced.graph.find_nodes(op="call_function", target=F.relu)
        # flag is baked in: traced takes a single argument now
        assert len(traced.graph.find_nodes(op="placeholder")) == 1

    def test_concrete_false_branch(self):
        def f(x, flag):
            if flag:
                return repro.relu(x)
            return x.neg()

        traced = symbolic_trace(f, concrete_args={"flag": False})
        assert traced.graph.find_nodes(op="call_method", target="neg")


class TestWrap:
    def test_wrapped_function_is_opaque(self):
        @wrap
        def custom_op(x, k):
            return repro.Tensor(x.numpy() * k)  # numpy body: untraceable

        def f(x):
            return custom_op(x, 3)

        traced = symbolic_trace(f)
        n = traced.graph.find_nodes(op="call_function")[0]
        assert n.target is custom_op
        assert traced(repro.ones(2)).tolist() == [3.0, 3.0]

    def test_wrapped_runs_normally_outside_trace(self):
        @wrap
        def double(x):
            return x * 2

        assert double(3) == 6

    def test_wrapped_with_no_proxy_args_executes_during_trace(self):
        calls = []

        @wrap
        def side(k):
            calls.append(k)
            return k

        def f(x):
            return x + side(5)

        traced = symbolic_trace(f)
        assert calls == [5]
        assert not any(n.target is side for n in traced.graph.nodes
                       if n.op == "call_function")


class TestProxyMisc:
    def test_repr(self):
        recorded = {}

        def f(x):
            recorded["r"] = repr(x)
            return x

        symbolic_trace(f)
        assert recorded["r"].startswith("Proxy(")

    def test_proxy_from_other_tracer_rejected(self):
        t1, t2 = Tracer(), Tracer()
        g1 = t1.trace(lambda x: x)
        stray = Proxy(list(g1.nodes)[0], t1)
        t2.graph = type(g1)()
        with pytest.raises(TraceError):
            t2.create_arg(stray)


def _line_of(marker: str) -> int:
    with open(__file__) as f:
        return next(i for i, line in enumerate(f, 1)
                    if line.rstrip().endswith(marker))


class _StackInner(nn.Module):
    def forward(self, x):
        return F.relu(x)  # stack: inner


class _StackOuter(nn.Module):
    def __init__(self):
        super().__init__()
        self.inner = _StackInner()

    def forward(self, x):
        return self.inner(x) + self.inner(x)  # stack: outer


class TestStackText:
    def test_one_source_stack_is_one_shared_text(self):
        gm = symbolic_trace(_StackOuter())
        relus = gm.graph.find_nodes(op="call_function", target=F.relu)
        assert len(relus) == 2
        first, second = (n.meta["stack_trace"] for n in relus)
        assert first is second

    def test_text_names_each_user_frame_innermost_first(self):
        gm = symbolic_trace(_StackOuter())
        relu = gm.graph.find_nodes(op="call_function", target=F.relu)[0]
        add = gm.graph.find_nodes(op="call_function", target=operator.add)[0]
        # the recorded text names the file the code was compiled from, which
        # a cached copy of this module keeps from where it was compiled
        path = _StackOuter.forward.__code__.co_filename
        outer = f"{path}:{_line_of('# stack: outer')} in forward"
        assert relu.meta["stack_trace"] == (
            f"{path}:{_line_of('# stack: inner')} in forward <- {outer}")
        assert add.meta["stack_trace"] == outer
        assert gm.graph.find_nodes(op="placeholder")[0].meta["stack_trace"] is None

    def test_no_node_carries_stack_frames(self):
        gm = symbolic_trace(_StackOuter())
        assert all("stack_frames" not in n.meta for n in gm.graph.nodes)

    def test_the_text_table_lives_for_one_trace(self):
        tracer = Tracer()
        tracer.trace(_StackOuter())
        assert not hasattr(tracer, "_stack_texts")
