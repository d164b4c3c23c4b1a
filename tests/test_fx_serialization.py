"""Tests for GraphModule serialization (pickle / deepcopy) and node
stack-trace metadata."""

import copy
import operator
import pickle

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import Graph, GraphModule, Node, TraceError, symbolic_trace
from repro.fx.node import map_aggregate
from repro.fx.passes.shape_prop import ShapeProp
from repro.fx.testing import ProgramSpec, generate_program
from repro.models import MLP, SimpleCNN


class TestPickle:
    def test_roundtrip_preserves_semantics(self):
        gm = symbolic_trace(MLP(4, (8,), 2))
        gm2 = pickle.loads(pickle.dumps(gm))
        x = repro.randn(3, 4)
        assert np.allclose(gm(x).data, gm2(x).data)

    def test_roundtrip_preserves_graph_structure(self):
        gm = symbolic_trace(SimpleCNN().eval())
        gm2 = pickle.loads(pickle.dumps(gm))
        assert [n.op for n in gm2.graph.nodes] == [n.op for n in gm.graph.nodes]
        assert [n.name for n in gm2.graph.nodes] == [n.name for n in gm.graph.nodes]
        gm2.graph.lint()

    def test_loaded_module_is_recompiled(self):
        gm = symbolic_trace(lambda x: repro.relu(x))
        gm2 = pickle.loads(pickle.dumps(gm))
        assert gm2.code == gm.code
        # and the graph is re-editable + recompilable
        for n in gm2.graph.nodes:
            if n.op == "call_function":
                n.target = F.gelu
        gm2.recompile()
        x = repro.randn(4)
        assert np.allclose(gm2(x).data, F.gelu(x).data)

    def test_owning_module_restored(self):
        gm = symbolic_trace(MLP(4, (8,), 2))
        gm2 = pickle.loads(pickle.dumps(gm))
        assert gm2.graph.owning_module is gm2

    def test_training_flag_preserved(self):
        gm = symbolic_trace(SimpleCNN().eval())
        gm2 = pickle.loads(pickle.dumps(gm))
        assert gm2.training is False

    def test_transformed_graph_pickles(self):
        from repro.fx.passes import fuse_conv_bn

        gm = fuse_conv_bn(SimpleCNN().eval())
        gm2 = pickle.loads(pickle.dumps(gm))
        x = repro.randn(1, 3, 16, 16)
        assert np.allclose(gm(x).data, gm2(x).data, atol=1e-6)

    def test_deep_graph_pickles_without_recursion(self):
        # Nodes reference each other through the linked list and def-use
        # chains; the graph must serialize flat, not by letting pickle
        # recurse per node (a ~400-node chain used to blow the recursion
        # limit).
        from repro.fx import Graph, GraphModule

        g = Graph()
        cur = g.placeholder("x")
        for _ in range(2000):
            cur = g.call_function(F.relu, (cur,))
        g.output(cur)
        gm = GraphModule(nn.Module(), g)
        gm2 = pickle.loads(pickle.dumps(gm))
        assert len(gm2.graph) == len(gm.graph)
        gm2.graph.lint()
        x = repro.randn(4)
        assert np.array_equal(gm(x).data, gm2(x).data)
        gm3 = copy.deepcopy(gm)  # deepcopy shares the pickle path
        assert np.array_equal(gm(x).data, gm3(x).data)

    def test_node_references_in_meta_survive_roundtrip(self):
        gm = symbolic_trace(lambda x: F.relu(x) * 2.0)
        nodes = list(gm.graph.nodes)
        nodes[2].meta["provenance"] = [nodes[1]]
        gm2 = pickle.loads(pickle.dumps(gm))
        n2 = list(gm2.graph.nodes)
        assert n2[2].meta["provenance"][0] is n2[1]


def _nested(x, *, tree, window):
    a, (b, inner) = tree["pair"]
    return (a + b * inner["k"])[window]


def _nested_kwargs_module() -> GraphModule:
    """Nodes inside a tuple, a list, two dicts and a slice, and in meta."""
    g = Graph()
    x = g.placeholder("x")
    a = g.call_function(F.relu, (x,))
    b = g.call_function(F.sigmoid, (x,))
    c = g.call_function(operator.mul, (a, 2.0))
    n = g.call_method("size", (x, 0))
    out = g.call_function(_nested, (x,), {
        "tree": {"pair": (a, [b, {"k": c}])},
        "window": slice(None, n, None)})
    g.output((out, [a, {"b": b}]))
    out.meta["provenance"] = {"from": (a, [c]), "label": "nested"}
    return GraphModule(nn.Module(), g)


def _fidelity_subjects():
    for i in range(30):
        for family in ("graph", "module"):
            program = generate_program(
                ProgramSpec(seed=100 + i, family=family, n_ops=4 + i % 9))
            if i % 2:   # tensor_meta, types and shape facts in meta too
                ShapeProp(program.gm).propagate(*program.inputs)
            yield program.gm, program.inputs
    yield _nested_kwargs_module(), (repro.randn(4, 3),)


def _by_name(a):
    return map_aggregate(
        a, lambda x: ("node", x.name) if isinstance(x, Node) else x)


def _node_view(n: Node) -> tuple:
    return (n.name, n.op, n.target, n.type, _by_name(n.args),
            _by_name(n.kwargs), [u.name for u in n.users],
            [i.name for i in n.all_input_nodes], _by_name(n.meta))


def _leaves(value) -> list:
    out = []
    map_aggregate(value, out.append)
    return [v.data for v in out]


class TestRoundTripFidelity:
    """A pickle round trip is the one graph-copy path (``state._borrow``,
    the transform cache's snapshots, ``copy_module``): it must give back
    the same graph, not an equivalent one."""

    def test_round_trip_keeps_every_node_fact(self):
        subjects = list(_fidelity_subjects())
        assert len(subjects) >= 51
        for gm, inputs in subjects:
            gm2 = pickle.loads(pickle.dumps(gm))
            g, g2 = gm.graph, gm2.graph
            assert [_node_view(n) for n in g2.nodes] == \
                [_node_view(n) for n in g.nodes]
            assert len(g2) == len(g)
            assert g2._insert_before.name == g._insert_before.name
            assert all(n.graph is g2 for n in g2.nodes)
            assert g2.structural_hash(include_meta=True) == \
                g.structural_hash(include_meta=True)
            g2.lint()
            want, got = _leaves(gm(*inputs)), _leaves(gm2(*inputs))
            assert len(got) == len(want)
            for w, o in zip(want, got):
                assert o.dtype == w.dtype and o.tobytes() == w.tobytes()

    def test_nodes_in_nested_kwargs_are_wired_once(self):
        gm2 = pickle.loads(pickle.dumps(_nested_kwargs_module()))
        nodes = {n.name: n for n in gm2.graph.nodes}
        nested = nodes["_nested"]
        assert [n.name for n in nested.all_input_nodes] == \
            ["x", "relu", "sigmoid", "mul", "size"]
        assert nested.kwargs["window"].stop is nodes["size"]
        assert nested.meta["provenance"]["from"][1][0] is nodes["mul"]
        assert list(nodes["relu"].users) == [
            nodes["mul"], nested, nodes["output"]]

    def test_insert_point_survives(self):
        gm = _nested_kwargs_module()
        relu = gm.graph.find_nodes(op="call_function", target=F.relu)[0]
        gm.graph._insert_before = relu
        g2 = pickle.loads(pickle.dumps(gm)).graph
        assert g2._insert_before.name == "relu"
        made = g2.call_function(F.tanh, (g2.find_nodes(op="placeholder")[0],))
        assert made.next.name == "relu"


class TestDeepcopy:
    def test_deepcopy_independent_parameters(self):
        gm = symbolic_trace(MLP(4, (8,), 2))
        gm2 = copy.deepcopy(gm)
        x = repro.randn(2, 4)
        before = gm(x).data.copy()
        gm2.get_submodule("net.0").weight.data[...] += 10.0
        assert np.array_equal(gm(x).data, before)  # original untouched
        assert not np.allclose(gm2(x).data, before)

    def test_deepcopy_independent_graph(self):
        gm = symbolic_trace(lambda x: repro.relu(x))
        gm2 = copy.deepcopy(gm)
        for n in gm2.graph.nodes:
            if n.op == "call_function":
                n.target = F.gelu
        gm2.recompile()
        x = repro.randn(3)
        assert np.allclose(gm(x).data, F.relu(x).data)
        assert np.allclose(gm2(x).data, F.gelu(x).data)


class TestStackTraces:
    def test_nodes_carry_user_location(self):
        def model_fn(x):
            return repro.relu(x)

        gm = symbolic_trace(model_fn)
        relu = gm.graph.find_nodes(op="call_function", target=F.relu)[0]
        trace = relu.meta.get("stack_trace")
        assert trace is not None
        assert "model_fn" in trace
        assert __file__ in trace

    def test_trace_error_points_at_user_code(self):
        def branching(x):
            if x.sum() > 0:  # the offending line
                return x
            return -x

        with pytest.raises(TraceError, match="branching"):
            symbolic_trace(branching)

    def test_module_nodes_point_into_forward(self):
        class M(nn.Module):
            def forward(self, x):
                return repro.tanh(x)

        gm = symbolic_trace(M())
        tanh = gm.graph.find_nodes(op="call_function", target=F.tanh)[0]
        assert "forward" in tanh.meta["stack_trace"]
