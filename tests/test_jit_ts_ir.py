"""Tests for the TorchScript-style IR data structures."""

import repro
from repro.jit import TSGraph


class TestTSGraph:
    def test_value_names_unique(self):
        g = TSGraph()
        a = g.fresh_value("x")
        b = g.fresh_value("x")
        assert a.name != b.name

    def test_inputs(self):
        g = TSGraph()
        v = g.add_input("self", "Module")
        assert g.inputs == [v]
        assert v.type == "Module"

    def test_constant_dedup_at_top_level(self):
        g = TSGraph()
        a = g.constant(2)
        b = g.constant(2)
        assert a is b
        assert g.num_ops() == 1

    def test_distinct_constants_not_merged(self):
        g = TSGraph()
        assert g.constant(2) is not g.constant(3)
        assert g.constant(2) is not g.constant(2.0)  # int vs float types

    def test_constant_types(self):
        g = TSGraph()
        assert g.constant(True).type == "bool"
        assert g.constant(1).type == "int"
        assert g.constant(1.5).type == "float"
        assert g.constant("s").type == "str"
        assert g.constant(None).type == "NoneType"

    def test_list_construct(self):
        g = TSGraph()
        v = g.list_construct([g.constant(2), g.constant(2)])
        assert v.type == "int[]"
        assert g.num_ops() == 2  # one constant (deduped) + list construct

    def test_get_attr_chain(self):
        g = TSGraph()
        self_v = g.add_input("self", "Module")
        conv = g.get_attr(self_v, "conv1", "Conv2d")
        w = g.get_attr(conv, "weight")
        assert g.num_ops() == 2
        assert w.producer.attributes["name"] == "weight"

    def test_blocks_counted_recursively(self):
        g = TSGraph()
        cond = g.constant(True)
        if_node = g.create("prim::If", [cond], 0)
        then_b = if_node.add_block()
        g.create("aten::relu", [], 1, block=then_b)
        g.create("aten::relu", [], 1, block=then_b)
        else_b = if_node.add_block()
        g.create("aten::neg", [], 1, block=else_b)
        assert g.num_ops() == 1 + 1 + 3  # constant + If + 3 inner

    def test_str_rendering(self):
        g = TSGraph()
        x = g.add_input("x")
        n = g.create("aten::relu", [x], 1)
        g.outputs.append(n.outputs[0])
        s = str(g)
        assert "graph(" in s and "aten::relu" in s and "return" in s

    def test_block_constants_not_hoisted(self):
        g = TSGraph()
        if_node = g.create("prim::If", [g.constant(True)], 0)
        b = if_node.add_block()
        c1 = g.constant(7, block=b)
        c2 = g.constant(7, block=b)
        assert c1 is not c2  # per-block constants stay local
