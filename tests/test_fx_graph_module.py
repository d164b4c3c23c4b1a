"""Tests for GraphModule: state transfer, recompilation, persistence."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import Graph, GraphModule, symbolic_trace


class Net(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(4, 4)
        self.block = nn.Sequential(nn.Linear(4, 4), nn.ReLU())

    def forward(self, x):
        return self.block(self.fc(x))


class TestStateTransfer:
    def test_parameters_copied(self):
        net = Net()
        gm = symbolic_trace(net)
        assert gm.fc.weight is net.fc.weight  # shared, not cloned
        assert dict(gm.named_parameters()).keys() == dict(net.named_parameters()).keys()

    def test_runs_like_original(self):
        net = Net()
        gm = symbolic_trace(net)
        x = repro.randn(2, 4)
        assert np.allclose(net(x).data, gm(x).data)

    def test_dict_root(self):
        g = Graph()
        x = g.placeholder("x")
        w = g.get_attr("w")
        out = g.call_function(F.linear, (x, w))
        g.output(out)
        gm = GraphModule({"w": nn.Parameter(repro.eye(3))}, g)
        xt = repro.randn(2, 3)
        assert np.allclose(gm(xt).data, xt.data, atol=1e-6)

    def test_dict_root_missing_key_raises(self):
        g = Graph()
        x = g.placeholder("x")
        w = g.get_attr("w")
        g.output(w)
        with pytest.raises(RuntimeError, match="missing"):
            GraphModule({}, g)

    def test_bad_root_type_raises(self):
        with pytest.raises(TypeError):
            GraphModule(42, Graph())

    def test_graphmodule_is_module(self):
        gm = symbolic_trace(Net())
        assert isinstance(gm, nn.Module)
        # usable inside another model (§4.2 interoperability)
        outer = nn.Sequential(gm, nn.ReLU())
        assert outer(repro.randn(1, 4)).shape == (1, 4)


class TestSubmoduleManagement:
    def test_add_submodule_creates_intermediates(self):
        gm = symbolic_trace(Net())
        assert gm.add_submodule("new.deep.leaf", nn.ReLU())
        assert isinstance(gm.get_submodule("new.deep.leaf"), nn.ReLU)

    def test_delete_submodule(self):
        gm = symbolic_trace(Net())
        assert gm.delete_submodule("fc")
        assert not gm.delete_submodule("fc")  # already gone

    def test_delete_all_unused_submodules(self):
        gm = symbolic_trace(Net())
        # remove the call to fc from the graph
        fc_node = gm.graph.find_nodes(op="call_module", target="fc")[0]
        fc_node.replace_all_uses_with(list(gm.graph.nodes)[0])
        gm.graph.erase_node(fc_node)
        gm.recompile()
        gm.delete_all_unused_submodules()
        with pytest.raises(AttributeError):
            gm.get_submodule("fc")
        gm.get_submodule("block.0")  # still used


class TestCode:
    def test_code_property(self):
        gm = symbolic_trace(Net())
        assert gm.code.startswith("def forward")

    def test_print_readable(self, capsys):
        gm = symbolic_trace(Net())
        gm.print_readable()
        assert "def forward" in capsys.readouterr().out

    def test_generated_code_in_linecache(self):
        """§5.4: generated code should be debuggable — visible to tracebacks."""
        import linecache

        gm = symbolic_trace(Net())
        filename = gm.forward.__func__.__code__.co_filename
        assert linecache.getline(filename, 1).startswith("def forward")

    def test_recompile_does_not_leak_linecache_entries(self):
        """Regression: every recompile() used to register a fresh
        <fx-generated-N> linecache entry and never evict the old one —
        unbounded growth under fuzzing/repeated transforms.  Identical
        graphs now share one cached entry."""
        import linecache

        gm = symbolic_trace(Net())

        def fx_entries():
            return sum(1 for k in linecache.cache if k.startswith("<fx-generated"))

        before = fx_entries()
        for _ in range(50):
            gm.recompile()
        assert fx_entries() == before

    def test_linecache_growth_bounded_under_distinct_graphs(self):
        """Even with distinct graphs, the codegen cache's LRU bound keeps
        linecache from growing past the cache size."""
        import linecache

        from repro.fx import cache_info

        maxsize = cache_info()["codegen"]["maxsize"]

        def fx_entries():
            return sum(1 for k in linecache.cache if k.startswith("<fx-generated"))

        gm = symbolic_trace(lambda x: repro.relu(x))
        for k in range(maxsize + 20):
            out = gm.graph.output_node
            with gm.graph.inserting_before(out):
                # growing chain: every iteration is a structurally new graph
                new = gm.graph.call_function(F.relu, (out.args[0],))
            out.args = (new,)
            gm.recompile()
        assert fx_entries() <= maxsize + 1


class TestToFolder:
    def test_roundtrip_through_disk(self, tmp_path):
        net = Net().eval()
        gm = symbolic_trace(net)
        folder = tmp_path / "exported"
        gm.to_folder(str(folder), "ExportedNet")
        assert (folder / "module.py").exists()
        assert (folder / "state.pkl").exists()

        sys.path.insert(0, str(tmp_path))
        try:
            import exported  # noqa: F401

            model = exported.ExportedNet()
            x = repro.randn(2, 4)
            assert np.allclose(model(x).data, gm(x).data)
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("exported", None)
            sys.modules.pop("exported.module", None)
