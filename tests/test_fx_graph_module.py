"""Tests for GraphModule: state transfer, recompilation, persistence."""

import gc
import inspect
import os
import pickle
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import (Graph, GraphModule, Interpreter, cache_info,
                      clear_caches, symbolic_trace)


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

        assert gm.code
        before = fx_entries()
        for _ in range(50):
            gm.recompile()
            assert gm.code  # generated on use
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
            assert gm.code  # generated on use
        assert fx_entries() <= maxsize + 1


class TestCodeOnFirstUse:
    """``recompile()`` only says the graph changed; code is generated when
    ``forward`` / ``code`` is next used, once, and installed on the
    instance so every later read is a plain attribute."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Source generations since the fixture started."""
        calls = []
        python_code = Graph.python_code

        def counted(graph, *args, **kwargs):
            calls.append(graph)
            return python_code(graph, *args, **kwargs)

        monkeypatch.setattr(Graph, "python_code", counted)
        clear_caches("codegen")
        return calls

    def test_recompile_builds_nothing_until_use(self, builds):
        gm = symbolic_trace(Net())
        for _ in range(5):
            gm.recompile()
        assert builds == [] and cache_info()["codegen"]["misses"] == 0
        assert "forward" not in vars(gm) and "_code" not in vars(gm)
        x = repro.randn(2, 4)
        gm(x)
        assert len(builds) == 1 and cache_info()["codegen"]["misses"] == 1
        bound = vars(gm)["forward"]  # installed: later reads are plain
        gm(x), gm.code, repr(gm), gm.forward
        assert len(builds) == 1 and gm.forward is bound
        assert cache_info()["codegen"]["hits"] == 0

    @pytest.mark.parametrize("use", [
        lambda gm: gm.forward, lambda gm: gm.code, repr,
        lambda gm: gm.print_readable(),
        lambda gm: gm(repro.randn(2, 4)),
    ], ids=["forward", "code", "repr", "print_readable", "call"])
    def test_every_reader_sees_the_current_graph(self, builds, use):
        gm = symbolic_trace(lambda x: F.relu(x) + 1)
        assert "relu" in gm.code
        relu = gm.graph.find_nodes(op="call_function", target=F.relu)[0]
        relu.target = F.gelu
        gm.recompile()
        use(gm)
        assert "gelu" in vars(gm)["_code"] and len(builds) == 2

    def test_signature_and_retrace_see_a_real_method(self, builds):
        def f(x, y=2.0):
            return F.relu(x) * y

        gm = symbolic_trace(f)
        assert builds == []
        assert list(inspect.signature(gm.forward).parameters) == ["x", "y"]
        assert inspect.ismethod(gm.forward) and gm.forward.__self__ is gm
        again = symbolic_trace(symbolic_trace(f))  # the inner one never ran
        assert again.code == gm.code
        x = repro.randn(3)
        assert np.array_equal(again(x).data, f(x).data)

    def test_pickle_of_never_called_module_generates_nothing(self, builds):
        gm = symbolic_trace(Net())
        clone = pickle.loads(pickle.dumps(gm))
        assert builds == []
        x = repro.randn(2, 4)
        assert np.allclose(clone(x).data, gm(x).data)
        assert len(builds) == 1  # the two graphs share one generated forward
        assert clone.forward.__func__ is gm.forward.__func__

    def test_concurrent_first_calls_build_once(self, builds, monkeypatch):
        gm = symbolic_trace(Net())
        x = repro.randn(2, 4)
        expected = Interpreter(gm).run(x).data
        n = 8
        barrier = threading.Barrier(n)
        python_code = Graph.python_code

        def slow(graph, *args, **kwargs):  # hold the build open
            time.sleep(0.05)
            return python_code(graph, *args, **kwargs)

        monkeypatch.setattr(Graph, "python_code", slow)
        results = [None] * n

        def first_call(i):
            barrier.wait(timeout=10)
            results[i] = gm(x).data

        threads = [threading.Thread(target=first_call, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(r, expected) for r in results)
        assert len(builds) == 1 and cache_info()["codegen"]["misses"] == 1

    def test_dropped_module_needs_no_cycle_collector(self):
        """A module that was transformed but never run is freed by its last
        reference (the graph holds its owner weakly), so a compile's dead
        copies do not pin their weights until the next full collection.
        One whose ``forward`` was generated holds itself through the bound
        method, as every GraphModule used to."""
        gc.collect()
        gc.disable()
        try:
            gm = symbolic_trace(Net())
            gm.recompile()
            graph, alive = gm.graph, weakref.ref(gm)
            assert graph.owning_module is gm
            del gm
            assert alive() is None and graph.owning_module is None
            graph.lint()  # an orphaned graph still lints, unowned

            ran = symbolic_trace(Net())
            ran(repro.randn(2, 4))
            alive = weakref.ref(ran)
            del ran
            assert alive() is not None
        finally:
            gc.enable()
        gc.collect()
        assert alive() is None

    def test_codegen_failure_surfaces_at_first_use(self, builds):
        g = Graph()
        x = g.placeholder("not an identifier")
        g.output(g.call_function(F.relu, (x,)))
        with pytest.raises(SyntaxError):  # what exec'ing the source raises
            exec(compile(g.python_code().src, "<test>", "exec"), {})
        gm = GraphModule(nn.Module(), g)  # construction no longer compiles
        gm.recompile()
        for use in (lambda: gm.code, lambda: gm.forward, lambda: gm(1),
                    lambda: repr(gm)):
            with pytest.raises(SyntaxError):
                use()
        assert "forward" not in vars(gm)


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
