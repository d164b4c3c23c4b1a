"""Tests for repro.fx.backends: built-in names, dependency-aware capability
partitioner, to_backend lowering, per-partition compile memo, and the
regression fixes the refactor carries (get_attr support inheritance,
no-wasted-engine-builds)."""

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import Graph, GraphModule, cache_info, \
    symbolic_trace, to_backend
from repro.fx.backends import (
    Backend,
    CapabilityPartitioner,
    EagerBackend,
    NumpyBackend,
    UnsupportedNodesError,
    get_backend,
    override_support,
)
from repro.fx.passes import split_module
from repro.fx.testing import ProgramSpec, generate_program, run_oracle, \
    spec_for_iteration
from repro.models import MLP, deep_recommender, resnet18
from repro.fx.vm import VMModule
from repro.trt import TRTBackend

POOLING = ("MaxPool2d", "AvgPool2d", "AdaptiveAvgPool2d")


def _pooling_unsupported(node, modules):
    if node.op == "call_module":
        return type(modules[node.target]).__name__ not in POOLING
    return True


def _linear_run_partition_count(gm, is_supported):
    """The deleted linear-run algorithm, re-derived for comparison: a new
    partition starts whenever support flips along the node order."""
    count = 0
    current = None
    for node in gm.graph.nodes:
        if node.op in ("placeholder", "output", "get_attr"):
            continue
        sup = bool(is_supported(node))
        if current is None or sup != current:
            count += 1
            current = sup
    return count


class TestRegistry:
    def test_builtins_registered(self):
        for expected in ("eager", "numpy", "trt"):
            assert get_backend(expected).name == expected

    def test_get_backend_instantiates(self):
        be = get_backend("eager")
        assert isinstance(be, EagerBackend)
        # each call builds a fresh instance
        assert get_backend("numpy") is not get_backend("numpy")

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="no built-in backend"):
            get_backend("does-not-exist")

    def test_lazy_trt_resolves(self):
        assert isinstance(get_backend("trt"), TRTBackend)

    def test_custom_backend_roundtrip(self):
        class Doubler(Backend):
            """Compiles relu-only subgraphs into a module that... runs them."""

            name = "relu-only"

            def is_node_supported(self, node, modules):
                return node.target is F.relu

            def compile_subgraph(self, gm):
                return gm

        gm = symbolic_trace(lambda x: repro.tanh(repro.relu(x)))
        out = to_backend(gm, Doubler())
        x = repro.randn(4)
        assert np.allclose(out(x).data, gm(x).data, atol=1e-6)

    def test_override_support_narrows(self):
        be = override_support("eager", lambda n, m: n.target is not F.tanh)
        gm = symbolic_trace(lambda x: repro.tanh(repro.relu(x)))
        modules = dict(gm.named_modules())
        tanh = next(n for n in gm.graph.nodes if n.target is F.tanh)
        relu = next(n for n in gm.graph.nodes if n.target is F.relu)
        assert not be.is_node_supported(tanh, modules)
        assert be.is_node_supported(relu, modules)


class TestCapabilityPartitioner:
    def test_side_branch_does_not_sever(self):
        """The downsample shape: trunk supported, side branch off the
        *input* unsupported.  Linear splitting cut the trunk in two;
        dependency-aware partitioning keeps it whole."""

        def f(x):
            t1 = repro.relu(x)
            t2 = repro.relu(t1)
            side = repro.tanh(x)       # unsupported, hangs off the input
            return t2 + side           # supported join

        gm = symbolic_trace(f)
        part = CapabilityPartitioner(
            lambda n, m: n.target is not F.tanh, mask_effects=False)
        plan = part.partition(gm)
        assert len(plan.partitions) == 1  # relu, relu_1, add together
        assert [n.name for n in plan.unassigned] == ["tanh"]
        # the linear algorithm needed 3 partitions (2 supported) here
        assert _linear_run_partition_count(
            gm, lambda n: n.target is not F.tanh) == 3

    def test_cycle_creating_merge_rejected(self):
        """Chain through an unsupported node: merging its supported
        neighbours would create a partition cycle, so they stay apart."""

        def f(x):
            a = repro.relu(x)
            b = repro.tanh(a)          # unsupported, *consumes* a
            return repro.relu(b) + a   # supported, consumes both

        gm = symbolic_trace(f)
        plan = CapabilityPartitioner(
            lambda n, m: n.target is not F.tanh, mask_effects=False).partition(gm)
        assert len(plan.partitions) == 2
        # and the resulting split is actually executable
        split = to_backend(gm, override_support(
            "eager", lambda n, m: n.target is not F.tanh))
        x = repro.randn(4)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)

    def test_get_attr_inherits_from_consumers(self):
        """Regression: a leading get_attr before an unsupported first op
        defaulted to supported, making a compute-free 'supported'
        partition (an empty engine build downstream)."""

        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.w = nn.Parameter(repro.randn(4))

            def forward(self, x):
                return repro.relu(repro.tanh(x + self.w))

        gm = symbolic_trace(M())
        # first compute node (add) is unsupported; only relu is supported
        # (fallback nodes stay inline: every submodule is a supported one)
        split = to_backend(gm, override_support(
            "eager", lambda n, m: n.target is F.relu))
        supported = split.graph.find_nodes(op="call_module")
        assert supported
        for call in supported:
            ops = {n.op for n in split.get_submodule(call.target).graph.nodes}
            assert ops & {"call_function", "call_method", "call_module"}, (
                f"supported partition {call.target} has no compute: {ops}")
        x = repro.randn(4)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)

    def test_get_attr_claimed_by_single_consumer_partition(self):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.w = nn.Parameter(repro.randn(4))

            def forward(self, x):
                return repro.relu(x + self.w)

        gm = symbolic_trace(M())
        plan = CapabilityPartitioner(lambda n, m: True,
                                     mask_effects=False).partition(gm)
        assert len(plan.partitions) == 1
        names = {n.name for n in plan.partitions[0]}
        assert "w" in names  # the get_attr rode along with its consumer

    def test_effect_mask_fences_mutation(self):
        """An in-place op (and anything sharing its storage) must stay
        eager for a backend that copies instead of mutating."""

        def f(x):
            y = repro.relu(x)
            y.add_(1.0)        # mutates y in place
            return repro.tanh(y)

        gm = symbolic_trace(f)
        plan = CapabilityPartitioner(lambda n, m: True,
                                     mask_effects=True).partition(gm)
        masked = {n.name for n in plan.masked}
        assert "add_" in masked
        # relu's output is the mutated storage: fenced out too
        assert "relu" in masked

    def test_respects_effects_backend_skips_mask(self):
        def f(x):
            y = repro.relu(x)
            y.add_(1.0)
            return repro.tanh(y)

        gm = symbolic_trace(f)
        out = to_backend(gm, "eager")  # eager replays effects faithfully
        x = repro.randn(4)
        assert np.allclose(out(x).data, gm(repro.Tensor(x.data.copy())).data,
                           atol=1e-6)

    @pytest.mark.parametrize("source", ["zoo", "fuzz"])
    def test_fully_supported_partitions_are_connected_components(self, source):
        """With every node supported no merge can cycle, so the partitions
        are the weakly connected components of the compute nodes."""
        from tests.test_fx_opinfo import ZOO

        if source == "zoo":
            gms = [symbolic_trace(build().eval())
                   for build, _, _ in (ZOO[name] for name in sorted(ZOO))]
        else:
            programs = [generate_program(spec_for_iteration(0, i))
                        for i in range(40)]
            gms = [p.gm for p in programs if isinstance(p.gm, GraphModule)]
        assert len(gms) > 8
        for gm in gms:
            plan = CapabilityPartitioner(lambda n, m: True,
                                         mask_effects=False).partition(gm)
            compute = [n for n in gm.graph.nodes if n.op not in
                       ("placeholder", "output", "get_attr")]
            component = {n: {n} for n in compute}
            for n in compute:
                for inp in n.all_input_nodes:
                    if inp in component and component[inp] is not component[n]:
                        merged = component[inp] | component[n]
                        for m in merged:
                            component[m] = merged
            expected = {frozenset(c) for c in component.values()}
            got = {frozenset(n for n in nodes if n in component)
                   for nodes in plan.partitions.values()}
            assert all(n.op == "get_attr" for n in plan.unassigned)
            assert got == expected

    def test_partition_of_is_total_and_split_runs(self):
        gm = symbolic_trace(MLP(4, (8, 8), 2))
        split = to_backend(gm, override_support(
            "eager", lambda n, m: n.target not in ("net.1", "net.3")))
        compute = [n for n in gm.graph.nodes
                   if n.op not in ("placeholder", "output")]
        report = split.backend_report
        assert report.n_supported_nodes + report.n_fallback_nodes \
            == len(compute)
        assert {n.op for n in split.graph.nodes} \
            == {"placeholder", "call_module", "output"}
        x = repro.randn(3, 4)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)


class TestSplitModuleInline:
    def test_none_pid_leaves_node_inline(self):
        def f(x):
            a = repro.relu(x)
            b = repro.tanh(a)
            return repro.relu(b)

        gm = symbolic_trace(f)
        pid = {"relu": 0, "tanh": None, "relu_1": 1}
        split = split_module(gm, lambda n: pid[n.name])
        top_ops = [(n.op, str(n.target)) for n in split.graph.nodes]
        assert ("call_module", "submod_0") in top_ops
        assert ("call_module", "submod_1") in top_ops
        assert any(op == "call_function" for op, _ in top_ops)  # inline tanh
        x = repro.randn(4)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)

    def test_inline_call_module_state_reattached(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        gm = symbolic_trace(model)
        nodes = [n for n in gm.graph.nodes
                 if n.op not in ("placeholder", "output")]
        # middle node inline, ends in partitions
        assign = {nodes[0].name: 0, nodes[1].name: None, nodes[2].name: 1}
        split = split_module(gm, lambda n: assign[n.name])
        x = repro.randn(3, 4)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)

    def test_all_inline_degenerates_to_copy(self):
        gm = symbolic_trace(lambda x: repro.relu(repro.tanh(x)))
        split = split_module(gm, lambda n: None)
        assert not [n for n in split.graph.nodes if n.op == "call_module"]
        x = repro.randn(4)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)


class TestToBackend:
    def test_fully_supported_returns_native_module(self):
        trt = to_backend(MLP(4, (8,), 2).eval(), "trt")
        assert isinstance(trt, VMModule)
        assert hasattr(trt, "program")

    def test_callers_get_their_own_module(self):
        """Two lowerings are two modules over two programs: the second
        cannot overwrite the first caller's report (it did while a
        partition memo shared its module)."""
        model = MLP(4, (8,), 2).eval()
        a = to_backend(model, "trt")
        a_report = a.backend_report
        b = to_backend(model, "trt")
        assert a is not b and a.program is not b.program
        assert a.backend_report is a_report
        assert b.backend_report is not a_report
        assert "partition cache" not in a_report.format()

    def test_no_fallback_raises_before_any_build(self, monkeypatch):
        builds = []
        orig = TRTBackend.compile_subgraph

        def counting_build(self, gm):
            builds.append(1)
            return orig(self, gm)

        monkeypatch.setattr(TRTBackend, "compile_subgraph", counting_build)

        def f(x):
            return repro.softmax(repro.relu(x), dim=1)

        gm = symbolic_trace(f)
        gm.eval()
        with pytest.raises(UnsupportedNodesError, match="softmax"):
            to_backend(gm, "trt", allow_fallback=False)
        assert builds == []  # support is a pre-pass: no wasted engine build

    def test_run_entered_at_most_once_per_partition(self, monkeypatch):
        """An engine build is never started and thrown away: one build per
        supported partition."""
        builds = []
        orig = TRTBackend.compile_subgraph

        def counting_build(self, gm):
            builds.append(1)
            return orig(self, gm)

        monkeypatch.setattr(TRTBackend, "compile_subgraph", counting_build)

        class Mixed(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc1 = nn.Linear(8, 16)
                self.fc2 = nn.Linear(16, 4)

            def forward(self, x):
                h = repro.relu(self.fc1(x))
                h = repro.softmax(h, dim=1)  # unsupported
                return self.fc2(h)

        lowered = to_backend(Mixed().eval(), "trt")
        assert len(builds) == lowered.backend_report.n_partitions

    def test_warm_relowering_hits_cache(self):
        """The preferred passes replay from the transform cache; the
        partition is compiled again, and no weight byte is read."""
        model = MLP(6, (12,), 3).eval()
        to_backend(model, "trt")
        before = cache_info()["transform"]
        again = to_backend(model, "trt")
        after = cache_info()["transform"]
        assert all(r.cache_hit for r in again.backend_report.records)
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert after.get("state_read_bytes", 0) \
            == before.get("state_read_bytes", 0)
        x = repro.randn(2, 6)
        assert np.allclose(model(x).data, again(x).data, rtol=1e-3, atol=1e-5)

    def test_eval_mode_enforced_for_trt(self):
        with pytest.raises(RuntimeError, match="eval"):
            to_backend(MLP(4, (8,), 2), "trt")  # training mode

    def test_backend_report_attached(self):
        out = to_backend(MLP(4, (8,), 2).eval(), "eager")
        rep = out.backend_report
        assert rep.backend == "eager"
        assert rep.n_partitions == 1
        assert "to_backend" in rep.format()


class TestMixedPartitionDifferential:
    def test_resnet18_pooling_unsupported_trt(self):
        model = resnet18(num_classes=10).eval()
        gm = symbolic_trace(model)
        modules = dict(gm.named_modules())
        lowered = to_backend(model, override_support("trt", _pooling_unsupported))
        rep = lowered.backend_report
        old_count = _linear_run_partition_count(
            gm, lambda n: _pooling_unsupported(n, modules))
        # acceptance: strictly fewer partitions than the linear-run split
        assert rep.n_partitions < old_count
        assert rep.n_fallback_nodes > 0
        x = repro.randn(1, 3, 32, 32)
        assert np.allclose(model(x).data, lowered(x).data,
                           rtol=1e-3, atol=1e-4)

    def test_resnet18_pooling_unsupported_numpy(self):
        model = resnet18(num_classes=10).eval()
        lowered = to_backend(model, override_support("numpy", _pooling_unsupported))
        x = repro.randn(1, 3, 32, 32)
        # the numpy backend executes the same substrate: match to 1e-6
        assert np.allclose(model(x).data, lowered(x).data, atol=1e-6)

    def test_deep_recommender_mixed(self):
        model = deep_recommender(n_items=64).eval()

        def no_selu(node, modules):
            if node.op == "call_module":
                return type(modules[node.target]).__name__ != "SELU"
            return True

        x = repro.randn(2, 64)
        ref = model(x)
        trt_low = to_backend(model, override_support("trt", no_selu))
        np_low = to_backend(model, override_support("numpy", no_selu))
        assert trt_low.backend_report.n_fallback_nodes > 0
        assert np.allclose(ref.data, np_low(x).data, atol=1e-6)
        assert np.allclose(ref.data, trt_low(x).data, rtol=1e-3, atol=1e-5)

    def test_numpy_backend_is_fx_compile_pipeline(self):
        model = MLP(4, (8,), 2).eval()
        x = repro.randn(3, 4)
        compiled = repro.fx.compile(model, (x,))
        via_backend = to_backend(model, NumpyBackend((x,)))
        assert np.allclose(compiled(x).data, via_backend(x).data, atol=1e-6)
        names = [r.name for r in via_backend.backend_report.records]
        assert names[:4] == ["shape_prop", "dce", "cse", "const_fold"]


class TestPartitionCycleProperty:
    """Property test: for fuzz-generated graphs under random support
    predicates, the partitioner never emits a partition cycle and the
    stitched module preserves numerics (the oracle's backend_split check)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_graphs_split_cleanly(self, seed):
        program = generate_program(ProgramSpec(seed=seed * 1000 + 17,
                                               family="graph", n_ops=12))
        report = run_oracle(program, localize=False)
        outcome = next(o for o in report.outcomes if o.name == "backend_split")
        assert outcome.ok, outcome.error

    def test_backend_split_check_registered(self):
        program = generate_program(ProgramSpec(seed=3, family="module", n_ops=8))
        report = run_oracle(program, localize=False)
        assert any(o.name == "backend_split" for o in report.outcomes)
