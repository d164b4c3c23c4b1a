"""Tests for split_module, support-based splitting, cost model, and the
pipeline scheduler."""

import operator

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import symbolic_trace
from repro.fx.backends import override_support, to_backend
from repro.fx.passes import (
    estimate,
    pipeline_schedule,
    split_module,
)
from repro.fx.passes.cost_model import ASIC_MODEL, CPU_MODEL, DeviceModel, GPU_MODEL
from repro.models import MLP, SimpleCNN


class TestSplitModule:
    def test_two_way_split_preserves_semantics(self):
        model = MLP(8, (16, 16), 4)
        gm = symbolic_trace(model)
        nodes = [n for n in gm.graph.nodes if n.op not in ("placeholder", "output")]
        half = len(nodes) // 2
        part = {n.name: (0 if i < half else 1) for i, n in enumerate(nodes)}
        split = split_module(gm, lambda n: part[n.name])
        x = repro.randn(3, 8)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)

    def test_submodules_named_by_partition(self):
        gm = symbolic_trace(MLP(4, (8,), 2))
        split = split_module(gm, lambda n: 0)
        assert split.get_submodule("submod_0") is not None
        assert len(split.graph.find_nodes(op="call_module")) == 1

    def test_multi_output_partition_uses_getitem(self):
        def f(x):
            a = repro.relu(x)
            b = repro.tanh(x)
            return a + b  # partition 1 consumes two values from partition 0

        gm = symbolic_trace(f)
        pid = {"relu": 0, "tanh": 0, "add": 1}
        split = split_module(gm, lambda n: pid[n.name])
        assert split.graph.find_nodes(op="call_function", target=operator.getitem)
        x = repro.randn(4)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)

    def test_interleaved_partitions_raise(self):
        def f(x):
            a = repro.relu(x)   # part 0
            b = repro.tanh(a)   # part 1
            c = a + b           # part 0 -> depends on part 1 AND part 1 on part 0
            return c

        gm = symbolic_trace(f)
        pid = {"relu": 0, "tanh": 1, "add": 0}
        with pytest.raises(RuntimeError, match="cycle"):
            split_module(gm, lambda n: pid[n.name])

    def test_three_way_chain(self):
        gm = symbolic_trace(MLP(4, (8, 8, 8), 2))
        nodes = [n for n in gm.graph.nodes if n.op not in ("placeholder", "output")]
        split = split_module(gm, lambda n: min(nodes.index(n) // 3, 2))
        x = repro.randn(2, 4)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)
        assert len(split.graph.find_nodes(op="call_module")) == 3

    def test_split_lints(self):
        gm = symbolic_trace(MLP(4, (8,), 2))
        split = split_module(gm, lambda n: 0)
        split.graph.lint()


def _compute_names(gm) -> set:
    return {n.name for n in gm.graph.nodes
            if n.op not in ("placeholder", "output")}


class TestSupportSplitter:
    """Support-based splitting is ``to_backend`` with a predicate backend:
    supported nodes in submodules, the rest inline in the top graph."""

    @staticmethod
    def _split(gm, is_supported):
        backend = override_support(
            "eager", lambda n, modules: is_supported(n), name="predicate")
        return to_backend(gm, backend)

    def test_alternating_partitions(self):
        def f(x):
            a = repro.relu(x)      # supported
            b = repro.tanh(a)      # unsupported
            c = repro.relu(b)      # supported
            return c

        gm = symbolic_trace(f)
        split = self._split(gm, lambda n: n.target is F.relu)
        assert split.backend_report.n_partitions == 2       # supported
        assert len(split.graph.find_nodes(op="call_module")) == 2
        assert [n.name for n in split.graph.find_nodes(op="call_function")] \
            == ["tanh"]                                      # inline fallback
        x = repro.randn(4)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)

    def test_all_supported_single_partition(self):
        gm = symbolic_trace(lambda x: repro.relu(repro.relu(x)))
        report = self._split(gm, lambda n: True).backend_report
        assert report.n_partitions == 1
        assert report.n_fallback_nodes == 0

    def test_partition_of_covers_all_compute_nodes(self):
        gm = symbolic_trace(MLP(4, (8,), 2))
        split = self._split(gm, lambda n: n.target != "net.1")
        inside = set()
        for name in ("submod_0", "submod_1"):
            inside |= _compute_names(split.get_submodule(name))
        inline = _compute_names(split) - {"submod_0", "submod_1"}
        assert inside | inline == _compute_names(gm)
        assert inline == {"net_1"}           # the one unsupported node


class TestCostModel:
    def test_linear_flops(self):
        # tracing a leaf layer as root goes through its functional body
        gm = symbolic_trace(nn.Linear(100, 50))
        report = estimate(gm, repro.randn(4, 100))
        row = [r for r in report.rows if "linear" in r.target][0]
        assert row.flops == 2 * 4 * 50 * 100

    def test_linear_module_flops(self):
        gm = symbolic_trace(nn.Sequential(nn.Linear(100, 50)))
        report = estimate(gm, repro.randn(4, 100))
        row = [r for r in report.rows if r.op == "call_module"][0]
        assert row.flops == 2 * 4 * 50 * 100

    def test_conv_flops(self):
        gm = symbolic_trace(nn.Conv2d(3, 8, 3, padding=1))
        report = estimate(gm, repro.randn(1, 3, 10, 10))
        row = report.rows[0]
        assert row.flops == 2 * (8 * 10 * 10) * 3 * 3 * 3

    def test_resnet18_gflops_magnitude(self):
        """ResNet-18 at 224² is famously ~1.8 GFLOPs (MACs×2 ≈ 3.6)."""
        from repro.models import resnet18

        gm = symbolic_trace(resnet18().eval())
        report = estimate(gm, repro.randn(1, 3, 224, 224))
        gflops = report.total_flops / 1e9
        assert 3.0 < gflops < 4.5  # counting 2 flops/MAC

    def test_param_bytes_counted(self):
        gm = symbolic_trace(nn.Sequential(nn.Linear(10, 10)))
        report = estimate(gm, repro.randn(1, 10))
        assert report.rows[0].param_bytes == (10 * 10 + 10) * 4

    def test_report_summary(self):
        gm = symbolic_trace(nn.Linear(4, 4))
        report = estimate(gm, repro.randn(1, 4))
        assert "GFLOPs" in report.summary()

    def test_device_model_roofline(self):
        from repro.fx.passes.cost_model import NodeCost

        dev = DeviceModel("toy", flops_per_second=100.0, bytes_per_second=10.0,
                          overhead_per_op=1.0)
        compute_bound = NodeCost("a", "call_function", "f", flops=1000, bytes_read=1)
        memory_bound = NodeCost("b", "call_function", "f", flops=1, bytes_read=1000)
        assert dev.node_time(compute_bound) == pytest.approx(10.0 + 1.0)
        assert dev.node_time(memory_bound) == pytest.approx(100.0 + 1.0)

    def test_gpu_predicted_faster_than_cpu(self):
        gm = symbolic_trace(SimpleCNN().eval())
        report = estimate(gm, repro.randn(8, 3, 32, 32))
        assert GPU_MODEL.predict_runtime(report) < CPU_MODEL.predict_runtime(report)


class TestScheduler:
    def _two_branch_model(self):
        class TwoTower(nn.Module):
            def __init__(self):
                super().__init__()
                self.left = nn.Sequential(nn.Linear(64, 256), nn.ReLU(),
                                          nn.Linear(256, 64))
                self.right = nn.Sequential(nn.Linear(64, 256), nn.ReLU(),
                                           nn.Linear(256, 64))

            def forward(self, x):
                return self.left(x) + self.right(x)

        return TwoTower()

    def test_parallel_branches_overlap(self):
        gm = symbolic_trace(self._two_branch_model())
        x = repro.randn(16, 64)
        sched = pipeline_schedule(
            gm, x,
            assign=lambda n: "dev0" if "left" in str(n.target) else "dev1",
            devices={"dev0": CPU_MODEL, "dev1": CPU_MODEL},
        )
        assert sched.speedup > 1.2  # the two towers genuinely overlap

    def test_serial_chain_no_speedup(self):
        gm = symbolic_trace(MLP(8, (16, 16), 4))
        sched = pipeline_schedule(
            gm, repro.randn(2, 8),
            assign=lambda n: "only",
            devices={"only": CPU_MODEL},
        )
        assert sched.speedup == pytest.approx(1.0)

    def test_makespan_at_least_critical_path(self):
        gm = symbolic_trace(self._two_branch_model())
        sched = pipeline_schedule(
            gm, repro.randn(4, 64),
            assign=lambda n: "a",
            devices={"a": CPU_MODEL, "b": GPU_MODEL},
        )
        assert sched.makespan <= sched.serial_time + 1e-12

    def test_timeline_and_utilization(self):
        gm = symbolic_trace(self._two_branch_model())
        sched = pipeline_schedule(
            gm, repro.randn(4, 64),
            assign=lambda n: "dev0" if "left" in str(n.target) else "dev1",
            devices={"dev0": CPU_MODEL, "dev1": CPU_MODEL},
        )
        assert sched.timeline("dev0")
        assert 0 < sched.utilization("dev0") <= 1.0
        # no overlapping ops on one resource
        for res in ("dev0", "dev1"):
            ops = sched.timeline(res)
            for a, b in zip(ops, ops[1:]):
                assert b.start >= a.end - 1e-12

    def test_dependencies_respected(self):
        gm = symbolic_trace(MLP(4, (8,), 2))
        sched = pipeline_schedule(
            gm, repro.randn(1, 4),
            assign=lambda n: "a",
            devices={"a": CPU_MODEL},
        )
        finish = {}
        for op in sched.ops:
            finish[op.node_name] = op.end
        node_by_name = {n.name: n for n in gm.graph.nodes}
        for op in sched.ops:
            for inp in node_by_name[op.node_name].all_input_nodes:
                if inp.name in finish:
                    assert op.start >= finish[inp.name] - 1e-12

    def test_unknown_resource_raises(self):
        gm = symbolic_trace(MLP(4, (8,), 2))
        with pytest.raises(KeyError):
            pipeline_schedule(
                gm, repro.randn(1, 4),
                assign=lambda n: "missing",
                devices={"a": CPU_MODEL},
            )

    def test_transfer_cost_penalizes_chatty_splits(self):
        gm1 = symbolic_trace(MLP(8, (16, 16), 4))
        gm2 = symbolic_trace(MLP(8, (16, 16), 4))
        mono = pipeline_schedule(
            gm1, repro.randn(2, 8), assign=lambda n: "a",
            devices={"a": CPU_MODEL, "b": CPU_MODEL},
        )
        count = {"i": 0}

        def flip_flop(n):
            count["i"] += 1
            return "a" if count["i"] % 2 else "b"

        chatty = pipeline_schedule(
            gm2, repro.randn(2, 8), assign=flip_flop,
            devices={"a": CPU_MODEL, "b": CPU_MODEL},
            transfer_latency=1e-3,
        )
        assert chatty.makespan > mono.makespan


class TestSplitFuzzSurfacedEdgeCases:
    """split_module edge cases the fuzz generator covers: values crossing
    partitions through kwargs, multi-use placeholders, and shared
    subexpressions consumed by several partitions."""

    def test_kwargs_value_crossing_partitions(self):
        def f(x, w, b):
            w2 = repro.tanh(w)
            b2 = repro.relu(b)
            return F.linear(x, w2, bias=b2)

        gm = symbolic_trace(f)
        pid = {"tanh": 0, "relu": 0, "linear": 1}
        split = split_module(gm, lambda n: pid[n.name])
        split.graph.lint()
        x, w, b = repro.randn(2, 4), repro.randn(3, 4), repro.randn(3)
        assert np.allclose(split(x, w, b).data, gm(x, w, b).data, atol=1e-6)

    def test_multi_use_placeholder_feeds_several_partitions(self):
        def f(x):
            a = repro.relu(x)
            b = repro.tanh(x)
            c = a + x
            return b * c

        gm = symbolic_trace(f)
        pid = {"relu": 0, "tanh": 1, "add": 0, "mul": 2}
        split = split_module(gm, lambda n: pid[n.name])
        split.graph.lint()
        for sub in ("submod_0", "submod_1", "submod_2"):
            split.get_submodule(sub).graph.lint()
        x = repro.randn(3)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)

    def test_shared_subexpression_threaded_once(self):
        def f(x):
            shared = repro.relu(x)
            a = shared + 1
            b = shared * 2
            return a + b

        gm = symbolic_trace(f)
        pid = {"relu": 0, "add": 1, "mul": 2, "add_1": 3}
        split = split_module(gm, lambda n: pid[n.name])
        split.graph.lint()
        # the producing partition exposes the shared value exactly once
        sub0 = split.get_submodule("submod_0")
        out_node = sub0.graph.output_node
        assert not isinstance(out_node.args[0], tuple)
        x = repro.randn(4)
        assert np.allclose(split(x).data, gm(x).data, atol=1e-6)


class TestFusedKernelCosting:
    """Regression: fused regions must cost the sum of their steps' op
    costs, not fall to the generic call_function default of zero flops
    (which made post-``fx.compile`` graphs look free to the scheduler)."""

    class Chain(nn.Module):
        def forward(self, x):
            t = x
            for _ in range(4):
                t = F.relu(t)
                t = t * 1.01
                t = t + 0.1
                t = F.sigmoid(t)
            return t

    def test_fused_chain_flops_match_unfused(self):
        from repro.fx.passes.pointwise_fuser import fuse_pointwise
        from repro.fx.passes.shape_prop import ShapeProp

        x = repro.randn(8, 64)
        unfused = symbolic_trace(self.Chain())
        before = estimate(unfused, x)

        fused = symbolic_trace(self.Chain())
        ShapeProp(fused).propagate(x)
        assert fuse_pointwise(fused) > 0  # at least one region fused
        after = estimate(fused, x)

        assert before.total_flops > 0
        assert after.total_flops == before.total_flops

    def test_fused_expensive_steps_keep_weight(self):
        from repro.fx.passes.pointwise_fuser import fuse_pointwise
        from repro.fx.passes.shape_prop import ShapeProp

        class Transcendental(nn.Module):
            def forward(self, x):
                return F.exp(F.relu(x) + 1.0)

        x = repro.randn(4, 32)
        unfused = symbolic_trace(Transcendental())
        before = estimate(unfused, x)
        fused = symbolic_trace(Transcendental())
        ShapeProp(fused).propagate(x)
        assert fuse_pointwise(fused) > 0
        after = estimate(fused, x)
        # exp is 8 flops/element both ways; relu/add 1 flop/element
        assert after.total_flops == before.total_flops
        assert before.total_flops == (8 + 1 + 1) * 4 * 32


class TestDeviceCalibration:
    """``DeviceModel.calibrate`` fits roofline constants from timed
    microbenchmarks; the fitted model must rank real programs by cost."""

    def _chain(self, width, depth=4):
        layers = []
        for _ in range(depth):
            layers += [nn.Linear(width, width), nn.ReLU()]
        return nn.Sequential(*layers)

    def test_calibrated_model_rank_correlates_with_measured(self):
        import time as _time

        # widths chosen so adjacent runtimes differ by >= ~4x: below
        # width ~128 the chains are python-dispatch bound and their
        # measured ordering is timer noise
        programs = []
        for width in (32, 256, 1024, 2048):
            gm = symbolic_trace(self._chain(width))
            x = repro.randn(16, width)
            report = estimate(gm, x)
            gm(x)  # warm
            best = min(
                (lambda t0: (gm(x), _time.perf_counter() - t0)[1])(
                    _time.perf_counter())
                for _ in range(5))
            programs.append((report, best))

        fitted = DeviceModel.calibrate(programs)
        assert fitted.flops_per_second > 0
        assert fitted.bytes_per_second > 0
        assert fitted.overhead_per_op >= 0

        predicted = [fitted.predict_runtime(r) for r, _ in programs]
        measured = [t for _, t in programs]

        def ranks(xs):
            order = sorted(range(len(xs)), key=xs.__getitem__)
            out = [0] * len(xs)
            for rank, i in enumerate(order):
                out[i] = rank
            return out

        pr, mr = ranks(predicted), ranks(measured)
        n = len(pr)
        d2 = sum((a - b) ** 2 for a, b in zip(pr, mr))
        spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1))
        # sizes span ~3 orders of magnitude, so ranking must be robust
        # to timer noise even on a loaded CI box
        assert spearman >= 0.9, (predicted, measured)

    def test_calibrate_needs_two_samples(self):
        gm = symbolic_trace(nn.Linear(4, 4))
        report = estimate(gm, repro.randn(1, 4))
        with pytest.raises(ValueError):
            DeviceModel.calibrate([(report, 1e-3)])

    def test_calibrate_recovers_synthetic_device(self):
        """Samples generated from known constants must be reproduced to
        first order (predictions within 2x on the training points)."""
        truth = DeviceModel("truth", flops_per_second=1e9,
                            bytes_per_second=1e8, overhead_per_op=0.0)
        samples = []
        for width in (16, 64, 256):
            gm = symbolic_trace(self._chain(width, depth=2))
            report = estimate(gm, repro.randn(8, width))
            seconds = sum(r.flops / 1e9 + r.total_bytes / 1e8
                          for r in report.rows)
            samples.append((report, seconds))
        fitted = DeviceModel.calibrate(samples)
        for report, seconds in samples:
            predicted = fitted.predict_runtime(report)
            assert 0.5 * seconds <= predicted <= 2.0 * seconds


class TestSchedulerEdgeCases:
    """Satellite coverage for pipeline_schedule: zero-cost transfers,
    degenerate single-resource schedules, and transfer-cost monotonicity."""

    def _chain_gm(self):
        return symbolic_trace(MLP(8, (16, 16), 4))

    def test_zero_cost_transfer_makes_chatty_split_free(self):
        x = repro.randn(2, 8)
        mono = pipeline_schedule(
            self._chain_gm(), x, assign=lambda n: "a",
            devices={"a": CPU_MODEL, "b": CPU_MODEL})
        count = {"i": 0}

        def flip_flop(n):
            count["i"] += 1
            return "a" if count["i"] % 2 else "b"

        chatty = pipeline_schedule(
            self._chain_gm(), x, assign=flip_flop,
            devices={"a": CPU_MODEL, "b": CPU_MODEL},
            transfer_latency=0.0, transfer_bytes_per_second=1e30)
        assert chatty.makespan == pytest.approx(mono.makespan)

    def test_single_resource_degenerate_schedule(self):
        sched = pipeline_schedule(
            self._chain_gm(), repro.randn(2, 8),
            assign=lambda n: "only", devices={"only": CPU_MODEL})
        assert sched.speedup == pytest.approx(1.0)
        assert sched.utilization("only") == pytest.approx(1.0)
        assert sched.bubble_fraction == pytest.approx(0.0)
        ops = sched.timeline("only")
        for a, b in zip(ops, ops[1:]):
            assert b.start == pytest.approx(a.end)

    def test_makespan_monotone_in_transfer_cost(self):
        count = {"i": 0}

        def flip_flop(n):
            count["i"] += 1
            return "a" if count["i"] % 2 else "b"

        makespans = []
        for latency in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
            count["i"] = 0
            sched = pipeline_schedule(
                self._chain_gm(), repro.randn(2, 8), assign=flip_flop,
                devices={"a": CPU_MODEL, "b": CPU_MODEL},
                transfer_latency=latency)
            makespans.append(sched.makespan)
        for lo, hi in zip(makespans, makespans[1:]):
            assert hi >= lo - 1e-15
