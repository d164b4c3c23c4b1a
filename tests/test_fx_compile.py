"""Tier-1 smoke tests for ``repro.fx.compile`` — the one-call optimizing
pipeline (pointwise fusion + memory planning over the pass library)."""

import numpy as np
import pytest

import repro
import repro.functional as F
import repro.fx as fx
from repro import nn
from repro.fx.backends import NumpyBackend
from repro.fx.passes import PassRecord
from repro.fx.passes.pointwise_fuser import FusedKernel
from repro.models import (
    DeepRecommender,
    LearningToPaintActor,
    SimpleCNN,
    resnet18,
)


class PointwiseChain(nn.Module):
    """A deep elementwise chain — the best case for fusion."""

    def __init__(self, depth: int = 16):
        super().__init__()
        self.depth = depth

    def forward(self, x):
        t = x
        for i in range(self.depth // 4):
            t = F.relu(t)
            t = t * 1.01
            t = t + 0.1
            t = F.clamp(t, min=-4.0, max=4.0)
        return t


def _max_diff(a, b):
    if isinstance(a, (tuple, list)):
        return max(_max_diff(x, y) for x, y in zip(a, b))
    return float(np.max(np.abs(a.data.astype(np.float64) - b.data.astype(np.float64))))


# (factory, input shape, tolerance): exact for pipelines that only fuse
# pointwise ops; small slack where conv-bn folding re-associates floats.
CASES = {
    "pointwise_chain": (lambda: PointwiseChain(16).eval(), (8, 32), 0.0),
    "simple_cnn": (lambda: SimpleCNN().eval(), (1, 3, 16, 16), 1e-4),
    "resnet18": (lambda: resnet18(num_classes=10).eval(), (1, 3, 32, 32), 1e-3),
    "deep_recommender": (
        lambda: DeepRecommender(n_items=64, layer_sizes=(32, 16)).eval(),
        (2, 64), 0.0),
    "learning_to_paint": (lambda: LearningToPaintActor().eval(),
                          (1, 9, 32, 32), 1e-3),
}


class TestCompiledEqualsEager:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_compiled_matches_eager(self, name):
        factory, shape, tol = CASES[name]
        repro.manual_seed(7)
        m = factory()
        x = repro.randn(*shape)
        ref = m(x)
        cm = fx.compile(m, (x,))
        out1, out2 = cm(x), cm(x)
        assert _max_diff(ref, out1) <= tol
        assert _max_diff(out1, out2) == 0.0  # arena reuse is deterministic

    def test_pointwise_chain_fuses_to_one_kernel(self):
        m = PointwiseChain(16).eval()
        x = repro.randn(4, 8)
        cm = fx.compile(m, (x,))
        r = cm.compile_report
        assert r.fused_regions == 1
        assert r.fused_ops == 16
        assert np.array_equal(cm(x).data, m(x).data)

    def test_training_mode_skips_conv_bn_and_is_exact(self):
        m = SimpleCNN()  # training=True: BN folding must be skipped
        x = repro.randn(2, 3, 16, 16)
        ref = m(x)
        cm = fx.compile(m, (x,))
        assert "fuse_conv_bn" not in [rec.name for rec in cm.compile_report.records]
        assert np.array_equal(cm(x).data, ref.data)


class TestCompileDriver:
    def test_input_module_not_mutated(self):
        m = PointwiseChain(8).eval()
        gm = fx.symbolic_trace(m)
        nodes = len(gm.graph)
        x = repro.randn(3, 4)
        fx.compile(gm, (x,))
        assert len(gm.graph) == nodes
        assert np.array_equal(gm(x).data, m(x).data)

    def test_report_contents(self):
        m = PointwiseChain(8).eval()
        x = repro.randn(3, 4)
        cm = fx.compile(m, (x,))
        r = cm.compile_report
        assert r.nodes_after <= r.nodes_before
        assert r.input_shapes == ((3, 4),)
        names = [rec.name for rec in r.records]
        assert names[:4] == ["shape_prop", "dce", "cse", "const_fold"]
        assert "pointwise_fuse" in names and "memory_plan" in names
        assert all(isinstance(rec, PassRecord) for rec in r.records)
        assert "fusion" in r.format()

    def test_single_tensor_example_input(self):
        m = PointwiseChain(8).eval()
        x = repro.randn(2, 2)
        cm = fx.compile(m, x)
        assert np.array_equal(cm(x).data, m(x).data)

    def test_stage_toggles(self):
        m = PointwiseChain(8).eval()
        x = repro.randn(2, 3)
        plain = fx.to_backend(m, NumpyBackend((x,), fuse=False,
                                              memory_planning=False))
        assert not any(isinstance(n.target, FusedKernel)
                       for n in plain.graph.nodes)
        assert "memory_plan" not in vars(plain)
        assert np.array_equal(plain(x).data, m(x).data)

    def test_no_example_inputs_runs_generic_cleanups_only(self):
        m = PointwiseChain(8).eval()
        cm = fx.compile(m)
        assert cm.compile_report.fused_regions == 0
        x = repro.randn(4, 4)
        assert np.array_equal(cm(x).data, m(x).data)

    def test_recompile_with_new_shapes_is_not_stale(self):
        # The transform cache replays cleanup stages pickled under the
        # first compile's shapes; shape_refresh must re-specialize fusion
        # for the new example inputs.
        class M(nn.Module):
            def forward(self, x):
                t = F.sigmoid(F.relu(x) * 2.0)
                return F.matmul(t, t)

        m = M().eval()
        a = repro.randn(4, 4)
        cm_a = fx.compile(m, (a,))
        assert np.array_equal(cm_a(a).data, m(a).data)
        b = repro.randn(9, 9)
        cm_b = fx.compile(m, (b,))
        assert np.array_equal(cm_b(b).data, m(b).data)

    def test_compiled_module_pickles(self):
        import pickle

        m = PointwiseChain(12).eval()
        x = repro.randn(4, 4)
        cm = fx.compile(m, (x,))
        cm2 = pickle.loads(pickle.dumps(cm))
        assert np.array_equal(cm2(x).data, m(x).data)
        assert cm2.compile_report.fused_regions == cm.compile_report.fused_regions
