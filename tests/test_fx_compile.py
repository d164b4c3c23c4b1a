"""Tier-1 smoke tests for ``repro.fx.compile`` — the one-call optimizing
pipeline (pointwise fusion over the pass library) — and the storage
contract of what it returns: a fused kernel's result buffer is its own,
so a compiled value the caller holds never moves."""

import numpy as np
import pytest

import repro
import repro.functional as F
import repro.fx as fx
from repro import nn
from repro.fx import Interpreter
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
        assert _max_diff(out1, out2) == 0.0  # calls are deterministic

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
        assert names[-1] == "pointwise_fuse"
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
        plain = fx.to_backend(m, NumpyBackend((x,), fuse=False))
        assert not any(isinstance(n.target, FusedKernel)
                       for n in plain.graph.nodes)
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


# -- what a compiled call returns owns its storage ----------------------------


class TailReadModel(nn.Module):
    """A multi-use fused value read at the *last* step of a 3-step fused
    chain, after that chain's result buffer was first written."""

    def forward(self, a, c):
        x = F.exp(a) * F.sin(a)          # fused region, 2 users
        y = F.matmul(x, x)               # earlier user keeps x a separate region
        w = F.mul(F.sin(F.exp(c)), x)    # 3-step fused chain, reads x at tail
        return F.matmul(y, w)


class HeadReadModel(nn.Module):
    """The same shape of graph, with the chain reading x at its first step."""

    def forward(self, a):
        x = F.relu(a) * 2.0
        y = F.matmul(x, a)
        w = F.tanh(F.sin(F.exp(x)))      # x read at step 0 only
        return F.matmul(y, w)


class GemmModel(nn.Module):
    """A fused value a Linear reads at the first step of the kernel the
    Linear opens: a GEMM is not alias-safe, so that step must not write
    into what it reads."""

    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(6, 6)

    def forward(self, x):
        t = F.relu(x) * 2.0
        y = F.relu(self.fc(t))
        return y.sum(1)


class ChainModel(nn.Module):
    """Four same-shape fused intermediates separated by matmuls."""

    def forward(self, x):
        for _ in range(4):
            t = F.sigmoid(F.relu(x) * 2.0)
            x = F.matmul(t, t)
        return x


OWNERSHIP_CASES = {
    "tail_read": (TailReadModel, ((6, 6), (6, 6))),
    "head_read": (HeadReadModel, ((5, 5),)),
    "gemm": (GemmModel, ((4, 6),)),
}


def _run_with(executor, compiled):
    if executor == "vm":
        from repro.fx.vm import compile_to_vm
        return compile_to_vm(compiled).run
    if executor == "interpreter":
        return Interpreter(compiled).run
    return compiled


class TestResultsOwnTheirStorage:
    @pytest.mark.parametrize("executor", ["codegen", "vm", "interpreter"])
    @pytest.mark.parametrize("name", sorted(OWNERSHIP_CASES))
    def test_compiled_equals_eager(self, name, executor):
        build, shapes = OWNERSHIP_CASES[name]
        repro.manual_seed(0)
        m = build().eval()
        first = tuple(repro.randn(*s) for s in shapes)
        other = tuple(repro.randn(*s) for s in shapes)
        compiled = fx.compile(m, first)
        assert compiled.compile_report.fused_regions >= 2
        run = _run_with(executor, compiled)
        out = run(*first)
        kept = out.data.copy()
        assert np.array_equal(kept, m(*first).data)
        assert np.array_equal(run(*other).data, m(*other).data)
        assert out.data.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("executor", ["codegen", "vm"])
    @pytest.mark.parametrize("cast", [
        lambda t: t.float(), lambda t: t.to(repro.float32)],
        ids=["float", "to"])
    def test_cast_result_owns_its_storage(self, cast, executor):
        # A cast to the dtype the value already has returns the value
        # itself: what the caller holds is the fused result, which the
        # next call must not overwrite.
        class M(nn.Module):
            def forward(self, x):
                return cast(F.relu(x) * 2.0 + 1.0)

        x1, x2 = repro.randn(4, 8), repro.randn(4, 8)
        compiled = fx.compile(M(), (x1,), executor=executor)
        first = compiled(x1)
        saved = first.data.copy()
        compiled(x2)
        assert first.data.tobytes() == saved.tobytes()
        assert np.array_equal(saved, M()(x1).data)

    def test_region_input_returned_alongside_result(self):
        # A fused value that feeds later computation AND is returned: a
        # second call must not clobber the tensor the first call handed out.
        class M(nn.Module):
            def forward(self, x):
                u = F.sigmoid(F.relu(x) * 2.0)   # fused; escapes via output
                t = F.relu(F.matmul(u, u)) + 1.0  # fused
                m2 = F.matmul(t, t)
                return u, m2

        m = M()
        x1, x2 = repro.randn(6, 6), repro.randn(6, 6)
        compiled = fx.compile(m, (x1,))
        u1, _ = compiled(x1)
        u1_saved = u1.data.copy()
        compiled(x2)
        assert np.array_equal(u1.data, u1_saved)
        ref_u, ref_m = m(x1)
        out_u, out_m = compiled(x1)
        assert np.array_equal(out_u.data, ref_u.data)
        assert np.array_equal(out_m.data, ref_m.data)

    def test_fused_values_never_share_storage(self):
        # An Interpreter that keeps every intermediate sees each fused
        # kernel's result in a buffer of its own.
        m = ChainModel()
        x = repro.randn(5, 5)
        compiled = fx.compile(m, (x,))
        interp = Interpreter(compiled, garbage_collect_values=False)
        assert np.array_equal(interp.run(x).data, m(x).data)
        fused = [interp.env[n].data for n in compiled.graph.nodes
                 if n.op == "call_function" and isinstance(n.target, FusedKernel)]
        assert len(fused) == 4
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(fused) for b in fused[i + 1:])
