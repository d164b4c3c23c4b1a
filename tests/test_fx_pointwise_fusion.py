"""Tests for the pointwise-operator fusion pass (passes.pointwise_fuser)."""

import operator
import pickle
import sys
import threading

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import Graph, GraphModule, opinfo, symbolic_trace
from repro.fx.passes import ShapeProp
from repro.fx.passes.pointwise_fuser import FusedKernel, OpDef, fuse_pointwise


def _trace_and_prop(module, *inputs):
    gm = symbolic_trace(module)
    ShapeProp(gm).propagate(*inputs)
    return gm


def _fused_nodes(gm):
    return [n for n in gm.graph.nodes
            if n.op == "call_function" and isinstance(n.target, FusedKernel)]


class TestRegionDetection:
    def test_chain_collapses_to_single_kernel(self):
        class M(nn.Module):
            def forward(self, x):
                t = F.relu(x)
                t = t * 2.0
                t = F.sigmoid(t)
                return F.clamp(t, min=0.1, max=0.9)

        m = M()
        x = repro.randn(4, 8)
        gm = _trace_and_prop(m, x)
        nodes_before = len(gm.graph)
        assert fuse_pointwise(gm) == 1
        kernels = _fused_nodes(gm)
        assert len(kernels) == 1
        assert kernels[0].target.n_ops == 4
        assert len(gm.graph) < nodes_before
        assert np.array_equal(gm(x).data, m(x).data)

    def test_dag_region_with_multiple_internal_uses(self):
        class M(nn.Module):
            def forward(self, x):
                y = F.relu(x)
                a = y * 2.0
                b = y + 1.0
                return a + b  # y has two users, both inside the region

        m = M()
        x = repro.randn(5, 3)
        gm = _trace_and_prop(m, x)
        assert fuse_pointwise(gm) == 1
        assert _fused_nodes(gm)[0].target.n_ops == 4
        assert np.array_equal(gm(x).data, m(x).data)

    def test_external_consumer_blocks_absorption(self):
        class M(nn.Module):
            def forward(self, x):
                y = F.relu(x)          # consumed by the region AND matmul
                a = y * 2.0
                m = F.matmul(y, y)
                return a + m

        x = repro.randn(4, 4)
        gm = _trace_and_prop(M(), x)
        fuse_pointwise(gm)
        # relu must survive as a standalone node: one of its users is
        # outside any fused region.
        assert any(n.target is F.relu for n in gm.graph.nodes
                   if n.op == "call_function")
        assert np.array_equal(gm(x).data, M()(x).data)

    def test_requires_shape_metadata(self):
        class M(nn.Module):
            def forward(self, x):
                return F.relu(x) * 2.0

        gm = symbolic_trace(M())  # no ShapeProp
        assert fuse_pointwise(gm) == 0

    def test_integer_dtype_not_fused(self):
        class M(nn.Module):
            def forward(self, x):
                return (x + x) * 2

        gm = symbolic_trace(M())
        ShapeProp(gm).propagate(repro.arange(6))
        assert fuse_pointwise(gm) == 0

    def test_min_region_size_excludes_singletons(self):
        class M(nn.Module):
            def forward(self, x):
                return F.matmul(F.relu(x), x)  # lone relu between breakers

        gm = _trace_and_prop(M(), repro.randn(3, 3))
        assert fuse_pointwise(gm) == 0

    def test_consecutive_regions_chain_through_replacement(self):
        # Region B's input is region A's output: the rewrite of A must be
        # visible to B (regression for stale-operand references).
        class M(nn.Module):
            def forward(self, x):
                for _ in range(3):
                    t = F.relu(x) + 1.0
                    x = F.matmul(t, t)
                return x

        m = M()
        x = repro.randn(6, 6)
        gm = _trace_and_prop(m, x)
        assert fuse_pointwise(gm) == 3
        gm.graph.lint()
        assert np.array_equal(gm(x).data, m(x).data)


class TestNumerics:
    @pytest.mark.parametrize("build", [
        lambda x: F.gelu(F.silu(x)) * 1.5,
        lambda x: F.selu(F.leaky_relu(x, negative_slope=0.2)),
        lambda x: F.hardswish(F.softplus(x, beta=2.0)) - 0.25,
        lambda x: F.where(x, F.tanh(x), F.elu(x, alpha=0.7)),
        lambda x: F.add(F.mish(x), x, alpha=3.0),
        lambda x: x.sigmoid().clamp(min=0.2) / 0.5,
        lambda x: F.rsqrt(F.exp(x) + 2.0),
    ], ids=["gelu-silu", "selu-leaky", "hardswish-softplus", "where-tanh-elu",
            "mish-alpha-add", "method-chain", "rsqrt-exp"])
    def test_bitwise_equal_to_eager(self, build):
        class M(nn.Module):
            def forward(self, x):
                return build(x)

        m = M()
        x = repro.randn(16, 9)
        ref = m(x)
        gm = _trace_and_prop(m, x)
        assert fuse_pointwise(gm) >= 1
        out = gm(x)
        assert out.dtype is ref.dtype
        assert np.array_equal(out.data, ref.data)

    def test_module_activations_absorbed(self):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.act = nn.LeakyReLU(0.3)
                self.tanh = nn.Tanh()

            def forward(self, x):
                return self.tanh(self.act(x * 2.0))

        m = M()
        x = repro.randn(7, 7)
        gm = _trace_and_prop(m, x)
        assert fuse_pointwise(gm) == 1
        spec = _fused_nodes(gm)[0].target.spec
        assert {s.key for s in spec.steps} == {"mul", "leaky_relu", "tanh"}
        # the module parameters were baked in as immediates
        (lr,) = [s for s in spec.steps if s.key == "leaky_relu"]
        assert dict(lr.params)["negative_slope"] == 0.3
        assert np.array_equal(gm(x).data, m(x).data)

    def test_broadcast_input_guarded(self):
        class M(nn.Module):
            def forward(self, x, b):
                return F.relu(x + b) * 2.0  # b broadcasts (C,) -> (N, C)

        m = M()
        x, b = repro.randn(4, 6), repro.randn(6)
        gm = _trace_and_prop(m, x, b)
        assert fuse_pointwise(gm) == 1
        assert np.array_equal(gm(x, b).data, m(x, b).data)


class TestGuardFallback:
    def _compiled(self):
        class M(nn.Module):
            def forward(self, x):
                return F.sigmoid(F.relu(x) * 3.0) + 0.125

        m = M()
        x = repro.randn(4, 4)
        gm = _trace_and_prop(m, x)
        assert fuse_pointwise(gm) == 1
        return m, gm

    def test_other_shape_falls_back_to_generic(self):
        m, gm = self._compiled()
        y = repro.randn(2, 9, 3)
        assert np.array_equal(gm(y).data, m(y).data)

    def test_other_dtype_falls_back_to_generic(self):
        m, gm = self._compiled()
        y = repro.randn(4, 4).to(repro.float64)
        out, ref = gm(y), m(y)
        assert out.dtype is ref.dtype
        assert np.array_equal(out.data, ref.data)


class TestKernelObject:
    def test_pickle_round_trip(self):
        class M(nn.Module):
            def forward(self, x):
                return F.gelu(x * 0.5) + 1.0

        m = M()
        x = repro.randn(3, 5)
        gm = _trace_and_prop(m, x)
        fuse_pointwise(gm)
        gm2 = pickle.loads(pickle.dumps(gm))
        assert np.array_equal(gm2(x).data, m(x).data)
        k2 = _fused_nodes(gm2)[0].target
        assert k2.spec == _fused_nodes(gm)[0].target.spec

    def test_each_call_returns_a_buffer_of_its_own(self):
        class M(nn.Module):
            def forward(self, x):
                return F.relu(x) * 2.0

        x = repro.randn(3, 3)
        gm = _trace_and_prop(M(), x)
        fuse_pointwise(gm)
        kernel = _fused_nodes(gm)[0].target
        first, second = kernel(x), kernel(x)
        assert not np.shares_memory(first.data, second.data)
        assert not np.shares_memory(first.data, x.data)
        assert np.array_equal(first.data, M()(x).data)
        with pytest.raises(TypeError):
            kernel(x, out=np.empty((3, 3), np.float32))

    def test_registry_extension_hook(self):
        def scaled_tanh(x, scale=1.0):
            return repro.Tensor(np.tanh(np.asarray(x.data)) * scale)

        opinfo.pointwise(
            OpDef("scaled_tanh", 1, params=(("scale", 1.0),),
                  ref=lambda a, scale=1.0: np.tanh(a) * scale,
                  emit=lambda out, a, scale=1.0: np.multiply(np.tanh(a), scale, out=out)),
            functions=(scaled_tanh,),
        )
        try:
            assert opinfo.TABLE["scaled_tanh"].kernel.key == "scaled_tanh"
            g = Graph()
            x = g.placeholder("x")
            a = g.call_function(scaled_tanh, (x,), {"scale": 2.0})
            b = g.call_function(operator.add, (a, x))
            g.output(b)
            gm = GraphModule(nn.Module(), g)
            xv = repro.randn(4, 4)
            ref = gm(xv)
            ShapeProp(gm).propagate(xv)
            assert fuse_pointwise(gm) == 1
            assert np.allclose(gm(xv).data, ref.data, atol=0, rtol=0)
        finally:
            opinfo.TABLE.pop("scaled_tanh", None)
            opinfo.INDEX._by_function.pop(scaled_tanh, None)

    @pytest.mark.parametrize("late_read", [False, True])
    def test_opinfo_selftest_rejects_an_emit_that_reads_after_writing_out(self, late_read):
        """The register allocator hands a pointwise step a dying operand's
        buffer as its destination, so every pointwise ``emit`` must read
        its operands before it writes ``out``.  This emit writes ``out``
        and then reads its operand again: run in place it gives ``4 * a``
        instead of ``3 * a``, and ``opinfo selftest`` says so; the honest
        emit passes."""
        def triple(x):
            return repro.Tensor._wrap(np.asarray(x.data) * 3.0)

        def emit(out, a):
            if late_read:
                np.multiply(a, 2.0, out=out)
                np.add(out, a, out=out)
            else:
                np.multiply(a, 3.0, out=out)

        opinfo.pointwise(OpDef("triple", 1, ref=lambda a: a * 3.0, emit=emit),
                         functions=(triple,))
        try:
            failures = opinfo.selftest(["triple"])
        finally:
            opinfo.TABLE.pop("triple", None)
            opinfo.INDEX._by_function.pop(triple, None)
        if late_read:
            assert failures and all(f.endswith("emit differs from eager (in place)")
                                    for f in failures), failures
        else:
            assert failures == []


class LinearReLU(nn.Module):
    def __init__(self, bias=True):
        super().__init__()
        self.fc = nn.Linear(8, 6, bias=bias)

    def forward(self, x):
        return F.relu(self.fc(x))


class ManyOpsBlock(nn.Module):
    """The perf ledger's ManyOps block: a Linear, a pointwise tail that
    reads the GEMM's result twice, a residual add of the Linear's input."""

    def __init__(self, width=16):
        super().__init__()
        self.fc = nn.Linear(width, width)
        self.register_buffer("scale", repro.randn(width))

    def forward(self, x):
        h = self.fc(x)
        t = F.maximum(F.relu(h) * 1.01 + 0.1, F.relu(h) * 0.5)
        return F.tanh(t * self.scale) + x


class FunctionalLinear(nn.Module):
    def __init__(self):
        super().__init__()
        self.w = nn.Parameter(repro.randn(6, 8))
        self.b = nn.Parameter(repro.randn(6))

    def forward(self, x):
        return F.sigmoid(F.linear(x, self.w, self.b)) * 2.0


class TestLinearEpilogue:
    @pytest.mark.parametrize("build, shape", [
        (LinearReLU, (4, 8)),
        (ManyOpsBlock, (4, 16)),
        (lambda: LinearReLU(bias=False), (4, 8)),
        (FunctionalLinear, (4, 8)),
        (LinearReLU, (2, 3, 8)),
    ], ids=["linear-relu", "many-ops-block", "no-bias", "functional-get-attr",
            "3d-input"])
    def test_the_gemm_runs_inside_the_kernel_bit_exactly(self, build, shape):
        m = build().eval()
        x = repro.randn(*shape)
        ref = m(x)
        gm = _trace_and_prop(m, x)
        names = list(gm.state_dict())
        assert fuse_pointwise(gm) == 1
        (node,) = _fused_nodes(gm)
        assert node.target.spec.steps[0].key == "linear"
        assert not any(n.op == "call_module" for n in gm.graph.nodes)
        # the weight and bias are read through get_attr at their own paths
        assert list(gm.state_dict()) == names
        assert np.array_equal(gm(x).data, ref.data)

    def test_a_linear_with_two_users_is_a_kernel_of_its_own(self):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc = nn.Linear(8, 8)

            def forward(self, x):
                h = self.fc(x)
                return F.relu(h) * 2.0, h.sum(1)

        m, x = M(), repro.randn(4, 8)
        gm = _trace_and_prop(m, x)
        assert fuse_pointwise(gm) == 2
        assert [[s.key for s in n.target.spec.steps] for n in _fused_nodes(gm)] \
            == [["linear"], ["relu", "mul"]]
        assert not any(n.op == "call_module" for n in gm.graph.nodes)
        assert all(a.data.tobytes() == b.data.tobytes() for a, b in zip(gm(x), m(x)))

    def test_a_linear_the_graph_returns_is_a_kernel_of_its_own(self):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc = nn.Linear(8, 4)

            def forward(self, x):
                return self.fc(F.relu(x) * 2.0)

        m, x = M(), repro.randn(4, 8)
        gm = _trace_and_prop(m, x)
        assert fuse_pointwise(gm) == 2
        assert [[s.key for s in n.target.spec.steps] for n in _fused_nodes(gm)] \
            == [["relu", "mul"], ["linear"]]
        assert not any(n.op == "call_module" for n in gm.graph.nodes)
        for n in (4, 1, 9):     # the GEMM kernel takes any batch size
            y = repro.randn(n, 8)
            assert gm(y).data.tobytes() == m(y).data.tobytes()
        assert _fused_nodes(gm)[1].target.off_guard_calls == 0

    def test_a_compiled_mlp_calls_no_module(self):
        """The ledger's ``small_mlp`` shape: ``fc1`` opens the ReLU's
        region, ``fc2`` is a kernel of its own, on VM and codegen alike."""
        from repro import fx

        m = nn.Sequential(nn.Linear(8, 16), nn.ReLU(), nn.Linear(16, 4)).eval()
        x = repro.randn(1, 8)
        for executor in ("codegen", "vm"):
            compiled = fx.compile(m, (x,), executor=executor)
            if executor == "codegen":
                assert [[s.key for s in n.target.spec.steps]
                        for n in _fused_nodes(compiled)] == [["linear", "relu"], ["linear"]]
                assert not any(n.op == "call_module" for n in compiled.graph.nodes)
            for rows in (1, 4):
                y = repro.randn(rows, 8)
                assert compiled(y).data.tobytes() == m(y).data.tobytes()

    def test_another_batch_size_runs_fused_and_another_rank_generic(self):
        m = ManyOpsBlock().eval()
        gm = _trace_and_prop(m, repro.randn(4, 16))
        fuse_pointwise(gm)
        (kernel,) = [n.target for n in _fused_nodes(gm)]
        for y, off_guard in ((repro.randn(7, 16), 0), (repro.randn(2, 5, 16), 1)):
            assert np.array_equal(gm(y).data, m(y).data)
            assert kernel.off_guard_calls == off_guard

    def test_a_replay_and_a_pickle_equal_the_fresh_compile(self):
        from repro import fx

        m, x = ManyOpsBlock().eval(), repro.randn(4, 16)
        fx.clear_caches("transform")
        cold = fx.compile(m, (x,))
        warm = fx.compile(m, (x,))
        assert all(r.cache_hit for r in warm.compile_report.records)
        assert cold.compile_report.fused_ops == 9
        want = m(x).data.tobytes()
        for compiled in (cold, warm, pickle.loads(pickle.dumps(cold))):
            assert compiled(x).data.tobytes() == want


class Rows(nn.Module):
    """A region over two batched inputs of one shape, one of shape
    ``(N, 1)`` and a ``(C,)`` parameter that broadcasts."""

    def __init__(self):
        super().__init__()
        self.scale = nn.Parameter(repro.randn(16))

    def forward(self, x, y, z):
        return F.sigmoid(F.relu(x) * self.scale + y) - x * 0.5 + z


def _rows(n):
    return repro.randn(n, 16), repro.randn(n, 16), repro.randn(n, 1)


class TestAnyBatchSize:
    """A kernel's fast path takes any dim 0 its batched inputs share: one
    kernel runs every batch size fused, bit for bit what eager gives."""

    def _fused(self, m, *inputs):
        gm = _trace_and_prop(m, *inputs)
        assert fuse_pointwise(gm) == 1
        (kernel,) = [n.target for n in _fused_nodes(gm)]
        return gm, kernel

    @pytest.mark.parametrize("compiled, called", [(1, 8), (8, 1), (4, 0)])
    def test_another_batch_size_takes_the_fast_path(self, compiled, called):
        m = Rows()
        gm, kernel = self._fused(m, *_rows(compiled))
        assert kernel.spec.batched == (0, 2, 3)     # x, y, z; not the scale
        for n in (called, compiled):
            inputs = _rows(n)
            assert gm(*inputs).data.tobytes() == m(*inputs).data.tobytes()
        assert kernel.off_guard_calls == 0

    def test_a_linear_relu_region_at_other_batch_sizes(self):
        m = LinearReLU().eval()
        gm, kernel = self._fused(m, repro.randn(4, 8))
        for n in (1, 9):
            x = repro.randn(n, 8)
            assert gm(x).data.tobytes() == m(x).data.tobytes()
        assert kernel.off_guard_calls == 0

    @pytest.mark.parametrize("inputs", [
        (repro.randn(2, 4, 16), repro.randn(2, 4, 16), repro.randn(2, 4, 1)),
        tuple(t.to(repro.float64) for t in _rows(4)),
        (repro.randn(8, 16), repro.randn(1, 16), repro.randn(8, 1)),
    ], ids=["rank-3", "float64", "two-dim-0s"])
    def test_a_call_the_fast_path_does_not_take_falls_back(self, inputs):
        m = Rows()
        gm, kernel = self._fused(m, *_rows(4))
        out, ref = gm(*inputs), m(*inputs)
        assert out.dtype is ref.dtype
        assert out.data.tobytes() == ref.data.tobytes()
        assert kernel.off_guard_calls == 1

    def test_a_get_attr_operand_keeps_its_exact_shape(self):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.w = nn.Parameter(repro.randn(1, 16))

            def forward(self, x):
                return F.relu(x * self.w) + 1.0

        m = M()
        gm, kernel = self._fused(m, repro.randn(1, 16))
        assert kernel.spec.batched == (0,)
        x = repro.randn(8, 16)
        assert gm(x).data.tobytes() == m(x).data.tobytes()
        assert kernel.off_guard_calls == 0
        # rebound to (8, C), the parameter no longer matches its guard
        m.w = gm.w = nn.Parameter(repro.randn(8, 16))
        assert gm(x).data.tobytes() == m(x).data.tobytes()
        assert kernel.off_guard_calls == 1

    def test_an_operand_that_fixes_dim_0_keeps_every_shape_exact(self):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.register_buffer("w", repro.randn(4, 16))

            def forward(self, x):
                return F.relu(x + self.w) * 2.0

        m = M()
        gm, kernel = self._fused(m, repro.randn(4, 16))
        assert kernel.spec.batched == ()
        x = repro.randn(1, 16)      # eager broadcasts it to the buffer's 4 rows
        out = gm(x)
        assert out.shape == (4, 16)
        assert out.data.tobytes() == m(x).data.tobytes()
        assert kernel.off_guard_calls == 1

    def test_off_guard_calls_from_many_threads_are_all_counted(self):
        m = Rows()
        gm, kernel = self._fused(m, *_rows(4))
        inputs = tuple(t.to(repro.float64) for t in _rows(4))
        gate = threading.Barrier(8)

        def work():
            gate.wait(timeout=30)
            for _ in range(200):
                gm(*inputs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert kernel.off_guard_calls == 1600

    def test_shape_inference_over_a_kernel_is_no_off_guard_call(self):
        m = Rows()
        gm, kernel = self._fused(m, *_rows(4))
        ShapeProp(gm).propagate(*_rows(4))
        assert kernel.off_guard_calls == 0

    def test_add_at_alpha_one_calls_np_add(self):
        class M(nn.Module):
            def forward(self, x, y):
                return F.add(F.relu(x) + 1.0, y, alpha=2) * y

        m, x, y = M(), repro.randn(4, 8), repro.randn(4, 8)
        gm, kernel = self._fused(m, x, y)
        assert kernel.source == """\
def fused(x0, x1):
    a0 = x0.data if isinstance(x0, _T) else _np.asarray(x0)
    s = a0.shape
    a1 = x1.data if isinstance(x1, _T) else _np.asarray(x1)
    if (s == (4, 8) or s[1:] == (8,)) and a0.dtype == _idt0 and a1.shape == s and a1.dtype == _idt1:
        b0 = _np.empty(s, _odt)
        _k_relu(b0, a0)
        _np_add(b0, 1.0, out=b0)
        _k_add(b0, b0, a1, alpha=2)
        _np_multiply(b0, a1, out=b0)
        return _wrap(b0)
    raise _Off(a0, a1)
"""
        names = kernel._fn.__globals__
        assert names["_np_add"] is np.add and names["_np_multiply"] is np.multiply
        assert gm(x, y).data.tobytes() == m(x, y).data.tobytes()
