"""Tests for liveness-based memory planning (passes.memory_planner),
including the aliasing edge cases: escaping outputs, live views,
out-slot reuse against multi-step fused kernels, and the
``garbage_collect_values=False`` interpreter interaction."""

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import Interpreter, symbolic_trace
from repro.fx import compile as fx_compile
from repro.fx.analysis import hazards
from repro.fx.passes import ShapeProp, plan_memory
from repro.fx.passes.pointwise_fuser import FusedKernel, fuse_pointwise
from repro.fx.vm import compile_to_vm


def _prepare(module, *inputs):
    gm = symbolic_trace(module)
    ShapeProp(gm).propagate(*inputs)
    fuse_pointwise(gm)
    ShapeProp(gm).propagate(*inputs)
    return gm


def _fused_nodes(gm):
    return [n for n in gm.graph.nodes
            if n.op == "call_function" and isinstance(n.target, FusedKernel)]


class ChainModel(nn.Module):
    """Four same-shape fused intermediates separated by matmuls."""

    def forward(self, x):
        for _ in range(4):
            t = F.sigmoid(F.relu(x) * 2.0)
            x = F.matmul(t, t)
        return x


class TestPlanning:
    def test_intermediates_share_one_slot(self):
        m = ChainModel()
        x = repro.randn(8, 8)
        ref = m(x)
        gm = _prepare(m, x)
        plan = plan_memory(gm)
        assert plan.planned == 4
        assert plan.slots == 1
        assert plan.reuse_count == 3
        assert plan.arena_nbytes == 8 * 8 * 4
        assert "out = " in gm.code
        assert np.array_equal(gm(x).data, ref.data)
        assert np.array_equal(gm(x).data, ref.data)  # second call reuses buffers

    def test_arena_buffers_materialize_lazily_once(self):
        m = ChainModel()
        x = repro.randn(4, 4)
        gm = _prepare(m, x)
        plan = plan_memory(gm)
        assert plan.arena.materializations == 0
        gm(x)
        assert plan.arena.materializations == 1
        gm(x)
        assert plan.arena.materializations == 1  # steady state: no allocations

    def test_report_fields_and_format(self):
        gm = _prepare(ChainModel(), repro.randn(4, 4))
        plan = plan_memory(gm)
        assert plan.peak_before > 0 and plan.peak_after > 0
        text = plan.format()
        assert "4 intermediates" in text and "1 arena slots" in text

    def test_plan_is_idempotent(self):
        x = repro.randn(4, 4)
        gm = _prepare(ChainModel(), x)
        p1 = plan_memory(gm)
        p2 = plan_memory(gm)  # re-plan clears old slots first
        assert (p1.planned, p1.slots) == (p2.planned, p2.slots)
        assert np.array_equal(gm(x).data, ChainModel()(x).data)


class TestEscapeAnalysis:
    def test_graph_output_never_planned(self):
        class M(nn.Module):
            def forward(self, x):
                return F.relu(x) * 2.0  # fused region IS the output

        x = repro.randn(3, 3)
        gm = _prepare(M(), x)
        plan = plan_memory(gm)
        assert plan.planned == 0
        assert _fused_nodes(gm)[0].meta.get("arena_slot") is None

    def test_region_input_returned_alongside_result(self):
        # A fused value that feeds later computation AND is returned must
        # keep private storage: a second call must not clobber the tensor
        # the first call handed out.
        class M(nn.Module):
            def forward(self, x):
                u = F.sigmoid(F.relu(x) * 2.0)   # fused; escapes via output
                t = F.relu(F.matmul(u, u)) + 1.0  # fused; plannable
                m2 = F.matmul(t, t)
                return u, m2

        m = M()
        x1, x2 = repro.randn(6, 6), repro.randn(6, 6)
        gm = _prepare(m, x1)
        plan = plan_memory(gm)
        names = {n.name for n in gm.graph.nodes if n.meta.get("arena_slot")}
        assert plan.planned == 1 and len(names) == 1
        u1, _ = gm(x1)
        u1_saved = u1.data.copy()
        gm(x2)  # may reuse arena buffers, must not touch u1
        assert np.array_equal(u1.data, u1_saved)
        ref_u, ref_m = m(x1)
        out_u, out_m = gm(x1)
        assert np.array_equal(out_u.data, ref_u.data)
        assert np.array_equal(out_m.data, ref_m.data)

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
        compiled = fx_compile(M(), (x1,), executor=executor)
        first = compiled(x1)
        saved = first.data.copy()
        compiled(x2)
        assert first.data.tobytes() == saved.tobytes()
        assert np.array_equal(saved, M()(x1).data)

    def test_output_through_alias_chain_escapes(self):
        class M(nn.Module):
            def forward(self, x):
                t = F.sigmoid(x) + 1.0         # fused
                return F.reshape(t, (-1,))     # view of t is the output

        gm = _prepare(M(), repro.randn(4, 5))
        plan = plan_memory(gm)
        assert plan.planned == 0  # t escapes through the reshape view


class TestAliasLiveness:
    def test_buffer_not_reused_while_view_is_live(self):
        # `a` is last *directly* used by the reshape before `b` exists,
        # but the view `v` is read after `b` — alias-extended liveness
        # must keep a and b in different slots.
        class M(nn.Module):
            def forward(self, x):                 # x: (4, 16)
                a = F.relu(x) * 2.0               # region A (4, 16)
                v = F.reshape(a, (8, 8))          # view of a
                b = F.sigmoid(x) + 0.5            # region B (4, 16), same spec
                m = F.matmul(b, F.reshape(b, (16, 4)))  # consume b -> (4, 4)
                s = F.matmul(v, F.reshape(v, (8, 8)))   # v read after b alloc
                return F.sum(s) + F.sum(m)

        m = M()
        x = repro.randn(4, 16)
        ref = m(x)
        gm = _prepare(m, x)
        plan = plan_memory(gm)
        slots = {n.name: n.meta["arena_slot"].index
                 for n in gm.graph.nodes if n.meta.get("arena_slot")}
        assert plan.planned == 2
        assert len(set(slots.values())) == 2, (
            f"a and b share a slot while a's view is live: {slots}")
        assert np.array_equal(gm(x).data, ref.data)

    def test_dead_view_does_allow_reuse(self):
        # Same shape of graph, but the view dies before region B — the
        # planner should then share one slot.
        class M(nn.Module):
            def forward(self, x):                 # x: (4, 16)
                a = F.relu(x) * 2.0
                v = F.reshape(a, (8, 8))
                s = F.matmul(v, v)                # v fully consumed here
                b = F.sigmoid(x) + 0.5            # free to take a's slot
                m = F.matmul(b, F.reshape(b, (16, 4)))
                return F.sum(s) + F.sum(m)

        m = M()
        x = repro.randn(4, 16)
        ref = m(x)
        gm = _prepare(m, x)
        plan = plan_memory(gm)
        assert plan.planned == 2
        assert plan.slots == 1 and plan.reuse_count == 1
        assert np.array_equal(gm(x).data, ref.data)


class TailReadModel(nn.Module):
    """A multi-use fused intermediate consumed at the *last* step of a
    3-step fused chain.  Reusing x's slot as w's ``out`` is unsound: the
    chain writes its result buffer at step 0 (``exp(c)``) but still
    reads x at step 2, so the early write would clobber it."""

    def forward(self, a, c):
        x = F.exp(a) * F.sin(a)          # fused region, 2 users
        y = F.matmul(x, x)               # earlier user keeps x a separate region
        w = F.mul(F.sin(F.exp(c)), x)    # 3-step fused chain, reads x at tail
        return F.matmul(y, w)


class HeadReadModel(nn.Module):
    """Same multi-use shape, but the chain reads x only at its *first*
    step — writing into x's dying slot is then provably safe and the
    planner must still reuse it."""

    def forward(self, a):
        x = F.relu(a) * 2.0
        y = F.matmul(x, a)
        w = F.tanh(F.sin(F.exp(x)))      # x read at step 0 only
        return F.matmul(y, w)


class TestOutAliasSafety:
    def test_tail_read_chain_does_not_take_dying_operand_slot(self):
        m = TailReadModel()
        a, c = repro.randn(6, 6), repro.randn(6, 6)
        ref = m(a, c)
        gm = _prepare(m, a, c)
        plan = plan_memory(gm)
        assert plan.planned == 2
        assert plan.slots == 2 and plan.reuse_count == 0, (
            "w's out must not alias x: x is read at w's last step, after "
            "w's result buffer was first written")
        out = gm(a, c)
        assert np.array_equal(out.data, ref.data)
        assert np.array_equal(gm(a, c).data, ref.data)  # arena steady state

    def test_tail_read_chain_interpreter_matches_eager(self):
        # The Interpreter routes the same out= slots; it must agree too.
        m = TailReadModel()
        a, c = repro.randn(5, 5), repro.randn(5, 5)
        gm = _prepare(m, a, c)
        plan_memory(gm)
        out = Interpreter(gm).run(a, c)
        assert np.array_equal(out.data, m(a, c).data)

    def test_head_read_chain_still_reuses_operand_slot(self):
        m = HeadReadModel()
        a = repro.randn(5, 5)
        ref = m(a)
        gm = _prepare(m, a)
        plan = plan_memory(gm)
        assert plan.planned == 2
        assert plan.slots == 1 and plan.reuse_count == 1, (
            "x's last read is the chain's first step, before any other "
            "write of the result buffer: reuse is safe and expected")
        assert np.array_equal(gm(a).data, ref.data)


class GemmReadsDyingSlot(nn.Module):
    """A planned value a Linear reads last, at the first step of the kernel
    the Linear opens.  That step writes the kernel's result buffer while
    the GEMM still reads its input: an emit that is not alias-safe reads
    what it overwrites, so ``out`` must not take the input's dying slot."""

    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(6, 6)

    def forward(self, x):
        t = F.relu(x) * 2.0              # fused, planned
        y = F.relu(self.fc(t))           # the GEMM reads t at step 0; t dies
        return y.sum(1)


class TestGemmOutAliasing:
    def _planned(self):
        m, x = GemmReadsDyingSlot().eval(), repro.randn(4, 6)
        gm = _prepare(m, x)
        plan_memory(gm)
        t, y = _fused_nodes(gm)
        assert y.target.spec.steps[0].key == "linear"
        return m, x, gm, t, y

    def test_planner_keeps_out_off_the_gemm_input_slot(self):
        m, x, gm, t, y = self._planned()
        assert t.meta["arena_slot"].index != y.meta["arena_slot"].index
        assert np.array_equal(gm(x).data, m(x).data)

    def test_routing_out_into_it_is_a_hazard_and_the_vm_drops_it(self):
        m, x, gm, t, y = self._planned()
        y.meta["arena_slot"] = t.meta["arena_slot"]     # a same-step-blind plan
        found = hazards(gm).hazards
        assert [(h.kind, h.node_name, h.victim_name) for h in found] \
            == [("arena-clobber", y.name, t.name)]
        program = compile_to_vm(gm, cache=False)
        (gemm,) = [i for i in program.instructions if i.name == y.name]
        assert gemm.out_slot is None
        assert np.array_equal(program.run(x).data, m(x).data)


class TestInterpreterInteraction:
    def test_gc_interpreter_uses_arena(self):
        m = ChainModel()
        x = repro.randn(5, 5)
        gm = _prepare(m, x)
        plan = plan_memory(gm)
        out = Interpreter(gm).run(x)
        assert np.array_equal(out.data, m(x).data)
        assert plan.arena.materializations >= 1

    def test_no_gc_interpreter_keeps_private_buffers(self):
        # garbage_collect_values=False retains every intermediate in env;
        # the interpreter must NOT route arena slots in (reuse would
        # clobber retained values).
        m = ChainModel()
        x = repro.randn(5, 5)
        gm = _prepare(m, x)
        plan_memory(gm)
        interp = Interpreter(gm, garbage_collect_values=False)
        out = interp.run(x)
        assert np.array_equal(out.data, m(x).data)
        fused_values = [interp.env[n] for n in _fused_nodes(gm)]
        assert len(fused_values) == 4
        for i in range(len(fused_values)):
            for j in range(i + 1, len(fused_values)):
                assert not np.shares_memory(fused_values[i].data,
                                            fused_values[j].data)

    def test_run_node_override_unaffected(self):
        # Interpreter subclasses that override call_function must not
        # receive a surprise out= kwarg.
        seen = []

        class Recording(Interpreter):
            def call_function(self, target, args, kwargs):
                seen.append((target, tuple(kwargs)))
                return super().call_function(target, args, kwargs)

        m = ChainModel()
        x = repro.randn(5, 5)
        gm = _prepare(m, x)
        plan_memory(gm)
        out = Recording(gm).run(x)
        assert np.array_equal(out.data, m(x).data)
        assert all("out" not in ks for _, ks in seen)
