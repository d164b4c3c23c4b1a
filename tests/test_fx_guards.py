"""Tests for ``repro.fx.analysis.guards`` (PR 9).

``derive_guards`` runs symbolic shape propagation over a captured graph
to prove which input dims the capture is generic over; the resulting
``GuardSet`` is the contract under which serving shares one engine
across shapes.  Covered here:

* guard derivation (dynamic batch dim, pinned feature dims, shared
  symbols across inputs, custom ``dynamic_dims``);
* matching and canonicalization semantics (rank/dtype/equality/symbol
  consistency; wildcard keys identical across admissible batch sizes);
* the sound static fallback when propagation leaves the supported
  shape-arithmetic fragment;
* compiled artifacts: no compile proves a set or attaches one, and an
  engine compiled at one batch size is exact at every size its
  capture's guards admit.
"""

import pickle

import numpy as np
import pytest

import repro
import repro.fx
import repro.functional as F
from repro import nn
from repro.fx import symbolic_trace
from repro.fx.analysis import DimGuard, derive_guards
from repro.fx.analysis.guards import DYNAMIC
from repro.serve import input_signature


class SmallMLP(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(8, 16)
        self.fc2 = nn.Linear(16, 4)

    def forward(self, x):
        return self.fc2(F.relu(self.fc1(x)))


class TwoInput(nn.Module):
    def forward(self, a, b):
        return F.relu(a) + F.sigmoid(b)


class GatedMLP(nn.Module):
    """Data-dependent if; mend rewrites it to a gt + where select."""

    def __init__(self):
        super().__init__()
        self.w = nn.Parameter(repro.randn(8))

    def forward(self, x):
        gate = x.sum()
        if gate > 0:
            y = x * self.w + 1.0
        else:
            y = x * self.w - 1.0
        return F.tanh(y)


class ConcreteReshape(nn.Module):
    """reshape to a fully-concrete target: only valid at one batch size,
    so symbolic propagation must refuse to generalize it."""

    def forward(self, x):
        return x.reshape(8, 4)


def sig(*tensors):
    return input_signature(tensors)


class TestDerivation:
    def test_mlp_batch_dim_is_dynamic(self):
        gm = symbolic_trace(SmallMLP().eval())
        g = derive_guards(gm, (repro.randn(4, 8),))
        assert g.dynamic
        kinds = {(d.input, d.dim): d.kind for d in g.guards}
        assert kinds[(0, 0)] == "dynamic"
        assert kinds[(0, 1)] == "eq"
        assert "N >= 1" in g.describe()
        assert "== 8" in g.describe()

    def test_shared_symbol_across_inputs(self):
        gm = symbolic_trace(TwoInput())
        g = derive_guards(gm, (repro.randn(4, 6), repro.randn(4, 6)))
        syms = {d.symbol for d in g.guards if d.kind == "dynamic"}
        assert len(syms) == 1  # equal example sizes share one symbol
        assert g.matches(sig(repro.randn(9, 6), repro.randn(9, 6)))
        # symbol consistency: batch dims must agree jointly
        assert not g.matches(sig(repro.randn(9, 6), repro.randn(5, 6)))

    def test_custom_dynamic_dims(self):
        gm = symbolic_trace(TwoInput())
        g = derive_guards(gm, (repro.randn(4, 6), repro.randn(4, 6)),
                          dynamic_dims={(0, 0), (0, 1), (1, 0), (1, 1)})
        assert g.dynamic
        assert g.matches(sig(repro.randn(2, 9), repro.randn(2, 9)))

    def test_static_fallback_on_unsupported_arithmetic(self):
        gm = symbolic_trace(ConcreteReshape())
        x = repro.randn(4, 8)
        g = derive_guards(gm, (x,))
        # reshape(8, 4) only holds at batch 4: propagation must refuse to
        # generalize, and the fallback admits exactly the example signature.
        assert not g.dynamic
        assert g.matches(sig(x))
        assert not g.matches(sig(repro.randn(5, 8)))
        assert "static" in g.describe()

    def test_batch_preserving_reshape_stays_dynamic(self):
        class Flat(nn.Module):
            def forward(self, x):
                return x.reshape(-1, 8)

        g = derive_guards(symbolic_trace(Flat()), (repro.randn(4, 2, 8),))
        assert g.dynamic

    def test_mended_where_graph_derives_dynamic_guards(self):
        """A where-repaired capture must stay batch-generic: the repair's
        gt predicate + where select both propagate symbolically."""
        from repro.fx.analysis import mend

        gm = mend(GatedMLP().eval(), example_inputs=(repro.randn(4, 8),))
        assert gm.mended == "where"
        g = derive_guards(gm, (repro.randn(4, 8),))
        assert g.dynamic
        assert g.matches(sig(repro.randn(9, 8)))

    def test_non_tensor_inputs_degrade_static(self):
        gm = symbolic_trace(SmallMLP().eval())
        g = derive_guards(gm, (repro.randn(4, 8), 3))
        assert not g.dynamic


class TestMatching:
    def _guards(self):
        gm = symbolic_trace(SmallMLP().eval())
        return derive_guards(gm, (repro.randn(4, 8),))

    def test_matches_other_batch_sizes(self):
        g = self._guards()
        for b in (1, 2, 4, 7, 100):
            assert g.matches(sig(repro.randn(b, 8)))

    def test_rejects_wrong_feature_dim_rank_dtype_arity(self):
        g = self._guards()
        assert not g.matches(sig(repro.randn(4, 9)))          # eq violated
        assert not g.matches(sig(repro.randn(4, 8, 1)))       # rank
        assert not g.matches(sig(repro.randn(4, 8).double())) # dtype
        assert not g.matches(sig(repro.randn(4, 8), repro.randn(4, 8)))
        assert not g.matches((("const", "3"),))               # non-tensor

    def test_canonical_key_identical_across_batches(self):
        g = self._guards()
        keys = {g.canonicalize(sig(repro.randn(b, 8))) for b in (1, 4, 7)}
        assert len(keys) == 1
        ((shape, dtype),) = keys.pop()
        assert shape == (DYNAMIC, 8)
        assert dtype == "float32"

    def test_canonicalize_rejects_non_matching(self):
        g = self._guards()
        with pytest.raises(ValueError):
            g.canonicalize(sig(repro.randn(4, 9)))

    def test_bindings(self):
        g = self._guards()
        b = g.bindings(sig(repro.randn(7, 8)))
        assert list(b.values()) == [7]

    def test_pickle_roundtrip(self):
        g = self._guards()
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert clone.matches(sig(repro.randn(3, 8)))


@pytest.fixture
def derive_calls(monkeypatch):
    """Records every ``derive_guards`` call made while a test runs."""
    import repro.fx.analysis.guards as guards_module

    calls = []
    real = guards_module.derive_guards
    monkeypatch.setattr(guards_module, "derive_guards",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


class TestArtifactAttachment:
    """A compile proves no GuardSet: nothing reads one off an artifact
    (the server proves its own per model), so no compile calls
    ``derive_guards`` or sets ``.guards``."""

    def test_compile_attaches_no_guards(self, derive_calls):
        model = SmallMLP().eval()
        x = repro.randn(4, 8)
        for executor in ("codegen", "vm"):
            out = repro.fx.compile(model, (x,), executor=executor)
            assert not hasattr(out, "guards")
        assert derive_calls == []

    def test_to_backend_attaches_no_guards(self, derive_calls):
        model = SmallMLP().eval()
        x = repro.randn(4, 8)
        for backend in ("eager", "trt"):
            out = repro.fx.to_backend(model, backend)
            assert not hasattr(out, "guards")
            assert np.allclose(out(x).numpy(), model(x).numpy(), atol=1e-5)
        assert derive_calls == []
        with pytest.raises(TypeError):
            repro.fx.to_backend(model, "eager", example_inputs=(x,))

    def test_vm_program_meta_carries_no_guards_through_pickle(self,
                                                              derive_calls):
        model = SmallMLP().eval()
        x = repro.randn(4, 8)
        vm = repro.fx.compile(model, (x,), executor="vm")
        prog = pickle.loads(pickle.dumps(vm.program))
        assert "guards" not in vm.program.meta
        assert prog.meta == vm.program.meta
        assert np.array_equal(prog.run(x).numpy(), vm(x).numpy())
        assert derive_calls == []

    def test_guarded_engine_correct_at_other_batch_sizes(self):
        """The whole point: an engine compiled at batch 4 is bit-exact at
        every batch size its capture's guards admit."""
        model = SmallMLP().eval()
        x = repro.randn(4, 8)
        guards = derive_guards(symbolic_trace(model), (x,))
        vm = repro.fx.compile(model, (x,), executor="vm")
        for b in (1, 2, 7, 16):
            x = repro.randn(b, 8)
            assert guards.matches(input_signature((x,)))
            assert np.array_equal(vm(x).numpy(), model(x).numpy())
