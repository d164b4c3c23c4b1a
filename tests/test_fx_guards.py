"""A compiled artifact carries no guards, and needs none.

No compile proves which input shapes its output is valid for: a fused
kernel checks its own operands on every call (taking any dim 0 on its
fast path where ``pointwise_fuser._batched`` proved it may) and runs
eager's generic code otherwise, so an engine compiled at one batch size
is exact at every other.  ``repro.serve`` keys one engine on the
per-sample signature for that reason.  Covered here:

* no compile or lowering sets ``.guards`` or writes guards into a VM
  program's ``meta``;
* an engine compiled at one batch size is bit-exact at others.
"""

import pickle

import numpy as np
import pytest

import repro
import repro.fx
import repro.functional as F
from repro import nn


class SmallMLP(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(8, 16)
        self.fc2 = nn.Linear(16, 4)

    def forward(self, x):
        return self.fc2(F.relu(self.fc1(x)))


class TestArtifactAttachment:
    """No compile attaches guards: nothing reads them off an artifact."""

    def test_compile_attaches_no_guards(self):
        model = SmallMLP().eval()
        x = repro.randn(4, 8)
        for executor in ("codegen", "vm"):
            out = repro.fx.compile(model, (x,), executor=executor)
            assert not hasattr(out, "guards")

    def test_to_backend_attaches_no_guards(self):
        model = SmallMLP().eval()
        x = repro.randn(4, 8)
        for backend in ("eager", "trt"):
            out = repro.fx.to_backend(model, backend)
            assert not hasattr(out, "guards")
            assert np.allclose(out(x).numpy(), model(x).numpy(), atol=1e-5)
        with pytest.raises(TypeError):
            repro.fx.to_backend(model, "eager", example_inputs=(x,))

    def test_vm_program_meta_carries_no_guards_through_pickle(self):
        model = SmallMLP().eval()
        x = repro.randn(4, 8)
        vm = repro.fx.compile(model, (x,), executor="vm")
        prog = pickle.loads(pickle.dumps(vm.program))
        assert "guards" not in vm.program.meta
        assert prog.meta == vm.program.meta
        assert np.array_equal(prog.run(x).numpy(), vm(x).numpy())

    def test_guarded_engine_correct_at_other_batch_sizes(self):
        """The whole point: the VM program a server builds for a 4-row
        request is bit-exact at other batch sizes, so the server keys it
        on the per-sample signature alone."""
        model = SmallMLP().eval()
        vm = repro.fx.compile(model, (repro.randn(4, 8),), executor="vm")
        for b in (1, 2, 7, 16):
            x = repro.randn(b, 8)
            assert vm.program(x).numpy().tobytes() == model(x).numpy().tobytes()
