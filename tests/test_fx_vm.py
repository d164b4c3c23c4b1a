"""Tests for the flat bytecode VM (``repro.fx.vm``): compilation
invariants, pickle replay determinism (in-process and across processes),
the absence of a program memo, and the executor wiring through
``fx.compile``."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import Graph, GraphModule, cache_info, symbolic_trace
from repro.fx import compile as fx_compile
from repro.fx.passes.pointwise_fuser import FusedKernel
from repro.fx.vm import (
    Reg,
    VMCompileError,
    VMModule,
    compile_to_vm,
)
from repro.models import SimpleCNN


class TestVMExecution:
    def test_matches_eager_simple_cnn(self):
        model = SimpleCNN().eval()
        gm = symbolic_trace(model)
        program = compile_to_vm(gm)
        x = repro.randn(2, 3, 16, 16)
        assert np.allclose(program.run(x).data, gm(x).data, atol=1e-6)

    def test_call_module_and_method(self):
        model = nn.Sequential(nn.Linear(4, 4), nn.ReLU())
        gm = symbolic_trace(model)
        program = compile_to_vm(gm)
        x = repro.randn(3, 4)
        assert np.allclose(program.run(x).data, model(x).data, atol=1e-6)
        gm2 = symbolic_trace(lambda x: x.neg().tanh())
        p2 = compile_to_vm(gm2)
        assert np.allclose(p2.run(x).data, np.tanh(-x.data), atol=1e-6)

    def test_aggregate_output_template(self):
        def f(x, y):
            return {"sum": x + y, "pair": (x * y, x)}

        gm = symbolic_trace(f)
        program = compile_to_vm(gm)
        x, y = repro.randn(3), repro.randn(3)
        out = program.run(x, y)
        assert set(out) == {"sum", "pair"}
        assert np.array_equal(out["sum"].data, (x + y).data)
        assert np.array_equal(out["pair"][0].data, (x * y).data)
        assert out["pair"][1] is x

    def test_get_attr_resolved_at_compile_time(self):
        class WithParam(nn.Module):
            def __init__(self):
                super().__init__()
                self.w = nn.Parameter(repro.randn(4, 4))

            def forward(self, x):
                return F.matmul(x, self.w)

        model = WithParam()
        gm = symbolic_trace(model)
        assert any(n.op == "get_attr" for n in gm.graph.nodes)
        program = compile_to_vm(gm)
        # no get_attr work at run time: constants live in the register template
        assert len(program.consts) == 1
        x = repro.randn(2, 4)
        assert np.allclose(program.run(x).data, model(x).data, atol=1e-6)

    def test_default_argument_used(self):
        def f(x, k=3.0):
            return x * k

        program = compile_to_vm(symbolic_trace(f))
        assert float(program.run(repro.tensor(2.0))) == 6.0

    def test_missing_argument_raises(self):
        program = compile_to_vm(symbolic_trace(lambda x, y: x + y))
        with pytest.raises(RuntimeError, match="placeholder"):
            program.run(repro.ones(1))

    def test_excess_arguments_raise(self):
        program = compile_to_vm(symbolic_trace(lambda x: x + 1))
        with pytest.raises(TypeError, match="at most"):
            program.run(repro.ones(1), repro.ones(1))

    def test_varargs_placeholder_rejected(self):
        g = Graph()
        xs = g.placeholder("*xs")
        g.output(g.call_function(F.relu, (xs,)))
        gm = GraphModule(nn.Module(), g)
        with pytest.raises(VMCompileError, match="varargs"):
            compile_to_vm(gm)

    def test_run_error_names_instruction(self):
        """An instruction's exception propagates as eager raised it; where
        Python keeps notes, one names the program and the instruction."""
        program = compile_to_vm(symbolic_trace(lambda x, y: F.matmul(x, y)))
        with pytest.raises(ValueError) as info:
            program.run(repro.randn(2, 3), repro.randn(2, 3))
        if sys.version_info >= (3, 11):
            assert any("instruction 0" in note and "matmul" in note
                       for note in info.value.__notes__)

    def test_introspection(self):
        program = compile_to_vm(
            symbolic_trace(lambda x: repro.relu(x).neg()))
        assert len(program) == 2
        assert program.op_names() == ["relu", "neg"]
        dis = program.disassemble()
        assert "relu" in dis and "instructions" in dis
        assert "VMProgram" in repr(program)

    def test_frees_match_codegen_liveness(self):
        """Every intermediate register is freed at its last read — the
        same ``x = None`` discipline the generated forward uses."""
        program = compile_to_vm(
            symbolic_trace(lambda x: repro.relu(x).neg().tanh()))
        freed = {i for ins in program.instructions for i in ins.frees}
        # placeholder + the two intermediates die; only the output survives
        assert len(freed) == 3


class TestPickleReplay:
    def _compiled_program(self):
        model = SimpleCNN().eval()
        x = repro.randn(2, 3, 16, 16)
        compiled = fx_compile(model, (x,))
        return compile_to_vm(compiled), x

    def test_round_trip_bit_identical(self):
        program, x = self._compiled_program()
        clone = pickle.loads(pickle.dumps(program))
        assert clone is not program
        a, b = program.run(x), clone.run(x)
        assert np.array_equal(a.data, b.data)

    def test_round_trip_preserves_structure(self):
        program, _ = self._compiled_program()
        clone = pickle.loads(pickle.dumps(program))
        assert len(clone) == len(program)
        assert clone.op_names() == program.op_names()
        assert clone.n_regs == program.n_regs

    def test_replay_deterministic_across_processes(self, tmp_path):
        """A pickled program replayed in a fresh interpreter produces
        bit-identical output — the contract fuzz repro scripts and any
        build-once-deploy-elsewhere use of the VM rely on."""
        program, x = self._compiled_program()
        parent_out = program.run(x).data
        prog_path = tmp_path / "program.pkl"
        in_path = tmp_path / "input.npy"
        out_path = tmp_path / "child_out.npy"
        with open(prog_path, "wb") as f:
            pickle.dump(program, f)
        np.save(in_path, x.data)
        script = (
            "import pickle, sys\n"
            "import numpy as np\n"
            "import repro\n"
            "with open(sys.argv[1], 'rb') as f:\n"
            "    program = pickle.load(f)\n"
            "x = repro.tensor(np.load(sys.argv[2]))\n"
            "np.save(sys.argv[3], program.run(x).data)\n"
        )
        env = dict(os.environ)
        src = os.path.abspath(
            os.path.join(os.path.dirname(repro.__file__), ".."))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", script,
             str(prog_path), str(in_path), str(out_path)],
            check=True, env=env, timeout=120)
        child_out = np.load(out_path)
        assert np.array_equal(parent_out, child_out)


class TestNoMemo:
    def test_each_compile_builds_its_own_program_and_reads_no_byte(self):
        """``compile_to_vm`` keeps no memo: a key over the weights a
        program binds cost more than the compile it saved, so two compiles
        of one graph are two programs and no weight byte is hashed."""
        model = nn.Sequential(nn.Linear(4, 4), nn.ReLU())
        gm = symbolic_trace(model)
        before = cache_info()["transform"].get("state_read_bytes", 0)
        p1, p2 = compile_to_vm(gm), compile_to_vm(gm)
        assert p1 is not p2
        assert cache_info()["transform"].get("state_read_bytes", 0) == before
        assert "vm" not in cache_info()
        with pytest.raises(TypeError):
            compile_to_vm(gm, cache=False)
        x = repro.randn(2, 4)
        assert np.array_equal(p1.run(x).data, p2.run(x).data)


class TestExecutorWiring:
    def test_fx_compile_vm_executor(self):
        model = SimpleCNN().eval()
        x = repro.randn(1, 3, 16, 16)
        codegen = fx_compile(model, (x,))
        vm = fx_compile(model, (x,), executor="vm")
        assert isinstance(vm, VMModule)
        assert vm.compile_report.nodes_after == codegen.compile_report.nodes_after
        assert np.allclose(vm(x).data, codegen(x).data, atol=1e-6)

    def test_fx_compile_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            fx_compile(nn.Linear(2, 2), (repro.randn(1, 2),), executor="jit")

    def test_vm_module_picklable(self):
        model = nn.Sequential(nn.Linear(4, 4), nn.ReLU())
        x = repro.randn(2, 4)
        out = fx_compile(model, (x,), executor="vm")
        clone = pickle.loads(pickle.dumps(out))
        assert np.array_equal(out(x).data, clone(x).data)


class TestFusedLinear:
    def test_codegen_and_vm_agree_bit_exactly_with_one_instruction_per_layer(self):
        model = nn.Sequential(nn.Linear(16, 16), nn.ReLU(),
                              nn.Linear(16, 16), nn.Tanh()).eval()
        x = repro.randn(4, 16)
        codegen = fx_compile(model, (x,))
        vm = fx_compile(model, (x,), executor="vm")
        assert codegen.compile_report.fused_regions == 2
        assert codegen.compile_report.fused_ops == 4
        assert [i.kind for i in vm.program.instructions] == ["call", "call"]
        assert all(isinstance(i.target, FusedKernel) for i in vm.program.instructions)
        want = model(x).data.tobytes()
        assert codegen(x).data.tobytes() == vm(x).data.tobytes() == want
