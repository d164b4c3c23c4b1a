"""``repro.fx.vm`` — the flat bytecode VM execution tier.

Two ways to run a captured graph already exist: the generated Python
source (codegen) and the per-node :class:`~repro.fx.Interpreter`.  This
package adds the third — compile the graph once
into an immutable flat instruction stream over a preallocated register
file, then replay it with no per-node dispatch at all:

    >>> prog = compile_to_vm(gm)
    >>> prog.run(x)          # tight loop over precompiled step closures

It is wired in as a first-class execution strategy:

* ``repro.fx.compile(model, inputs, executor="vm")`` returns a
  :class:`VMModule` running the optimized graph (fused kernels
  included) on the VM;
* the ``"trt"`` backend builds each supported partition into a
  :class:`VMModule` (its engine is a program of this tier).

Programs are picklable; see :mod:`.compiler`.
"""

from ...nn import Module
from .program import Instruction, Reg, VMProgram
from .compiler import (
    VMCompileError,
    compile_to_vm,
)

__all__ = [
    "Instruction",
    "Reg",
    "VMCompileError",
    "VMModule",
    "VMProgram",
    "compile_to_vm",
]


class VMModule(Module):
    """An ``nn.Module`` facade over a compiled :class:`VMProgram`, so a
    VM-executed graph drops back into the module ecosystem (callable,
    composable, picklable, and — as a leaf module — re-traceable).

    Safe to share across threads: a run keeps its registers per call,
    so one ``VMModule`` can serve a whole worker pool without cloning."""

    def __init__(self, program: VMProgram):
        super().__init__()
        self.program = program

    def forward(self, *args):
        return self.program.run(*args)

    def extra_repr(self) -> str:
        return repr(self.program)
