"""``repro.fx.compile`` — the one-call optimizing graph compiler.

This is the end-to-end pipeline the paper motivates in §6.2: capture a
module, run the pass library over it, and hand back a drop-in
``GraphModule`` that computes the same function faster.  The pipeline is

    shape-prop -> DCE -> CSE -> const-fold -> conv-bn-fuse
               -> pointwise-fuse

The pipeline itself lives in
:class:`~repro.fx.backends.NumpyBackend` (backend name ``"numpy"``) and
``compile`` is a thin adapter over
:func:`~repro.fx.backends.to_backend` — capture, preferred passes under
the instrumented :class:`~repro.fx.passes.PassManager` (so per-pass wall
time, node deltas, and the transform cache all apply: recompiling an
unchanged model for the same input signature replays the whole pipeline
from one entry), and the analysis-backed
:class:`~repro.fx.analysis.PassVerifier` on by default.  The returned
module carries a :class:`CompileReport` on ``.compile_report`` describing
exactly what the compiler did.

Example::

    import repro, repro.fx

    model = ResNet50().eval()
    x = repro.randn(1, 3, 224, 224)
    fast = repro.fx.compile(model, (x,))
    assert repro.allclose(fast(x), model(x))
    print(fast.compile_report.format())

Semantics-preservation contract: on the example shapes, the compiled
module's output is numerically identical to eager for every pass except
conv-bn folding (float-associativity reordering, eval mode only).  Fused
kernels are *guarded* — called with shapes other than the examples they
were specialized for, they fall back to a generic reference evaluator,
so the compiled module remains correct (merely unfused) off the fast
path.  The input module is never mutated: passes run on a copy of its
structure over read-only views of its tensors.  The result owns its
tensors, frozen: a copy of each input tensor no pass replaced and each
array a fold derived from the inputs (replayed on *this* module's
weights when the transform cache hits: the cache keys the pipeline on
shapes and dtypes, not on weight bytes); it shares none with another
result.  (A graph with a call the op table has no entry for, or one a
rule declined so that shape propagation executed it, compiles uncached,
and its result views the caller's arrays that no pass replaced,
read-only.)
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..nn import Module
from ..tensor import Tensor
from .backends import NumpyBackend, to_backend
from .passes import PassRecord
from .passes.pass_manager import format_records
from .passes.pointwise_fuser import FusedKernel

__all__ = ["CompileReport", "compile"]


@dataclass
class CompileReport:
    """What one :func:`compile` call did, per stage and in aggregate.

    Attributes:
        input_shapes: shapes of the example inputs the pipeline was
            specialized against.
        nodes_before: node count of the captured graph.
        nodes_after: node count of the optimized graph.
        fused_regions: pointwise regions collapsed into fused kernels.
        fused_ops: total elementwise ops now living inside those kernels.
        shape_fallbacks: ``(node, target, reason)`` of every node shape
            propagation had to execute because the op table
            (:mod:`repro.fx.opinfo`) has no entry for its target.
        records: per-pass :class:`~repro.fx.passes.PassRecord` metrics.
        total_time: wall-clock seconds for the whole pipeline.
    """

    input_shapes: tuple = ()
    nodes_before: int = 0
    nodes_after: int = 0
    fused_regions: int = 0
    fused_ops: int = 0
    shape_fallbacks: tuple = ()
    records: list[PassRecord] = field(default_factory=list)
    total_time: float = 0.0

    def format(self) -> str:
        lines = [
            f"repro.fx.compile report "
            f"(inputs: {', '.join(str(s) for s in self.input_shapes) or '-'})",
            f"  nodes: {self.nodes_before} -> {self.nodes_after}",
            f"  fusion: {self.fused_regions} regions covering "
            f"{self.fused_ops} pointwise ops",
        ]
        if self.shape_fallbacks:
            lines.append(
                f"  shapes: executed {len(self.shape_fallbacks)} node(s) with no "
                f"op-table entry: " + ", ".join(
                    f"{name} ({target})" for name, target, _ in self.shape_fallbacks))
        lines.append(textwrap.indent(
            format_records(self.records, self.total_time), "  "))
        return "\n".join(lines)


def _shape_of(x: Any) -> Any:
    if isinstance(x, Tensor):
        return tuple(x.shape)
    return type(x).__name__


def compile(  # noqa: A001 - mirrors torch.compile
    module: Module,
    example_inputs: Sequence = (),
    *,
    lint: bool = False,
    cache: bool = True,
    verify: bool = True,
    executor: str = "codegen",
) -> Module:
    """Capture (if needed) and optimize *module* against *example_inputs*.

    Args:
        module: a ``Module`` (symbolically traced first) or an existing
            ``GraphModule``.  Never mutated — the pipeline runs on a copy.
        example_inputs: inputs used to propagate shapes; fusion
            specializes against these (a single Tensor is
            accepted in place of a 1-tuple).  Without them the shape-
            dependent stages are skipped and only the generic cleanups
            (DCE, CSE, const-fold, conv-bn fold) run.
        lint: validate the IR after every pass (debugging aid).
        cache: use the shared transform cache for the pipeline.
        verify: run the analysis-backed
            :class:`~repro.fx.analysis.PassVerifier` after every stage —
            a pass that introduces a mutation hazard or deletes an
            effectful node aborts compilation with a
            :class:`~repro.fx.analysis.VerificationError` naming it.
        executor: ``"codegen"`` (default) returns the optimized
            ``GraphModule`` running its generated forward; ``"vm"``
            additionally flattens it onto the bytecode tier and returns a
            :class:`~repro.fx.vm.VMModule` replaying the fused graph as
            an immutable instruction stream.

    Returns:
        The optimized, recompiled ``GraphModule`` (or the ``VMModule``
        wrapping it under ``executor="vm"``); its ``compile_report``
        attribute holds the :class:`CompileReport`.
    """
    if executor not in ("codegen", "vm"):
        raise ValueError(f"unknown executor {executor!r}; "
                         f"expected 'codegen' or 'vm'")
    if isinstance(example_inputs, Tensor):
        example_inputs = (example_inputs,)
    example_inputs = tuple(example_inputs)

    out = to_backend(module, NumpyBackend(example_inputs), allow_fallback=True,
                     lint=lint, cache=cache, verify=verify)
    if executor == "vm":
        from .vm import VMModule, compile_to_vm

        vm_out: Module = VMModule(compile_to_vm(out))
    breport = out.backend_report

    fused_regions = 0
    fused_ops = 0
    for n in out.graph.nodes:
        if n.op == "call_function" and isinstance(n.target, FusedKernel):
            fused_regions += 1
            fused_ops += n.target.n_ops

    report = CompileReport(
        input_shapes=tuple(_shape_of(x) for x in example_inputs),
        nodes_before=breport.nodes_before,
        nodes_after=breport.nodes_after,
        fused_regions=fused_regions,
        fused_ops=fused_ops,
        shape_fallbacks=vars(out).get("shape_fallbacks", ()),
        records=breport.records,
        total_time=breport.total_time,
    )
    if executor == "vm":
        vm_out.backend_report = breport
        vm_out.compile_report = report
        return vm_out
    out.compile_report = report
    return out
