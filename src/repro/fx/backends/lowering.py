"""``to_backend`` — the one entrypoint every lowering path goes through.

The paper's backend integrations (§5, §6.2, §6.4) all follow one shape:

    capture -> backend's preferred passes -> partition by capability
            -> compile each supported partition -> stitch with fallback

This module implements that shape once, on top of the instrumented
:class:`~repro.fx.passes.PassManager` (with the analysis-backed
:class:`~repro.fx.analysis.PassVerifier` on by default), the
dependency-aware :class:`~repro.fx.backends.CapabilityPartitioner`.  Each
supported partition is compiled afresh: a key over the weights it binds
costs more than the compile it would save.

The support check is a *pre-pass*: unsupported operators are discovered by
querying the backend's predicate before any compilation starts, never by
launching an engine build and catching a failure halfway through, so no
compile work is ever started and then thrown away.
"""

from __future__ import annotations

import textwrap
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ...nn import Module
from ..graph_module import GraphModule
from ..passes import PassManager, PassRecord
from ..passes.pass_manager import format_records
from ..tracer import symbolic_trace
from .base import Backend, UnsupportedNodesError, get_backend
from .partitioner import CapabilityPartitioner

__all__ = [
    "BackendReport",
    "to_backend",
]


@dataclass
class BackendReport:
    """What one :func:`to_backend` call did.

    Attributes:
        backend: name of the backend used.
        nodes_before: node count of the captured graph.
        nodes_after: node count after the backend's preferred passes.
        n_partitions: compiled (supported) partitions in the result.
        n_supported_nodes: nodes living inside those partitions.
        n_fallback_nodes: nodes left to eager execution.
        records: per-pass :class:`~repro.fx.passes.PassRecord` metrics
            from the preferred-pass pipeline.
        transform_misses: why each run of preferred passes that was not
            replayed from the transform cache missed (see
            :attr:`~repro.fx.passes.PassManagerResult.misses`).
        total_time: wall-clock seconds for the whole lowering.
    """

    backend: str = ""
    nodes_before: int = 0
    nodes_after: int = 0
    n_partitions: int = 0
    n_supported_nodes: int = 0
    n_fallback_nodes: int = 0
    records: list[PassRecord] = field(default_factory=list)
    transform_misses: list[tuple] = field(default_factory=list)
    total_time: float = 0.0

    def format(self) -> str:
        lines = [
            f"to_backend({self.backend!r}) report",
            f"  nodes: {self.nodes_before} -> {self.nodes_after} "
            f"({self.n_supported_nodes} compiled in {self.n_partitions} "
            f"partition(s), {self.n_fallback_nodes} eager)",
            textwrap.indent(format_records(
                self.records, self.total_time, self.transform_misses), "  "),
        ]
        return "\n".join(lines)


# -- the entrypoint ------------------------------------------------------------

def to_backend(
    model: Union[Module, GraphModule],
    backend: Union[str, Backend],
    *,
    allow_fallback: bool = True,
    lint: bool = False,
    cache: bool = True,
    verify: bool = True,
    executor: Optional[str] = None,
    example_inputs: Optional[Sequence] = None,
) -> Module:
    """Lower *model* onto *backend*, falling back to eager where needed.

    Args:
        model: a ``Module`` (symbolically traced first; an uncached result,
            such as a graph that writes module state, shares the tensors no
            pass replaced with it) or a ``GraphModule`` (never mutated —
            the preferred passes run on a copy, made only if one has to).
        backend: ``"numpy"``, ``"eager"`` or ``"trt"`` (see
            :func:`~repro.fx.backends.get_backend`), or any
            :class:`Backend` instance.
        allow_fallback: if True, nodes the backend cannot compile run
            eagerly, inline in the top-level graph (only supported
            partitions become submodules, so an unsupported side branch
            costs zero extra partitions); if False their presence raises
            :class:`UnsupportedNodesError` *before* any compilation.
        lint: validate the IR after every preferred pass.
        cache: use the structural-hash transform cache for the preferred
            passes.
        verify: run the :class:`~repro.fx.analysis.PassVerifier` after
            every preferred pass.
        executor: how the resulting graph executes — ``"codegen"`` (the
            generated forward) or ``"vm"`` (flattened onto the
            :class:`~repro.fx.vm.VMProgram` bytecode tier, so fallback
            nodes replay as flat instructions instead of dispatching
            through generated source).  ``None`` (default) defers to the
            backend's ``executor`` attribute.
        example_inputs: when given, drive guard derivation: a
            :class:`~repro.fx.analysis.guards.GuardSet` proved by symbolic
            shape propagation over the pristine capture is attached to the
            result as ``.guards``, recording which input dims the artifact
            is generic over.

    Returns:
        When the whole graph is supported, whatever
        ``backend.compile_subgraph`` returns for it; otherwise
        a split ``GraphModule`` whose ``submod_<pid>`` children are the
        compiled partitions.  Either way the result carries a
        :class:`BackendReport` on ``.backend_report``.
    """
    start = time.perf_counter()
    be = get_backend(backend) if isinstance(backend, str) else backend
    if not isinstance(be, Backend):
        raise TypeError(f"backend must be a name or Backend instance, "
                        f"got {type(backend).__name__}")
    exec_mode = executor if executor is not None \
        else getattr(be, "executor", "codegen")
    if exec_mode not in ("codegen", "vm"):
        raise ValueError(f"unknown executor {exec_mode!r}; "
                         f"expected 'codegen' or 'vm'")

    gm = model if isinstance(model, GraphModule) else symbolic_trace(model)
    be.validate_input(gm)
    nodes_before = len(gm.graph)

    # Guard derivation reads the pristine capture, before any backend
    # pass rewrites nodes into targets (FusedKernel, ...) that symbolic
    # shape propagation has no transfer functions for.
    guards = None
    if example_inputs is not None:
        from ..analysis.guards import derive_guards

        try:
            guards = derive_guards(gm, tuple(example_inputs))
        except Exception:
            guards = None

    from ..analysis import PassVerifier

    # A caller's GraphModule is not touched: PassManager.run hands back
    # a module of its own, replayed or transformed.  A trace made here
    # is nobody else's: the numpy stages transform it in place.
    result = PassManager(
        be.preferred_passes(gm), lint_after_each=lint, cache=cache,
        verifier=PassVerifier() if verify else None,
    ).run(gm, consume=gm is not model)
    gm = result.graph_module

    plan = CapabilityPartitioner(
        be.is_node_supported, mask_effects=not be.respects_effects,
    ).partition(gm)

    if plan.unsupported and not allow_fallback:
        raise UnsupportedNodesError(be.name,
                                    [n.name for n in plan.unsupported])

    if plan.fully_supported and len(plan.partitions) <= 1:
        # Whole graph fits one partition: compile it directly, preserving
        # the backend's native return type (VMModule, optimized
        # GraphModule, ...) with no split wrapper around it.
        out: Module = be.compile_subgraph(gm)
    else:
        from ..passes import split_module
        split_gm = split_module(gm, lambda n: plan.node_pid.get(n))
        for pid in sorted(plan.partitions):
            name = f"submod_{pid}"
            sub = split_gm.get_submodule(name)
            setattr(split_gm, name, be.compile_subgraph(sub))
        out = split_gm

    if exec_mode == "vm" and isinstance(out, GraphModule):
        # Flatten the stitched graph (compiled partitions are resolved
        # call_module targets; fallback nodes become flat instructions)
        # onto the bytecode tier.  Backends returning a native module
        # (e.g. a VMModule) already bypass per-node dispatch.
        from ..vm import VMModule, compile_to_vm

        out = VMModule(compile_to_vm(out))

    report = BackendReport(
        backend=be.name,
        nodes_before=nodes_before,
        nodes_after=len(gm.graph),
        n_partitions=len(plan.partitions) or (1 if plan.fully_supported else 0),
        n_supported_nodes=sum(len(v) for v in plan.partitions.values()),
        n_fallback_nodes=len(plan.unassigned),
        records=result.records,
        transform_misses=result.misses,
        total_time=time.perf_counter() - start,
    )
    try:
        out.backend_report = report
        if guards is not None:
            out.guards = guards
    except Exception:  # a backend may return a slotted/frozen module
        pass
    return out
