"""From a traced model to a running pipeline: plan, split, lower, wire.

``shard()`` is the builder behind ``fx.to_backend(model, backend,
shards=N)``:

1. :func:`~.planner.plan_shards` balances a contiguous topological cut
   under the cost model;
2. :func:`~repro.fx.backends.validate_forward_cut` re-checks the cut is a
   legal one-way pipeline;
3. :func:`~repro.fx.passes.split_module.split_module` materializes one
   submodule per stage;
4. each stage submodule goes through the ordinary per-partition
   :func:`~repro.fx.backends.to_backend` compile path (same passes,
   capability partitioning, and structural-hash memo as unsharded
   lowering — sharding changes *where* a stage runs, not *how* it is
   compiled);
5. the split module's top-level graph is read back as queue wiring
   (argument references, env keys, per-stage dead-value drops), each
   stage is pickled once, and a :class:`~.runtime.ShardedModule` takes
   ownership of the worker pool.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ...nn import Module
from ..graph_module import GraphModule
from ..node import Node
from ..passes.split_module import split_module
from ..state import copy_module
from ..tracer import symbolic_trace
from .planner import ShardConfig, ShardPlan, ShardingError, plan_shards
from .runtime import ShardedModule, _Ref, _StageSpec

__all__ = ["shard"]


def _template_of(value: Any, ref_of) -> Any:
    """Rebuild a (possibly nested) arg/output structure with every Node
    replaced by its env reference."""
    if isinstance(value, Node):
        return ref_of(value)
    if isinstance(value, tuple):
        return tuple(_template_of(v, ref_of) for v in value)
    if isinstance(value, list):
        return [_template_of(v, ref_of) for v in value]
    if isinstance(value, dict):
        return {k: _template_of(v, ref_of) for k, v in value.items()}
    return value


def shard(
    model: Union[Module, GraphModule],
    backend: Union[str, Any] = "eager",
    *,
    shards: int,
    example_inputs: Sequence,
    executor: Optional[str] = None,
    config: Optional[ShardConfig] = None,
    verify: bool = True,
    lint: bool = False,
) -> ShardedModule:
    """Compile *model* into an (up to) *shards*-stage process pipeline.

    Args:
        model: a ``Module`` (traced first) or ``GraphModule`` (copied,
            never mutated).
        backend: per-stage compile target, as for :func:`to_backend`.
        shards: requested stage count; the planner may use fewer when
            extra boundaries cost more than they balance, or when the
            graph has fewer compute nodes.
        example_inputs: inputs for shape propagation — the cost model
            needs concrete shapes to balance the cut.
        executor: per-stage executor override (``"codegen"``/``"vm"``).
        config: planning/runtime knobs (:class:`ShardConfig`).
        verify / lint: forwarded to each stage's lowering.

    Returns:
        A cold :class:`ShardedModule`; workers start on first call.

    Raises:
        ShardingError: effectful graph, nothing to split, or a stage
            whose compiled form cannot be pickled to a worker.
    """
    from ..backends.lowering import to_backend
    from ..backends.partitioner import validate_forward_cut

    if isinstance(model, GraphModule):
        gm = copy_module(model)
    else:
        gm = symbolic_trace(model)

    config = config or ShardConfig()
    plan: ShardPlan = plan_shards(gm, example_inputs, shards, config)
    stage_of = lambda n: plan.assignment.get(n.name)  # noqa: E731
    validate_forward_cut(gm, stage_of)
    split_gm = split_module(gm, stage_of)

    k = plan.n_stages
    compiled: Dict[int, Module] = {}
    for s in range(k):
        sub = split_gm.get_submodule(f"submod_{s}")
        compiled[s] = to_backend(sub, backend, executor=executor,
                                 allow_fallback=True, verify=verify,
                                 lint=lint)

    # Read the top-level graph back as queue wiring.
    input_spec: List[Tuple[str, bool, Any, bool]] = []
    getitem_of: Dict[Node, Tuple[str, int]] = {}
    call_nodes: List[Node] = []

    def ref_of(node: Node) -> _Ref:
        if node in getitem_of:
            key, idx = getitem_of[node]
            return _Ref(key, idx)
        return _Ref(node.name)

    stage_args: Dict[int, Tuple[Any, ...]] = {}
    stage_key: Dict[int, str] = {}
    output_template: Any = None
    for node in split_gm.graph.nodes:
        if node.op == "placeholder":
            has_default = bool(node.args)
            input_spec.append((node.name, has_default,
                               node.args[0] if has_default else None,
                               len(node.users) > 0))
        elif node.op == "call_module":
            s = int(str(node.target).rsplit("_", 1)[1])
            stage_args[s] = tuple(_template_of(a, ref_of)
                                  for a in node.args)
            stage_key[s] = node.name
            call_nodes.append(node)
        elif node.op == "call_function":
            # operator.getitem unpacking a multi-output stage
            src, idx = node.args
            getitem_of[node] = (src.name, int(idx))
        elif node.op == "output":
            output_template = _template_of(node.args[0], ref_of)

    if sorted(stage_args) != list(range(k)):
        raise ShardingError(
            f"stage calls {sorted(stage_args)} do not form a chain of "
            f"{k} stage(s)")  # pragma: no cover - guarded by the planner

    # Dead-value elimination along the chain: a value stops riding the
    # queues right after its last reading stage.
    last_read: Dict[str, int] = {}

    def note_reads(template: Any, s: int) -> None:
        if isinstance(template, _Ref):
            last_read[template.key] = max(last_read.get(template.key, -1), s)
        elif isinstance(template, (tuple, list)):
            for t in template:
                note_reads(t, s)
        elif isinstance(template, dict):
            for t in template.values():
                note_reads(t, s)

    for s in range(k):
        note_reads(stage_args[s], s)
    note_reads(output_template, k - 1)

    payloads: List[bytes] = []
    for s in range(k):
        spec = _StageSpec(
            index=s,
            name=f"submod_{s}",
            module=compiled[s],
            arg_refs=stage_args[s],
            result_key=stage_key[s],
            drop_keys=tuple(key for key, last in last_read.items()
                            if last == s and key != stage_key[s]),
            is_last=(s == k - 1),
            output_template=output_template if s == k - 1 else None,
        )
        try:
            payloads.append(pickle.dumps(spec))
        except Exception as exc:
            raise ShardingError(
                f"stage {s} is not picklable for cross-process execution "
                f"({type(exc).__name__}: {exc}); use a backend/executor "
                f"whose compiled form pickles (e.g. executor='vm')") from exc

    be_name = backend if isinstance(backend, str) \
        else getattr(backend, "name", type(backend).__name__)
    return ShardedModule(
        payloads, plan, config, input_spec,
        name=f"Sharded[{be_name}x{k}]({gm._class_name})")
