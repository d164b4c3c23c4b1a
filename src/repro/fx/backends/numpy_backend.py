"""The ``"numpy"`` backend: the §6.2 optimizing pipeline as a Backend.

This is :func:`repro.fx.compile`'s engine room, relocated.  The stage
list (shape-prop → DCE → CSE → const-fold → conv-bn-fuse →
pointwise-fuse → memory-plan) lives here as the backend's *preferred
passes*, so ``fx.compile`` is a thin adapter over
:func:`~repro.fx.backends.to_backend` and any other caller gets the same
pipeline by asking for backend ``"numpy"``.

Every stage is a module-level function, so the whole list is one run of
the transform cache (:mod:`repro.fx.passes.pass_manager`) and a
recompile of an unchanged model replays it from one entry.  Only
``shape_prop`` sees the example inputs, and it is keyed by their
signature (:class:`~repro.fx.passes.Specialized`); what the later stages
specialise on is the ``tensor_meta`` it stamps, which every pass that
creates a node carries forward — metadata is never refreshed mid-pipeline,
and ``ShapeProp`` infers it from the op table without running the program
(a node whose target has no entry is executed, alone, and named in
``CompileReport.shape_fallbacks``).

Because the backend executes on the same numpy substrate as eager mode,
it replays in-place mutation faithfully (``respects_effects``), and its
"compilation" of a subgraph is the subgraph itself — all optimization
already happened at whole-graph scope where example-input shapes are
known.
"""

from __future__ import annotations

from typing import Sequence

from ...nn import Module
from ..graph_module import GraphModule
from ..node import Node
from ..passes import (
    Specialized,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    fuse_conv_bn,
)
from ..passes.memory_planner import plan_memory
from ..passes.pointwise_fuser import fuse_pointwise
from ..passes.shape_prop import ShapeProp
from .base import Backend

__all__ = ["NumpyBackend"]


def _shape_prop(gm: GraphModule, *example_inputs) -> None:
    prop = ShapeProp(gm)
    prop.propagate(*example_inputs)
    # travels with the module, as ``memory_plan`` does: a replayed compile
    # reports the same fallbacks as the one it replays
    gm.shape_fallbacks = tuple(prop.fallbacks)


class NumpyBackend(Backend):
    """Optimizing numpy pipeline (§6.2) behind the Backend protocol.

    Args:
        example_inputs: inputs to propagate shapes from; fusion and
            memory planning specialize against these and are skipped
            without them (generic cleanups still run).
        fuse: enable pointwise-region fusion.
        memory_planning: enable arena planning of fused intermediates.

    The :class:`~repro.fx.passes.memory_planner.MemoryPlan`, if one was
    made, travels on the lowered module as ``memory_plan``.
    """

    name = "numpy"
    respects_effects = True  # same substrate as eager: mutation replays

    def __init__(self, example_inputs: Sequence = (), *,
                 fuse: bool = True, memory_planning: bool = True):
        self.example_inputs = tuple(example_inputs)
        self.fuse = fuse
        self.memory_planning = memory_planning

    def is_node_supported(self, node: Node, modules) -> bool:
        # The Interpreter runs the full substrate; everything is fair game.
        return True

    def preferred_passes(self, gm: GraphModule) -> list:
        needs_inputs = any(n.op == "placeholder" and not n.args
                           for n in gm.graph.nodes)
        have_inputs = bool(self.example_inputs) or not needs_inputs
        stages: list = []
        if have_inputs:
            stages.append(("shape_prop",
                           Specialized(_shape_prop, self.example_inputs)))
        stages += [
            ("dce", eliminate_dead_code),
            ("cse", eliminate_common_subexpressions),
            ("const_fold", fold_constants),
        ]
        if not gm.training:
            # fuse_conv_bn refuses training-mode modules (running stats
            # would diverge); skip it rather than fail the pipeline.
            stages.append(("fuse_conv_bn", fuse_conv_bn))
        if self.fuse and have_inputs:
            stages.append(("pointwise_fuse", fuse_pointwise))
        if self.memory_planning and have_inputs:
            stages.append(("memory_plan", plan_memory))
        return stages

    def compile_subgraph(self, gm: GraphModule) -> Module:
        # Whole-graph optimization already ran in preferred_passes; the
        # per-shape stages (fusion, arena planning) cannot re-run on a
        # subgraph whose input shapes are unknown, so the subgraph *is*
        # the compiled artifact.
        return gm
