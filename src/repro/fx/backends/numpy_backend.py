"""The ``"numpy"`` backend: the §6.2 optimizing pipeline as a Backend.

This is :func:`repro.fx.compile`'s engine room, relocated.  The stage
list (shape-prop → DCE → CSE → const-fold → conv-bn-fuse →
pointwise-fuse → memory-plan) lives here as the backend's *preferred
passes*, so ``fx.compile`` is a thin adapter over
:func:`~repro.fx.backends.to_backend` and any other caller gets the same
pipeline by asking for backend ``"numpy"``.

Because the backend executes on the same numpy substrate as eager mode,
it replays in-place mutation faithfully (``respects_effects``), and its
"compilation" of a subgraph is the subgraph itself — all optimization
already happened at whole-graph scope where example-input shapes are
known.  It is deliberately *not* cacheable: the result is the
freshly-transformed module, and callers own it exclusively (the
``fx.compile`` no-mutation contract).
"""

from __future__ import annotations

from typing import Sequence

from ...nn import Module
from ..graph_module import GraphModule
from ..node import Node
from ..passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    fuse_conv_bn,
)
from ..passes.memory_planner import MemoryPlan, plan_memory
from ..passes.pointwise_fuser import fuse_pointwise
from ..passes.shape_prop import ShapeProp
from ..rules.engine import apply_default_rules
from .base import Backend

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Optimizing numpy pipeline (§6.2) behind the Backend protocol.

    Args:
        example_inputs: inputs to propagate shapes from; fusion and
            memory planning specialize against these and are skipped
            without them (generic cleanups still run).
        fuse: enable pointwise-region fusion.
        memory_planning: enable arena planning of fused intermediates.
        rules: enable the declarative rewrite-rule stage (the bit-exact
            ``repro.fx.rules`` stdlib, applied to fixpoint with a
            per-firing verifier).

    After :func:`~repro.fx.backends.to_backend` runs, ``plans`` holds the
    :class:`~repro.fx.passes.memory_planner.MemoryPlan` if one was made.
    """

    name = "numpy"
    cacheable = False       # compile_subgraph returns the module itself
    respects_effects = True  # same substrate as eager: mutation replays

    def __init__(self, example_inputs: Sequence = (), *,
                 fuse: bool = True, memory_planning: bool = True,
                 rules: bool = True):
        self.example_inputs = tuple(example_inputs)
        self.fuse = fuse
        self.memory_planning = memory_planning
        self.rules = rules
        self.plans: list[MemoryPlan] = []

    def is_node_supported(self, node: Node, modules) -> bool:
        # The Interpreter runs the full substrate; everything is fair game.
        return True

    def preferred_passes(self, gm: GraphModule) -> list:
        needs_inputs = any(n.op == "placeholder" and not n.args
                           for n in gm.graph.nodes)
        have_inputs = bool(self.example_inputs) or not needs_inputs
        example_inputs = self.example_inputs

        def shape_prop(g: GraphModule) -> None:
            ShapeProp(g).propagate(*example_inputs)

        def shape_refresh(g: GraphModule) -> None:
            # Cached cleanup stages replay modules stored on an *earlier*
            # compile, whose metadata may describe different example
            # shapes (meta is not part of the structural hash).  Re-stamp
            # from the current inputs so fusion never specializes on
            # stale shapes.
            ShapeProp(g).propagate(*example_inputs)

        def pointwise_fuse(g: GraphModule) -> int:
            return fuse_pointwise(g)

        def memory_plan(g: GraphModule) -> None:
            self.plans.append(plan_memory(g))

        stages: list = []
        if have_inputs:
            stages.append(("shape_prop", shape_prop))
        stages += [
            ("dce", eliminate_dead_code),
            ("cse", eliminate_common_subexpressions),
            ("const_fold", fold_constants),
        ]
        if self.rules:
            # Module-level pass: the transform cache keys it by qualname,
            # so warm recompiles replay the whole rule stage cache-hit.
            stages.append(("rules", apply_default_rules))
        if not gm.training:
            # fuse_conv_bn refuses training-mode modules (running stats
            # would diverge); skip it rather than fail the pipeline.
            stages.append(("fuse_conv_bn", fuse_conv_bn))
        if self.fuse and have_inputs:
            stages += [
                ("shape_refresh", shape_refresh),
                ("pointwise_fuse", pointwise_fuse),
            ]
        if self.memory_planning and have_inputs:
            stages.append(("memory_plan", memory_plan))
        return stages

    def compile_subgraph(self, gm: GraphModule) -> Module:
        # Whole-graph optimization already ran in preferred_passes; the
        # per-shape stages (fusion, arena planning) cannot re-run on a
        # subgraph whose input shapes are unknown, so the subgraph *is*
        # the compiled artifact.
        return gm
