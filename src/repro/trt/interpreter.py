"""The fx → engine translation layer (§6.4).

Mirrors fx2trt's ``TRTInterpreter``: walk the fx graph node by node,
translating each into a backend kernel.  Along the way it performs the
peephole fusions a real builder would (ReLU into the producing conv /
linear / residual-add epilogue) and resolves all ``get_attr`` state into
engine constants.

Unsupported nodes raise :class:`UnsupportedOperatorError`; the partitioner
(:mod:`repro.fx.backends.partitioner`) uses :func:`is_node_supported` to
route such regions back to eager execution instead.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..fx import GraphModule, Node
from ..fx.opinfo import key_of
from ..nn import BatchNorm2d, Module
from ..functional import _pair
from ..tensor import Tensor
from . import ops
from .engine import EngineOp, TRTEngine

__all__ = ["TRTInterpreter", "UnsupportedOperatorError", "is_node_supported"]


class UnsupportedOperatorError(RuntimeError):
    """Raised when the graph contains a node the backend cannot lower."""


#: The logical ops (keys of :mod:`repro.fx.opinfo`, which resolves every
#: spelling) the engine lowers, per opcode: it reads weights off module
#: instances, so a contraction is supported as a module only.
_SUPPORTED = {
    "call_module": {"conv2d", "conv_transpose2d", "linear", "batch_norm",
                    "max_pool2d", "avg_pool2d", "adaptive_avg_pool2d", "flatten",
                    "dropout", "interpolate", *ops.ELEMENTWISE_KINDS},
    "call_function": {"add", "flatten", *ops.ELEMENTWISE_KINDS} - {"identity"},
    "call_method": {"flatten", "reshape", *ops.ELEMENTWISE_KINDS} - {"identity"},
}


def is_node_supported(modules: dict[str, Module], node: Node) -> bool:
    """Support predicate used by the interpreter and the partitioner."""
    if node.op in ("placeholder", "output", "get_attr"):
        return True
    key = key_of(node, modules)
    if key not in _SUPPORTED.get(node.op, ()):
        return False
    mod = modules.get(node.target) if node.op == "call_module" else None
    if key == "interpolate":
        return mod.mode == "nearest" and mod.scale_factor is not None
    if key == "batch_norm":
        return isinstance(mod, BatchNorm2d)     # the builder assumes NCHW
    if key == "reshape":
        return all(isinstance(a, int) for a in node.args[1:])
    return True


class TRTInterpreter:
    """Builds a :class:`~repro.trt.engine.TRTEngine` from a GraphModule."""

    def __init__(self, gm: GraphModule):
        self.gm = gm
        self.modules = dict(gm.named_modules())

    def run(self) -> TRTEngine:
        gm = self.gm
        modules = self.modules
        graph = gm.graph

        # -- plan epilogue fusions: relu folded into its producer --------------
        fused_into: dict[Node, Node] = {}  # relu node -> producer
        for node in graph.nodes:
            if key_of(node, modules) != "relu":
                continue
            producer = node.args[0] if node.args else None
            if not isinstance(producer, Node) or len(producer.users) != 1:
                continue
            producer_key = key_of(producer, modules)
            if producer_key == "add" or producer.op == "call_module" and \
                    producer_key in ("conv2d", "conv_transpose2d", "linear"):
                fused_into[node] = producer
        relu_fused_producers = set(fused_into.values())

        # -- slot allocation ------------------------------------------------------
        slot_of: dict[Node, int] = {}
        next_slot = 0

        def new_slot(node: Node) -> int:
            nonlocal next_slot
            slot_of[node] = next_slot
            next_slot += 1
            return slot_of[node]

        constants: dict[int, np.ndarray] = {}
        input_slots: list[int] = []
        plan: list[EngineOp] = []

        def slot(node: Node) -> int:
            if node in fused_into:
                return slot(fused_into[node])
            return slot_of[node]

        for node in graph.nodes:
            if node.op == "placeholder":
                input_slots.append(new_slot(node))
                continue
            if node.op == "get_attr":
                value = self._fetch_attr(node.target)
                s = new_slot(node)
                constants[s] = value.data if isinstance(value, Tensor) else np.asarray(value)
                continue
            if node.op == "output":
                break
            if node in fused_into:
                # executed as the producer's epilogue; share its slot
                continue
            fuse_relu = node in relu_fused_producers
            fn, in_nodes = self._translate(node, fuse_relu)
            plan.append(
                EngineOp(
                    name=node.name,
                    fn=fn,
                    input_slots=tuple(slot(n) for n in in_nodes),
                    output_slot=new_slot(node),
                )
            )

        # -- liveness: free each non-constant slot after its last use ---------------
        last_use: dict[int, int] = {}
        for i, op in enumerate(plan):
            for s in op.input_slots:
                last_use[s] = i
        out_node = graph.output_node

        def out_spec(arg):
            if isinstance(arg, Node):
                s = slot(arg)
                last_use[s] = len(plan)  # outputs never freed
                return s
            if isinstance(arg, (tuple, list)):
                return tuple(out_spec(a) for a in arg)
            raise UnsupportedOperatorError(
                f"engine output must be tensors, got immediate {arg!r}"
            )

        spec = out_spec(out_node.args[0])
        for i, op in enumerate(plan):
            frees = tuple(
                s for s in set(op.input_slots)
                if last_use.get(s) == i and s not in constants and s not in input_slots
            )
            op.frees = frees

        return TRTEngine(plan, next_slot, input_slots, spec, constants)

    # -- per-node translation ---------------------------------------------------------

    def _translate(self, node: Node, fuse_relu: bool):
        modules = self.modules
        if not is_node_supported(modules, node):
            raise UnsupportedOperatorError(
                f"unsupported {node.op} {node._pretty_print_target()} at node "
                f"{node.name!r}")
        key = key_of(node, modules)
        x = [node.args[0]]
        mod = modules.get(node.target) if node.op == "call_module" else None
        if key in ops.ELEMENTWISE_KINDS:
            return ops.build_elementwise(key), x
        if key == "dropout":        # an inference engine: dropout is off
            return ops.build_elementwise("identity"), x
        if key == "add":
            return ops.build_add(fuse_relu=fuse_relu), [node.args[0], node.args[1]]
        if key == "reshape":
            return ops.build_reshape(tuple(node.args[1:])), x
        if key == "flatten":
            start = mod.start_dim if mod is not None else node.args[1] \
                if len(node.args) > 1 else node.kwargs.get("start_dim", 0)
            return ops.build_flatten(int(start)), x
        bias = mod.bias.data if getattr(mod, "bias", None) is not None else None
        if key == "conv2d":
            return ops.build_conv2d(
                mod.weight.data, bias, _pair(mod.stride), _pair(mod.padding),
                _pair(mod.dilation), mod.groups, fuse_relu=fuse_relu), x
        if key == "conv_transpose2d":
            return ops.build_conv_transpose2d(
                mod.weight.data, bias, _pair(mod.stride), _pair(mod.padding),
                _pair(mod.output_padding), fuse_relu=fuse_relu), x
        if key == "linear":
            return ops.build_linear(mod.weight.data, bias, fuse_relu=fuse_relu), x
        if key == "batch_norm":
            return ops.build_batch_norm(
                mod.running_mean.data, mod.running_var.data,
                mod.weight.data if mod.weight is not None else None, bias, mod.eps), x
        if key == "interpolate":
            return ops.build_upsample_nearest(mod.scale_factor), x
        if key == "adaptive_avg_pool2d":
            return ops.build_adaptive_avg_pool2d(_pair(mod.output_size)), x
        build = ops.build_max_pool2d if key == "max_pool2d" else ops.build_avg_pool2d
        return build(_pair(mod.kernel_size), _pair(mod.stride), _pair(mod.padding)), x

    def _fetch_attr(self, target: str):
        obj: Any = self.gm
        for atom in target.split("."):
            obj = getattr(obj, atom)
        return obj
