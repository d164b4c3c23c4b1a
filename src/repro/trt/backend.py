"""The ``"trt"`` backend of ``repro.fx.backends`` (``get_backend("trt")``).

What is TensorRT-like about the backend is two declarations: its
operator-support table (what the partitioner may put in an engine) and
its pass list (Conv–BN folding + DCE, the ahead-of-time rewrites
TensorRT's builder performs).  A supported partition is built into an
engine by flattening it onto the shared bytecode tier
(:func:`~repro.fx.vm.compile_to_vm`): eager's own modules, resolved
ahead of time and replayed as one flat instruction list.

Support is decided *before* any engine build starts (the predicate is the
partitioner's input), so no engine is ever half-built and thrown away.

Registered lazily from :mod:`repro.fx.backends` as ``"trt"`` so importing
``repro.fx`` never drags this package in (and no import cycle forms).
"""

from __future__ import annotations

from typing import Dict

from ..fx.backends import Backend
from ..fx.graph_module import GraphModule
from ..fx.node import Node
from ..fx.opinfo import key_of
from ..fx.passes import eliminate_dead_code, fuse_conv_bn
from ..fx.vm import VMModule, compile_to_vm
from ..nn import BatchNorm2d, Module

__all__ = ["TRTBackend", "is_node_supported"]

_ELEMENTWISE = {"relu", "sigmoid", "tanh", "selu", "gelu", "neg"}

#: The logical ops (keys of :mod:`repro.fx.opinfo`, which resolves every
#: spelling) an engine may hold, per opcode: a contraction is supported as
#: a module only, as TensorRT takes its weights as build-time constants.
_SUPPORTED = {
    "call_module": {"conv2d", "conv_transpose2d", "linear", "batch_norm",
                    "max_pool2d", "avg_pool2d", "adaptive_avg_pool2d", "flatten",
                    "dropout", "interpolate", "identity", *_ELEMENTWISE},
    "call_function": {"add", "flatten", *_ELEMENTWISE},
    "call_method": {"flatten", "reshape", *_ELEMENTWISE},
}


def is_node_supported(modules: dict[str, Module], node: Node) -> bool:
    """Can an engine hold *node*?  The partitioner's support predicate."""
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


class TRTBackend(Backend):
    """TensorRT-like lowering behind the Backend protocol (eval mode only)."""

    name = "trt"
    respects_effects = False  # TensorRT does not replay in-place writes

    def validate_input(self, gm: GraphModule) -> None:
        if gm.training:
            raise RuntimeError(
                "the trt backend requires eval mode; call model.eval() first")

    def is_node_supported(self, node: Node, modules: Dict[str, Module]) -> bool:
        return is_node_supported(modules, node)

    def preferred_passes(self, gm: GraphModule) -> list:
        return [("fuse_conv_bn", fuse_conv_bn), ("dce", eliminate_dead_code)]

    def compile_subgraph(self, gm: GraphModule) -> Module:
        return VMModule(compile_to_vm(gm))
