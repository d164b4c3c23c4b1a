"""Conv–BatchNorm fusion (§6.2.2, Figure 7).

At inference time a ``Conv2d -> BatchNorm2d`` sequence can be collapsed
into a single convolution by folding the normalization's affine transform
into the convolution weights (Markuš, 2018):

    W' = W * gamma / sqrt(var + eps)        (per output channel)
    b' = (b - mean) * gamma / sqrt(var + eps) + beta

This pass demonstrates the paper's point about needing *non-local program
context and simultaneous code+state modification*: it is one loop over the
Graph's ``call_module`` nodes (code), the shape of the paper's Fig. 7, and
rewrites the conv's parameters (state) — both live together in the
GraphModule.  The whole transform is well under the paper's quoted 150
lines.
"""

from __future__ import annotations

import copy
import functools
from collections import Counter

import numpy as np

from ...nn import BatchNorm2d, Conv2d, Parameter
from ..graph_module import GraphModule
from ..node import Node
from ..state import derive
from ..tracer import symbolic_trace

__all__ = ["fuse_conv_bn", "fuse_conv_bn_weights"]


def fuse_conv_bn_weights(conv: Conv2d, bn: BatchNorm2d) -> Conv2d:
    """Return a new Conv2d equivalent to ``bn(conv(x))`` in eval mode."""
    if bn.running_mean is None or bn.running_var is None:
        raise ValueError("BatchNorm must track running stats to be fusible")
    # One derivation of the six arrays: a transform cache keyed on shapes
    # replays it on another model's weights.
    weight, bias = derive(functools.partial(_fold, bn.eps), *(
        None if t is None else t.data for t in (
            conv.weight, conv.bias, bn.running_mean, bn.running_var,
            bn.weight, bn.bias)))

    # A shallow clone of the matched conv, not a new ``Conv2d(...)``: every
    # hyper-parameter carries over as it is, and no weights are allocated
    # and randomly initialised (from the global RNG) just to be replaced.
    fused = copy.copy(conv)
    object.__setattr__(fused, "_parameters", conv._parameters.copy())
    fused.weight = Parameter(weight)
    fused.bias = Parameter(bias)
    return fused


def _fold(eps: float, w, b, mean, var, gamma, beta) -> tuple:
    """``(W', b')`` of the module docstring (``b``, ``gamma``, ``beta``
    may be ``None``: zeros, ones, zeros)."""
    scale = (np.ones_like(mean) if gamma is None else gamma) \
        / np.sqrt(var + eps)
    b = np.zeros(w.shape[0], dtype=w.dtype) if b is None else b
    beta = np.zeros_like(mean) if beta is None else beta
    return ((w * scale.reshape(-1, 1, 1, 1)).astype(w.dtype, copy=False),
            ((b - mean) * scale + beta).astype(w.dtype, copy=False))


def fuse_conv_bn(model) -> GraphModule:
    """Fold every eval-mode ``Conv2d -> BatchNorm2d`` pair in *model*.

    *model* may be any Module (it is symbolically traced first) or an
    existing GraphModule, which is rewritten in place.  A pair folds when
    the BN call's one input is a conv call whose only user is that BN;
    the conv is re-parameterized, the BN's users read the conv, and the
    dead BN submodule is dropped.  A conv module reached from another node
    (a second call site, a ``get_attr`` of its weight) keeps its weights.

    Only valid for inference: training-mode BN uses batch statistics that
    cannot be folded ahead of time, so a training-mode *model* raises and
    a training-mode BN or conv is left alone.
    """
    gm = model if isinstance(model, GraphModule) else symbolic_trace(model)
    if gm.training:
        raise RuntimeError(
            "conv-bn fusion requires eval mode; call model.eval() first "
            "(training-mode BN uses batch statistics)"
        )
    modules = dict(gm.named_modules())
    named = Counter(n.target if n.op == "call_module" else n.target.rpartition(".")[0]
                    for n in gm.graph.nodes if n.op in ("call_module", "get_attr"))
    folded = False
    for node in list(gm.graph.nodes):
        conv_node = node.args[0] if _one_arg_call(node) else None
        if not _one_arg_call(conv_node) or len(conv_node.users) != 1 \
                or named[conv_node.target] != 1:
            continue
        conv, bn = modules.get(conv_node.target), modules.get(node.target)
        if not isinstance(conv, Conv2d) or not isinstance(bn, BatchNorm2d) \
                or conv.training or bn.training \
                or bn.running_mean is None or bn.running_var is None:
            continue
        fused = modules[conv_node.target] = fuse_conv_bn_weights(conv, bn)
        prefix, _, leaf = conv_node.target.rpartition(".")
        setattr(gm.get_submodule(prefix), leaf, fused)
        node.replace_all_uses_with(conv_node)
        gm.graph.erase_node(node)
        folded = True
    if folded:
        gm.delete_all_unused_submodules()
    gm.recompile()
    return gm


def _one_arg_call(node) -> bool:
    return isinstance(node, Node) and node.op == "call_module" \
        and len(node.args) == 1 and not node.kwargs
