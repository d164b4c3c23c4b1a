"""Conv–BatchNorm fusion (§6.2.2, Figure 7).

At inference time a ``Conv2d -> BatchNorm2d`` sequence can be collapsed
into a single convolution by folding the normalization's affine transform
into the convolution weights (Markuš, 2018):

    W' = W * gamma / sqrt(var + eps)        (per output channel)
    b' = (b - mean) * gamma / sqrt(var + eps) + beta

This pass demonstrates the paper's point about needing *non-local program
context and simultaneous code+state modification*: it pattern-matches
adjacent ``call_module`` nodes in the Graph (code) and rewrites the conv's
parameters (state) — both live together in the GraphModule.  The whole
transform is well under the paper's quoted 150 lines.
"""

from __future__ import annotations

import copy

import numpy as np

from ...nn import BatchNorm2d, Conv2d, Parameter
from ..graph_module import GraphModule
from ..tracer import symbolic_trace

__all__ = ["fuse_conv_bn", "fuse_conv_bn_weights"]


def fuse_conv_bn_weights(conv: Conv2d, bn: BatchNorm2d) -> Conv2d:
    """Return a new Conv2d equivalent to ``bn(conv(x))`` in eval mode."""
    if bn.running_mean is None or bn.running_var is None:
        raise ValueError("BatchNorm must track running stats to be fusible")
    w = conv.weight.data
    b = conv.bias.data if conv.bias is not None else np.zeros(w.shape[0], dtype=w.dtype)
    mean = bn.running_mean.data
    var = bn.running_var.data
    gamma = bn.weight.data if bn.weight is not None else np.ones_like(mean)
    beta = bn.bias.data if bn.bias is not None else np.zeros_like(mean)
    scale = gamma / np.sqrt(var + bn.eps)

    # A shallow clone of the matched conv, not a new ``Conv2d(...)``: every
    # hyper-parameter carries over as it is, and no weights are allocated
    # and randomly initialised (from the global RNG) just to be replaced.
    fused = copy.copy(conv)
    object.__setattr__(fused, "_parameters", conv._parameters.copy())
    fused.weight = Parameter(
        (w * scale.reshape(-1, 1, 1, 1)).astype(w.dtype, copy=False))
    fused.bias = Parameter(((b - mean) * scale + beta).astype(w.dtype, copy=False))
    return fused


def fuse_conv_bn(model, inplace: bool = False) -> GraphModule:
    """Fuse every ``Conv2d -> BatchNorm2d`` pair in *model*.

    *model* may be any Module (it is symbolically traced first) or an
    existing GraphModule.  The BN node is removed from the graph, its
    users are redirected to the (re-parameterized) conv node, and the dead
    BN submodule is dropped from the hierarchy.

    Only valid for inference: the model must be in ``eval()`` mode, since
    training-mode BN uses batch statistics that cannot be folded ahead of
    time.

    Thin wrapper: the traversal and legality checks live in the
    declarative :data:`repro.fx.rules.library.CONV_BN_RULE` (the
    conv-feeds-only-the-BN guard is the matcher's escape rejection, the
    eval-mode requirement is a rule precondition); only the weight-fold
    math above is specific to this pass.
    """
    gm = model if isinstance(model, GraphModule) else symbolic_trace(model)
    if gm.training:
        raise RuntimeError(
            "conv-bn fusion requires eval mode; call model.eval() first "
            "(training-mode BN uses batch statistics)"
        )
    from ..rules.library import conv_bn_ruleset

    conv_bn_ruleset().apply(gm, verify=False)
    gm.graph.lint()
    gm.recompile()
    return gm
