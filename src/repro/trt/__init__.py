"""``repro.trt`` — a TensorRT-like ahead-of-time backend (§6.4, Figure 8).

The fx2trt shape over this repo's shared pieces: an operator-support
table that splits the graph (unsupported regions fall back to eager), a
pass list run before the split, and each supported region built into a
flat program on the bytecode tier.  Lower with
``repro.fx.to_backend(model, "trt")``.
"""

from .backend import TRTBackend, is_node_supported

__all__ = ["TRTBackend", "is_node_supported"]
