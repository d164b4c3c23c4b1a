"""``repro.trt`` — a TensorRT-like ahead-of-time backend (§6.4, Figure 8).

An fx-based device-lowering stack: a translation layer from the fx IR to
specialized numpy kernels, a flat execution engine with buffer planning
and epilogue fusion, and support-based graph splitting with eager
fallback — the architecture of the fx2trt project the paper evaluates.
"""

from .backend import TRTBackend
from .engine import EngineOp, TRTEngine, TRTModule
from .interpreter import TRTInterpreter, UnsupportedOperatorError, is_node_supported
from .lower import lower_to_trt

__all__ = [
    "EngineOp",
    "TRTBackend",
    "TRTEngine",
    "TRTInterpreter",
    "TRTModule",
    "UnsupportedOperatorError",
    "is_node_supported",
    "lower_to_trt",
]
