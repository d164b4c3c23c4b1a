"""``repro.fx.backends`` — the unified backend registry and lowering path.

Every way of executing a captured graph — the optimizing numpy pipeline
(§6.2), the TensorRT-like engine builder (§6.4), plain eager — is a
:class:`Backend` behind one registry, and every lowering goes through one
entrypoint, :func:`to_backend`:

    capture -> preferred passes (PassManager + PassVerifier)
            -> CapabilityPartitioner (dependency-aware, analysis-legal)
            -> compile each supported partition (structural-hash memoized)
            -> stitch with eager fallback

Built-in registry entries:

* ``"numpy"`` — :class:`NumpyBackend`, the ``fx.compile`` pipeline;
* ``"trt"`` — the TensorRT-like backend (registered lazily from
  :mod:`repro.trt` to avoid an import cycle);
* ``"eager"`` — :class:`EagerBackend`, identity.

Register your own with :func:`register_backend`; constrain an existing
one's support set with :func:`override_support` (how tests and benchmarks
force fallback regions).
"""

from .base import (
    Backend,
    UnsupportedNodesError,
    get_backend,
    override_support,
    register_backend,
    register_lazy_backend,
    registered_backends,
)
from .partitioner import CapabilityPartitioner, PartitionPlan, effect_mask
from .lowering import (
    BackendReport,
    to_backend,
)
from .eager import EagerBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "Backend",
    "BackendReport",
    "CapabilityPartitioner",
    "EagerBackend",
    "NumpyBackend",
    "PartitionPlan",
    "UnsupportedNodesError",
    "effect_mask",
    "get_backend",
    "override_support",
    "register_backend",
    "register_lazy_backend",
    "registered_backends",
    "to_backend",
]

register_backend("eager", EagerBackend)
register_backend("numpy", NumpyBackend)
register_lazy_backend("trt", "repro.trt.backend", "TRTBackend")
