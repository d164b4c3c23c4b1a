"""``repro.fx.backends`` — the backend protocol and the one lowering path.

Every way of executing a captured graph — the optimizing numpy pipeline
(§6.2), the TensorRT-like engine builder (§6.4), plain eager — is a
:class:`Backend`, and every lowering goes through one entrypoint,
:func:`to_backend`:

    capture -> preferred passes (PassManager + PassVerifier)
            -> CapabilityPartitioner (dependency-aware, analysis-legal)
            -> compile each supported partition (structural-hash memoized)
            -> stitch with eager fallback

Built-in backend names (:func:`get_backend`):

* ``"numpy"`` — :class:`NumpyBackend`, the ``fx.compile`` pipeline;
* ``"trt"`` — the TensorRT-like backend (imported from :mod:`repro.trt`
  on first use, to avoid an import cycle);
* ``"eager"`` — :class:`EagerBackend`, identity.

Pass your own as a :class:`Backend` instance; constrain an existing
one's support set with :func:`override_support` (how tests and benchmarks
force fallback regions).
"""

from .base import (
    Backend,
    UnsupportedNodesError,
    get_backend,
    override_support,
)
from .partitioner import CapabilityPartitioner, PartitionPlan, effect_mask
from .lowering import (
    BackendReport,
    to_backend,
)
from .numpy_backend import NumpyBackend
from ... import _lazy
__getattr__, __dir__ = _lazy.attach(__name__, {"eager": "eager EagerBackend"})

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
    "to_backend",
]
