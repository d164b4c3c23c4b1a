"""``repro.serve`` — the model-serving runtime over compiled artifacts.

:class:`InferenceServer` is an asyncio front door over a thread worker
pool, with work-conserving dynamic batching (:mod:`.server`,
:mod:`.batching`); :class:`EngineCache` keeps one engine per (graph hash,
per-sample signature), in memory and on disk, where integrity checks make
a stale or corrupted file a miss, never wrong code (:mod:`.engine_cache`);
``python -m repro.serve.smoke`` is the smoke load test CI runs.
DESIGN.md, "Serving", gives the design.
"""

from .batching import BatchError, coalesce, sample_signature, \
    split_results
from .engine_cache import ENGINE_FORMAT_VERSION, EngineCache, EngineKey, \
    input_signature
from .server import BatchRecord, InferenceServer, ServeConfig

__all__ = [
    "ENGINE_FORMAT_VERSION",
    "BatchError",
    "BatchRecord",
    "EngineCache",
    "EngineKey",
    "InferenceServer",
    "ServeConfig",
    "coalesce",
    "input_signature",
    "sample_signature",
    "split_results",
]
