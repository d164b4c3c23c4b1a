r"""``repro.serve`` — the model-serving runtime over compiled artifacts.

Everything below ``fx.to_backend()`` in this repo compiles a captured
graph once; this package is the layer that *amortizes* that compile
across traffic (the ROADMAP "millions of users" direction, and the
capture-once/replay-many economics PyGraph argues for):

* :class:`InferenceServer` — asyncio front door + thread worker pool,
  with **work-conserving dynamic batching**: same-(model, shape, dtype)
  requests pending when a worker is idle leave as one batched forward
  and split back per request (:mod:`.batching`) — batches form while
  the workers are busy and a lone request never waits; only batches
  that several callers share are paced (``server.PACE_S``);
* :class:`EngineCache` — per-(graph hash, per-sample signature) engine
  store (one engine serves every batch size) with **on-disk
  persistence**: compiled :class:`~repro.fx.vm.VMProgram`\s pickle, so
  a cold process loads instead of recompiling, and integrity checks
  (key echo, format version, payload checksum) make a stale or
  corrupted file a cache miss, never wrong code (:mod:`.engine_cache`);
* a smoke load test: ``python -m repro.serve.smoke`` (also wired into
  CI).

Concurrent serving is safe because the compile stack is re-entrant: the
codegen LRU and the transform cache are locked and single-flighted, and
a compiled engine's arena keeps its buffers per calling thread.

Example::

    from repro.serve import InferenceServer, ServeConfig

    async with InferenceServer(ServeConfig(workers=8,
                                           cache_dir=".engines")) as s:
        s.register("resnet", resnet18().eval())
        y = await s.infer("resnet", x)
"""

from .batching import BatchError, BatchKey, batch_key_of, coalesce, \
    split_results
from .engine_cache import ENGINE_FORMAT_VERSION, EngineCache, EngineKey, \
    input_signature
from .server import BatchRecord, InferenceServer, ServeConfig

__all__ = [
    "ENGINE_FORMAT_VERSION",
    "BatchError",
    "BatchKey",
    "BatchRecord",
    "EngineCache",
    "EngineKey",
    "InferenceServer",
    "ServeConfig",
    "batch_key_of",
    "coalesce",
    "input_signature",
    "split_results",
]
