r"""``InferenceServer`` — the asyncio front door over compiled engines.

Architecture (stdlib only)::

    async infer() ──► per-(model, shape, dtype) pending queue
                          │  window expires / batch full
                          ▼
                      flush: one batched forward ──► worker pool
                          │                          (threads; numpy
                          ▼                           releases the GIL)
                      split rows back, resolve futures

* **Dynamic batching** — requests that agree on (model, per-sample
  shape, dtype) coalesce within a small time/size window into one
  forward (:mod:`.batching`); mixed-shape traffic never cross-batches
  because the pending queue is keyed by the full signature.
* **Engine cache** — each (model graph hash, backend, executor, batched
  signature) compiles once, process-wide, via :class:`.EngineCache`;
  with a cache directory, a cold process loads the pickled program
  instead of recompiling.
* **Guard-keyed engines** — a per-model
  :class:`~repro.fx.analysis.guards.GuardSet` (proved by symbolic shape
  propagation) canonicalizes the dynamic dims out of the cache key, so
  one engine serves every batch size its guards admit; violating
  requests fall back to concrete per-shape engines.
* **Concurrency safety** — engines are :class:`~repro.fx.vm.VMProgram`\s
  replayed through per-call arena leases, and every compile-stack cache
  is locked/single-flighted, so one shared engine serves the whole
  worker pool.

Example::

    async with InferenceServer(ServeConfig(workers=4)) as server:
        server.register("model", MyModel().eval())
        y = await server.infer("model", x)
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import fx
from ..fx.cache import ArtifactCache
from ..fx.graph import UnstableHashError
from ..fx.graph_module import GraphModule
from ..fx.tracer import symbolic_trace
from ..nn import Module
from .batching import BatchError, BatchKey, batch_key_of, coalesce, \
    split_results
from .engine_cache import EngineCache, EngineKey, input_signature

__all__ = ["ServeConfig", "BatchRecord", "InferenceServer"]


@dataclass
class ServeConfig:
    """Tunables for one :class:`InferenceServer`.

    Attributes:
        backend: backend registry name engines compile for (``"numpy"``
            routes through :func:`repro.fx.compile`, i.e. the full
            fusion + memory-planning pipeline; any other name goes
            through :func:`repro.fx.to_backend`).
        executor: execution tier for engines (``"vm"`` or ``"codegen"``).
        batching: coalesce same-signature requests (False = every
            request is its own forward).
        max_batch_size: flush a pending batch as soon as it holds this
            many rows.
        batch_window_s: flush a non-full batch this many seconds after
            its first request arrived (the latency the server will spend
            waiting for co-batchable traffic).
        workers: worker threads executing forwards.
        cache_dir: on-disk engine persistence root (``None`` = memory
            only).
        record_batches: keep a bounded log of executed batches (used by
            tests and the benchmark to audit coalescing).
        shards: when > 1, engines compile as
            :class:`~repro.fx.sharding.ShardedModule` pipelines — each
            engine owns a persistent worker-process pool (closed with the
            server).  Models sharding rejects (e.g. effectful graphs)
            fall back to unsharded engines under the same key.
        guards: derive a symbolic-shape
            :class:`~repro.fx.analysis.guards.GuardSet` per model (from
            the first observed inputs) and key engines on the
            guard-canonicalized signature — one engine then serves every
            batch size its guards admit instead of one engine per shape.
            Requests violating the guards fall back to a concrete
            per-shape engine (always correct, just not shared).
            Disabled automatically for sharded engines.
    """

    backend: str = "numpy"
    executor: str = "vm"
    batching: bool = True
    max_batch_size: int = 16
    batch_window_s: float = 0.002
    workers: int = 4
    cache_dir: Optional[str] = None
    record_batches: bool = True
    shards: int = 1
    guards: bool = True


@dataclass(frozen=True)
class BatchRecord:
    """One executed batch (audit trail for tests/benchmarks)."""

    model: str
    signature: tuple    # the BatchKey signature (per-sample shapes)
    n_requests: int
    rows: int


@dataclass
class _ModelHandle:
    name: str
    gm: GraphModule
    graph_hash: Optional[str]   # None: unstable hash, engines stay local
    guard_lock: threading.Lock = field(default_factory=threading.Lock)
    #: ``None`` = not derived yet; ``False`` = derivation failed or the
    #: set is fully static (keying on it would be a no-op); else the
    #: model's :class:`~repro.fx.analysis.guards.GuardSet`.
    guard_set: Any = None


class _Pending:
    """Requests accumulated for one BatchKey, awaiting a flush."""

    __slots__ = ("items", "rows", "timer")

    def __init__(self) -> None:
        self.items: List[Tuple[tuple, int, asyncio.Future]] = []
        self.rows = 0
        self.timer: Optional[asyncio.TimerHandle] = None


class InferenceServer:
    """Async dynamic-batching inference server over compiled engines.

    All request-side methods must be called from one event loop; the
    heavy lifting (compiles, forwards) runs on the worker pool.  Use as
    an async context manager, or call :meth:`close` when done.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        if self.config.executor not in ("vm", "codegen"):
            raise ValueError(
                f"unknown executor {self.config.executor!r}")
        self.engine_cache = EngineCache(directory=self.config.cache_dir)
        #: engines of models with no stable hash, ``(model name,
        #: signature) -> engine``: per server, never on disk.
        self._local_engines = ArtifactCache(64)
        self._models: Dict[str, _ModelHandle] = {}
        self._pending: Dict[BatchKey, _Pending] = {}
        self._inflight: set = set()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._guard_hits = 0        # forwards keyed through a GuardSet
        self._guard_violations = 0  # forwards that violated one (concrete key)
        self._batch_log: deque = deque(maxlen=4096)
        #: sharded engines this server built/loaded — their worker pools
        #: are the server's responsibility to reap on close().
        self._sharded_engines: set = set()

    # -- lifecycle ---------------------------------------------------------------

    async def __aenter__(self) -> "InferenceServer":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("InferenceServer is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-serve")
        return self._pool

    async def close(self) -> None:
        """Flush pending batches, wait for in-flight work, stop workers."""
        if self._closed:
            return
        for key in list(self._pending):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        with self._stats_lock:
            sharded, self._sharded_engines = self._sharded_engines, set()
        for engine in sharded:
            engine.close()

    # -- registration ------------------------------------------------------------

    def register(self, name: str, model: Module) -> None:
        """Make *model* servable as *name* (symbolically traced now;
        engines compile lazily, per observed batched signature)."""
        if name in self._models:
            raise ValueError(f"model {name!r} is already registered")
        gm = model if isinstance(model, GraphModule) \
            else symbolic_trace(model)
        try:
            graph_hash = gm.graph.structural_hash(
                include_attrs=True, require_stable=True,
                canonicalize_targets=True)
        except UnstableHashError:
            graph_hash = None  # engines stay per-server, memory-only
        self._models[name] = _ModelHandle(name=name, gm=gm,
                                          graph_hash=graph_hash)

    def registered(self) -> list:
        return sorted(self._models)

    # -- stats -------------------------------------------------------------------

    def stats(self) -> dict:
        """Request/batch counters plus the engine cache's counters."""
        with self._stats_lock:
            log = list(self._batch_log)
            requests = self._requests
            guard_hits = self._guard_hits
            guard_violations = self._guard_violations
        batched_rows = sum(r.rows for r in log)
        return {
            "requests": requests,
            "batches": len(log),
            "batched_rows": batched_rows,
            "max_batch_rows": max((r.rows for r in log), default=0),
            "mean_rows_per_batch": (batched_rows / len(log)) if log else 0.0,
            "guard_hits": guard_hits,
            "guard_violations": guard_violations,
            "guarded_models": sum(
                1 for h in self._models.values()
                if h.guard_set not in (None, False)),
            "engine_cache": self.engine_cache.info(),
        }

    def batch_log(self) -> List[BatchRecord]:
        """The (bounded) audit log of executed batches."""
        with self._stats_lock:
            return list(self._batch_log)

    # -- engine construction (worker threads) ------------------------------------

    def _build_engine(self, handle: _ModelHandle,
                      example_inputs: tuple) -> Any:
        """Compile *handle*'s graph specialized to *example_inputs*."""
        cfg = self.config
        if cfg.shards > 1:
            from ..fx.sharding import ShardingError

            backend = "eager" if cfg.backend == "numpy" else cfg.backend
            try:
                return fx.to_backend(handle.gm, backend,
                                     shards=cfg.shards,
                                     example_inputs=example_inputs,
                                     executor=cfg.executor)
            except ShardingError:
                pass  # unshardable model: serve it unsharded
        if cfg.backend == "numpy":
            mod = fx.compile(handle.gm, example_inputs,
                             executor=cfg.executor)
        else:
            mod = fx.to_backend(handle.gm, cfg.backend,
                                executor=cfg.executor)
        program = getattr(mod, "program", None)
        if program is not None:
            # VMModule: persist the bare VMProgram — it is the whole
            # engine (weights baked into const registers) and pickles
            # smaller than the module wrapper.
            return program
        return mod

    def _guards_for(self, handle: _ModelHandle, inputs: tuple) -> Any:
        """The model's GuardSet, derived lazily from the first inputs seen.

        Returns the set, or ``False`` when guards are off for this model
        (underivable, fully static, or disabled by config/sharding).
        """
        if not self.config.guards or self.config.shards > 1:
            return False
        guards = handle.guard_set
        if guards is not None:
            return guards
        with handle.guard_lock:
            if handle.guard_set is not None:   # raced: someone derived it
                return handle.guard_set
            try:
                from ..fx.analysis.guards import derive_guards

                derived = derive_guards(handle.gm, inputs)
            except Exception:
                derived = None
            # A static set admits exactly the example signature — keying
            # on it would replicate the concrete key, so drop it.
            if derived is None or not getattr(derived, "dynamic", False):
                handle.guard_set = False
            else:
                handle.guard_set = derived
            return handle.guard_set

    def _engine_for(self, handle: _ModelHandle, inputs: tuple) -> Any:
        signature = input_signature(inputs)
        guards = self._guards_for(handle, inputs)
        if guards is not False:
            if guards.matches(signature):
                signature = guards.canonicalize(signature)
                with self._stats_lock:
                    self._guard_hits += 1
            else:
                # Guard violation: keep the concrete signature, which
                # builds (or reuses) a per-shape engine — correct, just
                # not shared with the guarded one.
                with self._stats_lock:
                    self._guard_violations += 1
        if handle.graph_hash is None:
            cache, key = self._local_engines, (handle.name, signature)
        else:
            cache = self.engine_cache
            key = EngineKey(graph_hash=handle.graph_hash,
                            backend=self.config.backend,
                            executor=self.config.executor,
                            signature=signature,
                            shards=self.config.shards)
        engine = cache.get_or_build(
            key, lambda: self._build_engine(handle, inputs))
        self._track_engine(engine)
        return engine

    def _track_engine(self, engine: Any) -> None:
        from ..fx.sharding import ShardedModule

        if isinstance(engine, ShardedModule):
            with self._stats_lock:
                self._sharded_engines.add(engine)

    # -- execution (worker threads) ----------------------------------------------

    def _run_single(self, handle: _ModelHandle, inputs: tuple) -> Any:
        engine = self._engine_for(handle, inputs)
        return engine(*inputs)

    def _execute_batch(self, handle: _ModelHandle, key: BatchKey,
                       items: list) -> list:
        if len(items) == 1:
            # Lone request: no concat/split, and no batch-splittability
            # requirement on the model's output.
            inputs, rows, _ = items[0]
            result = [self._run_single(handle, inputs)]
        else:
            batched = coalesce([inputs for inputs, _, _ in items])
            engine = self._engine_for(handle, batched)
            out = engine(*batched)
            result = split_results(out, [rows for _, rows, _ in items])
        if self.config.record_batches:
            with self._stats_lock:
                self._batch_log.append(BatchRecord(
                    model=handle.name, signature=key.signature,
                    n_requests=len(items),
                    rows=sum(rows for _, rows, _ in items)))
        return result

    # -- request path (event loop) -----------------------------------------------

    async def infer(self, name: str, *inputs: Any) -> Any:
        """Run one inference request; resolves when its (possibly
        batched) forward completes."""
        handle = self._models.get(name)
        if handle is None:
            raise KeyError(f"no model registered as {name!r}")
        loop = asyncio.get_running_loop()
        pool = self._ensure_pool()
        with self._stats_lock:
            self._requests += 1

        if not self.config.batching:
            return await loop.run_in_executor(
                pool, self._run_single, handle, inputs)

        try:
            key, rows = batch_key_of(name, inputs)
        except BatchError:
            # Unbatchable request (scalar/0-d/non-tensor input): run it
            # alone rather than rejecting it.
            return await loop.run_in_executor(
                pool, self._run_single, handle, inputs)

        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = _Pending()
        fut: asyncio.Future = loop.create_future()
        pending.items.append((inputs, rows, fut))
        pending.rows += rows
        if pending.rows >= self.config.max_batch_size:
            self._flush(key)
        elif pending.timer is None:
            pending.timer = loop.call_later(
                self.config.batch_window_s, self._flush, key)
        return await fut

    def _flush(self, key: BatchKey) -> None:
        pending = self._pending.pop(key, None)
        if pending is None or not pending.items:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        handle = self._models[key.model]
        task = asyncio.ensure_future(
            self._run_batch(handle, key, pending.items))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, handle: _ModelHandle, key: BatchKey,
                         items: list) -> None:
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._pool, self._execute_batch, handle, key, items)
        except Exception as exc:
            for _, _, fut in items:
                if not fut.done():
                    fut.set_exception(exc)
            return
        for (_, _, fut), result in zip(items, results):
            if not fut.done():
                fut.set_result(result)
