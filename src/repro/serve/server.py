r"""``InferenceServer`` — the asyncio front door over compiled engines.

Architecture (stdlib only)::

    async infer() ──► per-(model, shape, dtype) pending group
                          │  worker idle / batch full
                          ▼
                      dispatch: one batched forward ──► worker pool
                          │                             (threads; numpy
                          ▼                              releases the GIL)
                      split rows back, resolve futures

* **Work-conserving dynamic batching** — requests that agree on (model,
  per-sample shape, dtype) join one pending group (:mod:`.batching`);
  the oldest group leaves as one forward whenever fewer than ``workers``
  batches are in flight, so batches form *while the workers are busy*
  and a lone request never waits.  The check runs one event-loop turn
  after an arrival, which lets a ``gather`` share a batch.  Groups are
  keyed by the full signature: mixed-shape traffic never cross-batches.
  The one exception to "an idle worker takes the oldest group" is
  :data:`PACE_S`: batches shared by several callers leave that far
  apart, so a saturated closed loop runs at a rate the pace sets, not at
  the host's speed of the moment.
* **Engine cache** — each (model graph hash, backend, executor, batched
  signature) compiles once, process-wide, via :class:`.EngineCache`;
  with a cache directory, a cold process loads the pickled program
  instead of recompiling.
* **Guard-keyed engines** — a per-model
  :class:`~repro.fx.analysis.guards.GuardSet` (proved by symbolic shape
  propagation) canonicalizes the dynamic dims out of the cache key, so
  one engine serves every batch size its guards admit; violating
  requests fall back to concrete per-shape engines.
* **Concurrency safety** — an engine's arena keeps its scratch buffers
  per calling thread on either executor, and every compile-stack cache
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
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Tuple

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

#: The least time between the departures of two batches that several
#: requests share and that still have room; a lone request and a full group
#: are never held, and overtake a held group.  Callers that wait for their
#: replies and send again at once otherwise chase the server flat out: two
#: cores at 100 % and a throughput that is the host's speed of that second
#: (the perf ledger's ``served_burst`` read 14 000-28 000 req/s from one
#: run to the next; paced, 2 800 +- 100).  ``0`` is no pacing: every idle
#: worker takes the oldest group, whatever it holds.
PACE_S = 0.002


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
        max_batch_size: a pending group is closed to further requests
            as soon as it holds this many rows (the only cap on a batch:
            no request waits for co-batchable traffic that has not
            arrived).
        workers: worker threads executing forwards, and so the number of
            batches in flight at once; a group waits only while all of
            them are busy (and, when several requests share it, for
            :data:`PACE_S`).
        cache_dir: on-disk engine persistence root (``None`` = memory
            only).
        record_batches: keep a bounded log of executed batches (used by
            tests and the benchmark to audit coalescing).
        guards: derive a symbolic-shape
            :class:`~repro.fx.analysis.guards.GuardSet` per model (from
            the first observed inputs) and key engines on the
            guard-canonicalized signature — one engine then serves every
            batch size its guards admit instead of one engine per shape.
            Requests violating the guards fall back to a concrete
            per-shape engine (always correct, just not shared).
    """

    backend: str = "numpy"
    executor: str = "vm"
    batching: bool = True
    max_batch_size: int = 16
    workers: int = 4
    cache_dir: Optional[str] = None
    record_batches: bool = True
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


class _Group:
    """Requests accumulated for one BatchKey, awaiting a worker."""

    __slots__ = ("key", "items", "rows")

    def __init__(self, key: BatchKey) -> None:
        self.key = key
        self.items: List[Tuple[tuple, int, asyncio.Future]] = []
        self.rows = 0


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
        #: ``(model name, concrete input signature) -> (engine store, key
        #: in it, guard counter)``: resolved once, not on every forward.
        self._routes = ArtifactCache(1024)
        self._models: Dict[str, _ModelHandle] = {}
        #: scheduler state (event loop only): pending groups oldest first,
        #: those still accepting requests by key, batches out at the pool,
        #: whether a ``_dispatch`` is already on the loop's queue, when the
        #: next shared batch may leave (``PACE_S``) and the timer that
        #: re-checks then, and what ``close()`` waits on (set while nothing
        #: is pending or running).
        self._queue: Deque[_Group] = deque()
        self._open: Dict[BatchKey, _Group] = {}
        self._inflight = 0
        self._dispatch_due = False
        self._paced_until = 0.0
        self._pace_timer: Optional[asyncio.TimerHandle] = None
        self._idle = asyncio.Event()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._requests = 0          # written on the event loop only
        self._stats_lock = threading.Lock()
        #: monotonic; guard hits/violations are forwards keyed through a
        #: GuardSet / that violated one (concrete key).
        self._counts = {"batches": 0, "batched_rows": 0, "max_batch_rows": 0,
                        "guard_hits": 0, "guard_violations": 0}
        self._batch_log: deque = deque(maxlen=4096)

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
        """Wait for pending and in-flight batches, stop workers."""
        if self._closed:
            return
        while self._queue or self._inflight:
            await self._idle.wait()
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

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
            counts = dict(self._counts)
        batches = counts["batches"]
        return {
            "requests": self._requests,
            **counts,
            "mean_rows_per_batch":
                counts["batched_rows"] / batches if batches else 0.0,
            "guarded_models": sum(
                1 for h in self._models.values()
                if h.guard_set not in (None, False)),
            "engine_cache": self.engine_cache.info(),
        }

    def batch_log(self) -> List[BatchRecord]:
        """The audit log of the most recent executed batches (bounded;
        the counters in :meth:`stats` are not)."""
        with self._stats_lock:
            return list(self._batch_log)

    # -- engine construction (worker threads) ------------------------------------

    def _build_engine(self, handle: _ModelHandle,
                      example_inputs: tuple) -> Any:
        """Compile *handle*'s graph specialized to *example_inputs*."""
        cfg = self.config
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
        (underivable, fully static, or disabled by config).
        """
        if not self.config.guards:
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

    def _route(self, handle: _ModelHandle, inputs: tuple,
               signature: tuple) -> tuple:
        """Where the engine for *signature* lives: ``(store, key, name of
        the guard counter a forward through it bumps or None)``."""
        counter = None
        guards = self._guards_for(handle, inputs)
        if guards is not False:
            if guards.matches(signature):
                signature = guards.canonicalize(signature)
                counter = "guard_hits"
            else:
                # Guard violation: keep the concrete signature, which
                # builds (or reuses) a per-shape engine — correct, just
                # not shared with the guarded one.
                counter = "guard_violations"
        if handle.graph_hash is None:
            return self._local_engines, (handle.name, signature), counter
        return self.engine_cache, EngineKey(
            graph_hash=handle.graph_hash, backend=self.config.backend,
            executor=self.config.executor, signature=signature), counter

    # -- execution (worker threads) ----------------------------------------------

    def _forward(self, handle: _ModelHandle, inputs: tuple) -> tuple:
        """One engine call: ``(output, guard counter to bump or None)``."""
        signature = input_signature(inputs)
        store, key, counter = self._routes.get_or_build(
            (handle.name, signature),
            lambda: self._route(handle, inputs, signature))
        engine = store.get_or_build(
            key, lambda: self._build_engine(handle, inputs))
        return engine(*inputs), counter

    def _run_single(self, handle: _ModelHandle, inputs: tuple) -> Any:
        out, counter = self._forward(handle, inputs)
        if counter is not None:
            with self._stats_lock:
                self._counts[counter] += 1
        return out

    def _execute_batch(self, handle: _ModelHandle, key: BatchKey,
                       items: list) -> list:
        """Run *items* as one forward: one ``(result, exception)`` pair
        per item.  When a shared forward fails (no engine for the batched
        signature, an output that cannot be split by rows) each item runs
        alone, so a request only ever fails on its own account."""
        try:
            if len(items) == 1:
                # Lone request: no concat/split, and no batch-splittability
                # requirement on the model's output.
                out, counter = self._forward(handle, items[0][0])
                results = [out]
            else:
                out, counter = self._forward(
                    handle, coalesce([inputs for inputs, _, _ in items]))
                results = split_results(out, [rows for _, rows, _ in items])
        except Exception as exc:
            if len(items) == 1:
                return [(None, exc)]
            return [self._execute_batch(handle, key, [item])[0]
                    for item in items]
        rows = sum(rows for _, rows, _ in items)
        with self._stats_lock:
            counts = self._counts
            if counter is not None:
                counts[counter] += 1
            counts["batches"] += 1
            counts["batched_rows"] += rows
            counts["max_batch_rows"] = max(counts["max_batch_rows"], rows)
            if self.config.record_batches:
                self._batch_log.append(BatchRecord(
                    model=handle.name, signature=key.signature,
                    n_requests=len(items), rows=rows))
        return [(result, None) for result in results]

    # -- request path and scheduler (event loop) ---------------------------------

    async def infer(self, name: str, *inputs: Any) -> Any:
        """Run one inference request; resolves when its (possibly
        batched) forward completes."""
        handle = self._models.get(name)
        if handle is None:
            raise KeyError(f"no model registered as {name!r}")
        loop = asyncio.get_running_loop()
        pool = self._ensure_pool()
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

        group = self._open.get(key)
        if group is None:
            group = self._open[key] = _Group(key)
            self._queue.append(group)
        fut: asyncio.Future = loop.create_future()
        group.items.append((inputs, rows, fut))
        group.rows += rows
        self._idle.clear()
        if group.rows >= self.config.max_batch_size:
            del self._open[key]  # full: the next request opens a new group
        # One turn later, so that requests arriving in this turn share the
        # batch; with every worker busy, the next completion dispatches.
        if not self._dispatch_due and self._inflight < self.config.workers:
            self._dispatch_due = True
            loop.call_soon(self._dispatch)
        return await fut

    def _dispatch(self) -> None:
        """Hand pending groups, oldest first, to the idle workers."""
        self._dispatch_due = False
        loop = asyncio.get_running_loop()
        held = []
        while self._queue and self._inflight < self.config.workers:
            group = self._queue.popleft()
            # A request its caller abandoned (timeout, cancel) gets no
            # forward; a group of nothing else dispatches nothing.
            items = [item for item in group.items if not item[2].cancelled()]
            if len(items) > 1 and group.rows < self.config.max_batch_size:
                # Several callers at once and room for more: such batches
                # leave ``PACE_S`` apart; others overtake.
                now = loop.time()
                if now < self._paced_until:
                    held.append(group)
                    continue
                self._paced_until = now + PACE_S
            if self._open.get(group.key) is group:
                del self._open[group.key]
            if not items:
                continue
            work = self._pool.submit(
                self._execute_batch, self._models[group.key.model],
                group.key, items)
            self._inflight += 1
            work.add_done_callback(partial(
                loop.call_soon_threadsafe, self._batch_done, items))
        if held:
            self._queue.extendleft(reversed(held))
            if self._pace_timer is None:
                self._pace_timer = loop.call_at(
                    self._paced_until, self._pace_over)
        if not (self._queue or self._inflight):
            self._idle.set()

    def _pace_over(self) -> None:
        self._pace_timer = None
        self._dispatch()

    def _batch_done(self, items: list, work: Future) -> None:
        """A worker is free: give it the oldest pending group, then
        answer the batch it finished."""
        self._inflight -= 1
        self._dispatch()
        try:
            outcomes = work.result()
        except BaseException as exc:   # what the worker died of, not ours
            outcomes = [(None, exc)] * len(items)
        for (_, _, fut), (result, exc) in zip(items, outcomes):
            if fut.done():             # cancelled while its batch ran
                continue
            if exc is None:
                fut.set_result(result)
            else:
                fut.set_exception(exc)
