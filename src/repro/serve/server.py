r"""``InferenceServer`` — the asyncio front door over compiled engines.

Architecture (stdlib only)::

    async infer() ──► per-(model, shape, dtype) pending group
                          │  worker idle / batch full
                          ▼
                      dispatch: one batched forward ──► worker pool
                          │  (cheap and alone: on      (threads; numpy
                          ▼   the loop, no handoff)     releases the GIL)
                      split rows back, resolve futures

* **Work-conserving dynamic batching** — requests that agree on (model,
  per-sample shape, dtype) join one pending group (:mod:`.batching`);
  the oldest group leaves as one forward whenever fewer than ``workers``
  batches are in flight, so batches form while the workers are busy and
  a lone request never waits.  A completion runs that check, and so does
  the request that finds none due, one event-loop turn after it arrives,
  which lets a ``gather`` share a batch.  Shared batches with room leave
  :data:`PACE_S` apart.  A cheap batch alone on an idle server runs on
  the loop (:data:`INLINE_S`), and its request returns with no second
  wakeup.
* **Engine cache** — each (model graph hash, per-sample signature)
  compiles once through :func:`repro.fx.compile`, via
  :class:`.EngineCache` (on disk, given a cache directory).  One engine
  serves every batch size; a request with no batch dim is keyed on its
  exact signature.
* **Concurrency safety** — an engine keeps no scratch state between
  calls, and every compile-stack cache is locked/single-flighted, so one
  shared engine serves the whole worker pool.

DESIGN.md, "Serving", gives the reasons.

Example::

    async with InferenceServer(ServeConfig(workers=4)) as server:
        server.register("model", MyModel().eval())
        y = await server.infer("model", x)
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Tuple

from .. import fx
from ..fx.cache import ArtifactCache
from ..fx.graph import UnstableHashError
from ..fx.graph_module import GraphModule
from ..fx.passes.pointwise_fuser import FusedKernel
from ..fx.tracer import symbolic_trace
from ..nn import Module
from .batching import BatchError, coalesce, sample_signature, \
    split_results
from .engine_cache import EngineCache, EngineKey, input_signature

__all__ = ["ServeConfig", "BatchRecord", "InferenceServer"]

#: The least time between the departures of two batches that several
#: requests share and that still have room; a lone request and a full group
#: are never held, and overtake a held group.  Unpaced, callers that send
#: again as soon as their replies land chase the server at the host's speed
#: of that second; paced, they cost more CPU, since a thread woken from a
#: sleep runs more slowly (EXPERIMENTS.md, "Pacing removal measured, not
#: shipped").  ``0`` is no pacing.
PACE_S = 0.002

#: How long one forward run on the event loop may stall it: a batch alone
#: on an idle server runs there, with no thread handoff, when its key's
#: latest forward took less thread CPU and a cheap one ran as many rows (a
#: BLAS may go threaded on more rows; builds, disk loads and a key's first
#: forward run on workers).  Of the ledger's ``served_open`` forwards 99.9 %
#: take under 0.47 ms, and a ResNet-50 15 ms.
INLINE_S = 0.0005


@functools.lru_cache(maxsize=1024)
def _engine_key(graph_hash: str, signature: tuple) -> EngineKey:
    """The key of a served engine, one object per signature: building a
    key per forward, and comparing it field by field with the stored one,
    cost more than the rest of the lookup."""
    return EngineKey(graph_hash=graph_hash, backend="numpy", executor="vm",
                     signature=signature)


@dataclass
class ServeConfig:
    """Tunables for one :class:`InferenceServer`.

    Attributes:
        batching: coalesce same-signature requests (False = every
            request is its own forward).
        max_batch_size: a pending group is closed to further requests
            as soon as it holds this many rows (the only cap on a batch).
        workers: worker threads executing forwards; a group waits only
            while all of them are busy (or for :data:`PACE_S`).
        cache_dir: on-disk engine persistence root (``None`` = memory
            only).
    """

    batching: bool = True
    max_batch_size: int = 16
    workers: int = 4
    cache_dir: Optional[str] = None


@dataclass(frozen=True)
class BatchRecord:
    """One executed batch (audit trail for tests/benchmarks)."""

    model: str
    signature: tuple    # the per-sample signature (shapes without dim 0)
    n_requests: int
    rows: int


@dataclass
class _ModelHandle:
    name: str
    gm: GraphModule
    graph_hash: Optional[str]   # None: unstable hash, engines stay local


class _Group:
    """Requests accumulated for one ``(model, per-sample signature)``,
    awaiting a worker."""

    __slots__ = ("key", "items", "rows")

    def __init__(self, key: Tuple[str, tuple]) -> None:
        self.key = key
        self.items: List[Tuple[tuple, int, asyncio.Future]] = []
        self.rows = 0


class InferenceServer:
    """Async dynamic-batching inference server over compiled engines.

    All request-side methods must be called from one event loop; the
    heavy lifting (compiles, all but cheap lone forwards) runs on the
    worker pool.  Use as an async context manager, or call :meth:`close`
    when done.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.engine_cache = EngineCache(directory=self.config.cache_dir)
        #: engines of models with no stable hash, ``(model name,
        #: signature) -> engine``: per server, never on disk.
        self._local_engines = ArtifactCache(64)
        #: per ``(model, signature)``, the most rows its forwards ran cheaply
        #: (:data:`INLINE_S`), fewer than any dear one; negated after a dear
        #: forward, so none runs on the loop.  Written under the stats lock.
        self._costs: Dict[Tuple[str, tuple], int] = {}
        self._models: Dict[str, _ModelHandle] = {}
        #: scheduler state (event loop only): pending groups oldest first,
        #: those still accepting requests by ``(model, signature)``,
        #: batches out at the pool, whether a request is yielding before it
        #: runs ``_dispatch``, when the next shared batch may leave
        #: (``PACE_S``) and the timer that re-checks then, and what
        #: ``close()`` waits on (set while nothing is pending or running).
        self._queue: Deque[_Group] = deque()
        self._open: Dict[Tuple[str, tuple], _Group] = {}
        self._inflight = 0
        self._dispatch_due = False
        self._paced_until = 0.0
        self._pace_timer: Optional[asyncio.TimerHandle] = None
        self._idle = asyncio.Event()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._requests = 0          # written on the event loop only
        self._handoffs = 0          # forwards given to a worker; ditto
        self._stats_lock = threading.Lock()
        #: monotonic; guard hits / violations are forwards through an
        #: engine keyed on a per-sample / an exact signature.
        self._counts = {"batches": 0, "batched_rows": 0, "max_batch_rows": 0,
                        "guard_hits": 0, "guard_violations": 0}
        self._batch_log: deque = deque(maxlen=4096)     # BatchRecord fields

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
        """Request/batch counters plus the engine cache's counters;
        ``off_guard_calls`` sums over the VM engines the caches still hold."""
        with self._stats_lock:
            counts = dict(self._counts)
        batches = counts["batches"]
        engines = self.engine_cache.engines() + self._local_engines.values()
        return {
            "requests": self._requests,
            "handoffs": self._handoffs,
            **counts,
            "mean_rows_per_batch":
                counts["batched_rows"] / batches if batches else 0.0,
            "off_guard_calls": sum({    # a kernel two engines share once
                id(i.target): i.target.off_guard_calls
                for e in engines for i in getattr(e, "instructions", ())
                if isinstance(i.target, FusedKernel)}.values()),
            "engine_cache": self.engine_cache.info(),
        }

    def batch_log(self) -> List[BatchRecord]:
        """The audit log of the most recent executed batches (bounded;
        the counters in :meth:`stats` are not)."""
        with self._stats_lock:
            return [BatchRecord(*fields) for fields in self._batch_log]

    # -- engine construction (worker threads) ------------------------------------

    def _build_engine(self, handle: _ModelHandle,
                      example_inputs: tuple) -> Any:
        """Compile *handle*'s graph on *example_inputs* into the bare
        VM program: it is the whole engine (weights baked into const
        registers) and pickles smaller than the module wrapper."""
        return fx.compile(handle.gm, example_inputs, executor="vm").program

    # -- execution (worker threads; a cheap lone batch on the event loop) --------

    def _engine_slot(self, handle: _ModelHandle, signature: tuple):
        """The store that holds the engine for *signature*, and its key."""
        if handle.graph_hash is None:
            return self._local_engines, (handle.name, signature)
        return self.engine_cache, _engine_key(handle.graph_hash, signature)

    def _forward(self, handle: _ModelHandle, inputs: tuple,
                 signature: tuple, engine: Any = None) -> Tuple[Any, float]:
        """Run *inputs* through *engine*, else the engine keyed on
        *signature*, built from them on a miss; time the forward alone."""
        if engine is None:
            store, key = self._engine_slot(handle, signature)
            engine = store.get_or_build(
                key, lambda: self._build_engine(handle, inputs))
        start = time.thread_time()
        out = engine(*inputs)
        return out, time.thread_time() - start

    def _run_single(self, handle: _ModelHandle, inputs: tuple) -> Any:
        """A request that is its own forward: keyed on its per-sample
        signature when it has a batch dim, else on its exact one."""
        try:
            signature = sample_signature(inputs)[0]
            counter = "guard_hits"
        except BatchError:
            signature = ("exact",) + input_signature(inputs)
            counter = "guard_violations"
        out, _ = self._forward(handle, inputs, signature)
        with self._stats_lock:
            self._counts[counter] += 1
        return out

    def _execute_batch(self, handle: _ModelHandle, signature: tuple,
                       items: list, engine: Any = None) -> list:
        """Run *items* as one forward: one ``(result, exception)`` pair
        per item.  When a shared forward fails (no engine for the batched
        signature, an output that cannot be split by rows) each item runs
        alone, so a request only ever fails on its own account."""
        try:
            if len(items) == 1:
                # Lone request: no concat/split, and no batch-splittability
                # requirement on the model's output.
                inputs, rows, _ = items[0]
                out, cost = self._forward(handle, inputs, signature, engine)
                results = [out]
            else:
                each = [rows for _, rows, _ in items]
                rows = sum(each)
                out, cost = self._forward(
                    handle, coalesce([inputs for inputs, _, _ in items]),
                    signature, engine)
                results = split_results(out, each)
        except Exception as exc:
            if len(items) == 1:
                return [(None, exc)]
            return [self._execute_batch(handle, signature, [item], engine)[0]
                    for item in items]
        key, costs = (handle.name, signature), self._costs
        with self._stats_lock:
            counts = self._counts
            counts["guard_hits"] += 1
            counts["batches"] += 1
            counts["batched_rows"] += rows
            counts["max_batch_rows"] = max(counts["max_batch_rows"], rows)
            self._batch_log.append((handle.name, signature, len(items), rows))
            if key not in costs and len(costs) >= 64:   # as many as engines
                del costs[next(iter(costs))]            # the oldest key
            bound = abs(costs.get(key, 0))
            costs[key] = max(rows, bound) if cost < INLINE_S else -min(bound, rows - 1)
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

        signature = None
        if self.config.batching:
            try:
                signature, rows = sample_signature(inputs)
            except BatchError:
                pass    # scalar/0-d/non-tensor input: run it alone
        if signature is None:
            self._handoffs += 1
            return await loop.run_in_executor(
                pool, self._run_single, handle, inputs)

        key = (name, signature)
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
        if self._dispatch_due or self._inflight >= self.config.workers:
            return await fut    # a yielding request or a completion dispatches
        # This request dispatches one turn later, even if cancelled then, so
        # that requests arriving in this turn share the batch.
        self._dispatch_due = True
        try:
            await asyncio.sleep(0)
        except asyncio.CancelledError:
            if not fut.cancel():
                fut.exception()     # answered in that turn: retrieved
            raise
        finally:
            if self._dispatch_due:      # else a completion dispatched
                self._dispatch()
        return await fut

    def _dispatch(self) -> None:
        """Hand pending groups, oldest first, to the idle workers; run a
        cheap one alone on an idle server here (:data:`INLINE_S`)."""
        self._dispatch_due = False
        loop = asyncio.get_running_loop()
        held = []
        while self._queue and self._inflight < self.config.workers:
            group = self._queue.popleft()
            # A request its caller abandoned (timeout, cancel) gets no
            # forward; a group of nothing else dispatches nothing.
            items = group.items
            if len(items) > 1 or items[0][2].cancelled():
                items = [item for item in items if not item[2].cancelled()]
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
            name, signature = group.key
            handle, engine = self._models[name], None
            if not (self._inflight or self._queue) and \
                    group.rows <= self._costs.get(group.key, 0):
                store, key = self._engine_slot(handle, signature)
                engine = store.get(key)     # in memory: never a build here
            if engine is not None:
                _answer(items, self._execute_batch(
                    handle, signature, items, engine))
                continue
            self._inflight += 1     # before the worker can look
            work = self._pool.submit(
                self._execute_batch, handle, signature, items)
            self._handoffs += 1
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
        _answer(items, outcomes)


def _answer(items: list, outcomes: list) -> None:
    for (_, _, fut), (result, exc) in zip(items, outcomes):
        if fut.done():                 # cancelled while its batch ran
            continue
        if exc is None:
            fut.set_result(result)
        else:
            fut.set_exception(exc)
