"""``ArtifactCache`` — the one memo cache behind every compile stage.

Every stage that memoises a derived artifact (generated ``forward``
functions, pass results, serving engines) maps a key to a value with the
same mechanism: an LRU with a fixed bound, one lock around the
bookkeeping, single-flight builds per key, and hit/miss counters.  This
module holds that mechanism once.  The process-wide stages, ``codegen``
and ``transform``, register here by name, so their traffic reads from one
place::

    >>> fx.compile(model, (x,))   # twice
    >>> fx.cache_info()["transform"]
    {'hits': 1, 'misses': 1, 'state_derived_bytes': ..., 'size': 1, ...}
    >>> fx.clear_caches("transform")   # or fx.clear_caches() for every stage

What a stage stores under which key is the stage's business (see the
"Caches" table in the README); this module never looks inside either.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional

from .concurrency import KeyedMutex, on_fork_reset

__all__ = ["ArtifactCache", "cache_info", "clear_caches", "register_stage"]

_MISSING = object()

#: Every live cache, so one fork reset can replace every bookkeeping lock.
_LIVE: "weakref.WeakSet[ArtifactCache]" = weakref.WeakSet()


class ArtifactCache:
    """A bounded, thread-safe, single-flighted LRU of built artifacts.

    Args:
        maxsize: entries kept; the least recently used one is dropped
            when a ``put`` exceeds it.
        on_evict: called with each value that leaves the cache (LRU
            eviction, replacement by a different object, ``clear``), after
            the lock is released — for values that own a side resource.

    Counting is exact under any interleaving: a ``get`` or
    ``get_or_build`` call counts one hit or one miss, never both, and
    ``misses`` of a cache used only through ``get_or_build`` equals the
    number of builder invocations.
    """

    def __init__(self, maxsize: int = 1024,
                 on_evict: Optional[Callable[[Any], None]] = None):
        self.maxsize = maxsize
        self._on_evict = on_evict
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._flight = KeyedMutex()
        self._counters: Dict[str, int] = {"hits": 0, "misses": 0}
        _LIVE.add(self)

    def _lookup(self, key: Hashable, count_miss: bool) -> Any:
        # The hit path: one lock, one dict lookup, one move_to_end.
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self._counters["hits"] += 1
            elif count_miss:
                self._counters["misses"] += 1
            return value

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value stored under *key* (counted as a hit), else *default*
        (counted as a miss)."""
        value = self._lookup(key, count_miss=True)
        return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Store *value* under *key* as the most recently used entry."""
        with self._lock:
            stale = self._entries.pop(key, _MISSING)
            evicted = [] if stale is _MISSING or stale is value else [stale]
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                evicted.append(self._entries.popitem(last=False)[1])
        self._dispose(evicted)

    def discard(self, key: Hashable) -> None:
        """Drop the entry under *key*, if any (an entry its stage found to
        be wrong); uncounted, so the next lookup is an ordinary miss."""
        with self._lock:
            stale = self._entries.pop(key, _MISSING)
        if stale is not _MISSING:
            self._dispose([stale])

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """The value for *key*, calling ``builder()`` at most once per key
        across all concurrent callers.

        The first caller to miss builds while equal-key callers wait, then
        find the entry: one miss, N-1 hits, one shared value.  Distinct
        keys build concurrently.  An exception from *builder* propagates
        and stores nothing, so the next caller builds again.
        """
        value = self._lookup(key, count_miss=False)
        if value is not _MISSING:
            return value
        with self._flight.acquire(key):
            value = self._lookup(key, count_miss=True)
            if value is not _MISSING:
                return value
            value = builder()
            self.put(key, value)
            return value

    def count(self, counter: str, n: int = 1) -> None:
        """Add *n* to a stage-specific counter reported by :meth:`info` next
        to ``hits``/``misses`` (the engine cache's disk traffic, the
        ``transform`` stage's ``state_reads`` / ``state_read_bytes`` /
        ``state_copied_bytes``); a counter appears once it is counted."""
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + n

    def info(self) -> Dict[str, int]:
        """``{hits, misses, size, maxsize}`` plus any :meth:`count` ed
        counters, read under the lock."""
        with self._lock:
            return {**self._counters, "size": len(self._entries),
                    "maxsize": self.maxsize}

    def keys(self) -> list:
        """The stored keys, least recently used first (uncounted: for a
        stage explaining a miss by the entries it does hold)."""
        with self._lock:
            return list(self._entries)

    def values(self) -> list:
        """The stored values, least recently used first (uncounted)."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            evicted = list(self._entries.values())
            self._entries.clear()
            for counter in self._counters:
                self._counters[counter] = 0
        self._dispose(evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _dispose(self, evicted: list) -> None:
        if self._on_evict is not None:
            for value in evicted:
                self._on_evict(value)


@on_fork_reset
def _reset_locks_after_fork() -> None:
    # A child forked while another parent thread held a cache lock would
    # deadlock on its first lookup; the entries themselves are fine, only
    # the lock state is poison.  (Each KeyedMutex resets itself.)
    for cache in list(_LIVE):
        cache._lock = threading.Lock()


# -- the process-wide stages --------------------------------------------------

_STAGES: Dict[str, ArtifactCache] = {}


def register_stage(name: str, maxsize: int,
                   on_evict: Optional[Callable[[Any], None]] = None
                   ) -> ArtifactCache:
    """Create and register the process-wide cache for compile stage
    *name* (called once, by the module that owns the stage)."""
    cache = _STAGES[name] = ArtifactCache(maxsize, on_evict)
    return cache


def cache_info() -> Dict[str, Dict[str, int]]:
    """``{stage: {hits, misses, size, maxsize}}`` for every process-wide
    stage: ``codegen`` (generated ``forward`` functions) and ``transform``
    (pass runs, with the state counters of :mod:`repro.fx.state`)."""
    return {name: cache.info() for name, cache in _STAGES.items()}


def clear_caches(stage: Optional[str] = None) -> None:
    """Empty (and zero the counters of) one named stage, or all of them."""
    if stage is not None and stage not in _STAGES:
        raise KeyError(f"no cache stage named {stage!r}; "
                       f"known: {sorted(_STAGES)}")
    for name, cache in _STAGES.items():
        if stage is None or name == stage:
            cache.clear()
