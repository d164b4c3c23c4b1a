"""Concurrency primitives under :class:`repro.fx.cache.ArtifactCache`.

A memo cache shared by a worker pool breaks in two ways if it assumes a
single caller:

* **bookkeeping corruption** — ``OrderedDict.move_to_end`` /
  ``popitem`` racing with inserts can raise or lose entries, and
  ``hits += 1`` is a read-modify-write that drops increments;
* **duplicate builds** — N workers asking for the same key all miss and
  all build, so counters drift from reality (N misses for one insertion)
  and N distinct artifact objects circulate where callers expect one
  shared one.

``ArtifactCache`` solves the first with one lock around its bookkeeping
and the second with the :class:`KeyedMutex` defined here: a per-key
critical section, so the first worker through builds while equal-key
workers wait and then find the entry — one miss, N-1 hits, and one
shared artifact, no matter the interleaving.  Distinct keys never
contend on anything but the (cheap) registry lock.

Do not hand-roll that double-checked lookup around a private dict: call
:meth:`ArtifactCache.get_or_build(key, builder)
<repro.fx.cache.ArtifactCache.get_or_build>`, which is the one place
that does it (and the one place a concurrency fix has to land).  This
module also owns fork safety (:func:`on_fork_reset`) for every
process-wide lock.
"""

from __future__ import annotations

import os
import threading
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

__all__ = ["KeyedMutex", "on_fork_reset"]


# -- fork safety ----------------------------------------------------------------
#
# A user's own ``multiprocessing`` (or ``os.fork``) can fork a process that
# is running a thread pool (the serving runtime, a concurrent lowering).  A
# fork taken while *another* thread holds one of the compile-stack locks
# copies that lock in its locked state into the child, where no thread
# exists to ever release it — the first child-side cache lookup then
# deadlocks.  Modules owning process-wide locks register
# a reset callback here; the callbacks run in the child immediately after
# fork (``os.register_at_fork``) and replace the inherited locks with fresh
# ones.  This is sound because the child starts with exactly one thread, so
# no child-side critical section can be live at reset time.

_FORK_RESETS: List[Callable[[], None]] = []


def on_fork_reset(callback: Callable[[], None]) -> Callable[[], None]:
    """Register *callback* to run in a child process right after ``fork``.

    Use it to re-initialize module-level locks/mutexes so a child forked
    from a multi-threaded parent can never inherit a lock in a locked
    state.  Returns the callback (usable as a decorator).
    """
    _FORK_RESETS.append(callback)
    return callback


def _run_fork_resets() -> None:
    for callback in list(_FORK_RESETS):
        try:
            callback()
        except Exception:
            pass  # a broken reset must not kill the child at fork time


if hasattr(os, "register_at_fork"):  # not on Windows (no fork there anyway)
    os.register_at_fork(after_in_child=_run_fork_resets)


#: Every live KeyedMutex, so fork resets can rebuild their registries.
_MUTEXES: "weakref.WeakSet[KeyedMutex]" = weakref.WeakSet()


@on_fork_reset
def _reset_mutexes() -> None:
    for mutex in list(_MUTEXES):
        mutex._reset_after_fork()


class KeyedMutex:
    """A mutual-exclusion region per *key*.

    ``with mutex.acquire(key):`` blocks while any other thread is inside
    the region for an equal key; different keys proceed concurrently.
    Entries are reference-counted and dropped when the last holder
    leaves, so the registry never grows beyond the number of keys
    currently in flight.

    :meth:`repro.fx.cache.ArtifactCache.get_or_build` is the cache-fill
    user: fast-path lookup under the cache lock, then one builder per key
    inside ``acquire(key)`` with a re-check.
    """

    def __init__(self) -> None:
        self._registry_lock = threading.Lock()
        #: key -> [lock, refcount]
        self._entries: Dict[Any, List[Any]] = {}
        _MUTEXES.add(self)

    def _reset_after_fork(self) -> None:
        # Runs in a freshly forked child (single-threaded by definition):
        # drop per-key locks that may have been copied mid-acquisition.
        self._registry_lock = threading.Lock()
        self._entries = {}

    @contextmanager
    def acquire(self, key: Any) -> Iterator[None]:
        with self._registry_lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = [threading.Lock(), 0]
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._registry_lock:
                entry[1] -= 1
                if entry[1] == 0:
                    self._entries.pop(key, None)

    def in_flight(self) -> int:
        """Number of keys with at least one holder (diagnostics only)."""
        with self._registry_lock:
            return len(self._entries)
