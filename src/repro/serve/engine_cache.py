"""The serving engine cache: compile once, replay everywhere.

An **engine** is a self-contained compiled artifact — in practice a
:class:`~repro.fx.vm.VMProgram` (picklable, weights baked in) or any
other picklable module a backend returns.  Engines are keyed by
:class:`EngineKey`:

    (graph hash, backend, executor, per-sample input signature)

where the graph hash is ``Graph.structural_hash(include_attrs=True,
require_stable=True, canonicalize_targets=True)`` — identity rests on
ops + state bytes, so the same model registered twice, or two processes
serving the same checkpoint, map to the same engine.  The server keys on
the per-sample signature (every input's shape without its dim 0, and its
dtype: what batches are grouped on), so one engine serves every batch
size — a compiled program runs at any dim 0, on its fused kernels' fast path
wherever they proved it may.  A request with no batch dim is keyed on
``("exact",) + input_signature(inputs)``.

Lookup order is memory -> disk -> build:

* **memory** — a bounded LRU of live engines;
* **disk** — ``<digest>.engine`` files under the cache directory, so a
  cold process *loads* instead of recompiling (the ROADMAP cold-start
  story).  Files are written atomically (tmp + ``os.replace``) and
  carry a format version, the full key, and a payload checksum;
* **build** — the caller's builder runs, and the result is persisted.

Integrity: a disk artifact is served **only** when every check passes —
the wrapper unpickles, the format version matches, the embedded key
equals the requested key (a stale file or version skew must miss and
recompile, never serve wrong code), the payload checksum matches, and
the payload unpickles.  Any failure counts (``corrupt`` / ``stale``)
and falls through to a rebuild, which then overwrites the bad file.

Thread-safe: the memory layer is an
:class:`~repro.fx.cache.ArtifactCache`, whose single-flight fill covers
the disk load, the build and the disk store of one key.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..fx.cache import ArtifactCache
from ..fx.graph_module import GraphModule

__all__ = ["ENGINE_FORMAT_VERSION", "EngineKey", "EngineCache"]

#: Bump when the on-disk wrapper layout or artifact semantics change;
#: files with any other version are treated as stale and rebuilt.
#: v3: EngineKey lost a field — a v2 file must go stale on the version
#: check, before any comparison against its five-field key.
#: v4: VMProgram and Instruction lost their arena and meta fields — a v3
#: program must go stale instead of unpickling into the new layout.
ENGINE_FORMAT_VERSION = 4


@dataclass(frozen=True)
class EngineKey:
    """Identity of one compiled serving engine.

    Attributes:
        graph_hash: canonicalized stable structural hash of the captured
            graph (ops + state bytes; rename- and re-trace-stable).
        backend: name of the backend the engine was compiled for.
        executor: execution tier (``"vm"`` / ``"codegen"``).
        signature: ``((shape, dtype_name), ...)`` of the inputs — each
            shape without its batch dim when the server keys it, so
            every batch size shares the key.
    """

    graph_hash: str
    backend: str
    executor: str
    signature: tuple

    def token(self) -> str:
        """Filesystem-safe digest naming this key's on-disk artifact."""
        raw = repr((self.graph_hash, self.backend, self.executor,
                    self.signature))
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()

    @staticmethod
    def for_graph(gm: GraphModule, backend: str, executor: str,
                  signature: tuple) -> "EngineKey":
        """Build a key for *gm*; raises
        :class:`~repro.fx.graph.UnstableHashError` when the graph has no
        stable hash (such graphs must not be cached on disk)."""
        return EngineKey(
            graph_hash=gm.graph.structural_hash(
                include_attrs=True, require_stable=True,
                canonicalize_targets=True),
            backend=backend,
            executor=executor,
            signature=tuple(signature),
        )


@functools.lru_cache(maxsize=64)
def dtype_name(dtype) -> str:
    """``str(dtype)``, memoised: numpy builds the name afresh on every
    call, which costs more than the rest of a request's signature."""
    return str(dtype)


def input_signature(inputs) -> tuple:
    """``((shape, dtype_name), ...)`` over tensor inputs (the engine-key
    form of "what shapes was this compiled for")."""
    sig = []
    for x in inputs:
        data = getattr(x, "data", None)
        if data is None:
            sig.append(("const", repr(x)))
        else:
            sig.append((tuple(data.shape), dtype_name(data.dtype)))
    return tuple(sig)


_DISK_COUNTERS = ("disk_hits", "builds", "stores", "stale", "corrupt")


class EngineCache:
    """Memory + disk cache of compiled serving engines.

    Args:
        directory: on-disk persistence root (created on first store);
            ``None`` disables persistence (memory-only).

    The 64 most recently used engines stay live in memory.

    Counters (see :meth:`info`): ``hits`` (memory), ``disk_hits``
    (loaded + verified from disk), ``builds`` (builder invocations),
    ``stores`` (successful disk writes), ``stale`` (key/version
    mismatch), ``corrupt`` (unreadable/truncated/checksum-failed files).
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self._mem = ArtifactCache(64)
        self._count = self._mem.count

    # -- bookkeeping -------------------------------------------------------------

    def engines(self) -> list:
        """The engines live in memory (an evicted one is the caller's
        to keep, or garbage)."""
        return self._mem.values()

    def info(self) -> dict:
        mem = self._mem.info()
        return {"hits": mem["hits"],
                **{c: mem.get(c, 0) for c in _DISK_COUNTERS},
                "size": mem["size"]}

    # -- disk layer --------------------------------------------------------------

    def _path_for(self, key: EngineKey) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{key.token()}.engine")

    def _load_disk(self, key: EngineKey) -> Optional[Any]:
        """Load + verify the artifact for *key*; any failed check is a
        counted miss (never an exception, never a wrong engine)."""
        path = self._path_for(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as f:
                wrapper = pickle.load(f)
        except Exception:
            # Truncated file, garbage bytes, or an unpicklable wrapper.
            self._count("corrupt")
            return None
        if not isinstance(wrapper, dict) \
                or wrapper.get("version") != ENGINE_FORMAT_VERSION:
            self._count("stale")
            return None
        if wrapper.get("key") != key:
            # The file answers a different question than we asked (hash
            # collision in the token space, or a hand-renamed file):
            # serving it would run the wrong program.
            self._count("stale")
            return None
        payload = wrapper.get("payload")
        digest = wrapper.get("payload_sha256")
        if not isinstance(payload, bytes) \
                or hashlib.sha256(payload).hexdigest() != digest:
            self._count("corrupt")
            return None
        try:
            engine = pickle.loads(payload)
        except Exception:
            self._count("corrupt")
            return None
        self._count("disk_hits")
        return engine

    def _store_disk(self, key: EngineKey, engine: Any) -> None:
        path = self._path_for(key)
        if path is None:
            return
        try:
            payload = pickle.dumps(engine)
        except Exception:
            return  # unpicklable engine: memory-only
        wrapper = {
            "version": ENGINE_FORMAT_VERSION,
            "key": key,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(wrapper, f)
            os.replace(tmp, path)  # atomic: readers see old or new, never half
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self._count("stores")

    # -- the entrypoint ----------------------------------------------------------

    def get_or_build(self, key: EngineKey,
                     builder: Callable[[], Any]) -> Any:
        """Return the engine for *key*, building at most once per key
        across all concurrent callers (memory -> disk -> ``builder()``)."""
        return self._mem.get_or_build(
            key, lambda: self._load_or_build(key, builder))

    def _load_or_build(self, key: EngineKey,
                       builder: Callable[[], Any]) -> Any:
        engine = self._load_disk(key)
        if engine is None:
            self._count("builds")
            engine = builder()
            self._store_disk(key, engine)
        return engine
