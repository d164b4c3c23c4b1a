"""Module state during a compile: read each tensor once, copy only what an
entry keeps.

* :func:`digest` — the SHA-256 of one array's bytes, the term a tensor
  contributes to ``Graph.structural_hash``; memoised per ndarray *object*
  inside a :func:`state_scope` (one compile), read on every call outside.
* :func:`_borrow` — what passes transform when the caller keeps its
  module: a structure-only copy over *read-only views* of its arrays, so
  no weight is copied and numpy refuses a pass's in-place write.
* :func:`snapshot` / :func:`restore` — a module as a structure-only pickle
  plus the arrays the snapshot *owns*, frozen (those the run created, in
  place; a copy of those the caller still holds), and its fused kernels.
  A digest is the scope's, or read on first demand and kept with the
  array.  A restore hands out read-only views, copying, hashing and
  compiling nothing; numpy will not make a view of a read-only base
  writeable, so no holder can write them.

**The one rule a scope trusts**: code inside a compile *replaces* tensors,
it never writes them in place.  What it cannot write (a borrowed view, a
frozen array) is not checked.  Every other digest the scope handed out
without reading — a given-up trace's arrays, which its model shares; an
array one pass created and another hashed — is checked against the bytes
when the outermost scope closes, and so is each array a snapshot copied
from the caller, who may have written it meanwhile.  A mismatch drops the
entries stored under the scope and raises a ``PassError``.  Nothing in a
compile executes the program it compiles: ``ShapeProp`` infers, and the
one node it has to run for lack of an op-table entry runs on a copy.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import threading
from copy import deepcopy
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from .cache import ArtifactCache, register_stage

__all__ = ["TRANSFORM_CACHE", "StateSnapshot", "copy_module", "digest",
           "note_stored", "restore", "snapshot", "state_scope"]

def _pinned(entries: list) -> dict:
    """Entries are bounded by count, not bytes: say what they hold alive."""
    held = {id(a): a.nbytes for entry in entries
            for a in entry.snapshot.arrays}
    return {"pinned_mb": round(sum(held.values()) / 2 ** 20, 1)}


#: The process-wide transform cache (``RunKey -> CacheEntry``, see
#: :mod:`repro.fx.passes.pass_manager`).  Registered here because its row
#: of ``fx.cache_info()`` also carries this module's counters:
#: ``state_reads`` / ``state_read_bytes`` (digests computed from bytes),
#: ``state_reuses`` (served from a scope memo), ``state_copied_bytes`` (by
#: snapshots) and ``pinned_mb`` (bytes of the arrays the snapshots own).
TRANSFORM_CACHE = register_stage("transform", 1024, summarize=_pinned)


class _Known:
    """What a scope (or a snapshot) knows about one array."""

    __slots__ = ("array", "digest", "served", "trusted")

    def __init__(self, array: np.ndarray, digest: Optional[str] = None,
                 trusted: bool = False):
        self.array = array      # pinned: keeps ``id(array)`` ours
        self.digest = digest    # ``None`` until first read
        #: the digest was handed out again without reading the bytes
        self.served = False
        self.trusted = trusted  # nothing in the compile can write it


class _Scope:
    """What one compile knows about the arrays it has seen; its own
    (re-entrant) context manager."""

    __slots__ = ("depth", "memo", "stored")

    def __init__(self) -> None:
        self.depth = 0
        #: ``id(array) -> _Known``, for arrays that own their bytes (see
        #: :func:`_owner`).
        self.memo: dict[int, _Known] = {}
        #: ``(cache, key)`` of every entry stored while the scope was open.
        self.stored: list[tuple[ArtifactCache, Any]] = []

    def __enter__(self) -> None:
        if self.depth == 0:
            _ACTIVE.scope = self
        self.depth += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        self.depth -= 1
        if self.depth:
            return
        _ACTIVE.scope = None
        written = [k.array for k in self.memo.values() if k.served
                   and not k.trusted and _sha(k.array) != k.digest]
        if not written:
            return
        for cache, key in self.stored:
            cache.discard(key)
        if exc_type is None:   # never mask the error already in flight
            from .passes.pass_manager import PassError

            raise PassError(
                f"module state was written in place during a compile: "
                f"{len(written)} tensor(s) changed after being hashed "
                f"(first: {written[0].dtype}{list(written[0].shape)}).  "
                f"Passes must replace tensors (``mod.weight = "
                f"Parameter(new)``), not write them (``mod.weight.data *= "
                f"2``); the {len(self.stored)} cache entries stored during "
                f"this compile were dropped.")


_ACTIVE = threading.local()


def _scope() -> Optional[_Scope]:
    return getattr(_ACTIVE, "scope", None)


def state_scope() -> _Scope:
    """``with state_scope():`` opens — or, nested, joins — this thread's
    state scope.  Only the outermost exit validates; see the module
    docstring for what is validated and what a violation does."""
    return _scope() or _Scope()


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array whose bytes *arr* spans: its base when *arr* is a
    C-contiguous view of the whole of a C-contiguous base (how unpickling
    hands back the buffers it was given), else *arr* itself."""
    base = arr.base
    if type(base) is np.ndarray and base.nbytes == arr.nbytes \
            and arr.flags.c_contiguous and base.flags.c_contiguous:
        return base
    return arr


def _sha(arr: np.ndarray) -> str:
    TRANSFORM_CACHE.count("state_reads")
    TRANSFORM_CACHE.count("state_read_bytes", arr.nbytes)
    return hashlib.sha256(
        arr if arr.flags.c_contiguous else arr.tobytes()).hexdigest()


def digest(arr: np.ndarray) -> str:
    """Hex SHA-256 of *arr*'s bytes in C order."""
    scope = _scope()
    if scope is None:
        return _sha(arr)
    arr = _owner(arr)
    known = scope.memo.get(id(arr))
    if known is None:
        known = scope.memo[id(arr)] = _Known(arr)
    if known.digest is None:
        known.digest = _sha(arr)
    else:
        known.served = True
        TRANSFORM_CACHE.count("state_reuses")
    return known.digest


def note_stored(cache: ArtifactCache, key: Any) -> None:
    """Record that *cache* [*key*] is being filled under the open scope,
    so a failed validation takes it back."""
    scope = _scope()
    if scope is not None:
        scope.stored.append((cache, key))


# -- structure + arrays + kernels ---------------------------------------------

class StateSnapshot(NamedTuple):
    """``structure``: a protocol-5 pickle of a module with every contiguous
    array and fused kernel out of band (tens of KB); ``known``: a ``_Known``
    per such array, owned and read-only, with its digest once read;
    ``kernels``: immutable, shared by every restore."""

    structure: bytes
    known: tuple
    kernels: tuple

    @property
    def arrays(self) -> tuple:
        return tuple(known.array for known in self.known)


_UNPICKLABLE = (pickle.PicklingError, AttributeError, TypeError)


def _dump(module: Any) -> tuple[bytes, list[np.ndarray], list]:
    from .passes.pointwise_fuser import FusedKernel   # above us in the imports

    buffers: list = []
    kernels: dict = {}

    def persistent_id(obj: Any) -> Optional[int]:
        return kernels.setdefault(obj, len(kernels)) \
            if type(obj) is FusedKernel else None

    out = io.BytesIO()
    pickler = pickle.Pickler(out, protocol=5, buffer_callback=buffers.append)
    pickler.persistent_id = persistent_id
    pickler.dump(module)
    # numpy is the only out-of-band exporter here, and exports the array
    # itself (its transpose, for a Fortran-ordered one): no bytes are read.
    return out.getvalue(), [memoryview(b).obj for b in buffers], list(kernels)


def _load(structure: bytes, arrays: Sequence, kernels: Sequence) -> Any:
    unpickler = pickle.Unpickler(io.BytesIO(structure), buffers=arrays)
    unpickler.persistent_load = kernels.__getitem__
    return unpickler.load()


def _held(module: Any) -> Optional[list]:
    """*module*'s out-of-band arrays (``None``: it does not pickle)."""
    try:
        return _dump(module)[1]
    except _UNPICKLABLE:
        return None


def _borrow(module: Any) -> tuple[Any, list]:
    """A copy of *module* for passes to transform over read-only views of
    its arrays, which the scope trusts, and those views (for
    :func:`snapshot`); deep-copied instead if it does not pickle."""
    try:
        structure, arrays, kernels = _dump(module)
    except _UNPICKLABLE:
        return deepcopy(module), []
    scope, views = _scope(), [a.view() for a in arrays]
    for view in views:
        view.flags.writeable = False
        if scope is not None:
            owner = _owner(view)
            scope.memo.setdefault(id(owner), _Known(owner)).trusted = True
    return _load(structure, views, kernels), views


def snapshot(module: Any, held: Sequence[np.ndarray] = ()) -> StateSnapshot:
    """*module* as a :class:`StateSnapshot` owning its arrays: one that owns
    its bytes and is not one of *held* (a caller's, or a view of one) is
    frozen in place, any other copied and the copy frozen; *module* is
    spent.  A digest the scope has is kept (and checked at its exit if the
    bytes could have moved); any other is read on first demand."""
    scope = _scope()
    memo = scope.memo if scope is not None else {}
    shared = {id(_owner(a)) for a in held}
    structure, arrays, kernels = _dump(module)
    known = []
    for arr in arrays:
        owner = _owner(arr)
        seen = memo.get(id(owner))
        if owner.base is not None or id(owner) in shared:
            if seen is not None and owner.flags.writeable:
                seen.trusted = False   # its holder may write it meanwhile
            owner = arr.copy()
            TRANSFORM_CACHE.count("state_copied_bytes", arr.nbytes)
        else:   # the module's own views of it go read-only as well
            arr.flags.writeable = False
        owner.flags.writeable = False
        sha = seen and seen.digest
        if sha:
            seen.served = True
        known.append(_Known(owner, sha, trusted=True))
        memo.setdefault(id(owner), known[-1])   # a scope's own, if it has one
    return StateSnapshot(structure, tuple(known), tuple(kernels))


def restore(snap: StateSnapshot) -> Any:
    """A module from *snap* over read-only views of its arrays and its very
    kernels: nothing copied, hashed or compiled.  Its ``_Known`` s enter
    the open scope, so a digest demanded there is read at most once."""
    scope = _scope()
    if scope is not None:
        for known in snap.known:
            scope.memo.setdefault(id(known.array), known)
    return _load(snap.structure, [k.array.view() for k in snap.known],
                 snap.kernels)


def copy_module(module: Any) -> Any:
    """Deep copy of *module*: one structure pickle, one memcpy per array
    (read-only only where the source's is), fused kernels shared.  Shared
    tensors stay shared.  A module that does not pickle (a local class or
    a closure among its targets) goes through :func:`copy.deepcopy`."""
    try:
        structure, arrays, kernels = _dump(module)
    except _UNPICKLABLE:
        return deepcopy(module)
    return _load(structure, [a.copy() for a in arrays], kernels)
