"""Module state during a compile: read each tensor once, copy it at most once.

A ``GraphModule`` keeps code and state together, and every layer of a
compile looks at the state: ``Graph.structural_hash`` covers parameter
values, the transform cache stores the end state of each run of passes,
and the passes themselves work on a private copy.  Done naively each look
re-reads or re-serialises every weight byte.  This module holds the three
pieces that make a weight byte cost O(1) reads and at most one copy per
compile instead of O(passes):

* :func:`digest` — the SHA-256 of one array's bytes, which is the term a
  tensor contributes to ``structural_hash``.  Inside a
  :func:`state_scope` the digest is memoised per ndarray *object*; outside
  one every call reads the bytes.
* :func:`snapshot` / :func:`restore` — a module as a structure-only pickle
  plus its arrays, which the snapshot *owns*, frozen.  A restore hands out
  read-only views of them, copying and hashing nothing: numpy will not
  make a view of a read-only base writeable, so no holder can write them.
* :func:`copy_module` — the same structure pickle with the arrays copied
  straight across: the one way the package deep-copies a module.  Under
  a scope that has already hashed the source, the copies take over the
  digests just read, so hashing the copy reads nothing.

**The one rule a scope trusts**: code running inside a compile *replaces*
tensors, it never writes them in place.  The trust is checked, not
assumed: when the outermost scope closes, every digest that was served
from the memo is checked against the bytes again (a copy made inside the
scope by comparing it with the array it was copied from, a restored
array not at all, anything else by re-hashing), and a mismatch drops the
cache entries stored under that scope and raises a ``PassError``.
Nothing inside a compile executes the program it compiles: ``ShapeProp``
infers, and the one node it has to run for lack of an op-table entry
runs on a private copy of its module.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from copy import deepcopy
from typing import Any, Collection, NamedTuple, Optional

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
    """What a scope knows about one array it has seen."""

    __slots__ = ("array", "digest", "twin", "served", "frozen")

    def __init__(self, array: np.ndarray, digest: Optional[str] = None,
                 twin: Optional[np.ndarray] = None, frozen: bool = False):
        self.array = array      # pinned: keeps ``id(array)`` ours
        self.digest = digest    # ``None`` until first read
        #: the array this one was byte-copied from inside the scope, if any
        self.twin = twin
        #: the digest was handed out again without reading the bytes
        self.served = False
        self.frozen = frozen    # a restored snapshot's: its bytes cannot move

    def unwritten(self) -> bool:
        """Do the bytes still have ``self.digest``?  A copy still equal to
        the array it was taken from has not been written (no code reaches
        both), which is a memory-speed compare instead of a hash."""
        if self.frozen or self.twin is not None \
                and _same_bytes(self.array, self.twin):
            return True
        return _sha(self.array) == self.digest


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
        written = [known.array for known in self.memo.values()
                   if known.served and not known.unwritten()]
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


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Bytewise ``a == b`` at memory speed (``False``, so the caller falls
    back to hashing, for arrays of unlike dtype)."""
    if a.dtype != b.dtype or a.size != b.size:
        return False
    # as unsigned words: NaN == NaN, -0.0 != 0.0
    bits = f"u{a.itemsize}" if a.itemsize in (1, 2, 4, 8) else "u1"
    return np.array_equal(a.reshape(-1).view(bits), b.reshape(-1).view(bits))


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


# -- structure + frozen arrays ------------------------------------------------

class StateSnapshot(NamedTuple):
    """A module, by structure and by frozen arrays.

    Attributes:
        structure: protocol-5 pickle of the module with every contiguous
            array left out of band — graph, names, hyper-parameters; tens
            of KB whatever the weights weigh.  (Non-contiguous arrays have
            no out-of-band form and stay inside it.)
        arrays: the out-of-band arrays, owned by the snapshot, read-only.
        digests: :func:`digest` of each array.
    """

    structure: bytes
    arrays: tuple
    digests: tuple


def _dump(module: Any) -> tuple[bytes, list[np.ndarray]]:
    buffers: list = []
    structure = pickle.dumps(module, protocol=5,
                             buffer_callback=buffers.append)
    # numpy is the only out-of-band exporter here, and exports the array
    # itself (its transpose, for a Fortran-ordered one): no bytes are read.
    return structure, [memoryview(buf).obj for buf in buffers]


def _held(module: Any) -> Optional[frozenset]:
    """:func:`snapshot`'s ids of *module*'s arrays (``None``: no pickle)."""
    try:
        return frozenset(id(_owner(a)) for a in _dump(module)[1])
    except (pickle.PicklingError, AttributeError, TypeError):
        return None


def snapshot(module: Any, shared: Collection[int] = ()) -> StateSnapshot:
    """*module* as a :class:`StateSnapshot` that owns its arrays.

    An array that owns its bytes and is not in *shared* (``id`` s of
    arrays a caller may still hold) is frozen in place, any other copied
    once and the copy frozen; *module* is spent.  The digests are the open
    scope's where it has them: the run's output hash was just taken.
    """
    scope = _scope()
    memo = scope.memo if scope is not None else {}
    structure, arrays = _dump(module)
    owned, digests = [], []
    for arr in arrays:
        owner = _owner(arr)
        known = memo.get(id(owner))
        digests.append(known and known.digest or _sha(owner))
        if owner.base is not None or id(owner) in shared:
            owner = arr.copy()
            TRANSFORM_CACHE.count("state_copied_bytes", arr.nbytes)
            memo[id(owner)] = _Known(owner, digests[-1], arr)
        else:   # the module's own views of it go read-only as well
            arr.flags.writeable = False
        owner.flags.writeable = False
        owned.append(owner)
    return StateSnapshot(structure, tuple(owned), tuple(digests))


def restore(snap: StateSnapshot) -> Any:
    """A module from *snap* whose arrays are read-only views of the
    snapshot's, copying and hashing nothing; their digests enter the open
    scope's memo as frozen, never to be read."""
    scope = _scope()
    if scope is not None:
        for arr, sha in zip(snap.arrays, snap.digests):
            scope.memo.setdefault(id(arr), _Known(arr, sha, frozen=True))
    return pickle.loads(snap.structure,
                        buffers=[arr.view() for arr in snap.arrays])


def copy_module(module: Any) -> Any:
    """Deep copy of *module* (a ``GraphModule`` regenerates its
    ``forward``): one structure pickle, one memcpy per array.  Shared
    tensors stay shared, no memory is shared with the source.  A module
    that does not pickle (a local class or a closure among its targets)
    goes through :func:`copy.deepcopy` instead."""
    try:
        structure, arrays = _dump(module)
    except (pickle.PicklingError, AttributeError, TypeError):
        return deepcopy(module)
    copies = [a.copy() for a in arrays]
    scope = _scope()
    if scope is not None:
        for copy, source in zip(copies, arrays):
            # A source this scope has hashed vouches for its copy: nothing
            # in a compile can reach the module it was handed, so the bytes
            # copied are the bytes read (the exit check compares them again).
            known = scope.memo.get(id(_owner(source)))
            scope.memo[id(copy)] = _Known(copy, known and known.digest, source)
    return pickle.loads(structure, buffers=copies)
