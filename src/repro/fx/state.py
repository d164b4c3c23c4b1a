"""Module state during a compile: read no weight byte, copy only what a
result keeps, and derive again what a stage computed from weights.

* :func:`digests` — the SHA-256 of each of some arrays' bytes, the term a
  tensor contributes to a byte-keyed ``Graph.structural_hash`` (the engine
  cache's disk identity; no compile key reads a byte).  The bytes are read
  on up to one thread per CPU, and each digest is the one a single thread
  computes.
* :func:`_borrow` — what passes transform when the caller keeps its
  module: a structure-only copy over *read-only views* of its arrays, so
  no weight is copied and numpy refuses a pass's in-place write.
* :func:`derive` / :func:`recipe` / :func:`rebuild` — a cache entry's end
  state, one :class:`Recipe`: the structure pickle, the fused kernels and,
  per array, where it comes from: the array the key fed at position *i*,
  or output *j* of derivation *k* (one :func:`derive` call a stage made).
  A recipe holds no array: a rebuild binds a frozen copy of the caller's
  array for each of the first kind and replays the derivations on the
  caller's arrays for the second.  A run with an array of neither kind
  has no recipe, and is not stored.

**The one rule a compile trusts**: code inside it *replaces* tensors, it
never writes them in place.  What it cannot write (a borrowed view, a
frozen array) is not checked.  Each array a rebuild copied from the
caller, who may have written it meanwhile, is compared with its source
when the outermost :func:`state_scope` closes; a mismatch drops the
entries stored under the scope and raises a ``PassError``.  Nothing in a
compile executes the program it compiles: ``ShapeProp`` infers, and the
one node it has to run for lack of an op-table entry runs on a copy.
"""

from __future__ import annotations

import functools
import hashlib
import io
import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from copy import deepcopy
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .cache import ArtifactCache, register_stage
from .concurrency import on_fork_reset

__all__ = ["Recipe", "TRANSFORM_CACHE", "copy_module", "derive", "digests",
           "note_stored", "rebuild", "recipe", "recording", "state_scope",
           "unbind"]

#: The process-wide transform cache (``RunKey -> CacheEntry``, see
#: :mod:`repro.fx.passes.pass_manager`).  Registered here because its row
#: of ``fx.cache_info()`` also carries this module's counters:
#: ``state_reads`` / ``state_read_bytes`` (digests computed from bytes),
#: ``state_copied_bytes`` (by rebuilds) and ``state_derived_bytes``
#: (arrays :func:`derive` and replays made).
TRANSFORM_CACHE = register_stage("transform", 1024)


class _Scope:
    """What one compile stored and copied; its own (re-entrant) context
    manager."""

    __slots__ = ("copied", "depth", "stored")

    def __init__(self) -> None:
        self.depth = 0
        #: ``(cache, key)`` of every entry stored while the scope was open.
        self.stored: list[tuple[ArtifactCache, Any]] = []
        #: ``(source, copy)`` of each writeable array a rebuild copied.
        self.copied: list[tuple[np.ndarray, np.ndarray]] = []

    def __enter__(self) -> None:
        if self.depth == 0:
            _ACTIVE.scope = self
        self.depth += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        self.depth -= 1
        if self.depth:
            return
        _ACTIVE.scope = None
        written = [src for src, copy in self.copied
                   if not _same_bits(src, copy)]
        if not written:
            return
        for cache, key in self.stored:
            cache.discard(key)
        if exc_type is None:   # never mask the error already in flight
            from .passes.pass_manager import PassError

            raise PassError(
                f"module state was written in place during a compile: "
                f"{len(written)} tensor(s) changed after being copied "
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


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(
        arr if arr.flags.c_contiguous else arr.tobytes()).hexdigest()


#: Arrays from this size up are read on the pool: on a 2-CPU x86 host a
#: round trip through a worker costs ≈ 50 µs, what SHA-256 takes over
#: 64 KiB; ``hashlib`` lets go of the GIL while it reads.
_POOL_MIN_BYTES = 64 * 1024


@functools.cache
def _pool() -> Optional[ThreadPoolExecutor]:
    """A worker per CPU this process may run on, made on first use; none
    on one CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return ThreadPoolExecutor(cpus) if cpus > 1 else None


on_fork_reset(_pool.cache_clear)   # a forked child has none of its threads


def digests(arrays: Sequence[np.ndarray]) -> list[str]:
    """The hex SHA-256 of each of *arrays*' bytes in C order, counted as
    that many reads: small ones (and a lone large one) on the calling
    thread, two or more large ones, largest first, on the pool, whose
    workers run nothing but ``hashlib``."""
    if not arrays:
        return []
    TRANSFORM_CACHE.count("state_reads", len(arrays))
    TRANSFORM_CACHE.count("state_read_bytes", sum(a.nbytes for a in arrays))
    large = sorted((i for i, a in enumerate(arrays)
                    if a.nbytes >= _POOL_MIN_BYTES),
                   key=lambda i: -arrays[i].nbytes)
    pool = _pool() if len(large) > 1 else None
    pending = {i: pool.submit(_sha, arrays[i]) for i in large} if pool else {}
    return [pending[i].result() if i in pending else _sha(arr)
            for i, arr in enumerate(arrays)]


def note_stored(cache: ArtifactCache, key: Any) -> None:
    """Record that *cache* [*key*] is being filled under the open scope,
    so a failed validation takes it back."""
    scope = _scope()
    if scope is not None:
        scope.stored.append((cache, key))


# -- structure + arrays + kernels ---------------------------------------------

_UNPICKLABLE = (pickle.PicklingError, AttributeError, TypeError)


def _dump(module: Any) -> tuple[bytes, list[np.ndarray], list]:
    """*module* pickled with each ndarray and fused kernel it reaches left
    out, by reference: the structure, the arrays and the kernels, each
    once, in the order first reached.  No array byte is read."""
    from .passes.pointwise_fuser import FusedKernel   # above us in the imports

    arrays: dict = {}    # id -> (position, array), which keeps the id ours
    kernels: dict = {}

    def persistent_id(obj: Any) -> Optional[tuple]:
        if isinstance(obj, np.ndarray):
            return "a", arrays.setdefault(id(obj), (len(arrays), obj))[0]
        if type(obj) is FusedKernel:
            return "k", kernels.setdefault(obj, len(kernels))
        return None

    out = io.BytesIO()
    pickler = pickle.Pickler(out, protocol=5)
    pickler.persistent_id = persistent_id
    pickler.dump(module)
    return out.getvalue(), [a for _, a in arrays.values()], list(kernels)


def _load(structure: bytes, arrays: Sequence, kernels: Sequence) -> Any:
    unpickler = pickle.Unpickler(io.BytesIO(structure))
    unpickler.persistent_load = \
        lambda pid: (arrays if pid[0] == "a" else kernels)[pid[1]]
    return unpickler.load()


def unbind(obj: Any) -> tuple[Callable[[Sequence[np.ndarray]], Any], list]:
    """*obj* without its arrays: a function that builds it again over other
    arrays (fused kernels shared), and the arrays it holds now, in the
    order that function takes them.  Raises what pickling raises."""
    structure, arrays, kernels = _dump(obj)
    return functools.partial(_load, structure, kernels=kernels), arrays


def _borrow(module: Any) -> tuple[Any, list]:
    """A copy of *module* for passes to transform over read-only views of
    its arrays, and ``(view, array)`` per array it holds; deep-copied
    instead if it does not pickle."""
    try:
        structure, arrays, kernels = _dump(module)
    except _UNPICKLABLE:
        return deepcopy(module), []
    views = [a.view() for a in arrays]
    for view in views:
        view.flags.writeable = False
    return _load(structure, views, kernels), list(zip(views, arrays))


def copy_module(module: Any) -> Any:
    """Deep copy of *module*: one structure pickle, one memcpy per array
    (read-only only where the source's is), fused kernels shared.  Shared
    tensors stay shared.  A module that does not pickle (a local class or
    a closure among its targets) goes through :func:`copy.deepcopy`."""
    try:
        structure, arrays, kernels = _dump(module)
    except _UNPICKLABLE:
        return deepcopy(module)
    copies = [a.copy(order="K") for a in arrays]
    for copy, arr in zip(copies, arrays):
        copy.flags.writeable = arr.flags.writeable
    return _load(structure, copies, kernels)


# -- derived arrays -------------------------------------------------------------

def _call(fn: Callable, arrays: Sequence) -> tuple:
    """``fn(*arrays)``, a tuple of arrays (``None`` where there is none),
    each one that does not own its bytes, or is one of *arrays*, copied."""
    outs = tuple(o if o is None or (o.base is None and all(
        o is not a for a in arrays)) else o.copy()
        for o in fn(*arrays))
    TRANSFORM_CACHE.count("state_derived_bytes",
                          sum(o.nbytes for o in outs if o is not None))
    return outs


def derive(fn: Callable, *arrays: Optional[np.ndarray]) -> tuple:
    """``fn(*arrays)``: the arrays a stage computes from module state, as a
    tuple (``None`` for no array), each with bytes of its own.  *fn* must read
    nothing but its arguments (a module-level function, or a ``partial``
    of one over plain values), so that under :func:`recording` a cache
    entry can replay it on another module's arrays."""
    outs = _call(fn, arrays)
    log = getattr(_ACTIVE, "log", None)
    if log is not None:
        log.append((fn, arrays, outs))
    return outs


@contextmanager
def recording() -> Iterator[list]:
    """``with recording() as log:`` — each :func:`derive` call on this
    thread inside appends ``(fn, arrays, outputs)`` to *log*."""
    saved = getattr(_ACTIVE, "log", None)
    _ACTIVE.log = log = []
    try:
        yield log
    finally:
        _ACTIVE.log = saved


class Recipe(NamedTuple):
    """A run's end state: ``structure``, a pickle of the module with every
    array and fused kernel out of it, by reference (tens of KB);
    ``kernels``, immutable, shared by every rebuild; ``slots``, per array,
    ``("in", i)`` (the array the key fed at *i*) or ``("out", k, j)``
    (output *j* of derivation *k*); ``derivations``, per :func:`derive`
    call, ``(fn, refs, specs)`` — *refs* say where each argument comes
    from, as slots do (``None`` for none), *specs* each output's
    ``(shape, dtype)``."""

    structure: bytes
    slots: tuple
    derivations: tuple
    kernels: tuple


def recipe(module: Any, fed: Sequence[np.ndarray], lent: Sequence[tuple],
           log: Sequence[tuple]) -> tuple[Optional[Recipe], list]:
    """*module*, the end state of a run that started from the arrays *fed*
    (lent to its passes as ``(view, array)`` pairs, *lent*) and recorded
    the derivations *log*: a :class:`Recipe` that owns no array, and the
    derivations' outputs, in recipe order; ``None`` for a recipe when an
    array has no provenance."""
    structure, arrays, kernels = _dump(module)
    ref: dict[int, tuple] = {}
    for i, arr in enumerate(fed):
        ref.setdefault(id(arr), ("in", i))
    for view, arr in lent:
        if id(arr) in ref:
            ref[id(view)] = ref[id(arr)]
    derivations, made = [], []
    for fn, inputs, outs in log:
        refs = tuple(None if a is None else ref.get(id(a)) for a in inputs)
        if any(r is None and a is not None for r, a in zip(refs, inputs)):
            continue   # read an array of no provenance: so do its outputs
        for j, out in enumerate(outs):
            if out is not None:
                ref[id(out)] = ("out", len(derivations), j)
        derivations.append((fn, refs, tuple(
            None if o is None else (o.shape, o.dtype) for o in outs)))
        made.append(outs)
    slots = tuple(ref.get(id(arr)) for arr in arrays)
    if None in slots:
        return None, made
    return Recipe(structure, slots, tuple(derivations), tuple(kernels)), made


def rebuild(rec: Recipe, fed: Sequence[np.ndarray] = (),
            made: Optional[list] = None) -> Any:
    """A module from *rec* over *fed* — the arrays its key fed, in order —
    and *made*, the outputs of its derivations when the caller just made
    them (else they are replayed on *fed*).  Every array is read-only: a
    frozen copy of the caller's or a frozen derived one."""
    if made is None:
        made = []
        for k, (fn, refs, specs) in enumerate(rec.derivations):
            outs = _call(fn, [None if r is None else fed[r[1]]
                              if r[0] == "in" else made[r[1]][r[2]]
                              for r in refs])
            if tuple(None if o is None else (o.shape, o.dtype)
                     for o in outs) != specs:
                raise RuntimeError(f"derivation {k} ({fn!r}) made other "
                                   f"shapes than when it was recorded")
            made.append(outs)
    scope, arrays = _scope(), []
    for at in rec.slots:
        if at[0] == "out":
            arr = made[at[1]][at[2]]
        else:
            src = fed[at[1]]
            arr = src.copy(order="K")
            TRANSFORM_CACHE.count("state_copied_bytes", arr.nbytes)
            if scope is not None and src.flags.writeable:
                scope.copied.append((src, arr))
        arr.flags.writeable = False
        arrays.append(arr)
    return _load(rec.structure, [a.view() for a in arrays], rec.kernels)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    a, b = (np.ascontiguousarray(x).reshape(-1).view(np.uint8) for x in (a, b))
    # a MiB at a time: the comparison allocates no array's worth
    return all(np.array_equal(a[i:i + 2 ** 20], b[i:i + 2 ** 20])
               for i in range(0, a.size, 2 ** 20))
