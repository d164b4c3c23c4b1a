"""Liveness-based memory planning: reuse dead intermediate buffers.

The generated forward allocates a fresh array for every intermediate
value.  This pass runs a liveness analysis over the graph (the same
last-use computation :class:`~repro.fx.interpreter.Interpreter` uses for
garbage collection, extended across aliasing ops) and assigns eligible
intermediates to slots in a pooled :class:`Arena` keyed on
``(shape, dtype)``.  A slot is handed back to the pool the moment its
value dies, so a graph with N same-shaped intermediates typically touches
only as many buffers as are ever simultaneously live.

Planning is deliberately conservative:

* Only outputs of :class:`~repro.fx.passes.pointwise_fuser.FusedKernel`
  nodes are placed in the arena — those are the only targets that accept
  an ``out=`` destination.  Kernel *emit steps* are alias-safe, but a
  multi-step kernel writes its result buffer early and may read an input
  again at a later step, so a node's ``out`` is allowed to take a dying
  operand's slot only when the kernel's step schedule proves the operand
  is never read after the result buffer's first write.
* A value reachable from the graph output — directly or through any
  chain of aliasing ops (``reshape``, ``getitem``, ``transpose``, …) —
  **escapes** and is never planned: its storage must survive the call.
* Liveness is *alias-extended*: if a user may return a view of its input
  (unknown callables are conservatively assumed to), the input's buffer
  stays live until the view itself dies.  A pooled buffer is therefore
  never reclaimed while any alias of it can still be read.

The alias, escape, and extended-liveness facts come from the shared
:class:`~repro.fx.analysis.alias.AliasAnalysis` (this pass is one
consumer among several), and the dying-operand schedule check is the
same :func:`~repro.fx.analysis.mutation.fused_out_clobbers` predicate
the mutation-hazard checker uses to *reject* unsound plans — planner and
verifier cannot drift apart.

The plan is recorded as ``node.meta["arena_slot"]``;
``Graph.python_code`` emits ``out=<slot>`` for planned calls and
``GraphModule`` keys its codegen cache on the slot assignment.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..analysis.engine import AnalysisContext
from ..analysis.mutation import fused_out_clobbers
from ..graph_module import GraphModule
from ..node import Node
from .pointwise_fuser import FusedKernel
from .shape_prop import TensorMetadata

__all__ = ["Arena", "ArenaSlot", "MemoryPlan", "plan_memory"]


class Arena:
    """A pool of lazily materialized numpy buffers.

    Slots are created at plan time as ``(shape, dtype-name)`` specs; the
    actual arrays are allocated on first use and retained for the
    lifetime of the arena (i.e. of the compiled module), so steady-state
    forward calls perform no allocations for planned intermediates.

    Buffers belong to the calling thread: everything that writes through
    an arena (the generated ``forward``, a ``VMProgram``, the
    ``Interpreter``) is thereby reentrant, and two threads running one
    compiled module never share scratch storage.
    """

    def __init__(self, specs: tuple = ()):
        self.specs: list[tuple[tuple, str]] = list(specs)
        self._local = threading.local()
        self.materializations = 0

    def add_slot(self, shape: tuple, dtype_name: str) -> int:
        self.specs.append((tuple(shape), dtype_name))
        return len(self.specs) - 1

    def materialize(self, index: int) -> np.ndarray:
        try:
            buffers = self._local.buffers
        except AttributeError:      # this thread's first use of the arena
            buffers = self._local.buffers = {}
        buf = buffers.get(index)
        if buf is None:
            shape, dtype_name = self.specs[index]
            buf = buffers[index] = np.empty(shape, np.dtype(dtype_name))
            self.materializations += 1
        return buf

    def nbytes(self) -> int:
        return sum(int(np.prod(shape, dtype=np.int64)) * np.dtype(d).itemsize
                   for shape, d in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __getstate__(self):
        # Buffers are scratch state; a pickled plan rematerializes lazily.
        return {"specs": self.specs}

    def __setstate__(self, state):
        self.__init__(state["specs"])

    def __repr__(self) -> str:
        return f"<Arena {len(self.specs)} slots, {self.nbytes()} bytes>"


class ArenaSlot:
    """A handle to one arena buffer, passed as ``out=`` in generated code."""

    __slots__ = ("arena", "index")

    def __init__(self, arena: Arena, index: int):
        self.arena = arena
        self.index = index

    def materialize(self) -> np.ndarray:
        return self.arena.materialize(self.index)

    def hash_token(self) -> str:
        """Which buffer of its arena, and what that buffer holds."""
        shape, dtype = self.arena.specs[self.index]
        return f"{self.index}:{shape}:{dtype}"

    def __repr__(self) -> str:
        shape, dtype = self.arena.specs[self.index]
        return f"<ArenaSlot {self.index}: {shape} {dtype}>"


@dataclass
class MemoryPlan:
    """Report of one planning run (picklable; buffers excluded).

    Attributes:
        planned: number of intermediates assigned to the arena.
        reuse_count: allocation requests served by reusing a dead slot.
        slots: distinct buffers backing all planned intermediates.
        arena_nbytes: steady-state bytes held by the arena.
        peak_before: peak simultaneously-live intermediate bytes had every
            value received a private allocation.
        peak_after: same peak with planned values sharing arena slots.
        arena: the backing :class:`Arena`.
    """

    planned: int
    reuse_count: int
    slots: int
    arena_nbytes: int
    peak_before: int
    peak_after: int
    arena: Optional[Arena] = field(default=None, repr=False)

    def format(self) -> str:
        saved = self.peak_before - self.peak_after
        pct = (100.0 * saved / self.peak_before) if self.peak_before else 0.0
        return (
            f"memory plan: {self.planned} intermediates -> {self.slots} arena "
            f"slots ({self.arena_nbytes} bytes), {self.reuse_count} reuses; "
            f"peak live bytes {self.peak_before} -> {self.peak_after} "
            f"({pct:.1f}% saved)"
        )


def _leaf_meta(node: Node) -> Optional[TensorMetadata]:
    meta = node.meta.get("tensor_meta")
    return meta if isinstance(meta, TensorMetadata) else None


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def plan_memory(gm: GraphModule) -> MemoryPlan:
    """Assign fused-kernel intermediates of ``gm.graph`` to a pooled arena.

    Mutates *gm* in place (stamps ``node.meta["arena_slot"]`` and
    recompiles) and returns the :class:`MemoryPlan`, which it also leaves
    on the module as ``gm.memory_plan`` — a copy, pickle or cache replay
    of the module keeps the plan and its arena together.  Requires shape
    metadata on the planned nodes; nodes without it are skipped.
    """
    nodes = list(gm.graph.nodes)
    order = {n: i for i, n in enumerate(nodes)}
    last_step = len(nodes) - 1

    for n in nodes:
        n.meta.pop("arena_slot", None)

    # May-alias, alias-extended liveness, and escape facts all come from
    # the analysis layer.
    alias = AnalysisContext(gm).get("alias")
    extended_last, escapes = alias.extended_last, alias.escapes

    def plannable(n: Node) -> bool:
        return (
            n.op == "call_function"
            and isinstance(n.target, FusedKernel)
            and n not in escapes
            and bool(n.users)
            and _leaf_meta(n) is not None
        )

    dying_at: dict[int, list[Node]] = {}
    for n in nodes:
        if plannable(n):
            dying_at.setdefault(extended_last[n], []).append(n)

    arena = Arena()
    pool: dict[tuple, list[int]] = {}
    slot_of: dict[Node, int] = {}
    reuse_count = 0
    for i, n in enumerate(nodes):
        # Values whose last (alias-extended) read happens at this very
        # step are necessarily read *during* n's execution, so their
        # slots only become generally available after n.  They may still
        # serve as n's own `out` when the kernel's step schedule proves
        # the write cannot precede any remaining read of them.
        dying = [d for d in dying_at.get(i, ()) if d is not n]
        if plannable(n):
            meta = _leaf_meta(n)
            key = (tuple(meta.shape), meta.dtype.name)
            idx = None
            avail = pool.get(key)
            if avail:
                idx = avail.pop()
                reuse_count += 1
            else:
                for dead in dying:
                    dmeta = _leaf_meta(dead)
                    if (tuple(dmeta.shape), dmeta.dtype.name) != key:
                        continue
                    if fused_out_clobbers(n, dead, alias.may_alias):
                        continue
                    dying.remove(dead)
                    idx = slot_of[dead]
                    reuse_count += 1
                    break
            if idx is None:
                idx = arena.add_slot(tuple(meta.shape),
                                     np.dtype(meta.dtype.np_dtype).name)
            slot_of[n] = idx
            n.meta["arena_slot"] = ArenaSlot(arena, idx)
        for dead in dying:
            dmeta = _leaf_meta(dead)
            dkey = (tuple(dmeta.shape), dmeta.dtype.name)
            pool.setdefault(dkey, []).append(slot_of[dead])

    # -- peak-liveness accounting (diff-array sweep over node steps) --------
    def sweep(intervals: list[tuple[int, int, int]]) -> int:
        diff = [0] * (last_step + 2)
        for start, end, nbytes in intervals:
            diff[start] += nbytes
            diff[end + 1] -= nbytes
        peak = live = 0
        for d in diff:
            live += d
            peak = max(peak, live)
        return peak

    def value_intervals(include_planned: bool) -> list[tuple[int, int, int]]:
        out = []
        for n in nodes:
            if n.op in ("placeholder", "get_attr", "output"):
                continue
            meta = _leaf_meta(n)
            if meta is None:
                continue
            if not include_planned and n in slot_of:
                continue
            end = last_step if n in escapes else extended_last[n]
            out.append((order[n], end, meta.nbytes))
        return out

    peak_before = sweep(value_intervals(include_planned=True))
    after = value_intervals(include_planned=False)
    # Arena buffers persist from their first materialization onward.
    first_use: dict[int, int] = {}
    for n, idx in slot_of.items():
        first_use[idx] = min(first_use.get(idx, order[n]), order[n])
    for idx, start in first_use.items():
        shape, dtype_name = arena.specs[idx]
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype_name).itemsize
        after.append((start, last_step, nbytes))
    peak_after = sweep(after)

    if slot_of:
        gm.recompile()
    gm.memory_plan = plan = MemoryPlan(
        planned=len(slot_of),
        reuse_count=reuse_count,
        slots=len(arena),
        arena_nbytes=arena.nbytes(),
        peak_before=peak_before,
        peak_after=peak_after,
        arena=arena,
    )
    return plan
