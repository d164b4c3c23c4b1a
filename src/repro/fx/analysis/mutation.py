"""Mutation-hazard analysis: in-place writes that clobber live values.

The hazard class this catches statically is exactly the one that bit the
memory planner twice (silent, deterministic numeric corruption): a write
into an existing buffer — an ``out=`` destination, a trailing-underscore
in-place method, or a pooled arena slot — while the buffer's *previous*
value can still be read, directly or through a live view.

Three families of checks, all built on the shared alias facts
(:func:`~repro.fx.analysis.alias.alias`):

* **out= overwrite** — a call whose ``out=`` kwarg is a graph value that
  some later node still reads;
* **in-place overwrite** — ``x.add_(...)`` where ``x`` (or a view of it)
  is read after the mutation by a node other than the mutator itself;
* **arena hazards** — a planned node that escapes to the caller, two
  planned values whose live ranges overlap on one slot, and the PR-3 bug
  shape proper: a multi-step fused kernel whose ``out`` slot is a dying
  operand's buffer while the kernel's step schedule still reads that
  operand *after* the result buffer's first write
  (:func:`fused_out_clobbers` — the same predicate the planner itself
  uses, so planner and checker cannot drift apart).

Additionally, a *caller-visible* write (mutating a placeholder or an
escaping value) is recorded as a warning even when no later read exists
in the graph: the caller can observe it, and §5.6 declares mutation
under transformation undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..graph_module import GraphModule
from ..node import Node
from ..opinfo import TABLE
from .alias import AliasResult, alias
from .purity import is_inplace_method

__all__ = [
    "Hazard",
    "MutationResult",
    "fused_out_clobbers",
    "hazards",
]


def fused_out_clobbers(node: Node, dead: Node,
                       may_alias: Callable[[Node], bool]) -> bool:
    """Would routing *node*'s ``out`` into *dead*'s buffer corrupt *node*?

    Alias-safe emit steps of a fused kernel tolerate ``out`` aliasing
    their own operands, but that guarantee is per step: a multi-step
    kernel first writes buffer 0 at some step ``w`` and may read an input
    again at a later step ``r``.  If *dead*'s storage is readable through
    input ``i`` (directly or via a view) and ``last_read(i) > w``, the
    early write would clobber data a later step still needs.  A step that
    is not alias-safe (a GEMM) clobbers what it reads itself, so for it
    ``last_read(i) >= w`` is enough.

    This predicate is shared by :func:`~repro.fx.passes.memory_planner.plan_memory`
    (to *avoid* the reuse) and :func:`hazards` (to
    *reject* a plan that performed it anyway).
    """
    spec = node.target.spec
    first_write = next(
        (j for j, st in enumerate(spec.steps) if st.out_buf == 0),
        len(spec.steps))
    # 1 when the first writer may read what it overwrites, else 0
    safe = first_write == len(spec.steps) \
        or TABLE[spec.steps[first_write].key].kernel.alias_safe
    if first_write + safe >= len(spec.steps):
        return False  # result buffer only written by the final, alias-safe step
    # Forward alias closure: every node whose value may share storage
    # with `dead` (dead itself plus transitive view-producing users).
    closure = {dead}
    stack = [dead]
    while stack:
        m = stack.pop()
        for u in m.users:
            if u not in closure and may_alias(u):
                closure.add(u)
                stack.append(u)
    for pos, a in enumerate(node.args):
        if not (isinstance(a, Node) and a in closure):
            continue
        last_read = max(
            (j for j, st in enumerate(spec.steps)
             if ("i", pos) in st.operands),
            default=-1)
        if last_read >= first_write + safe:
            return True
    return False


@dataclass(frozen=True)
class Hazard:
    """One detected mutation hazard.

    Attributes:
        kind: ``"out-overwrite"`` / ``"inplace-overwrite"`` /
            ``"caller-visible-write"`` / ``"arena-escape"`` /
            ``"arena-overlap"`` / ``"arena-clobber"``.
        node_index / node_name: the writing node.
        victim_name: the value whose storage is (or may be) clobbered.
        detail: human-readable specifics.
    """

    kind: str
    node_index: int
    node_name: str
    victim_name: str
    detail: str


@dataclass(frozen=True)
class MutationResult:
    """All hazards found in one graph."""

    hazards: tuple[Hazard, ...]


def _mutated_target(node: Node) -> Optional[Node]:
    """The graph value whose storage *node* writes into, if any."""
    out = node.kwargs.get("out")
    if isinstance(out, Node):
        return out
    if node.op == "call_method" and is_inplace_method(node.target) \
            and node.args and isinstance(node.args[0], Node):
        return node.args[0]
    return None


def hazards(gm: GraphModule, facts: Optional[AliasResult] = None) -> MutationResult:
    """Every hazard in *gm*, given its alias *facts* when the caller has
    them.  Every hazard kind starts from a writer or a planned node; a
    graph with neither has none, and without *facts* its alias facts are
    never computed (what keeps per-pass verification cheap)."""
    if facts is None:
        if not any(_mutated_target(n) is not None
                   or n.meta.get("arena_slot") is not None
                   for n in gm.graph.nodes):
            return MutationResult(hazards=())
        facts = alias(gm)
    nodes = list(gm.graph.nodes)
    order = {n: i for i, n in enumerate(nodes)}
    found: list[Hazard] = []

    def last_read_excluding(value: Node, writer: Node) -> int:
        """Last step at which *value* (or a live view of it) is read
        by anything other than *writer* itself."""
        last = -1
        for u in value.users:
            if u is writer:
                continue
            last = max(last, order[u])
            if facts.may_alias(u):
                last = max(last, facts.extended_last[u])
        return last

    # -- explicit writes: out= kwargs and in-place methods ---------------
    for n in nodes:
        victim = _mutated_target(n)
        if victim is None:
            continue
        kind = ("out-overwrite" if isinstance(n.kwargs.get("out"), Node)
                else "inplace-overwrite")
        last = last_read_excluding(victim, n)
        if last > order[n]:
            found.append(Hazard(
                kind=kind,
                node_index=order[n],
                node_name=n.name,
                victim_name=victim.name,
                detail=(f"writes into {victim.name!r} whose previous value "
                        f"(or a view of it) is still read at step {last} "
                        f"(write happens at step {order[n]})"),
            ))
        if victim.op == "placeholder" or victim in facts.escapes:
            found.append(Hazard(
                kind="caller-visible-write",
                node_index=order[n],
                node_name=n.name,
                victim_name=victim.name,
                detail=(f"mutates {victim.name!r}, which the caller can "
                        f"observe ({'function input' if victim.op == 'placeholder' else 'aliases the output'}); "
                        f"transforms treat mutation as undefined (§5.6)"),
            ))

    # -- arena-slot hazards ----------------------------------------------
    from ..passes.pointwise_fuser import FusedKernel

    by_slot: dict[tuple[int, int], list[Node]] = {}
    for n in nodes:
        slot = n.meta.get("arena_slot")
        if slot is None:
            continue
        if n in facts.escapes:
            found.append(Hazard(
                kind="arena-escape",
                node_index=order[n],
                node_name=n.name,
                victim_name=n.name,
                detail=(f"{n.name!r} is reachable from the graph output but "
                        f"is planned into pooled arena slot {slot.index}; "
                        f"a later call would clobber the caller's tensor"),
            ))
        by_slot.setdefault((id(slot.arena), slot.index), []).append(n)

    for (_, slot_index), sharers in by_slot.items():
        sharers.sort(key=lambda n: order[n])
        for i, m in enumerate(sharers):
            for n in sharers[i + 1:]:
                m_last = facts.extended_last[m]
                if m_last > order[n]:
                    found.append(Hazard(
                        kind="arena-overlap",
                        node_index=order[n],
                        node_name=n.name,
                        victim_name=m.name,
                        detail=(f"slot {slot_index} is written by {n.name!r} "
                                f"at step {order[n]} while {m.name!r} (same "
                                f"slot) is still live until step {m_last}"),
                    ))
                elif m_last == order[n]:
                    # m dies *at* n: n reads it while writing the slot.
                    # Safe only when n's kernel step schedule proves the
                    # result buffer's first write follows m's last read.
                    unsafe = (not isinstance(n.target, FusedKernel)
                              or fused_out_clobbers(n, m, facts.may_alias))
                    if unsafe:
                        found.append(Hazard(
                            kind="arena-clobber",
                            node_index=order[n],
                            node_name=n.name,
                            victim_name=m.name,
                            detail=(f"{n.name!r} takes dying operand "
                                    f"{m.name!r}'s slot {slot_index} as out=, "
                                    f"but its step schedule reads the operand "
                                    f"after the result buffer's first write"),
                        ))

    return MutationResult(hazards=tuple(found))
