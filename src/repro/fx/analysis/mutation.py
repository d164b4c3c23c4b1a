"""Mutation-hazard analysis: in-place writes that clobber live values.

The hazard class this catches statically is silent, deterministic
numeric corruption: a write into an existing buffer — an ``out=``
destination or a trailing-underscore in-place method — while the
buffer's *previous* value can still be read, directly or through a live
view.

Two families of checks, both built on the shared alias facts
(:func:`~repro.fx.analysis.alias.alias`):

* **out= overwrite** — a call whose ``out=`` kwarg is a graph value that
  some later node still reads;
* **in-place overwrite** — ``x.add_(...)`` where ``x`` (or a view of it)
  is read after the mutation by a node other than the mutator itself.

Additionally, a *caller-visible* write (mutating a placeholder or an
escaping value) is recorded as a warning even when no later read exists
in the graph: the caller can observe it, and §5.6 declares mutation
under transformation undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..graph_module import GraphModule
from ..node import Node
from .alias import AliasResult, alias
from .purity import is_inplace_method

__all__ = [
    "Hazard",
    "MutationResult",
    "hazards",
]


@dataclass(frozen=True)
class Hazard:
    """One detected mutation hazard.

    Attributes:
        kind: ``"out-overwrite"`` / ``"inplace-overwrite"`` /
            ``"caller-visible-write"``.
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
    them.  Every hazard kind starts from a writer; a graph with none has
    none, and without *facts* its alias facts are never computed (what
    keeps per-pass verification cheap)."""
    if facts is None:
        if not any(_mutated_target(n) is not None for n in gm.graph.nodes):
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

    return MutationResult(hazards=tuple(found))
