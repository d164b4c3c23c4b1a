"""Alias and escape analysis.

Answers, for every node, the three questions the mutation-hazard
checker and the lint rules need:

* **may-alias** — can this node's output share storage with one of its
  tensor inputs?  (The op table's ``view`` says so of ``reshape`` /
  ``getitem`` / the casts; a call without an entry is assumed to.)
* **escape** — can the caller still see this value after ``forward``
  returns?  A value escapes when it is (a view of a view of …) something
  the output returns.
* **extended liveness** — until which graph step can this value still be
  *read*, counting reads through any live view of it?

:func:`alias` answers all three with two backward sweeps.  The paper's
argument (§4.2, §5.5) is that a 6-opcode basic-block DAG makes such
analyses trivial: no control-flow joins, no loop widening — a backward
problem is one sweep in reverse graph order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .. import opinfo
from ..graph_module import GraphModule
from ..node import Node
from .purity import is_inplace_method

__all__ = [
    "AliasResult",
    "alias",
    "may_alias_input",
]


def may_alias_input(node: Node, gm: GraphModule) -> bool:
    """May *node*'s output share storage with one of its tensor inputs?

    An in-place method returns ``self``; otherwise the op table's ``view``
    says, and a call without an entry is assumed to alias.
    """
    if node.op in ("placeholder", "get_attr", "output"):
        return False
    if node.op == "call_method" and is_inplace_method(node.target):
        return True
    entry = opinfo.entry_of(node, gm)
    return entry is None or entry.view


@dataclass(frozen=True)
class AliasResult:
    """Alias facts for one graph's nodes.

    Attributes:
        aliasing: the nodes whose output may share storage with an input.
        escapes: the nodes whose value the caller can still see after the
            call returns.
        extended_last: per node, the last graph step (a position in graph
            order) at which its value can still be read, through any chain
            of live views.
    """

    aliasing: frozenset[Node]
    escapes: frozenset[Node]
    extended_last: dict[Node, int]

    def may_alias(self, node: Node) -> bool:
        return node in self.aliasing


def _sweep(nodes: Sequence[Node],
           transfer: Callable[[Node, Callable[[Node], Any]], Any]) -> dict[Node, Any]:
    """``fact[n] = transfer(n, fact)`` for every node, once each, in reverse
    order.  ``fact(other)`` reads the fact of a node already swept (a
    user); reading one not yet swept raises, so a transfer that would need
    a second round cannot be written."""
    facts: dict[Node, Any] = {}

    def fact(n: Node) -> Any:
        try:
            return facts[n]
        except KeyError:
            raise RuntimeError(
                f"the sweep read {n.name!r} before reaching it; a transfer "
                f"may read only users") from None

    for n in reversed(nodes):
        facts[n] = transfer(n, fact)
    return facts


def alias(gm: GraphModule) -> AliasResult:
    """Alias, escape and extended-liveness facts for *gm*'s nodes.

    Escape and extended liveness are *backward* problems, one reverse
    sweep each:

    * ``escapes(n) = n feeds the output ∨ ∃ user u: may_alias(u) ∧ escapes(u)``
    * ``ext_last(n) = max(order(n), max over users u of ext_last(u) when
      may_alias(u), else order(u))``
    """
    nodes = list(gm.graph.nodes)
    order = {n: i for i, n in enumerate(nodes)}
    aliasing = frozenset(n for n in nodes if may_alias_input(n, gm))
    output_feeds = {a for n in nodes if n.op == "output"
                    for a in n.all_input_nodes}

    def escapes(n: Node, fact) -> bool:
        return n in output_feeds or any(
            u in aliasing and fact(u) for u in n.users)

    def extended_last(n: Node, fact) -> int:
        return max([order[n]] + [fact(u) if u in aliasing else order[u]
                                 for u in n.users])

    escaping = _sweep(nodes, escapes)
    return AliasResult(
        aliasing=aliasing,
        escapes=frozenset(n for n, v in escaping.items() if v),
        extended_last=_sweep(nodes, extended_last),
    )
