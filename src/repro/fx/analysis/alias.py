"""Alias and escape analysis.

Answers, for every node, the three questions the memory planner, the
mutation-hazard checker, and the lint rules all need:

* **may-alias** — can this node's output share storage with one of its
  tensor inputs?  (The op table's ``view`` says so of ``reshape`` /
  ``getitem`` / the casts; a call without an entry is assumed to.)
* **escape** — can the caller still see this value after ``forward``
  returns?  A value escapes when it is (a view of a view of …) something
  the output returns.
* **extended liveness** — until which graph step can this value still be
  *read*, counting reads through any live view of it?

This used to live privately inside
:mod:`~repro.fx.passes.memory_planner` — which is exactly where review
twice found silent-corruption soundness bugs.  It is now a registered
:class:`~repro.fx.analysis.engine.Analysis` computed by the shared
fixpoint engine, and the planner is one consumer among several.

Results are positional (node-index keyed) so they cache and rebind; use
:meth:`AliasResult.view` for a ``Node``-keyed accessor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import opinfo
from ..graph import Graph
from ..graph_module import GraphModule
from ..node import Node
from .engine import Analysis, AnalysisContext, fixpoint, register_analysis
from .purity import is_inplace_method

__all__ = [
    "AliasAnalysis",
    "AliasResult",
    "AliasView",
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
    """Positional alias facts for one graph (cacheable, rebindable).

    Attributes:
        may_alias: per node index, whether the node's output may share
            storage with an input.
        escapes: indices of nodes whose value the caller can still see
            after the call returns.
        extended_last: per node index, the last graph step at which the
            value can still be read, through any chain of live views.
        fixpoint_rounds: sweeps the solver needed (1 on a well-formed
            DAG; recorded for the engine's instrumentation).
    """

    may_alias: tuple[bool, ...]
    escapes: frozenset[int]
    extended_last: tuple[int, ...]
    fixpoint_rounds: int = 1

    def view(self, graph: Graph) -> "AliasView":
        """Bind this (positional) result to a concrete graph's nodes."""
        return AliasView(self, list(graph.nodes))


class AliasView:
    """Node-keyed accessor over an :class:`AliasResult`.

    The bound graph must be the analyzed graph or a structurally
    identical copy (same structural hash) — positions are matched by
    topological index.
    """

    def __init__(self, result: AliasResult, nodes: list[Node]):
        if len(nodes) != len(result.may_alias):
            raise ValueError(
                f"cannot bind alias result for {len(result.may_alias)} nodes "
                f"to a graph with {len(nodes)} nodes")
        self.result = result
        self._index = {n: i for i, n in enumerate(nodes)}
        self._nodes = nodes

    def may_alias(self, node: Node) -> bool:
        return self.result.may_alias[self._index[node]]

    def escapes(self, node: Node) -> bool:
        return self._index[node] in self.result.escapes

    def extended_last(self, node: Node) -> int:
        return self.result.extended_last[self._index[node]]

    @property
    def escaping_nodes(self) -> set[Node]:
        return {self._nodes[i] for i in self.result.escapes}

    def order(self, node: Node) -> int:
        return self._index[node]


@register_analysis
class AliasAnalysis(Analysis):
    """Registered alias/escape/extended-liveness analysis.

    Escape and extended liveness are *backward* dataflow problems solved
    by the shared engine:

    * ``escapes(n) = n feeds the output ∨ ∃ user u: may_alias(u) ∧ escapes(u)``
    * ``ext_last(n) = max(order(n), max over users u of order(u) and,
      when may_alias(u), ext_last(u))``
    """

    name = "alias"

    def compute(self, gm: GraphModule, ctx: AnalysisContext) -> AliasResult:
        nodes = list(gm.graph.nodes)
        order = {n: i for i, n in enumerate(nodes)}
        may_alias = [may_alias_input(n, gm) for n in nodes]
        aliases = {n: may_alias[i] for i, n in enumerate(nodes)}

        output_feeds: set[Node] = set()
        for n in nodes:
            if n.op == "output":
                output_feeds.update(n.all_input_nodes)

        def escape_transfer(n: Node, fact) -> bool:
            if n in output_feeds:
                return True
            return any(aliases[u] and fact(u) for u in n.users)

        esc_facts, esc_stats = fixpoint(
            nodes, escape_transfer, direction="backward", init=False)

        def liveness_transfer(n: Node, fact) -> int:
            last = order[n]
            for u in n.users:
                last = max(last, order[u])
                if aliases[u]:
                    last = max(last, fact(u) if fact(u) is not None else order[u])
            return last

        live_facts, live_stats = fixpoint(
            nodes, liveness_transfer, direction="backward", init=None)

        return AliasResult(
            may_alias=tuple(may_alias),
            escapes=frozenset(order[n] for n, v in esc_facts.items() if v),
            extended_last=tuple(live_facts[n] for n in nodes),
            fixpoint_rounds=max(esc_stats.rounds, live_stats.rounds),
        )
