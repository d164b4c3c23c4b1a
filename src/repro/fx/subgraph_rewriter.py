"""Declarative subgraph rewriting: :func:`replace_pattern`.

Both the pattern and the replacement are given as ordinary Python
callables; they are symbolically traced and matched structurally against
the target graph.  Pattern placeholders act as wildcards and carry their
bindings over to the replacement's placeholders (positionally).

Example — swap ``x.neg().relu()`` for ``x.relu().neg()``::

    def pattern(x):
        return repro.relu(x.neg())

    def replacement(x):
        return repro.relu(x).neg()

    replace_pattern(traced_module, pattern, replacement)

Matching semantics:

* A pattern **placeholder** is a wildcard binding any value (Node or
  immediate).  The same placeholder appearing twice must bind the same
  value — Node identity for nodes, type-strict equality for immediates.
* A **literal** in the pattern (``x * 1``) matches only the same literal
  of the same type: ``1`` does not match ``1.0`` or ``True``, and never
  matches a computed value.
* A pattern returns **one** traced value, computed from every one of
  its placeholders; the match is anchored at that value's node.
* Matches are claimed in graph order: the first match of a node wins,
  and a later candidate sharing a matched node is skipped.
* A match whose interior (every matched node but the anchor) feeds a
  node outside it is skipped: rewriting it would orphan that value.

``replace_pattern`` propagates node metadata onto replacement nodes:
``tensor_meta``/``type`` are re-derived by evaluating the replacement on
the bindings' recorded metadata (falling back to copying the matched
anchor's metadata), and ``stack_trace`` provenance is
inherited from the matched anchor, so shape-dependent passes (pointwise
fusion, cost model) keep working after a rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .graph import Graph
from .graph_module import GraphModule
from .node import Node, map_arg
from .tracer import symbolic_trace

__all__ = ["Match", "replace_pattern"]


def _literal_eq(pa: Any, ga: Any) -> bool:
    """Type-strict structural equality for pattern literals.

    ``1 == True == 1.0`` under Python equality, but a pattern written
    with the int literal ``1`` must not fire on a graph computing with
    ``True`` or ``1.0`` — the rewrite's algebra may not hold across
    types (dtype promotion differs).  Containers compare elementwise
    (tuple/list interchangeably, matching how tracing normalizes them).
    """
    if isinstance(pa, (tuple, list)):
        if not isinstance(ga, (tuple, list)) or len(pa) != len(ga):
            return False
        return all(_literal_eq(p, g) for p, g in zip(pa, ga))
    if type(pa) is not type(ga):
        return False
    return pa == ga


def _binding_eq(old: Any, new: Any) -> bool:
    """Consistency check for a placeholder bound a second time."""
    if isinstance(old, Node) or isinstance(new, Node):
        return old is new
    return _literal_eq(old, new)


@dataclass
class Match:
    """One occurrence of the pattern in the target graph.

    Attributes:
        anchor: the target-graph node matched to the pattern's output value.
        nodes_map: pattern node -> target node (placeholders map to whatever
            value they bound, which may be a Node or an immediate).
    """

    anchor: Node
    nodes_map: dict[Node, Any] = field(default_factory=dict)

    def internal_nodes(self) -> set[Node]:
        """The matched interior: every graph node a non-placeholder
        pattern node mapped to (includes the anchor)."""
        return {
            g for p, g in self.nodes_map.items()
            if isinstance(g, Node) and p.op != "placeholder"
        }


def _pattern_output(pattern: Graph) -> Node:
    """The node a pattern's match is anchored at; raises ``ValueError`` for
    a pattern no match of which could be rewritten."""
    out = pattern.output_node.args[0]
    if not isinstance(out, Node):
        raise ValueError(
            f"a pattern must return one traced value, not {type(out).__name__}")
    if out.op == "placeholder":
        raise ValueError(
            f"the pattern returns its placeholder {out.name!r}; it would "
            f"match every value, placeholders included")
    read = set()
    stack = [out]
    while stack:
        n = stack.pop()
        for a in n.all_input_nodes:
            if a not in read:
                read.add(a)
                stack.append(a)
    for ph in pattern.nodes:
        if ph.op == "placeholder" and ph not in read:
            raise ValueError(
                f"pattern placeholder {ph.name!r} is never read by the "
                f"pattern's output, so a match cannot bind it")
    return out


def _match(pn: Node, gn: Any, nodes_map: dict[Node, Any]) -> bool:
    """Extend *nodes_map* so pattern node *pn* matches target value *gn*."""
    if pn in nodes_map:
        return _binding_eq(nodes_map[pn], gn)
    if pn.op == "placeholder":
        # Wildcard: binds any value (Node or immediate), consistently.
        nodes_map[pn] = gn
        return True
    if not isinstance(gn, Node):
        return False
    if pn.op != gn.op or pn.target != gn.target:
        return False
    if len(pn.args) != len(gn.args) or set(pn.kwargs) != set(gn.kwargs):
        return False
    nodes_map[pn] = gn
    return all(_match_arg(pa, ga, nodes_map) for pa, ga in zip(pn.args, gn.args)) \
        and all(_match_arg(pn.kwargs[k], gn.kwargs[k], nodes_map) for k in pn.kwargs)


def _match_arg(pa: Any, ga: Any, nodes_map: dict[Node, Any]) -> bool:
    if isinstance(pa, Node):
        return _match(pa, ga, nodes_map)
    if isinstance(pa, (tuple, list)):
        if not isinstance(ga, (tuple, list)) or len(pa) != len(ga):
            return False
        return all(_match_arg(p, g, nodes_map) for p, g in zip(pa, ga))
    if isinstance(ga, Node):
        return False  # immediate in pattern cannot match a computed value
    return _literal_eq(pa, ga)


def _find_matches(pattern_output: Node, graph: Graph) -> list[Match]:
    """Non-overlapping matches in *graph*, claimed in graph order; a match
    whose interior feeds a node outside it is skipped."""
    matches: list[Match] = []
    claimed: set[Node] = set()
    for node in graph.nodes:
        nodes_map: dict[Node, Any] = {}
        if not _match(pattern_output, node, nodes_map):
            continue
        m = Match(anchor=node, nodes_map=nodes_map)
        internal = m.internal_nodes()
        if internal & claimed or any(
                u not in internal for g in internal if g is not node
                for u in g.users):
            continue
        matches.append(m)
        claimed |= internal
    return matches


def replace_pattern(
    gm: GraphModule,
    pattern: Callable | Graph,
    replacement: Callable | Graph,
) -> list[Match]:
    """Replace every non-overlapping occurrence of *pattern* in ``gm.graph``
    with *replacement*.

    Pattern placeholders bind positionally to replacement placeholders.
    Matched nodes whose values escape the match (used by nodes outside it,
    other than through the anchor) are left untouched.

    Returns:
        The list of :class:`Match` objects that were rewritten.
    """
    pattern_graph = pattern if isinstance(pattern, Graph) else symbolic_trace(pattern).graph
    replacement_graph = (
        replacement if isinstance(replacement, Graph) else symbolic_trace(replacement).graph
    )
    pattern_output = _pattern_output(pattern_graph)
    pattern_placeholders = [n for n in pattern_graph.nodes if n.op == "placeholder"]
    replacement_placeholders = [n for n in replacement_graph.nodes if n.op == "placeholder"]
    if len(pattern_placeholders) != len(replacement_placeholders):
        raise ValueError(
            "pattern and replacement must take the same number of arguments "
            f"({len(pattern_placeholders)} vs {len(replacement_placeholders)})"
        )
    if isinstance(replacement_graph.output_node.args[0], (tuple, list)):
        raise ValueError("a replacement must return one value, as its pattern does")

    matches = _find_matches(pattern_output, gm.graph)

    # Earlier rewrites can replace a node that a later match's wildcard
    # bound (its anchor becomes the replacement's output); chase through.
    replaced: dict[Node, Any] = {}

    def resolve(value: Any) -> Any:
        while isinstance(value, Node) and value in replaced:
            value = replaced[value]
        return value

    for match in matches:
        val_map: dict[Node, Any] = {
            r_ph: resolve(match.nodes_map[p_ph])
            for p_ph, r_ph in zip(pattern_placeholders, replacement_placeholders)}
        with gm.graph.inserting_before(match.anchor):
            new_val = gm.graph.graph_copy(replacement_graph, val_map)
        _propagate_meta(gm, match, replacement_graph, val_map, new_val)
        if isinstance(new_val, Node):
            match.anchor.replace_all_uses_with(new_val)
        else:
            # An identity replacement can resolve to an immediate (the
            # pattern bound a literal): splice it into each user.
            for user in list(match.anchor.users):
                user.args = map_arg(user.args, lambda n: new_val if n is match.anchor else n)
                user.kwargs = map_arg(user.kwargs, lambda n: new_val if n is match.anchor else n)
        replaced[match.anchor] = new_val
        # Erase the matched interior, users first.
        order = {n: i for i, n in enumerate(gm.graph.nodes)}
        for g in sorted(match.internal_nodes(), key=order.__getitem__, reverse=True):
            if not g.users:
                gm.graph.erase_node(g)

    if matches:
        gm.graph.eliminate_dead_code()
        gm.recompile()
    return matches


# -- metadata propagation --------------------------------------------------


def _propagate_meta(gm: GraphModule, match: Match, replacement_graph: Graph,
                    val_map: dict[Node, Any], out: Any) -> None:
    """Stamp ``tensor_meta``/``type``/``stack_trace`` onto the freshly
    copied replacement nodes.

    Metadata is *re-derived*, not guessed: each replacement node is typed
    by the op table from the ``tensor_meta`` its operands carry (no kernel
    runs).  Where that is impossible (a binding was never shape-propagated,
    a target without an entry) the anchor's recorded metadata is copied
    onto the replacement outputs so downstream shape consumers still see
    *something* truthful-shaped.
    """
    from .passes.shape_prop import infer_meta

    anchor = match.anchor
    provenance = anchor.meta.get("stack_trace")

    created = [val_map[rn] for rn in replacement_graph.nodes   # operands first
               if rn.op not in ("placeholder", "output")
               and isinstance(val_map.get(rn), Node)]
    for new_node in created:
        if provenance and not new_node.meta.get("stack_trace"):
            new_node.meta["stack_trace"] = provenance
    infer_meta(gm, created)

    # Fallback: an output still missing tensor_meta inherits the anchor's
    # (shapes are equal by construction of a sound rewrite).
    if isinstance(out, Node) and "tensor_meta" not in out.meta:
        if "tensor_meta" in anchor.meta:
            out.meta["tensor_meta"] = anchor.meta["tensor_meta"]
            out.meta.setdefault("type", anchor.meta.get("type"))
        if provenance and not out.meta.get("stack_trace"):
            out.meta["stack_trace"] = provenance
