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
* :func:`any_module` is a pattern-only marker matching any ``call_module``
  node whose submodule is an instance of the given class(es); matching
  against module types requires passing the owning module's
  ``named_modules()`` dict to the matcher.
* Patterns may return a **tuple** — each element anchors one output node,
  so multi-output subgraphs (one producer feeding several consumers that
  all escape) can be matched and replaced as a unit.
* Per-placeholder **constraints** (name -> predicate over the bound
  value) veto a structural match, e.g. "this argument must be a literal
  identity permutation".

``replace_pattern`` propagates node metadata onto replacement nodes:
``tensor_meta``/``type`` are re-derived by evaluating the replacement on
values materialized from the bindings' recorded metadata (falling back to
copying the matched anchor's metadata), and ``stack_trace`` provenance is
inherited from the matched anchor, so shape-dependent passes (memory
planner, cost model, guards) keep working after a rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .graph import Graph
from .graph_module import GraphModule
from .node import Node, map_arg
from .tracer import symbolic_trace

__all__ = ["Match", "replace_pattern", "SubgraphMatcher", "any_module"]


def any_module(module_type, *args, **kwargs):
    """Pattern-only marker: matches any ``call_module`` node whose submodule
    is an instance of *module_type* (a class or tuple of classes), with
    *args*/*kwargs* matched against the call's arguments.

    Only meaningful inside a pattern graph; calling it at runtime is an
    error.
    """
    raise RuntimeError(
        "any_module is a pattern-only marker and cannot be executed; "
        "use it inside a pattern passed to SubgraphMatcher/replace_pattern"
    )


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
        anchor: the target-graph node matched to the pattern's (first)
            output value.
        nodes_map: pattern node -> target node (placeholders map to whatever
            value they bound, which may be a Node or an immediate).
        anchors: all matched output nodes, in pattern-output order
            (length 1 unless the pattern returns a tuple).
    """

    anchor: Node
    nodes_map: dict[Node, Any] = field(default_factory=dict)
    anchors: tuple[Node, ...] = ()

    def __post_init__(self):
        if not self.anchors:
            self.anchors = (self.anchor,)

    def internal_nodes(self) -> set[Node]:
        """The matched interior: every graph node a non-placeholder
        pattern node mapped to (includes the anchors)."""
        return {
            g for p, g in self.nodes_map.items()
            if isinstance(g, Node) and p.op != "placeholder"
        }


class SubgraphMatcher:
    """Anchored structural matcher for basic-block pattern graphs.

    Args:
        pattern: the pattern graph.  Its output may be a single Node or a
            tuple of Nodes (multi-output pattern).
        constraints: optional map from placeholder name (the traced
            parameter name) to a predicate over the bound value; a
            binding failing its predicate vetoes the match.
    """

    def __init__(self, pattern: Graph,
                 constraints: Optional[dict[str, Callable[[Any], bool]]] = None):
        self.pattern = pattern
        output = pattern.output_node
        out_arg = output.args[0]
        if isinstance(out_arg, (tuple, list)):
            if not out_arg or not all(isinstance(a, Node) for a in out_arg):
                raise ValueError(
                    "a multi-output pattern must return a non-empty tuple of "
                    "traced values"
                )
            self.pattern_anchors: list[Node] = list(out_arg)
        elif isinstance(out_arg, Node):
            self.pattern_anchors = [out_arg]
        else:
            raise ValueError("pattern output must be a Node or tuple of Nodes")
        # Back-compat alias: the primary anchor.
        self.pattern_anchor: Node = self.pattern_anchors[0]
        self.constraints = dict(constraints or {})
        known = {n.target for n in pattern.nodes if n.op == "placeholder"}
        unknown = set(self.constraints) - known
        if unknown:
            raise ValueError(
                f"constraints name unknown pattern placeholders: {sorted(unknown)}; "
                f"pattern has {sorted(known)}"
            )
        self.nodes_map: dict[Node, Any] = {}
        self._modules: Optional[dict[str, Any]] = None

    # -- matching ---------------------------------------------------------

    def matches_subgraph_from_anchor(self, anchor: Node,
                                     modules: Optional[dict[str, Any]] = None) -> bool:
        """Try to match the pattern with its (first) output anchored at
        *anchor*.  For multi-output patterns the remaining outputs are
        searched for among nodes of *anchor*'s graph."""
        self.nodes_map = {}
        self._modules = modules
        if not self._match_nodes(self.pattern_anchors[0], anchor):
            return False
        for extra in self.pattern_anchors[1:]:
            if not self._match_extra_anchor(extra, anchor.graph):
                return False
        return self._check_constraints()

    def _match_extra_anchor(self, pn: Node, graph: Graph) -> bool:
        """Anchor a secondary pattern output: try every compatible graph
        node, snapshotting bindings so a failed candidate rolls back."""
        bound = {g for g in self.nodes_map.values() if isinstance(g, Node)}
        for gn in graph.nodes:
            if gn in bound and self.nodes_map.get(pn) is not gn:
                # Another pattern node already claimed it (unless this very
                # anchor was reached through shared structure).
                if pn not in self.nodes_map:
                    continue
            saved = dict(self.nodes_map)
            if self._match_nodes(pn, gn):
                return True
            self.nodes_map = saved
        return False

    def _check_constraints(self) -> bool:
        if not self.constraints:
            return True
        for pn, bound in self.nodes_map.items():
            if pn.op != "placeholder":
                continue
            pred = self.constraints.get(pn.target)
            if pred is not None and not pred(bound):
                return False
        return True

    def _match_nodes(self, pn: Node, gn: Any) -> bool:
        if pn in self.nodes_map:
            return _binding_eq(self.nodes_map[pn], gn)
        if pn.op == "placeholder":
            # Wildcard: binds any value (Node or immediate), consistently.
            self.nodes_map[pn] = gn
            return True
        if not isinstance(gn, Node):
            return False
        if pn.op == "call_function" and pn.target is any_module:
            return self._match_any_module(pn, gn)
        if pn.op != gn.op or pn.target != gn.target:
            return False
        if len(pn.args) != len(gn.args) or set(pn.kwargs) != set(gn.kwargs):
            return False
        self.nodes_map[pn] = gn
        for pa, ga in zip(pn.args, gn.args):
            if not self._match_arg(pa, ga):
                return False
        for key in pn.kwargs:
            if not self._match_arg(pn.kwargs[key], gn.kwargs[key]):
                return False
        return True

    def _match_any_module(self, pn: Node, gn: Node) -> bool:
        if gn.op != "call_module":
            return False
        if self._modules is None:
            return False  # no module context: cannot certify the type
        mod = self._modules.get(gn.target)
        cls = pn.args[0]
        if mod is None or not isinstance(mod, cls):
            return False
        if len(pn.args) - 1 != len(gn.args) or set(pn.kwargs) != set(gn.kwargs):
            return False
        self.nodes_map[pn] = gn
        for pa, ga in zip(pn.args[1:], gn.args):
            if not self._match_arg(pa, ga):
                return False
        for key in pn.kwargs:
            if not self._match_arg(pn.kwargs[key], gn.kwargs[key]):
                return False
        return True

    def _match_arg(self, pa: Any, ga: Any) -> bool:
        if isinstance(pa, Node):
            return self._match_nodes(pa, ga)
        if isinstance(pa, (tuple, list)):
            if not isinstance(ga, (tuple, list)) or len(pa) != len(ga):
                return False
            return all(self._match_arg(p, g) for p, g in zip(pa, ga))
        if isinstance(ga, Node):
            return False  # immediate in pattern cannot match a computed value
        return _literal_eq(pa, ga)

    # -- match collection -------------------------------------------------

    def find_matches(self, graph: Graph,
                     modules: Optional[dict[str, Any]] = None,
                     *, overlap: str = "first") -> list[Match]:
        """Collect non-overlapping matches across *graph*.

        Overlapping candidates are arbitrated by *overlap*:

        * ``"first"`` — scan in topological order, first match claims its
          nodes (the historical ``replace_pattern`` behavior);
        * ``"largest"`` — prefer the candidate covering the most graph
          nodes (ties broken by topological order), so a nested smaller
          match cannot starve an enclosing bigger one.
        """
        if overlap not in ("first", "largest"):
            raise ValueError(f"unknown overlap policy {overlap!r}")
        topo = {n: i for i, n in enumerate(graph.nodes)}
        candidates: list[Match] = []
        for node in list(graph.nodes):
            if not self.matches_subgraph_from_anchor(node, modules):
                continue
            anchors = tuple(self.nodes_map[p] for p in self.pattern_anchors)
            m = Match(anchor=anchors[0], nodes_map=dict(self.nodes_map),
                      anchors=anchors)
            if not self._interior_is_private(m):
                continue
            if not self._bindings_dominate(m, topo):
                continue
            candidates.append(m)
            if overlap == "first":
                pass  # claiming handled below, in scan order
        if overlap == "largest":
            candidates.sort(
                key=lambda m: (-len(m.internal_nodes()), topo.get(m.anchor, -1)))
        accepted: list[Match] = []
        claimed: set[Node] = set()
        for m in candidates:
            internal = m.internal_nodes()
            if internal & claimed:
                continue
            accepted.append(m)
            claimed |= internal
        if overlap == "largest":
            accepted.sort(key=lambda m: topo.get(m.anchor, -1))
        # Drop per-scan state: matchers outlive scans (rules cache them at
        # module level), and leaving the last graph's bindings/modules dict
        # on the instance would pin that whole GraphModule in memory.
        self.nodes_map = {}
        self._modules = None
        return accepted

    def _interior_is_private(self, m: Match) -> bool:
        """Every user of a non-anchor internal node must itself be
        internal — otherwise deleting the interior would orphan an
        escaping value."""
        internal = m.internal_nodes()
        anchors = set(m.anchors)
        for g in internal:
            if g in anchors:
                continue
            if any(u not in internal for u in g.users):
                return False
        return True

    def _bindings_dominate(self, m: Match, topo: dict[Node, int]) -> bool:
        """Replacement nodes are inserted before the earliest anchor, so
        every Node binding must already be defined there.  Always true for
        single-output patterns (bindings are ancestors of the anchor);
        multi-output matches whose outputs straddle an input definition
        are rejected rather than miscompiled."""
        if len(m.anchors) == 1:
            return True
        first = min(topo.get(a, 0) for a in m.anchors)
        for p, g in m.nodes_map.items():
            if p.op == "placeholder" and isinstance(g, Node):
                if topo.get(g, -1) >= first:
                    return False
        return True


# -- application -----------------------------------------------------------


def replace_pattern(
    gm: GraphModule,
    pattern: Callable | Graph,
    replacement: Callable | Graph,
    *,
    constraints: Optional[dict[str, Callable[[Any], bool]]] = None,
    overlap: str = "first",
    propagate_meta: bool = True,
) -> list[Match]:
    """Replace every non-overlapping occurrence of *pattern* in ``gm.graph``
    with *replacement*.

    Pattern placeholders bind positionally to replacement placeholders.
    Matched nodes whose values escape the match (used by nodes outside it,
    other than through the anchors) are left untouched.

    Returns:
        The list of :class:`Match` objects that were rewritten.
    """
    pattern_graph = pattern if isinstance(pattern, Graph) else symbolic_trace(pattern).graph
    replacement_graph = (
        replacement if isinstance(replacement, Graph) else symbolic_trace(replacement).graph
    )
    matcher = SubgraphMatcher(pattern_graph, constraints=constraints)

    pattern_placeholders = [n for n in pattern_graph.nodes if n.op == "placeholder"]
    replacement_placeholders = [n for n in replacement_graph.nodes if n.op == "placeholder"]
    if len(pattern_placeholders) != len(replacement_placeholders):
        raise ValueError(
            "pattern and replacement must take the same number of arguments "
            f"({len(pattern_placeholders)} vs {len(replacement_placeholders)})"
        )
    _check_output_arity(matcher, replacement_graph)

    modules = dict(gm.named_modules())
    matches = matcher.find_matches(gm.graph, modules, overlap=overlap)

    # Earlier rewrites can replace a node that a later match's wildcard
    # bound (its anchor becomes the replacement's output); chase through.
    replaced: dict[Node, Any] = {}

    def resolve(value: Any) -> Any:
        while isinstance(value, Node) and value in replaced:
            value = replaced[value]
        return value

    for match in matches:
        apply_match(
            gm, match,
            pattern_placeholders=pattern_placeholders,
            replacement_graph=replacement_graph,
            resolve=resolve,
            replaced=replaced,
            propagate_meta=propagate_meta,
        )

    if matches:
        gm.graph.eliminate_dead_code()
        gm.recompile()
    return matches


def _check_output_arity(matcher: SubgraphMatcher, replacement_graph: Graph) -> None:
    out_arg = replacement_graph.output_node.args[0]
    n_rep = len(out_arg) if isinstance(out_arg, (tuple, list)) else 1
    if n_rep != len(matcher.pattern_anchors):
        raise ValueError(
            f"pattern produces {len(matcher.pattern_anchors)} output(s) but "
            f"replacement produces {n_rep}"
        )


def apply_match(
    gm: GraphModule,
    match: Match,
    *,
    pattern_placeholders: list[Node],
    replacement_graph: Graph,
    resolve: Callable[[Any], Any] | None = None,
    replaced: Optional[dict[Node, Any]] = None,
    propagate_meta: bool = True,
) -> list[Any]:
    """Rewrite one :class:`Match` in place: splice a copy of
    *replacement_graph* (placeholders seeded from the match's bindings,
    positionally) before the match, redirect each anchor's users to the
    corresponding replacement output, and erase the matched interior.

    Does not recompile; callers batch that.  Returns the replacement
    output values (one per anchor; each a Node or an immediate).
    """
    if resolve is None:
        resolve = lambda v: v  # noqa: E731 - trivial default
    replacement_placeholders = [
        n for n in replacement_graph.nodes if n.op == "placeholder"]
    val_map: dict[Node, Any] = {}
    for p_ph, r_ph in zip(pattern_placeholders, replacement_placeholders):
        val_map[r_ph] = resolve(match.nodes_map[p_ph])

    insert_at = _earliest(gm.graph, match.anchors)
    with gm.graph.inserting_before(insert_at):
        new_output = gm.graph.graph_copy(replacement_graph, val_map)

    outputs = list(new_output) if isinstance(new_output, (tuple, list)) else [new_output]
    if len(outputs) != len(match.anchors):
        raise ValueError(
            f"replacement produced {len(outputs)} output(s) for "
            f"{len(match.anchors)} anchor(s)"
        )

    if propagate_meta:
        _propagate_meta(gm, match, replacement_graph, val_map, outputs)

    for anchor, new_val in zip(match.anchors, outputs):
        if isinstance(new_val, Node):
            anchor.replace_all_uses_with(new_val)
        else:
            _replace_uses_with_literal(anchor, new_val)
        if replaced is not None:
            replaced[anchor] = new_val

    # Erase the matched interior, leaves-last.
    internal = match.internal_nodes()
    for g in sorted(internal, key=_topo_index(gm.graph), reverse=True):
        if not g.users:
            gm.graph.erase_node(g)
    return outputs


def _earliest(graph: Graph, anchors: tuple[Node, ...]) -> Node:
    if len(anchors) == 1:
        return anchors[0]
    topo = {n: i for i, n in enumerate(graph.nodes)}
    return min(anchors, key=lambda a: topo.get(a, 0))


def _replace_uses_with_literal(anchor: Node, value: Any) -> None:
    """An identity replacement can resolve to an immediate (the pattern
    bound a literal); splice the literal directly into each user."""
    for user in list(anchor.users):
        user.args = map_arg(user.args, lambda n: value if n is anchor else n)
        user.kwargs = map_arg(user.kwargs, lambda n: value if n is anchor else n)


def _topo_index(graph: Graph):
    order = {n: i for i, n in enumerate(graph.nodes)}
    return lambda n: order.get(n, -1)


# -- metadata propagation --------------------------------------------------


def _propagate_meta(gm: GraphModule, match: Match, replacement_graph: Graph,
                    val_map: dict[Node, Any], outputs: list[Any]) -> None:
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

    provenance = None
    for a in match.anchors:
        provenance = a.meta.get("stack_trace")
        if provenance:
            break

    created = [val_map[rn] for rn in replacement_graph.nodes   # operands first
               if rn.op not in ("placeholder", "output")
               and isinstance(val_map.get(rn), Node)]
    for new_node in created:
        if provenance and not new_node.meta.get("stack_trace"):
            new_node.meta["stack_trace"] = provenance
    infer_meta(gm, created)

    # Fallback: any output node still missing tensor_meta inherits its
    # anchor's (shapes are equal by construction of a sound rewrite).
    for anchor, out in zip(match.anchors, outputs):
        if isinstance(out, Node) and "tensor_meta" not in out.meta:
            if "tensor_meta" in anchor.meta:
                out.meta["tensor_meta"] = anchor.meta["tensor_meta"]
                out.meta.setdefault("type", anchor.meta.get("type"))
            if provenance and not out.meta.get("stack_trace"):
                out.meta["stack_trace"] = provenance
