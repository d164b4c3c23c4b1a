"""Dependency-aware capability partitioning (the fx2trt pattern, done right).

Given a support predicate, carve the graph into the *fewest* fully-supported
partitions a backend can compile, growing each partition over the def-use
DAG instead of over the node list.  A linear splitter starts a new
partition whenever support flips along the node order, so a single
unsupported side branch — a downsample conv, a shape query — severs one
supported region into two.  Here a merge is rejected only when it *must*
be: when fusing two partitions would put them on a dependency cycle
through some third unit (partition or unassigned node), which is the one
case where no valid execution order of the split module exists.

Legality beyond topology comes from the PR-4 analyses: for backends that
do not replay mutation faithfully (``Backend.respects_effects`` false),
nodes that mutate (``Effect.MUTATES_ARG`` / ``MUTATES_STATE``) — and every
node whose value may share storage with a mutated value, found by closing
over :func:`~repro.fx.analysis.may_alias_input` edges — are masked out of
all partitions, so an effect never crosses a compile boundary illegally.

``get_attr`` nodes are support-*neutral*: they are free state reads with
no inputs, so they join a partition only when every consumer lives in that
one partition, and stay outside otherwise.  (Inheriting support from the
*preceding* node instead lets a leading weight read before an unsupported
first op produce a compute-free "supported" partition and an empty engine
build.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ...nn import Module
from ..analysis import may_alias_input, purity
from ..graph_module import GraphModule
from ..node import Node

__all__ = ["CapabilityPartitioner", "PartitionPlan", "effect_mask"]

_SKIP_OPS = ("placeholder", "output")


@dataclass
class PartitionPlan:
    """Outcome of :meth:`CapabilityPartitioner.partition`.

    Attributes:
        node_pid: assigned node -> partition id.  Ids are dense, assigned
            by first encounter in graph (topological) order.
        partitions: partition id -> its nodes in graph order.
        unassigned: compute/``get_attr`` nodes in no partition (graph
            order) — unsupported nodes, effect-masked nodes, and
            ``get_attr`` nodes whose consumers span partitions.
        unsupported: nodes the support predicate rejected (graph order);
            the names :class:`~repro.fx.backends.UnsupportedNodesError`
            reports.
        masked: nodes fenced out by the effect/alias mask (graph order).
    """

    node_pid: Dict[Node, int] = field(default_factory=dict)
    partitions: Dict[int, List[Node]] = field(default_factory=dict)
    unassigned: List[Node] = field(default_factory=list)
    unsupported: List[Node] = field(default_factory=list)
    masked: List[Node] = field(default_factory=list)

    @property
    def fully_supported(self) -> bool:
        """No compute node left outside a partition."""
        return not self.unassigned

    def __repr__(self) -> str:
        parts = {pid: [n.name for n in ns] for pid, ns in self.partitions.items()}
        return (f"PartitionPlan(partitions={parts}, "
                f"unassigned={[n.name for n in self.unassigned]})")


def effect_mask(gm: GraphModule) -> set:
    """Nodes that must stay out of compiled partitions for a backend that
    does not preserve in-place semantics.

    The mask is the set of mutating nodes plus the storage closure of
    every mutated value: values are grouped by union-find over
    :func:`may_alias_input` edges (a view shares its inputs' storage), and
    any group containing a mutated value poisons all of its members —
    compiling a view whose underlying storage is written elsewhere, or
    compiling the write itself, would silently decouple the two.
    """
    effects = purity(gm).effects
    nodes = [n for n in gm.graph.nodes]

    parent: Dict[Node, Node] = {n: n for n in nodes}

    def find(x: Node) -> Node:
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: Node, b: Node) -> None:
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[rb] = ra

    for n in nodes:
        if n.op in _SKIP_OPS:
            continue
        if may_alias_input(n, gm):
            for inp in n.all_input_nodes:
                union(n, inp)

    mask: set = set()
    poisoned_roots: set = set()
    for n in nodes:
        if n.op in _SKIP_OPS:
            continue
        if effects[n].mutating:
            mask.add(n)
            for inp in n.all_input_nodes:
                poisoned_roots.add(find(inp))
            poisoned_roots.add(find(n))
    if poisoned_roots:
        for n in nodes:
            if n.op not in _SKIP_OPS and find(n) in poisoned_roots:
                mask.add(n)
    return mask


class CapabilityPartitioner:
    """Grow maximal backend-supported subgraphs over the def-use DAG.

    Args:
        is_supported: ``(node, modules) -> bool`` — can the backend
            execute this node?  Never called for ``placeholder`` /
            ``output`` / ``get_attr`` nodes.
        mask_effects: fence mutating/aliasing nodes out of partitions
            (see :func:`effect_mask`).  Turn off only for backends that
            replay effects exactly (``Backend.respects_effects``).

    The algorithm is union-find over supported nodes.  Def-use edges are
    visited in graph order (deterministic), and each tentative merge is
    checked against the current *unit graph* — units are partitions plus
    every node outside one — for a path between the two partitions through
    an intermediate unit.  Such a path means merging would create a
    partition cycle (no topological order of submodule calls exists), so
    the merge is skipped; everything else merges greedily, which yields
    maximal partitions because merge legality is monotone: a merge
    rejected now only became illegal through merges that were themselves
    legal.
    """

    def __init__(
        self,
        is_supported: Callable[[Node, Dict[str, Module]], bool],
        *,
        mask_effects: bool = True,
    ):
        self.is_supported = is_supported
        self.mask_effects = mask_effects

    def partition(self, gm: GraphModule) -> PartitionPlan:
        graph = gm.graph
        modules = dict(gm.named_modules())
        nodes = [n for n in graph.nodes if n.op not in _SKIP_OPS]
        compute = [n for n in nodes if n.op != "get_attr"]

        masked = effect_mask(gm) if self.mask_effects else set()
        unsupported = [n for n in compute
                       if not bool(self.is_supported(n, modules))]
        unsupported_set = set(unsupported)
        supported = [n for n in compute
                     if n not in unsupported_set and n not in masked]

        # Union-find state.  ``members`` is kept per root so the unit
        # graph can be re-derived from node-level def-use edges on demand.
        parent: Dict[Node, Node] = {n: n for n in supported}
        members: Dict[Node, List[Node]] = {n: [n] for n in supported}

        def find(x: Node) -> Node:
            while parent[x] is not x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def unit(n: Node):
            return find(n) if n in parent else n

        def unit_succs(u) -> set:
            succs = set()
            for n in members.get(u) or (u,):
                for user in n.users:
                    if user.op == "output":
                        continue
                    v = unit(user)
                    if v is not u:
                        succs.add(v)
            return succs

        def reaches_via_intermediate(src, dst) -> bool:
            # Is there a path src -> X -> ... -> dst with X not in
            # {src, dst}?  The direct edge src->dst is internal dataflow
            # after a merge; only a detour through another unit cycles.
            stack = [v for v in unit_succs(src) if v is not dst]
            seen = set(stack)
            while stack:
                u = stack.pop()
                for v in unit_succs(u):
                    if v is dst:
                        return True
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            return False

        # Merge along def-use edges, consumers in graph order.  With every
        # compute node supported no merge can cycle: a detour between two
        # units holding only nodes up to ``consumer`` passes earlier nodes
        # alone; no get_attr or placeholder (they have no inputs), and no
        # third partition, since every earlier consumer joined its producers.
        may_cycle = bool(unsupported or masked)
        for consumer in supported:
            for producer in consumer.all_input_nodes:
                if producer not in parent:
                    continue
                ra, rb = find(producer), find(consumer)
                if ra is rb or may_cycle and (
                        reaches_via_intermediate(ra, rb)
                        or reaches_via_intermediate(rb, ra)):
                    continue
                parent[rb] = ra
                members[ra].extend(members.pop(rb))

        # get_attr nodes join a partition only when every consumer lives
        # in that one partition; otherwise the split threads them through
        # as ordinary inputs.
        for n in nodes:
            if n.op != "get_attr" or not n.users:
                continue
            roots = set()
            for user in n.users:
                if user.op == "output" or user not in parent:
                    roots.clear()
                    break
                roots.add(find(user))
            if len(roots) == 1:
                root = roots.pop()
                parent[n] = root
                members[root].append(n)

        # Dense pids by first encounter in graph order.
        plan = PartitionPlan(unsupported=list(unsupported),
                             masked=[n for n in nodes if n in masked])
        pid_by_root: Dict[Node, int] = {}
        for n in nodes:
            if n in parent:
                root = find(n)
                pid = pid_by_root.setdefault(root, len(pid_by_root))
                plan.node_pid[n] = pid
                plan.partitions.setdefault(pid, []).append(n)
            else:
                plan.unassigned.append(n)
        return plan
