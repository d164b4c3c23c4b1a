"""Graph partitioning: ``split_module`` (substrate for §6.2.3 and §6.4).

Splits a GraphModule into a top-level module that calls a sequence of
partition submodules (``submod_0``, ``submod_1``, …), with cross-partition
values threaded through explicitly.  The assignment of nodes to partitions
is a user callback, which is how the pipeline scheduler
(:mod:`repro.fx.passes.scheduler`) and the backend lowering path
(:mod:`repro.fx.backends`, operator-support partitioning included) express
their policies.

The callback may also return ``None`` for a node, meaning *leave it
inline*: the node is emitted directly into the top-level graph, interleaved
with the partition calls in dependency order.  This is how
``to_backend``'s default stitching keeps unsupported fallback nodes from
costing a partition each — a single unsupported side branch stays a single
top-level node between two submodule calls.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from ...nn import Module
from ..graph import Graph
from ..graph_module import GraphModule
from ..node import Node, map_arg

__all__ = ["split_module", "Partition"]


class Partition:
    """One partition's bookkeeping during the split."""

    def __init__(self, pid: int):
        self.pid = pid
        self.nodes: list[Node] = []
        self.inputs: dict[Node, None] = {}   # values read from outside
        self.outputs: dict[Node, None] = {}  # values read by outside
        self.depends_on: set[int] = set()

    def __repr__(self) -> str:
        return (
            f"Partition(pid={self.pid}, nodes={[n.name for n in self.nodes]}, "
            f"inputs={[n.name for n in self.inputs]}, "
            f"outputs={[n.name for n in self.outputs]})"
        )


def _resolve_attr(root: Module, target: str):
    cursor = root
    for atom in target.split("."):
        cursor = getattr(cursor, atom)
    return cursor


def split_module(
    m: GraphModule,
    split_callback: Callable[[Node], Optional[int]],
) -> GraphModule:
    """Split *m* into partition submodules chosen by *split_callback*.

    Args:
        m: the module to split.
        split_callback: maps each non-placeholder/non-output node to an
            integer partition id, or ``None`` to leave the node inline in
            the top-level graph.  The induced dependency graph over
            partitions and inline nodes must be acyclic (a cycle means
            the callback interleaved two partitions; an error is raised).

    Returns:
        A new GraphModule whose graph is
        ``placeholders -> (submod calls | inline nodes, in dependency
        order) -> output``, with each ``submod_<pid>`` a GraphModule
        holding that partition's nodes (and the state they reference).
    """
    partitions: dict[int, Partition] = {}
    node_part: dict[Node, int] = {}
    inline_nodes: list[Node] = []
    for node in m.graph.nodes:
        if node.op in ("placeholder", "output"):
            continue
        pid = split_callback(node)
        if pid is None:
            inline_nodes.append(node)
            continue
        pid = int(pid)
        part = partitions.setdefault(pid, Partition(pid))
        part.nodes.append(node)
        node_part[node] = pid

    # Wire inputs/outputs/dependencies.  Inline nodes and the output node
    # both read partition values "from outside" (marking them partition
    # outputs); partitions read placeholder/inline/foreign values as
    # partition inputs.
    for node in m.graph.nodes:
        if node.op == "placeholder":
            continue
        consumer_pid = node_part.get(node)  # None for output/inline nodes
        for inp in node.all_input_nodes:
            producer_pid = node_part.get(inp)
            if consumer_pid is not None and producer_pid == consumer_pid:
                continue
            if consumer_pid is not None:
                partitions[consumer_pid].inputs.setdefault(inp)
                if producer_pid is not None:
                    partitions[consumer_pid].depends_on.add(producer_pid)
            if producer_pid is not None:
                partitions[producer_pid].outputs.setdefault(inp)

    order = _topo_sort_units(m, partitions, node_part, inline_nodes)

    # Build each partition's graph and module.
    submodules: dict[str, GraphModule] = {}
    for unit in order:
        if isinstance(unit, Node):
            continue
        part = partitions[unit]
        g = Graph()
        env: dict[Node, Node] = {}
        for inp in part.inputs:
            env[inp] = g.placeholder(inp.name)
        for node in part.nodes:
            env[node] = g.node_copy(node, lambda n: env[n])
        outs = list(part.outputs)
        if len(outs) == 1:
            g.output(env[outs[0]])
        else:
            g.output(tuple(env[o] for o in outs))
        submodules[f"submod_{unit}"] = GraphModule(m, g, class_name=f"submod_{unit}")

    # Root attributes for the top-level module: the partition submodules
    # plus whatever state inline call_module/get_attr nodes still touch.
    root: dict[str, object] = dict(submodules)
    for node in inline_nodes:
        if node.op in ("call_module", "get_attr") and node.target not in root:
            root[node.target] = _resolve_attr(m, node.target)

    # Build the top-level graph: placeholders, then partition calls and
    # inline nodes interleaved in dependency order, then the output.
    top = Graph()
    env: dict[Node, Node] = {}
    for node in m.graph.nodes:
        if node.op == "placeholder":
            default = node.args[0] if node.args else ...
            env[node] = top.placeholder(node.target, default_value=default)
    for unit in order:
        if isinstance(unit, Node):
            env[unit] = top.node_copy(unit, lambda n: env[n])
            continue
        part = partitions[unit]
        args = tuple(env[inp] for inp in part.inputs)
        call = top.call_module(f"submod_{unit}", args)
        outs = list(part.outputs)
        if len(outs) == 1:
            env[outs[0]] = call
        else:
            for i, o in enumerate(outs):
                env[o] = top.call_function(operator.getitem, (call, i))
    orig_output = m.graph.output_node
    top.output(map_arg(orig_output.args[0], lambda n: env[n]))

    return GraphModule(root, top, class_name=f"split_{m._class_name}")


def _topo_sort_units(
    m: GraphModule,
    partitions: dict[int, Partition],
    node_part: dict[Node, int],
    inline_nodes: list[Node],
) -> list:
    """Order partitions (by pid) and inline nodes (by Node) so every unit
    is emitted after everything it reads.  Deterministic: among ready
    units, the one containing the earliest original node goes first, which
    reproduces the original graph order whenever that order is legal."""
    index = {n: i for i, n in enumerate(m.graph.nodes)}
    inline_set = set(inline_nodes)

    def unit_of(n: Node):
        pid = node_part.get(n)
        if pid is not None:
            return pid
        return n if n in inline_set else None  # None: placeholder

    units: list = sorted(partitions) + inline_nodes
    deps: dict[object, set] = {u: set() for u in units}
    rdeps: dict[object, set] = {u: set() for u in units}
    for node in m.graph.nodes:
        u = unit_of(node)
        if u is None:
            continue
        for inp in node.all_input_nodes:
            v = unit_of(inp)
            if v is None or v == u:
                continue
            deps[u].add(v)
            rdeps[v].add(u)

    min_index = {u: (index[u] if isinstance(u, Node)
                     else min(index[n] for n in partitions[u].nodes))
                 for u in units}
    import heapq

    uid = {u: i for i, u in enumerate(units)}  # unique tiebreak: units
    ready = [(min_index[u], uid[u], u) for u in units if not deps[u]]
    heapq.heapify(ready)
    pending = {u: len(deps[u]) for u in units}
    order: list = []
    while ready:
        _, _, u = heapq.heappop(ready)
        order.append(u)
        for v in rdeps[u]:
            pending[v] -= 1
            if pending[v] == 0:
                heapq.heappush(ready, (min_index[v], uid[v], v))
    if len(order) != len(units):
        stuck = [u for u in units if pending[u] > 0]
        names = ", ".join(
            (u.name if isinstance(u, Node) else f"partition {u}")
            for u in stuck[:4])
        raise RuntimeError(
            f"partition dependency cycle involving {names}; the "
            "split_callback interleaves partitions — assign contiguous "
            "regions instead"
        )
    return order
