"""Program scheduling and partitioning (§6.2.3).

The paper describes software pipelining on torch.fx graphs: overlapping
synchronous host work with asynchronous device work (or local work with
RPC to a remote host).  This module rebuilds that capability as an explicit
simulator:

* assign each node to a *resource* (e.g. ``"cpu"`` / ``"gpu"``, or
  ``"local"`` / ``"remote"``) with a user callback;
* cost each node with a :class:`~repro.fx.passes.cost_model.DeviceModel`
  per resource, plus a transfer cost for cross-resource edges;
* compute the **serial** makespan (no overlap — every op waits) and the
  **pipelined** makespan (list scheduling: each resource executes its
  ready nodes concurrently with the others).

The ratio of the two is the speedup software pipelining buys, and the
resulting :class:`Schedule` carries a per-resource timeline for
inspection.  Combined with :func:`~repro.fx.passes.split_module.split_module`
(using the same assignment as the split callback) this turns the analysis
into an executable partitioning.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from ..graph_module import GraphModule
from ..node import Node
from .cost_model import CostReport, DeviceModel, estimate

__all__ = ["ScheduledOp", "Schedule", "pipeline_schedule"]


@dataclass
class ScheduledOp:
    """One node's placement in the timeline."""

    node_name: str
    resource: str
    start: float
    end: float


@dataclass
class Schedule:
    """Result of a pipelining simulation.

    Attributes:
        ops: the timeline, sorted by start time.
        makespan: end-to-end latency with overlap.
        serial_time: latency if every op ran back-to-back with no overlap.
    """

    ops: list[ScheduledOp] = field(default_factory=list)
    makespan: float = 0.0
    serial_time: float = 0.0

    @property
    def speedup(self) -> float:
        return self.serial_time / self.makespan if self.makespan > 0 else 1.0

    def timeline(self, resource: str) -> list[ScheduledOp]:
        return [op for op in self.ops if op.resource == resource]

    def utilization(self, resource: str) -> float:
        busy = sum(op.end - op.start for op in self.timeline(resource))
        return busy / self.makespan if self.makespan > 0 else 0.0

    @property
    def bubble_fraction(self) -> float:
        """Fraction of resource-time spent idle: ``1 - busy/(R·makespan)``.

        Zero means every resource worked the whole makespan (a perfectly
        balanced pipeline in steady state); values near one mean the
        schedule is serial in disguise.
        """
        resources = {op.resource for op in self.ops}
        if not resources or self.makespan <= 0:
            return 0.0
        busy = sum(op.end - op.start for op in self.ops)
        return 1.0 - busy / (len(resources) * self.makespan)


def pipeline_schedule(
    gm: GraphModule,
    *example_inputs,
    assign: Callable[[Node], str],
    devices: dict[str, DeviceModel],
    transfer_bytes_per_second: float = 1e10,
    transfer_latency: float = 5e-6,
) -> Schedule:
    """Simulate overlapped execution of ``gm`` across named resources.

    Args:
        gm: the (traced) module.
        example_inputs: inputs used for shape propagation / costing.
        assign: node -> resource name.
        devices: resource name -> :class:`DeviceModel`.
        transfer_bytes_per_second: cross-resource link bandwidth.
        transfer_latency: fixed per-transfer latency (RPC/launch cost).

    Returns:
        A :class:`Schedule` with both serial and pipelined makespans.
    """
    report: CostReport = estimate(gm, *example_inputs)
    costs = report.by_node()

    placement: dict[Node, str] = {}
    node_time: dict[Node, float] = {}
    compute_nodes: list[Node] = []
    for node in gm.graph.nodes:
        if node.op in ("placeholder", "output", "get_attr"):
            continue
        res = assign(node)
        if res not in devices:
            raise KeyError(f"node {node.name!r} assigned to unknown resource {res!r}")
        placement[node] = res
        node_time[node] = devices[res].node_time(costs[node.name])
        compute_nodes.append(node)

    def transfer_time(src: Node, dst: Node) -> float:
        if placement.get(src) is None or placement[src] == placement[dst]:
            return 0.0
        tm = costs.get(src.name)
        nbytes = tm.bytes_written if tm else 0
        return transfer_latency + nbytes / transfer_bytes_per_second

    # Serial baseline: every node runs alone; transfers serialize too.
    serial = 0.0
    for node in compute_nodes:
        serial += node_time[node]
        for inp in node.all_input_nodes:
            if inp in placement:
                serial += transfer_time(inp, node)

    # List scheduling: event-driven simulation with one queue per resource.
    indegree: dict[Node, int] = {}
    for node in compute_nodes:
        indegree[node] = sum(1 for i in node.all_input_nodes if i in placement)
    finish: dict[Node, float] = {}
    resource_free: dict[str, float] = {r: 0.0 for r in devices}
    ready: list[tuple[int, Node]] = []
    topo_index = {n: i for i, n in enumerate(compute_nodes)}
    for node in compute_nodes:
        if indegree[node] == 0:
            heapq.heappush(ready, (topo_index[node], node))

    ops: list[ScheduledOp] = []
    scheduled = 0
    while ready:
        _, node = heapq.heappop(ready)
        res = placement[node]
        data_ready = 0.0
        for inp in node.all_input_nodes:
            if inp in placement:
                data_ready = max(data_ready, finish[inp] + transfer_time(inp, node))
        start = max(resource_free[res], data_ready)
        end = start + node_time[node]
        resource_free[res] = end
        finish[node] = end
        ops.append(ScheduledOp(node.name, res, start, end))
        scheduled += 1
        for user in node.users:
            if user in indegree:
                indegree[user] -= 1
                if indegree[user] == 0:
                    heapq.heappush(ready, (topo_index[user], user))

    if scheduled != len(compute_nodes):
        raise RuntimeError("scheduling did not cover all nodes (dependency cycle?)")

    ops.sort(key=lambda s: (s.start, s.node_name))
    makespan = max((op.end for op in ops), default=0.0)
    return Schedule(ops=ops, makespan=makespan, serial_time=serial)

