"""Analytical cost model (§6.3): FLOPs, memory traffic and value sizes.

The paper describes an internal "framework for simulation of deep learning
inference at scale on various hardware devices" built on torch.fx, which
estimates FLOPs, memory-bandwidth usage, and data value sizes to predict
runtime and memory consumption.  This module is that system rebuilt:

* :func:`estimate` propagates shapes (inferred: the model is not run) and
  produces a :class:`CostReport` with per-node :class:`NodeCost` rows priced
  from the op table (:mod:`repro.fx.opinfo`) — cost is a property of the
  logical op, so every spelling of it, and a fused region and the sum of its
  steps, cost the same;
* :class:`DeviceModel` turns a report into predicted runtime via a
  roofline model (compute-bound vs bandwidth-bound, plus per-op dispatch
  overhead) — the knob that lets one "iterate in simulation rather than on
  real devices".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import opinfo
from ..graph_module import GraphModule
from ..node import Node
from .shape_prop import ShapeProp, TensorMetadata, carried_meta

__all__ = ["NodeCost", "CostReport", "DeviceModel", "estimate", "CPU_MODEL", "GPU_MODEL", "ASIC_MODEL"]


@dataclass
class NodeCost:
    """Estimated cost of a single node."""

    node_name: str
    op: str
    target: str
    flops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    param_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written + self.param_bytes


@dataclass
class CostReport:
    """Aggregate cost estimate for one graph execution."""

    rows: list[NodeCost] = field(default_factory=list)

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    @property
    def total_bytes(self) -> int:
        return sum(r.total_bytes for r in self.rows)

    @property
    def peak_value_bytes(self) -> int:
        return max((r.bytes_written for r in self.rows), default=0)

    def by_node(self) -> dict[str, NodeCost]:
        return {r.node_name: r for r in self.rows}

    def summary(self) -> str:
        return (
            f"{len(self.rows)} ops, {self.total_flops / 1e9:.3f} GFLOPs, "
            f"{self.total_bytes / 1e6:.2f} MB traffic"
        )


@dataclass(frozen=True)
class DeviceModel:
    """A simulated device: roofline throughput + per-op dispatch overhead.

    Attributes:
        name: label for reports.
        flops_per_second: peak compute throughput.
        bytes_per_second: peak memory bandwidth.
        overhead_per_op: fixed dispatch/launch cost per node.
    """

    name: str
    flops_per_second: float
    bytes_per_second: float
    overhead_per_op: float

    def node_time(self, cost: NodeCost) -> float:
        compute = cost.flops / self.flops_per_second
        memory = cost.total_bytes / self.bytes_per_second
        return max(compute, memory) + self.overhead_per_op

    def predict_runtime(self, report: CostReport) -> float:
        """Predicted end-to-end latency in seconds (serial execution)."""
        return sum(self.node_time(r) for r in report.rows)

    @classmethod
    def calibrate(cls, samples, *, name: str = "calibrated") -> "DeviceModel":
        """Fit roofline constants from timed microbenchmarks.

        Args:
            samples: iterable of ``(CostReport, measured_seconds)`` pairs —
                a handful of programs whose wall time was measured on the
                device being modelled.
            name: label for the fitted model.

        Fits ``time ≈ flops/F + bytes/B + n_ops·c`` by non-negative least
        squares (the additive roofline — a smooth upper bound of the
        ``max(compute, memory)`` form that a linear fit can recover) and
        returns a :class:`DeviceModel` with the recovered ``F`` (flops/s),
        ``B`` (bytes/s) and per-op dispatch overhead ``c``.  Coefficients
        that come back non-positive (a workload family that never
        exercises that axis) fall back to "effectively infinite"
        throughput / zero overhead, so predictions stay finite and the
        fitted axes still rank programs correctly.
        """
        rows = []
        times = []
        for report, seconds in samples:
            rows.append((float(report.total_flops), float(report.total_bytes),
                         float(len(report.rows))))
            times.append(float(seconds))
        if len(rows) < 2:
            raise ValueError("calibrate needs at least two timed samples")
        a = np.asarray(rows, dtype=np.float64)
        t = np.asarray(times, dtype=np.float64)
        # Column scaling keeps the normal equations well-conditioned
        # (flops ~1e9, n_ops ~1e1 otherwise differ by 8 orders).
        scale = a.max(axis=0)
        scale[scale == 0.0] = 1.0
        coef, *_ = np.linalg.lstsq(a / scale, t, rcond=None)
        coef = coef / scale
        # Project onto the feasible region: re-fit with negative axes
        # removed so the surviving coefficients absorb their share.
        for _ in range(2):
            bad = coef <= 0.0
            if not bad.any():
                break
            keep = ~bad
            if not keep.any():
                coef = np.zeros(3)
                break
            sub = a[:, keep] / scale[keep]
            sub_coef, *_ = np.linalg.lstsq(sub, t, rcond=None)
            coef = np.zeros(3)
            coef[keep] = sub_coef / scale[keep]
        inv_f, inv_b, overhead = (float(c) for c in coef)
        return cls(
            name=name,
            flops_per_second=1.0 / inv_f if inv_f > 0 else 1e18,
            bytes_per_second=1.0 / inv_b if inv_b > 0 else 1e18,
            overhead_per_op=max(overhead, 0.0),
        )


# Representative device points (orders of magnitude matter, not exact specs).
CPU_MODEL = DeviceModel("server-cpu", flops_per_second=2e11, bytes_per_second=8e10,
                        overhead_per_op=2e-6)
GPU_MODEL = DeviceModel("datacenter-gpu", flops_per_second=1.4e13, bytes_per_second=9e11,
                        overhead_per_op=8e-6)
ASIC_MODEL = DeviceModel("inference-asic", flops_per_second=4e13, bytes_per_second=6e11,
                         overhead_per_op=1e-6)


_INTS = opinfo.Domain()


def _nbytes(meta: Any) -> int:
    """Bytes of every tensor in a (nested) ``tensor_meta``."""
    if isinstance(meta, TensorMetadata):
        return meta.nbytes
    if isinstance(meta, (tuple, list)):
        return sum(_nbytes(m) for m in meta)
    return 0


def _flops(gm: GraphModule, node: Node, numel: int) -> int:
    """What the op table charges for *node*: cost is a property of the
    logical op, so every spelling of it, and a fused region and the sum of
    its steps, read the same entry.  A target without an entry is charged
    one flop per output element."""
    try:
        entry, args, kwargs = opinfo.bind(gm, node, carried_meta, _INTS)
        if entry is None:       # arithmetic on shape values, a nested GraphModule
            return 0
        if not callable(entry.flops):
            return entry.flops * numel
        return entry.flops(numel, *args, **kwargs)
    except (opinfo.NoRule, TypeError, IndexError):
        return numel


def estimate(gm: GraphModule, *example_inputs) -> CostReport:
    """Estimate per-node and total cost for one forward pass.

    Propagates shapes from the example inputs first
    (:class:`~repro.fx.passes.shape_prop.ShapeProp`: inferred, the model
    is not run), then prices every call node from the op table
    (:mod:`repro.fx.opinfo`).
    """
    ShapeProp(gm).propagate(*example_inputs)
    report = CostReport()
    for node in gm.graph.nodes:
        if node.op in ("placeholder", "output", "get_attr"):
            continue
        out = node.meta.get("tensor_meta")
        first = out[0] if isinstance(out, (tuple, list)) and out else out
        cost = NodeCost(
            node_name=node.name,
            op=node.op,
            target=str(node._pretty_print_target()),
            bytes_read=sum(_nbytes(n.meta.get("tensor_meta"))
                           for n in node.all_input_nodes),
            bytes_written=_nbytes(out),
        )
        if isinstance(first, TensorMetadata):
            cost.flops = _flops(gm, node, first.numel)
        if node.op == "call_module":
            mod = gm.get_submodule(node.target)
            cost.param_bytes = sum(t.nbytes() for t in (*mod.parameters(), *mod.buffers()))
        report.rows.append(cost)
    return report
