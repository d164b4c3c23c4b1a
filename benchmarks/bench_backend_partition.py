"""Backend partitioning — dependency-aware vs linear-run splitting.

The paper's fx2trt splitter (§6.4) walks the graph in order and starts a
new partition every time operator support flips.  On models with side
branches (ResNet's downsample shortcuts), that cuts supported trunks into
many small engines even when the unsupported work hangs off a partition
*input* and never creates a dependency cycle.

``CapabilityPartitioner`` merges supported nodes along def-use edges with
an explicit cycle check instead, so a single unsupported side branch costs
zero extra partitions.  This bench measures, on ResNet-50 with pooling
declared unsupported:

  * partitions produced by each strategy (fewer = fewer engine launches);
  * cross-boundary tensor traffic — bytes that must materialize at a
    partition boundary instead of staying inside one engine.
"""

import pytest

import repro
from repro.bench import format_table
from repro.fx import symbolic_trace
from repro.fx.backends import CapabilityPartitioner
from repro.fx.passes.shape_prop import ShapeProp
from repro.models import resnet50

from conftest import bench_scale, write_results

POOLING = ("MaxPool2d", "AvgPool2d", "AdaptiveAvgPool2d")


def _pooling_unsupported(node, modules):
    if node.op == "call_module":
        return type(modules[node.target]).__name__ not in POOLING
    return True


def _linear_run_pids(gm, is_supported):
    """The splitter this repo shipped before the capability partitioner:
    one pass in graph order, new partition on every support flip, get_attr
    inheriting the previous node's side.  Re-derived here solely for
    comparison — the algorithm no longer exists in ``src/``."""
    pids, supported_pids = {}, set()
    pid, current = -1, None
    for node in gm.graph.nodes:
        if node.op in ("placeholder", "output"):
            continue
        if node.op == "get_attr":
            sup = current if current is not None else True
        else:
            sup = bool(is_supported(node))
        if current is None or sup != current:
            pid += 1
            current = sup
            if sup:
                supported_pids.add(pid)
        pids[node] = pid
    return pids, supported_pids


def _boundary_traffic(gm, unit_of):
    """Bytes materialized at partition boundaries: a node's output counts
    once if any user lives in a different unit (``None`` = top graph)."""
    total = 0
    for node in gm.graph.nodes:
        meta = node.meta.get("tensor_meta")
        if meta is None or not hasattr(meta, "nbytes"):
            continue
        src = unit_of.get(node)
        if any(unit_of.get(u, "top") != src for u in node.users):
            total += meta.nbytes
    return total


@pytest.fixture(scope="module")
def annotated_resnet50():
    repro.manual_seed(0)
    model = resnet50(num_classes=10).eval()
    x = repro.randn(1, 3, 64, 64) if bench_scale() != "paper" else \
        repro.randn(8, 3, 224, 224)
    gm = symbolic_trace(model)
    ShapeProp(gm).propagate(x)
    return model, gm, x


def test_partition_quality(benchmark, annotated_resnet50):
    model, gm, x = annotated_resnet50
    modules = dict(gm.named_modules())
    sup = lambda n: _pooling_unsupported(n, modules)

    def compare():
        # old: full-cover — every unsupported run becomes an eager
        # submodule, so total submodules = supported + unsupported runs
        lin_pids, lin_sup = _linear_run_pids(gm, sup)
        lin_total = len(set(lin_pids.values()))
        # new: fallback nodes are inlined in the top graph — submodules
        # are exactly the supported partitions
        plan = CapabilityPartitioner(
            _pooling_unsupported, mask_effects=False).partition(gm)
        cap_pids = {n: p for n, p in plan.node_pid.items()}
        return {
            "linear": (len(lin_sup), lin_total,
                       _boundary_traffic(gm, lin_pids)),
            "capability": (len(plan.partitions), len(plan.partitions),
                           _boundary_traffic(gm, cap_pids)),
        }

    stats = benchmark.pedantic(compare, rounds=1, iterations=1)
    (lin_sup_n, lin_total, lin_bytes) = stats["linear"]
    (cap_sup_n, cap_total, cap_bytes) = stats["capability"]
    rows = [
        ["linear-run (old split_by_support)", lin_sup_n, lin_total,
         lin_bytes / 1e6],
        ["dependency-aware (CapabilityPartitioner)", cap_sup_n, cap_total,
         cap_bytes / 1e6],
    ]
    table = format_table(
        ["strategy", "compiled partitions", "total submodules",
         "boundary traffic (MB)"],
        rows,
        title="ResNet-50, pooling unsupported — partitioning strategies",
    )
    # the acceptance claim: strictly fewer partitions, no more traffic
    assert cap_total < lin_total
    assert cap_sup_n <= lin_sup_n
    assert cap_bytes <= lin_bytes
    write_results("backend_partition", table)
