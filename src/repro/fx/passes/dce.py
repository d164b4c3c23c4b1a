"""Dead code elimination as a standalone pass.

Thin wrapper around :meth:`Graph.eliminate_dead_code` that also recompiles
and reports, so it composes in pass pipelines (e.g. the ``"trt"``
backend's pass list in :mod:`repro.trt.backend`).  Purity comes from the
shared :mod:`repro.fx.analysis.purity` analysis, computed once per graph
rather than re-classified per node.
"""

from __future__ import annotations

from ..analysis.purity import purity
from ..graph_module import GraphModule

__all__ = ["eliminate_dead_code"]


def eliminate_dead_code(gm: GraphModule) -> int:
    """Remove unused nodes from ``gm.graph``; returns how many were removed."""
    before = len(gm.graph)
    changed = gm.graph.eliminate_dead_code(purity(gm).is_impure)
    if changed:
        gm.recompile()
    return before - len(gm.graph)
