"""Dtype-promotion analysis: find silent ``float64`` upcasts.

The numpy substrate promotes aggressively: a Python ``float`` scalar is
``float64``, ``np.mean`` of an integer array is ``float64``, and one
careless constant can silently double the memory traffic and halve the
throughput of everything downstream.  (The paper's §6 perf numbers all
assume ``float32`` end-to-end.)

This is a *forward* dataflow analysis over the dtype lattice, one sweep
of the shared engine: each node's abstract dtype is the one observed by
shape propagation when ``meta['tensor_meta']`` is present, else the numpy
promotion of its input dtypes.  A node whose observed dtype is
``float64`` while every known input dtype is narrower is reported as a
silent upcast — unless the node is an *explicit* cast (a key in the op
table's ``CASTS``: ``.to`` / ``.double`` / ...), which states intent.

Requires shape metadata to say anything definite; graphs without
``ShapeProp`` metadata produce no reports (never false positives).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import opinfo
from ..graph_module import GraphModule
from ..node import Node
from ..passes.shape_prop import TensorMetadata
from .engine import Analysis, AnalysisContext, register_analysis, sweep

__all__ = ["DtypePromotionAnalysis", "DtypeResult", "UpcastRecord"]


@functools.lru_cache(maxsize=64)
def _numpy_name(dtype) -> str:
    """numpy's name for a :class:`~repro.tensor.DType`, memoised: numpy
    builds the string afresh on every read, and this module reads it
    several times per node per run."""
    return np.dtype(dtype.np_dtype).name


def _observed_dtype(node: Node) -> Optional[str]:
    meta = node.meta.get("tensor_meta")
    if isinstance(meta, TensorMetadata):
        return _numpy_name(meta.dtype)
    return None


def _is_explicit_cast(node: Node) -> bool:
    return opinfo.key_of(node) in opinfo.CASTS


@dataclass(frozen=True)
class UpcastRecord:
    """One detected silent widening; *node_index* is its graph step."""

    node_index: int
    node_name: str
    input_dtypes: tuple[str, ...]
    result_dtype: str


@dataclass(frozen=True)
class DtypeResult:
    """Dtype facts plus the flagged upcasts.

    Attributes:
        dtypes: per node, the abstract dtype name (``None`` =
            unknown / non-tensor).
        upcasts: every silent ``float64`` widening found.
    """

    dtypes: dict[Node, Optional[str]]
    upcasts: tuple[UpcastRecord, ...]


@register_analysis
class DtypePromotionAnalysis(Analysis):
    name = "dtype"

    def compute(self, gm: GraphModule, ctx: AnalysisContext) -> DtypeResult:
        nodes = list(gm.graph.nodes)
        order = {n: i for i, n in enumerate(nodes)}

        def transfer(n: Node, fact) -> Optional[str]:
            observed = _observed_dtype(n)
            if observed is not None:
                return observed
            inputs = [fact(a) for a in n.all_input_nodes]
            known = [d for d in inputs if d is not None]
            if not known or len(known) != len(inputs):
                return None
            try:
                result = known[0]
                for d in known[1:]:
                    result = np.promote_types(result, d).name
                return result
            except TypeError:
                return None

        facts = sweep(nodes, transfer, direction="forward")

        upcasts: list[UpcastRecord] = []
        for n in nodes:
            if _observed_dtype(n) != "float64" or _is_explicit_cast(n):
                continue
            input_nodes = n.all_input_nodes
            if not input_nodes:
                continue  # a float64 leaf (placeholder/get_attr) is deliberate
            in_dtypes = [facts[a] for a in input_nodes]
            if any(d is None for d in in_dtypes):
                continue  # unknown input: stay quiet rather than guess
            if any(d == "float64" for d in in_dtypes):
                continue  # widening came in from an input; blame its producer
            upcasts.append(UpcastRecord(
                node_index=order[n],
                node_name=n.name,
                input_dtypes=tuple(in_dtypes),
                result_dtype="float64",
            ))

        return DtypeResult(
            dtypes=facts,
            upcasts=tuple(upcasts),
        )
