"""Shape propagation (§6.3): interpret the graph and record observed
tensor metadata on every node.

Because the IR is a basic-block program, shape analysis is a single
forward sweep with a transfer function — no lattice, join, or fixpoint
reasoning required (§5.5).  The canonical implementation here follows
``torch.fx.passes.shape_prop``: run the graph on example inputs and stamp
``node.meta['tensor_meta']`` with what flowed by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ...tensor import DType, Size, Tensor
from ..graph_module import GraphModule
from ..interpreter import Interpreter
from ..node import Node, map_aggregate
from ..state import forget

__all__ = ["TensorMetadata", "ShapeProp", "extract_tensor_metadata"]


@dataclass(frozen=True)
class TensorMetadata:
    """Shape/dtype facts about one tensor value.

    Attributes:
        shape: the observed :class:`~repro.tensor.Size`.
        dtype: element type.
        numel: element count (denormalized for convenience in cost models).
        nbytes: storage footprint in bytes.
    """

    shape: Size
    dtype: DType
    numel: int
    nbytes: int

    def hash_token(self) -> str:
        """What ``Graph.structural_hash(include_meta=True)`` feeds."""
        return f"{tuple(self.shape)}:{self.dtype}"


def extract_tensor_metadata(t: Tensor) -> TensorMetadata:
    return TensorMetadata(shape=t.shape, dtype=t.dtype, numel=t.numel(), nbytes=t.nbytes())


class ShapeProp(Interpreter):
    """Run the module on example inputs, recording per-node metadata.

    After ``ShapeProp(gm).propagate(*inputs)``, every node carries:

    * ``meta['tensor_meta']`` — :class:`TensorMetadata` (or a nested
      structure of them for tuple-valued nodes);
    * ``meta['type']`` — the Python type of the node's value.
    """

    def run_node(self, n: Node) -> Any:
        result = super().run_node(n)

        def meta_of(obj: Any) -> Any:
            return extract_tensor_metadata(obj) if isinstance(obj, Tensor) else obj

        meta = map_aggregate(result, meta_of)
        if isinstance(meta, TensorMetadata) or _contains_meta(meta):
            n.meta["tensor_meta"] = meta
        n.meta["type"] = type(result)
        return result

    def propagate(self, *args) -> Any:
        """Interpret the graph with *args* and return the output value."""
        result = self.run(*args)
        # The program really ran, so a mutating node (a training-mode
        # BatchNorm, ``add_`` on a ``get_attr``'d buffer) has written
        # module state in place: a compile in progress must not keep
        # digests of what such nodes can reach.
        forget(self._writable_state())
        return result

    def _writable_state(self) -> Iterator[Any]:
        """The arrays this graph's mutating nodes can write: every buffer
        and every tensor the graph reads by ``get_attr``."""
        graph = self.module.graph
        if not any(n.op not in ("placeholder", "output") and n.is_impure()
                   for n in graph.nodes):
            return
        for buf in self.module.buffers():
            yield buf.data
        for n in graph.nodes:
            if n.op == "get_attr":
                value = self.fetch_attr(n.target)
                if isinstance(value, Tensor):
                    yield value.data


def _contains_meta(obj: Any) -> bool:
    if isinstance(obj, TensorMetadata):
        return True
    if isinstance(obj, (tuple, list)):
        return any(_contains_meta(x) for x in obj)
    if isinstance(obj, dict):
        return any(_contains_meta(v) for v in obj.values())
    return False
