"""The ``"eager"`` identity backend.

Supports everything and compiles nothing: ``to_backend(model, "eager")``
returns the captured (pass-cleaned) module running on the interpreter-free
generated ``forward``.  Useful as a baseline in differential tests, as a
template for new backends, and as the fallback executor the partitioner's
property tests exercise with random support predicates.
"""

from __future__ import annotations

from ...nn import Module
from ..graph_module import GraphModule
from ..node import Node
from .base import Backend

__all__ = ["EagerBackend"]


class EagerBackend(Backend):
    name = "eager"
    respects_effects = True  # it *is* eager execution

    def is_node_supported(self, node: Node, modules) -> bool:
        return True

    def compile_subgraph(self, gm: GraphModule) -> Module:
        return gm
