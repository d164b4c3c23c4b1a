"""Constant folding over the fx IR (mirrors ``torch.fx.experimental.const_fold``).

Any maximal subgraph whose leaves are all ``get_attr`` nodes or immediate
values computes the same result on every call; this pass evaluates those
subgraphs once at transform time and replaces them with a single
``get_attr`` to a precomputed buffer.  Because the IR is functional
(§5.6), "depends only on constants" is a structural property; the op
table adds what it is not: a call that writes state (a training batch
norm, a training dropout) runs on every call, and a module folds only when
the table knows what its ``forward`` computes.

Typical win: weight-preprocessing chains (transposes, concatenations,
normalization of weights) move from every forward pass to build time.
"""

from __future__ import annotations

from typing import Any

from ...tensor import Tensor
from .. import opinfo
from ..graph_module import GraphModule
from ..interpreter import Interpreter
from ..node import Node
from .shape_prop import extract_tensor_metadata

__all__ = ["fold_constants"]

_FOLDABLE_OPS = ("call_function", "call_method", "call_module")


def fold_constants(gm: GraphModule) -> int:
    """Fold constant subgraphs in ``gm`` (in place).

    Returns:
        The number of nodes replaced by precomputed constants.
    """
    # 1. mark constant nodes: get_attr, or foldable op with all-constant deps
    constant: set[Node] = set()
    for node in gm.graph.nodes:
        if node.op == "get_attr":
            constant.add(node)
        elif node.op in _FOLDABLE_OPS:
            deps = node.all_input_nodes
            if not deps:
                continue  # no tensor inputs: leave alone (may be factory-ish)
            if all(d in constant for d in deps) and not node.is_impure() and (
                    node.op != "call_module" or opinfo.entry_of(node, gm) is not None):
                constant.add(node)

    # 2. the fold frontier: constant nodes with at least one non-constant
    # user (their values must be materialized); constant nodes used only
    # by other constant nodes disappear entirely.
    frontier = [
        n for n in constant
        if n.op in _FOLDABLE_OPS and any(u not in constant for u in n.users)
    ]
    if not frontier:
        return 0

    # 3. evaluate the frontier values once with the Interpreter's
    # opcode handlers (placeholders never feed constant subgraphs)
    interp = Interpreter(gm, garbage_collect_values=False)
    values: dict[Node, Any] = {}
    env: dict[Node, Any] = {}
    for node in gm.graph.nodes:
        if node not in constant:
            continue
        args, kwargs = _fetch(node, env)
        env[node] = getattr(interp, node.op)(node.target, args, kwargs)
        if node in frontier:
            values[node] = env[node]

    # 4. rewrite: each frontier node becomes a get_attr to a new buffer
    folded = 0
    for i, node in enumerate(frontier):
        value = values[node]
        if not isinstance(value, Tensor):
            continue
        name = f"_folded_constant{i}"
        gm.register_buffer(name, value)
        with gm.graph.inserting_before(node):
            const_node = gm.graph.get_attr(name)
        # The value is in hand: the new node says what it holds, as every
        # node it replaces did if shapes were propagated (fusion reads it).
        const_node.meta["tensor_meta"] = extract_tensor_metadata(value)
        const_node.meta["type"] = type(value)
        node.replace_all_uses_with(const_node)
        folded += 1

    removed = 0
    if folded:
        before = len(gm.graph)
        gm.graph.eliminate_dead_code()
        removed = before - len(gm.graph)
        gm.graph.lint()
        gm.recompile()
        gm.delete_all_unused_submodules()
    return removed


def _fetch(node: Node, env: dict[Node, Any]) -> tuple[tuple, dict]:
    from ..node import map_arg

    args = map_arg(node.args, lambda n: env[n])
    kwargs = map_arg(node.kwargs, lambda n: env[n])
    return args, kwargs
