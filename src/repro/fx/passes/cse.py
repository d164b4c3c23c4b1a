"""Common subexpression elimination.

The paper (§5.5) notes that general control flow makes CSE "more
complicated to implement"; on the basic-block fx IR it is a single forward
sweep with a value-numbering table.  Because the IR is functional (§5.6),
``call_function`` / ``call_method`` / ``get_attr`` nodes are eligible —
*unless* the purity analysis classifies them as mutating (an in-place
``add_``, an ``out=`` destination, ``operator.setitem``): two separate
in-place updates are two effects, and merging them into one changes
program behaviour even though the value computed is identical.
``call_module`` nodes are never deduplicated: modules may hide state
(BatchNorm in training mode, Dropout).  A call target is keyed by its
``module.qualname`` when that resolves to the same object, else by its
``id()``, which is sound here because the graph keeps every target alive
for the sweep.
"""

from __future__ import annotations

from typing import Any

from ..analysis.purity import purity
from ..graph import _hash_token_for_object
from ..graph_module import GraphModule
from ..node import Node

__all__ = ["eliminate_common_subexpressions"]


def _freeze(a: Any) -> Any:
    """Turn an argument structure into a hashable value-number key."""
    if isinstance(a, Node):
        return ("node", id(a))
    if isinstance(a, (tuple, list)):
        return (type(a).__name__,) + tuple(_freeze(x) for x in a)
    if isinstance(a, dict):
        return ("dict",) + tuple(sorted((k, _freeze(v)) for k, v in a.items()))
    if isinstance(a, slice):
        return ("slice", _freeze(a.start), _freeze(a.stop), _freeze(a.step))
    try:
        hash(a)
    except TypeError:
        return ("unhashable", id(a))
    return a


def eliminate_common_subexpressions(gm: GraphModule) -> int:
    """Deduplicate identical pure operations in ``gm.graph``.

    Args:
        gm: the module to optimize (mutated in place; recompiled).

    Returns:
        Number of nodes eliminated.
    """
    eligible = {"call_function", "call_method", "get_attr"}
    effects = purity(gm).effects
    table: dict[Any, Node] = {}
    removed = 0
    for node in list(gm.graph.nodes):
        if node.op not in eligible:
            continue
        if effects[node].mutating:
            # Each mutating node is its own effect: never a dedupe
            # source or victim.
            continue
        key = (
            node.op,
            node.target if isinstance(node.target, str)
            else _hash_token_for_object(node.target),
            _freeze(node.args),
            _freeze(node.kwargs),
        )
        existing = table.get(key)
        if existing is None:
            table[key] = node
            continue
        node.replace_all_uses_with(existing)
        gm.graph.erase_node(node)
        removed += 1
    if removed:
        gm.recompile()
    return removed
