"""Common subexpression elimination.

The paper (§5.5) notes that general control flow makes CSE "more
complicated to implement"; on the basic-block fx IR it is a single forward
sweep with a value-numbering table.  Because the IR is functional (§5.6),
``call_function`` / ``call_method`` / ``get_attr`` nodes are eligible —
*unless* the purity analysis classifies them as mutating (an in-place
``add_``, an ``out=`` destination, ``operator.setitem``): two separate
in-place updates are two effects, and merging them into one changes
program behaviour even though the value computed is identical.
``call_module`` nodes are *not* deduplicated by default: modules may
hide state (BatchNorm in training mode, Dropout).
"""

from __future__ import annotations

import sys
from types import FunctionType
from typing import Any

from ..analysis.engine import AnalysisContext
from ..graph import _hash_token_for_object
from ..graph_module import GraphModule
from ..node import Node

__all__ = ["eliminate_common_subexpressions"]


def _target_key(target: Any) -> Any:
    """Value-number key for a non-string call target.

    Keys by the target's resolvable ``module.qualname`` (the same
    convention ``PassManager`` uses), so two *equal-but-distinct*
    callables — e.g. the same function before and after a module reload —
    value-number identically.  For a function whose module now holds a
    different object, the key is still granted when the resolved function
    is code-identical (same bytecode/constants/defaults, no closure).
    Unresolvable callables fall back to ``id()``, which is safe here —
    unlike a persistent cache — because the graph keeps every target
    alive for the duration of the sweep.
    """
    token = _hash_token_for_object(target)
    if not token.startswith("obj:"):
        return token
    if isinstance(target, FunctionType):
        name = getattr(target, "__qualname__", "")
        mod = getattr(target, "__module__", "")
        if mod and name and "<locals>" not in name:
            resolved: Any = sys.modules.get(mod)
            for atom in name.split("."):
                resolved = getattr(resolved, atom, None)
            try:
                if (
                    isinstance(resolved, FunctionType)
                    and resolved.__code__.co_code == target.__code__.co_code
                    and resolved.__code__.co_consts == target.__code__.co_consts
                    and resolved.__code__.co_names == target.__code__.co_names
                    and resolved.__code__.co_flags == target.__code__.co_flags
                    and resolved.__defaults__ == target.__defaults__
                    and resolved.__kwdefaults__ == target.__kwdefaults__
                    and resolved.__closure__ is None
                    and target.__closure__ is None
                ):
                    return f"f:{mod}.{name}"
            except Exception:
                pass
    return ("id", id(target))


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


def eliminate_common_subexpressions(
    gm: GraphModule, dedupe_modules: bool = False
) -> int:
    """Deduplicate identical pure operations in ``gm.graph``.

    Args:
        gm: the module to optimize (mutated in place; recompiled).
        dedupe_modules: also merge identical ``call_module`` calls — only
            safe if every involved module is stateless at inference.

    Returns:
        Number of nodes eliminated.
    """
    eligible = {"call_function", "call_method", "get_attr"}
    if dedupe_modules:
        eligible.add("call_module")
    effects = AnalysisContext(gm).get("purity").effects
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
            node.target if isinstance(node.target, str) else _target_key(node.target),
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
