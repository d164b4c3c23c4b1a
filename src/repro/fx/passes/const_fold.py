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

import functools
from typing import Callable

import numpy as np

from ...tensor import Tensor
from .. import opinfo
from ..graph import _resolve_attr
from ..graph_module import GraphModule
from ..node import Node, map_aggregate, map_arg
from ..state import _UNPICKLABLE, derive, unbind
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
        n for n in gm.graph.nodes if n in constant
        and n.op in _FOLDABLE_OPS and any(u not in constant for u in n.users)
    ]
    if not frontier:
        return 0

    # 3. evaluate the frontier values once, as one derivation of the arrays
    # the constant nodes read: a transform cache keyed on shapes replays it
    # on another model's weights.  The nodes, as steps with every module,
    # tensor and target they read in hand (placeholders never feed
    # constant subgraphs):
    steps: list[tuple] = []
    index: dict[Node, _Step] = {}
    for node in gm.graph.nodes:
        if node in constant:
            index[node] = _Step(len(steps))
            target = _resolve_attr(gm, node.target) \
                if node.op in ("get_attr", "call_module") else node.target
            steps.append((node.op, target, *map_arg(
                (node.args, node.kwargs), index.__getitem__)))
    program = (steps, [index[n].index for n in frontier])
    try:
        rebuild, arrays = unbind(program)
    except _UNPICKLABLE:   # a lambda target: evaluated, not derived
        values = _evaluate(lambda _: program)
    else:
        values = derive(functools.partial(_evaluate, rebuild), *arrays)

    # 4. rewrite: each frontier node becomes a get_attr to a new buffer
    folded = 0
    for i, (node, value) in enumerate(zip(frontier, values)):
        if value is None:
            continue   # no tensor
        value = Tensor._wrap(value)
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
        gm.recompile()
        gm.delete_all_unused_submodules()
    return removed


class _Step:
    """A reference to an earlier step's value, in a step's arguments."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


def _evaluate(rebuild: Callable, *arrays: np.ndarray) -> tuple:
    """The frontier's arrays (``None`` where a value is no tensor): the
    program ``rebuild(arrays)`` gives run as the Interpreter runs nodes."""
    steps, frontier = rebuild(arrays)
    env: list = []
    for op, target, args, kwargs in steps:
        args, kwargs = map_aggregate(
            (args, kwargs), lambda a: env[a.index] if type(a) is _Step else a)
        if op == "get_attr":
            env.append(target)
        elif op == "call_method":
            env.append(getattr(args[0], target)(*args[1:], **kwargs))
        else:
            env.append(target(*args, **kwargs))
    return tuple(env[i].data if isinstance(env[i], Tensor) else None
                 for i in frontier)
